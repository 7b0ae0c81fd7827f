"""Classical probabilistic transport for natural systems H = p^2/2m(q) + V(q):
Legendre transform, characteristic (Hamilton) flow, density transport driven
by a global multiplier field S, and the residual checks used to validate
time-reversal and the irrelevance of density-gradient couplings in the
classical balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidSpecError,
    InvalidStateError,
    NumericalFailureError,
    StepRejectedError,
)
from .numerics import Grid1D, _support_mask, _uniform_steps, build_grid, grad_central

__all__ = [
    "NaturalSystemSpec",
    "PhaseState",
    "FlowResult",
    "ClassicalEnsemble",
    "legendre_hamiltonian",
    "hamilton_flow",
    "transport_density",
    "classical_transport_step",
    "hj_residual",
    "hj_residual_series",
    "continuity_residual_series",
    "lagrangian_equivalence_check",
    "normalize_density",
]

_FD_STEP = float(np.cbrt(np.finfo(float).eps))
_SUPPORT_BUFFER = 12  # cells added on each side of the support window


def _eval_on(fn: Callable, q) -> np.ndarray:
    """Evaluate a scalar-or-vector callback on q, broadcasting constants."""
    out = np.asarray(fn(q), dtype=float)
    if out.shape != np.shape(q):
        out = np.full(np.shape(q), out) if np.shape(q) else float(out)
    return out


def _fd_grad(fn: Callable) -> Callable:
    def dfn(q):
        q = np.asarray(q, dtype=float)
        step = _FD_STEP * np.maximum(1.0, np.abs(q))
        return (np.asarray(fn(q + step), dtype=float) - np.asarray(fn(q - step), dtype=float)) / (2.0 * step)

    return dfn


@dataclass(frozen=True)
class NaturalSystemSpec:
    """Positive mass profile m(q) and potential V(q) of a natural system.

    Analytic gradients are optional; central finite differences are used
    when they are not supplied.
    """

    mass: Callable
    potential: Callable
    mass_grad: Optional[Callable] = None
    potential_grad: Optional[Callable] = None

    def mass_at(self, q):
        m = _eval_on(self.mass, q)
        a = np.asarray(m)
        # m <= 0 anywhere, or NaN/inf at a finite q (at a non-finite q a flow has blown up)
        if not 0.0 < a.min() <= a.max() < np.inf and np.any((a <= 0) | (np.isfinite(q) & ~(a < np.inf))):
            raise InvalidSpecError("mass m(q) must be finite and > 0")
        return m

    def potential_at(self, q):
        v = _eval_on(self.potential, q)
        if not np.isfinite(v).all():
            raise InvalidSpecError("potential V(q) must be finite")
        return v


@dataclass(frozen=True)
class PhaseState:
    q: float
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.q) and np.isfinite(self.p)):
            raise InvalidStateError("phase-space point must be finite")


def legendre_hamiltonian(spec: NaturalSystemSpec, q: float, p: float) -> float:
    """H(q, p) = p^2 / (2 m(q)) + V(q).

    For a positive mass the velocity-momentum map is invertible, so this is
    the exact Legendre transform of the quadratic kinetic Lagrangian.
    """
    if not (np.isfinite(q) and np.isfinite(p)):
        raise InvalidArgumentError("q and p must be finite")
    m = float(spec.mass_at(q))
    return float(p * p / (2.0 * m) + spec.potential_at(q))


@dataclass(frozen=True)
class FlowResult:
    """Trajectory of the characteristic flow; (n_steps + 1, 2) [q, p] rows."""

    states: np.ndarray
    dt: float
    escaped: bool = False
    escape_step: Optional[int] = None

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.states.shape[0])


def hamilton_flow(
    spec: NaturalSystemSpec,
    state: PhaseState,
    dt: float,
    n_steps: int,
    q_range: Optional[tuple] = None,
) -> FlowResult:
    """Integrate dq/dt = dH/dp, dp/dt = -dH/dq with RK4.

    The stages run on Python floats, in the operation order of
    ``numerics.rk4_step`` and with its checks, so the states are those of
    ``rk4_step`` on [q, p] arrays bit for bit: a non-finite derivative raises
    NumericalFailureError, and a mass that ``mass_at`` rejects InvalidSpecError.
    Missing gradients are central differences (``_fd_grad``).

    If the trajectory leaves ``q_range`` (or stops being finite) the run is
    reported as escaped rather than raising; the trajectory is truncated at
    the escape step.  Raises InvalidArgumentError unless n_steps is an
    integer >= 0 and dt * n_steps is finite.
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise InvalidArgumentError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    if not np.isfinite(dt * n_steps):
        raise InvalidArgumentError("dt * n_steps must be finite")
    mass = spec.mass
    dmass = spec.mass_grad if spec.mass_grad is not None else _fd_grad(spec.mass)
    dpot = spec.potential_grad if spec.potential_grad is not None else _fd_grad(spec.potential)

    def rhs(q, p):
        x = np.float64(q)  # what the callbacks saw on the array path
        m = float(mass(x))
        if not 0.0 < m < inf and (m <= 0 or isfinite(q)):  # the rule of mass_at
            raise InvalidSpecError("mass m(q) must be finite and > 0")
        dm = float(dmass(x))
        dv = float(dpot(x))
        try:
            return p / m, p * p * dm / (2.0 * m * m) - dv
        except ZeroDivisionError:  # 2 m^2 underflowed to 0: divide as numpy does
            return p / m, float(np.float64(p * p * dm) / (2.0 * m * m)) - dv

    half, sixth = 0.5 * dt, dt / 6.0
    out = np.empty((n_steps + 1, 2))
    q, p = float(state.q), float(state.p)
    out[0] = q, p
    for k in range(1, n_steps + 1):
        dq1, dp1 = rhs(q, p)
        dq2, dp2 = rhs(q + half * dq1, p + half * dp1)
        dq3, dp3 = rhs(q + half * dq2, p + half * dp2)
        dq4, dp4 = rhs(q + dt * dq3, p + dt * dp3)
        if not (isfinite(dq1) and isfinite(dp1) and isfinite(dq2) and isfinite(dp2)
                and isfinite(dq3) and isfinite(dp3) and isfinite(dq4) and isfinite(dp4)):
            raise NumericalFailureError("non-finite derivative in rk4_step")
        q = q + sixth * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
        p = p + sixth * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4)
        out[k, 0] = q
        out[k, 1] = p
        bad = not (isfinite(q) and isfinite(p))
        if q_range is not None and not bad:
            bad = not (q_range[0] <= q <= q_range[1])
        if bad:
            return FlowResult(out[: k + 1].copy(), dt, escaped=True, escape_step=k)
    return FlowResult(out, dt)


def normalize_density(grid: Grid1D, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    total = grid.h * float(np.sum(rho))
    if total <= 0:
        raise InvalidStateError("density has nonpositive total mass")
    return rho / total


_RHO_NEG_TOL = 1e-14  # rounding below zero that a density state accepts and clips


def _validate_density_state(state, field: str):
    """Check a (grid, rho, multiplier ``field``) state: both on the grid, the
    multiplier finite, rho nonnegative and normalised (a NaN fails both);
    stores rho clipped at 0."""
    rho = np.asarray(state.rho, dtype=float)
    lam = np.asarray(getattr(state, field), dtype=float)
    if rho.shape != (state.grid.n,) or lam.shape != (state.grid.n,):
        raise InvalidStateError(f"rho and {field} must match the grid")
    if not np.isfinite(lam).all():
        raise InvalidStateError(f"{field} must be finite")
    if (rho < -_RHO_NEG_TOL).any():
        raise InvalidStateError("density must be nonnegative")
    total = state.grid.h * float(rho.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidStateError(f"density not normalised: h*sum(rho) = {total!r}")
    object.__setattr__(state, "rho", np.maximum(rho, 0.0))
    object.__setattr__(state, field, lam)


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Density rho plus the global multiplier field S on a shared grid."""

    grid: Grid1D
    rho: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        _validate_density_state(self, "S")


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def upwind_density_update(grid: Grid1D, rho: np.ndarray, v_face: np.ndarray, dt: float) -> np.ndarray:
    """Conservative upwind step with minmod-limited face reconstruction.

    Second order where the density is smooth, first order at extrema; the
    limiter keeps the update monotone.  Telescoping fluxes with no-flux
    walls keep h*sum(rho) exact to roundoff.
    """
    drho = np.zeros(rho.size)
    drho[1:-1] = _minmod(rho[1:-1] - rho[:-2], rho[2:] - rho[1:-1])
    nu = v_face * dt / grid.h
    r_left = rho[:-1] + 0.5 * (1.0 - nu) * drho[:-1]
    r_right = rho[1:] - 0.5 * (1.0 + nu) * drho[1:]
    flux = (dt / grid.h) * np.where(v_face > 0.0, v_face * r_left, v_face * r_right)
    new = rho.copy()
    new[:-1] -= flux
    new[1:] += flux
    return new


def _reject_negative(rho: np.ndarray, where: str, offset: int):
    """Reject a step that leaves rho (grid index ``offset`` onwards) below
    what a density state accepts: even at CFL <= 1 the upwind step can
    overdraw a cell whose two faces both carry density out."""
    low = int(rho.argmin())
    if rho[low] < -_RHO_NEG_TOL:
        raise StepRejectedError(
            f"negative density ({where})", location=offset + low, diagnostics={"rho_min": float(rho[low])}
        )


def _windowed_upwind(grid: Grid1D, rho: np.ndarray, lam: np.ndarray, m_face: np.ndarray,
                     lo: int, hi: int, dt: float) -> np.ndarray:
    """Upwind density step with the velocity dH/dp = (dlam/dq)/m (``m_face``
    is m at ``grid.midpoints``) on the faces between nodes lo..hi and zero
    outside; raises StepRejectedError when its CFL number there exceeds 1
    or is NaN.

    The step is window-local: the velocity is formed on the active faces
    only, and ``upwind_density_update`` runs on nodes lo-1..hi+1 (the
    limiter's neighbours) with the two edge faces at zero velocity.  Every
    other node is copied.  The result equals a whole-grid update with the
    velocity masked outside the window.
    """
    a, b = max(lo - 1, 0), min(hi + 1, grid.n - 1)
    v = np.zeros(b - a)  # faces a..b-1; the edge faces a < lo and hi < b stay at 0
    v[lo - a : hi - a] = (lam[lo + 1 : hi + 1] - lam[lo:hi]) / grid.h / m_face[lo:hi]
    speed = np.abs(v)
    k = int(speed.argmax())
    cfl = float(speed[k]) * dt / grid.h
    if not cfl <= 1.0:
        raise StepRejectedError(
            f"CFL violation: max |v| dt / h = {cfl:.3g} > 1",
            location=a + k,
            diagnostics={"cfl": cfl},
        )
    new = rho.copy()
    new[a : b + 1] = upwind_density_update(grid, rho[a : b + 1], v, dt)
    return new


def _godunov_hj_update(grid: Grid1D, spec: NaturalSystemSpec, S: np.ndarray, dt: float) -> np.ndarray:
    """Upwind (Godunov) step of dS/dt + (dS/dq)^2/2m + V = 0 for convex H."""
    h = grid.h
    slope = (S[1:] - S[:-1]) / h
    dm = np.empty(S.size)
    dp = np.empty(S.size)
    dm[1:] = slope
    dp[:-1] = slope
    dm[0] = dp[0]
    dp[-1] = dm[-1]
    p2 = np.maximum(np.maximum(dm, 0.0) ** 2, np.minimum(dp, 0.0) ** 2)
    q = grid.nodes
    return S - dt * (p2 / (2.0 * spec.mass_at(q)) + spec.potential_at(q))


def _support_window(rho: np.ndarray, floor_frac: float) -> tuple:
    """Index window [lo, hi] covering {rho > floor} dilated by _SUPPORT_BUFFER."""
    idx = _support_mask(rho, floor_frac).nonzero()[0]
    lo = max(int(idx[0]) - _SUPPORT_BUFFER, 0)
    hi = min(int(idx[-1]) + _SUPPORT_BUFFER, rho.size - 1)
    return lo, hi


class _RunContext:
    """What one run computes once for its steps: m(q) at ``grid.midpoints``
    and ``grid.nodes`` (None if unused), sampled through ``spec.mass_at``; and
    ``window``, the bulk window ``madelung_step`` found on the state it last
    returned (``last``), so the next step need not scan that density again."""

    def __init__(self, m_face: np.ndarray, m_node: Optional[np.ndarray]):
        self.m_face, self.m_node = m_face, m_node
        self.last = self.window = None


def classical_transport_step(
    grid: Grid1D,
    rho: np.ndarray,
    S: np.ndarray,
    spec: NaturalSystemSpec,
    dt: float,
    support_floor: Optional[float] = None,
    _run: Optional[_RunContext] = None,
):
    """Shared kernel: one coupled (rho, S) step of the classical balance.

    With ``support_floor`` set, the multiplier equation is advanced only on
    the support window {rho > floor * max(rho)} (dilated by a fixed 12
    cells on each side) and extended quadratically outside it.  The
    equations only hold where rho > 0, and restricting them there keeps
    the multiplier gradients bounded by the ensemble's physical momentum
    range even while the density passes through a focus.

    ``_run`` is the calling run's ``_RunContext``; the step reads m(q) at
    the faces from it instead of sampling the spec (same bits).

    Raises StepRejectedError when the CFL number exceeds 1 on active faces,
    or when the step leaves a density below -1e-14 (``location`` is the
    most negative cell, ``diagnostics["rho_min"]`` its value).
    """
    if support_floor is None:
        lo, hi = 0, grid.n - 1
    else:
        lo, hi = _support_window(rho, support_floor)
    m_face = _run.m_face if _run is not None else spec.mass_at(grid.midpoints)
    # the whole-grid window keeps every face, so the masked velocity equals
    # the unmasked one bit for bit
    rho_new = _windowed_upwind(grid, rho, S, m_face, lo, hi, dt)
    _reject_negative(rho_new[lo : hi + 1], "after step", lo)  # only lo..hi moved
    if support_floor is None:
        return rho_new, _godunov_hj_update(grid, spec, S, dt)

    h = grid.h
    S_new = S.copy()
    if hi - lo + 1 >= 3:
        # q_min + i*h is grid.nodes[i] bit for bit, without building the nodes
        sub = build_grid(grid.q_min + lo * h, grid.q_min + hi * h, hi - lo + 1)
        S_new[lo : hi + 1] = _godunov_hj_update(sub, spec, S[lo : hi + 1], dt)
    # quadratic extension outside the window (matching edge gradient and
    # curvature): the multiplier is local to the support, outside values
    # only seed cells the window grows into, and keeping the curvature
    # avoids kicking the density when the window turns around
    if lo > 0:
        gl = (S_new[lo + 1] - S_new[lo]) / h
        cl = (S_new[lo + 2] - 2.0 * S_new[lo + 1] + S_new[lo]) / (h * h) if lo + 2 < grid.n else 0.0
        d = h * np.arange(lo, 0, -1)
        S_new[:lo] = S_new[lo] - gl * d + 0.5 * cl * d * d
    if hi < grid.n - 1:
        gr = (S_new[hi] - S_new[hi - 1]) / h
        cr = (S_new[hi] - 2.0 * S_new[hi - 1] + S_new[hi - 2]) / (h * h) if hi - 2 >= 0 else 0.0
        d = h * np.arange(1, grid.n - hi)
        S_new[hi + 1 :] = S_new[hi] + gr * d + 0.5 * cr * d * d
    return rho_new, S_new


def transport_density(
    ens: ClassicalEnsemble,
    spec: NaturalSystemSpec,
    dt: float,
    support_floor: Optional[float] = None,
) -> ClassicalEnsemble:
    """One step of the coupled global system

        drho/dt + d/dq (rho dS/dq / m) = 0,    dS/dt + H(q, dS/dq) = 0.

    ``support_floor`` switches on the support-restricted multiplier update
    (see classical_transport_step); omit it to advance both fields on the
    whole grid.
    """
    rho_new, S_new = classical_transport_step(
        ens.grid, ens.rho, ens.S, spec, dt, support_floor=support_floor
    )
    return ClassicalEnsemble(ens.grid, rho_new, S_new)


def transport_run(
    ens: ClassicalEnsemble,
    spec: NaturalSystemSpec,
    t_final: float,
    dt: float,
    support_floor: Optional[float] = None,
    observer=None,
) -> ClassicalEnsemble:
    """Advance the ensemble to t_final in uniform steps of (at most) dt.

    ``observer(t, ens)`` is called after every step when given.  The run
    samples m(q) at the faces once, before the first step, into one
    ``_RunContext`` that every ``classical_transport_step`` reads.  Raises
    InvalidArgumentError unless t_final and dt are finite and > 0.
    """
    n_steps, dt = _uniform_steps(t_final, dt)
    run = _RunContext(spec.mass_at(ens.grid.midpoints), None)
    t = 0.0
    for _ in range(n_steps):
        rho, S = classical_transport_step(ens.grid, ens.rho, ens.S, spec, dt,
                                          support_floor=support_floor, _run=run)
        ens = ClassicalEnsemble(ens.grid, rho, S)
        t += dt
        if observer is not None:
            observer(t, ens)
    return ens


def hj_residual(ens: ClassicalEnsemble, spec: NaturalSystemSpec, dSdt: np.ndarray) -> np.ndarray:
    """Pointwise residual dS/dt + H(q, dS/dq) with a central gradient."""
    dSdt = np.asarray(dSdt, dtype=float)
    if dSdt.shape != (ens.grid.n,):
        raise InvalidArgumentError("dSdt must match the grid")
    q = ens.grid.nodes
    grad = grad_central(ens.S, ens.grid.h)
    return dSdt + grad**2 / (2.0 * spec.mass_at(q)) + spec.potential_at(q)


def hj_residual_series(grid: Grid1D, spec: NaturalSystemSpec, S_series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Residual of the S-equation on stored snapshots, centered in time.

    Returns an (nt - 2, n) array aligned with times[1:-1].
    """
    S_series = np.asarray(S_series, dtype=float)
    times = np.asarray(times, dtype=float)
    q = grid.nodes
    m = spec.mass_at(q)
    v = spec.potential_at(q)
    out = np.empty((S_series.shape[0] - 2, grid.n))
    for k in range(1, S_series.shape[0] - 1):
        dSdt = (S_series[k + 1] - S_series[k - 1]) / (times[k + 1] - times[k - 1])
        grad = grad_central(S_series[k], grid.h)
        out[k - 1] = dSdt + grad**2 / (2.0 * m) + v
    return out


def continuity_residual_series(
    grid: Grid1D,
    spec: NaturalSystemSpec,
    rho_series: np.ndarray,
    lam_series: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Residual of drho/dt + d/dq(rho dlam/dq / m) on stored snapshots."""
    rho_series = np.asarray(rho_series, dtype=float)
    lam_series = np.asarray(lam_series, dtype=float)
    times = np.asarray(times, dtype=float)
    q = grid.nodes
    m = spec.mass_at(q)
    out = np.empty((rho_series.shape[0] - 2, grid.n))
    for k in range(1, rho_series.shape[0] - 1):
        drdt = (rho_series[k + 1] - rho_series[k - 1]) / (times[k + 1] - times[k - 1])
        flux = rho_series[k] * grad_central(lam_series[k], grid.h) / m
        out[k - 1] = drdt + grad_central(flux, grid.h)
    return out


def lagrangian_equivalence_check(
    ens: ClassicalEnsemble,
    spec: NaturalSystemSpec,
    d_rho: Callable,
) -> float:
    """Max discrepancy between density updates with and without the
    d(rho)-coupling routed through the multiplier gradient.

    In the classical balance the momentum entering the velocity is
    (dlam/dq - d(rho) drho/dq) while the multiplier itself shifts by the
    antiderivative of d, so the two contributions cancel identically and
    the returned discrepancy is zero to rounding.  Both updates take one
    step of half the CFL limit of the initial velocity.
    """
    grid = ens.grid
    v0 = np.diff(ens.S) / grid.h / spec.mass_at(grid.midpoints)
    dt = 0.5 * grid.h / max(float(np.max(np.abs(v0))), 1e-12)
    rho_a, _ = classical_transport_step(grid, ens.rho, ens.S, spec, dt)

    drho_face = np.diff(ens.rho) / grid.h
    rho_face = 0.5 * (ens.rho[:-1] + ens.rho[1:])
    shift = np.asarray(d_rho(rho_face), dtype=float) * drho_face
    lam_grad_face = np.diff(ens.S) / grid.h + shift
    p_face = lam_grad_face - shift
    v_face = p_face / spec.mass_at(grid.midpoints)
    rho_b = upwind_density_update(grid, ens.rho, v_face, dt)
    return float(np.max(np.abs(rho_a - rho_b)))
