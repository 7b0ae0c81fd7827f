"""Classical probabilistic transport for natural systems H = p^2/2m(q) + V(q):
characteristic (Hamilton) flow, density transport driven by a global
multiplier field S, and the Hamilton-Jacobi and continuity residuals on
stored snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from typing import Callable, Optional

import numpy as np

from .errors import (InvalidArgumentError, InvalidSpecError, InvalidStateError, NumericalFailureError,
                     StepRejectedError)
from .numerics import Grid1D, _centered_rate, _check_positive, _support_mask, _uniform_steps, grad_central
from .potentials import _fd, _sample

__all__ = [
    "NaturalSystemSpec",
    "PhaseState",
    "ClassicalEnsemble",
    "hamilton_flow",
    "transport_density",
    "classical_transport_step",
    "hj_residual_series",
    "continuity_residual_series",
    "normalize_density",
]

_SUPPORT_BUFFER = 12  # cells added on each side of the support window


@dataclass(frozen=True)
class NaturalSystemSpec:
    """Positive mass m(q) and potential V(q) of a natural system.

    The mass is a callback or a number: a constant, checked once here, with
    a zero gradient.  Analytic gradients are optional; central finite
    differences (``potentials._fd``) are used when they are not supplied.
    """

    mass: Callable | float
    potential: Callable
    mass_grad: Optional[Callable] = None
    potential_grad: Optional[Callable] = None

    def __post_init__(self):
        if not callable(self.mass):
            _check_positive("mass m(q)", self.mass, InvalidSpecError)

    def mass_at(self, q):
        return _sample(self.mass, q, "mass m(q)", True)

    def potential_at(self, q):
        return _sample(self.potential, q, "potential V(q)", False)


@dataclass(frozen=True)
class PhaseState:
    q: float
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.q) and np.isfinite(self.p)):
            raise InvalidStateError("phase-space point must be finite")


def hamilton_flow(spec: NaturalSystemSpec, state: PhaseState, dt: float, n_steps: int) -> np.ndarray:
    """Integrate dq/dt = dH/dp, dp/dt = -dH/dq with RK4; returns the
    (n_steps + 1, 2) [q, p] states, one row per time k * dt.

    The stages run on Python floats in the operation order of the classic
    update y + dt/6 (k1 + 2 k2 + 2 k3 + k4); a non-finite derivative after
    the four stages, or a state that stops being finite, raises
    NumericalFailureError, and a mass that ``mass_at`` rejects
    InvalidSpecError.  Missing gradients are central differences
    (``potentials._fd``).  Raises InvalidArgumentError unless n_steps is an
    integer >= 0 and dt * n_steps is finite.
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise InvalidArgumentError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    if not np.isfinite(dt * n_steps):
        raise InvalidArgumentError("dt * n_steps must be finite")
    if callable(spec.mass):
        mass, dmass = spec.mass, spec.mass_grad if spec.mass_grad is not None else _fd(spec.mass)
    else:  # a number: checked when the spec was built, with a zero gradient
        mass, dmass = (lambda x: spec.mass), (lambda x: 0.0)
    dpot = spec.potential_grad if spec.potential_grad is not None else _fd(spec.potential)

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
            raise NumericalFailureError("non-finite derivative in hamilton_flow")
        q = q + sixth * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
        p = p + sixth * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4)
        if not (isfinite(q) and isfinite(p)):
            raise NumericalFailureError("non-finite state in hamilton_flow")
        out[k, 0] = q
        out[k, 1] = p
    return out


def normalize_density(grid: Grid1D, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    total = grid.h * float(np.sum(rho))
    if total <= 0:
        raise InvalidStateError("density has nonpositive total mass")
    return rho / total


_RHO_NEG_TOL = 1e-14  # rounding below zero that a density state accepts and clips


def _check_cells(grid: Grid1D, rho: np.ndarray, lam: np.ndarray, field: str, moved: slice, lam_moved: slice,
                 low: Optional[float]):
    """Check the density state cells rho[moved] and lam[lam_moved] (the
    multiplier ``field`` finite, then rho >= -1e-14) and h*sum(rho) = 1 on
    the whole grid (a NaN density fails it); clip rho[moved] at 0 in place.
    ``low`` is min(rho[moved]) when the caller has scanned it, else None."""
    part = rho[moved]
    if not np.isfinite(lam[lam_moved]).all():
        raise InvalidStateError(f"{field} must be finite")
    if low is None:
        low = part.min()  # a NaN minimum leaves the decision to the cell test
    if not low >= -_RHO_NEG_TOL and (part < -_RHO_NEG_TOL).any():
        raise InvalidStateError("density must be nonnegative")
    total = grid.h * float(rho.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidStateError(f"density not normalised: h*sum(rho) = {total!r}")
    if not low > 0.0:
        np.maximum(part, 0.0, out=part)


def _validate_density_state(state, field: str):
    """Check a constructor's arguments: rho and the multiplier ``field`` on
    the grid, then every cell; stores a clipped copy of rho."""
    rho = np.array(state.rho, dtype=float)
    lam = np.asarray(getattr(state, field), dtype=float)
    if rho.shape != (state.grid.n,) or lam.shape != (state.grid.n,):
        raise InvalidStateError(f"rho and {field} must match the grid")
    _check_cells(state.grid, rho, lam, field, slice(None), slice(None), None)
    vars(state).update({"rho": rho, field: lam})


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Density rho plus the global multiplier field S on a shared grid."""

    grid: Grid1D
    rho: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        _validate_density_state(self, "S")


def _next_state(cls, grid: Grid1D, rho: np.ndarray, lam: np.ndarray, moved: slice, lam_moved: slice,
                low: Optional[float]):
    """The ``ClassicalEnsemble`` or ``HydroState`` (``cls``) of the fresh
    arrays rho and lam, built without ``__post_init__``: outside rho[moved]
    and lam[lam_moved] they equal a checked state's, so only those cells
    are checked (``_check_cells``, given ``low``)."""
    field = "S" if cls is ClassicalEnsemble else "lam"
    _check_cells(grid, rho, lam, field, moved, lam_moved, low)
    state = object.__new__(cls)
    vars(state).update({"grid": grid, "rho": rho, field: lam})
    return state


def _add_upwind_flux(new: np.ndarray, rho: np.ndarray, v_face: np.ndarray, dt: float, h: float):
    """Move the upwind fluxes through the faces between the nodes of rho
    into ``new``, a copy of rho; each face takes the upwind node's value with
    the minmod slope (the smaller one-sided difference where both agree in sign)."""
    d = rho[1:] - rho[:-1]
    ad = np.abs(d)
    drho = np.zeros(rho.size)
    np.copyto(drho[1:-1], np.where(ad[:-1] < ad[1:], d[:-1], d[1:]), where=d[:-1] * d[1:] > 0)
    nu = v_face * dt / h
    r = np.where(v_face > 0.0, rho[:-1] + 0.5 * (1.0 - nu) * drho[:-1], rho[1:] - 0.5 * (1.0 + nu) * drho[1:])
    flux = (dt / h) * (v_face * r)
    new[:-1] -= flux
    new[1:] += flux


def upwind_density_update(grid: Grid1D, rho: np.ndarray, v_face: np.ndarray, dt: float) -> np.ndarray:
    """Conservative upwind step with minmod-limited face reconstruction.

    Second order where the density is smooth, first order at extrema; the
    limiter keeps the update monotone.  Telescoping fluxes with no-flux
    walls keep h*sum(rho) exact to roundoff.
    """
    new = rho.copy()
    _add_upwind_flux(new, rho, v_face, dt, grid.h)
    return new


def _reject_negative(rho: np.ndarray, where: str, offset: int) -> float:
    """Reject a step that leaves rho (grid index ``offset`` onwards) below
    what a density state accepts: even at CFL <= 1 the upwind step can
    overdraw a cell whose two faces both carry density out.  Returns
    min(rho), NaN when rho holds one (``_check_cells`` takes it)."""
    k = int(rho.argmin())
    low = float(rho[k])
    if low < -_RHO_NEG_TOL:
        raise StepRejectedError(f"negative density ({where})", location=offset + k, diagnostics={"rho_min": low})
    return low


def _windowed_upwind(grid: Grid1D, rho: np.ndarray, lam: np.ndarray, m_face: np.ndarray,
                     lo: int, hi: int, dt: float) -> np.ndarray:
    """Upwind density step with the velocity dH/dp = (dlam/dq)/m (``m_face``
    is m at ``grid.midpoints``) on the faces between nodes lo..hi and zero
    outside; raises StepRejectedError when its CFL number there exceeds 1
    or is NaN.

    The step is window-local: the velocity is formed on the active faces
    only, and the fluxes of nodes lo-1..hi+1 (the limiter's neighbours),
    with the two edge faces at zero velocity, go into one copy of rho.  The
    result equals a whole-grid update with the velocity masked outside.
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
    _add_upwind_flux(new[a : b + 1], rho[a : b + 1], v, dt, grid.h)
    return new


def _godunov_hj_update(h: float, q: np.ndarray, spec: NaturalSystemSpec, S: np.ndarray, dt: float) -> np.ndarray:
    """Upwind (Godunov) step of dS/dt + (dS/dq)^2/2m + V = 0 for convex H,
    on the nodes q of spacing h."""
    slope = (S[1:] - S[:-1]) / h
    dm = np.empty(S.size)
    dp = np.empty(S.size)
    dm[1:] = slope
    dp[:-1] = slope
    dm[0] = dp[0]
    dp[-1] = dm[-1]
    p2 = np.maximum(np.maximum(dm, 0.0) ** 2, np.minimum(dp, 0.0) ** 2)
    return S - dt * (p2 / (2.0 * spec.mass_at(q)) + spec.potential_at(q))


def _support_window(rho: np.ndarray, floor_frac: float) -> tuple:
    """Index window [lo, hi] covering {rho > floor} dilated by _SUPPORT_BUFFER."""
    idx = _support_mask(rho, floor_frac).nonzero()[0]
    lo = max(int(idx[0]) - _SUPPORT_BUFFER, 0)
    hi = min(int(idx[-1]) + _SUPPORT_BUFFER, rho.size - 1)
    return lo, hi


class _RunContext:
    """What a run computes once for its steps: m(q) through ``spec.mass_at``
    at ``grid.midpoints`` and, with ``nodes``, at ``grid.nodes`` (else None);
    ``dist`` (h*i at node i) and the n-cell ``scratch`` of the multiplier
    extension.  What a step leaves for the next: ``moved``, the slice a
    classical step's density update wrote, and ``low``, its minimum;
    ``window``, the bulk window ``madelung_step`` found on the state it
    returned (``last``); in ``transport_run``, whose S buffer is ``S``, the
    extension ``ext`` not yet written: its window, then per side the edge
    value, gradient and curvature."""

    def __init__(self, grid: Grid1D, spec: NaturalSystemSpec, *, nodes: bool):
        self.m_face = spec.mass_at(grid.midpoints)
        self.m_node = spec.mass_at(grid.nodes) if nodes else None
        self.dist = grid.h * np.arange(grid.n)
        self.scratch = np.empty(grid.n)
        self.last = self.window = self.moved = self.low = self.S = self.ext = None

    def fill(self, S: np.ndarray, lo: int, hi: int):
        """Write the recorded extension into the cells lo..hi outside its window."""
        wlo, whi, left, right = self.ext
        if lo < wlo:
            end = min(wlo, hi + 1)
            _extend(S[lo:end], *left, self.dist[wlo - lo : wlo - end : -1], self.scratch[: end - lo])
        if hi > whi:
            start = max(whi + 1, lo)
            _extend(S[start : hi + 1], *right, self.dist[start - whi : hi + 1 - whi], self.scratch[: hi + 1 - start])


def _extend(out: np.ndarray, s_edge: float, g: float, c: float, d: np.ndarray, tmp: np.ndarray):
    """out = s_edge + g*d + ((0.5*c)*d)*d, through the buffer ``tmp``."""
    np.add(s_edge, np.multiply(g, d, out=tmp), out=out)
    np.multiply(0.5 * c, d, out=tmp)
    tmp *= d
    out += tmp


def classical_transport_step(grid: Grid1D, rho: np.ndarray, S: np.ndarray, spec: NaturalSystemSpec, dt: float,
                             support_floor: Optional[float] = None, _run: Optional[_RunContext] = None):
    """Shared kernel: one coupled (rho, S) step of the classical balance.

    With ``support_floor`` set, the multiplier equation is advanced only on
    the support window {rho > floor * max(rho)} (dilated by a fixed 12
    cells on each side) and extended quadratically outside it.  The
    equations only hold where rho > 0, and restricting them there keeps
    the multiplier gradients bounded by the ensemble's physical momentum
    range even while the density passes through a focus.

    ``_run`` is the calling run's ``_RunContext`` (a call without one builds
    its own): m(q) at the faces and the extension's buffers; the step
    records its window in ``moved`` and the window's minimum density in
    ``low``.  The window's update samples the spec on the nodes
    ``build_grid`` would give the window, without building it.  Given the
    run's buffer ``_run.S``, the step first writes the extension recorded
    in ``_run.ext`` into the cells its window adds, then writes S only on
    its window and records its own extension; it writes that extension at
    once (``ext`` None) unless |s0| + |g| D + |c/2| D^2 < 1e300 on both
    sides (D = q_max - q_min), so a recorded one is finite.  Any other S
    gets a new array, whole.

    Raises StepRejectedError when the CFL number exceeds 1 on active faces,
    or when the step leaves a density below -1e-14 (``location`` is the
    most negative cell, ``diagnostics["rho_min"]`` its value), and
    InvalidArgumentError unless ``support_floor`` is None or in (0, 1).
    """
    n, h = grid.n, grid.h
    if support_floor is not None and not 0.0 < support_floor < 1.0:
        raise InvalidArgumentError(f"support_floor must be > 0.0 and < 1.0, got {support_floor!r}")
    lo, hi = (0, n - 1) if support_floor is None else _support_window(rho, support_floor)
    if _run is None:
        _run = _RunContext(grid, spec, nodes=False)
    if _run.ext is not None:
        _run.fill(S, lo, hi)
    # the whole-grid window keeps every face, so the masked velocity equals
    # the unmasked one bit for bit
    rho_new = _windowed_upwind(grid, rho, S, _run.m_face, lo, hi, dt)
    _run.low = _reject_negative(rho_new[lo : hi + 1], "after step", lo)  # only lo..hi moved
    _run.moved = slice(lo, hi + 1)
    if support_floor is None:
        return rho_new, _godunov_hj_update(h, grid.nodes, spec, S, dt)

    k, q0 = hi - lo + 1, grid.q_min + lo * h
    hs = (grid.q_min + hi * h - q0) / (k - 1)  # k >= 3 (build_grid's n >= 3); hs may differ from h
    S_new = S if S is _run.S else np.empty(n)
    S_new[lo : hi + 1] = _godunov_hj_update(hs, q0 + np.arange(k) * hs, spec, S[lo : hi + 1], dt)
    # quadratic extension outside the window (matching edge gradient and
    # curvature): the multiplier is local to the support, outside values
    # only seed cells the window grows into, and keeping the curvature
    # avoids kicking the density when the window turns around
    s0, s1, s2 = S_new[lo : lo + 3].tolist()
    left = s0, -((s1 - s0) / h), (s2 - 2.0 * s1 + s0) / (h * h)  # s0 - gl*d is s0 + (-gl)*d bit for bit
    s2, s1, s0 = S_new[hi - 2 : hi + 1].tolist()
    right = s0, (s0 - s1) / h, (s0 - 2.0 * s1 + s2) / (h * h)
    _run.ext = lo, hi, left, right
    D = grid.q_max - grid.q_min
    if S_new is not S or not all(abs(s) + abs(g) * D + abs(0.5 * c) * D * D < 1e300 for s, g, c in (left, right)):
        _run.fill(S_new, 0, n - 1)
        _run.ext = None
    return rho_new, S_new


def transport_density(ens: ClassicalEnsemble, spec: NaturalSystemSpec, dt: float) -> ClassicalEnsemble:
    """One step of the coupled global system

        drho/dt + d/dq (rho dS/dq / m) = 0,    dS/dt + H(q, dS/dq) = 0

    with both fields advanced on the whole grid; ``classical_transport_step``
    with a ``support_floor`` restricts the multiplier update to the support.
    """
    return ClassicalEnsemble(ens.grid, *classical_transport_step(ens.grid, ens.rho, ens.S, spec, dt))


def transport_run(ens: ClassicalEnsemble, spec: NaturalSystemSpec, t_final: float, dt: float,
                  support_floor: Optional[float] = None, observer=None) -> ClassicalEnsemble:
    """Advance the ensemble to t_final in uniform steps of (at most) dt.

    ``observer(t, rho)``, when given, is called after every step and must
    not modify rho.  The steps share one ``_RunContext`` and, with
    ``support_floor``, one S buffer that the run writes outside the last
    window only before it returns (see classical_transport_step).  Each
    step checks rho on its window and S where it wrote (``_check_cells``).
    Raises InvalidArgumentError unless t_final and dt are finite and > 0.
    """
    n_steps, dt = _uniform_steps(t_final, dt)
    grid = ens.grid
    run = _RunContext(grid, spec, nodes=False)
    rho, S = ens.rho, ens.S
    if support_floor is not None:
        S = run.S = S.copy()
    t = 0.0
    for _ in range(n_steps):
        rho, S = classical_transport_step(grid, rho, S, spec, dt, support_floor=support_floor, _run=run)
        _check_cells(grid, rho, S, "S", run.moved, slice(None) if run.ext is None else run.moved, run.low)
        t += dt
        if observer is not None:
            observer(t, rho)
    if run.ext is not None:
        run.fill(S, 0, grid.n - 1)
    return _next_state(ClassicalEnsemble, grid, rho, S, run.moved, slice(None), run.low)  # S checked whole


def _hj_rule(grid: Grid1D, spec: NaturalSystemSpec, S: np.ndarray, dSdt: np.ndarray) -> np.ndarray:
    """dS/dt + H(q, dS/dq) of S (one field or a stack) with a central gradient."""
    q = grid.nodes
    return dSdt + grad_central(S, grid.h) ** 2 / (2.0 * spec.mass_at(q)) + spec.potential_at(q)


def hj_residual_series(grid: Grid1D, spec: NaturalSystemSpec, S_series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Residual of the S-equation on stored snapshots, centered in time.

    Returns an (nt - 2, n) array aligned with times[1:-1].
    """
    S_series = np.asarray(S_series, dtype=float)
    return _hj_rule(grid, spec, S_series[1:-1], _centered_rate(S_series, times))


def continuity_residual_series(grid: Grid1D, spec: NaturalSystemSpec, rho_series: np.ndarray, lam_series: np.ndarray,
                               times: np.ndarray) -> np.ndarray:
    """Residual of drho/dt + d/dq(rho dlam/dq / m) on stored snapshots."""
    rho_series = np.asarray(rho_series, dtype=float)
    lam_series = np.asarray(lam_series, dtype=float)
    drdt = _centered_rate(rho_series, times)
    flux = rho_series[1:-1] * grad_central(lam_series[1:-1], grid.h) / spec.mass_at(grid.nodes)
    return drdt + grad_central(flux, grid.h)

