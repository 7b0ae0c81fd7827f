"""Classical probabilistic transport for natural systems H = p^2/2m(q) + V(q):
characteristic (Hamilton) flow, transport of the density state
``HydroState(grid, rho, lam)`` (lam is the Hamilton-Jacobi S here), and the
Hamilton-Jacobi and continuity residuals on stored snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from typing import Callable, Optional

import numpy as np

from .errors import (InvalidArgumentError, InvalidSpecError, InvalidStateError, NumericalFailureError,
                     StepRejectedError)
from .numerics import (_NORM_TOL, Grid1D, _centered_rate, _check_positive, _check_steps, _quad, _support_mask,
                       _uniform_steps, grad_central)
from .potentials import _sample

__all__ = [
    "NaturalSystemSpec",
    "PhaseState",
    "HydroState",
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
    a zero gradient.  ``hamilton_flow`` needs the analytic gradients: V'
    always, m' for a callback mass.
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
    InvalidSpecError.  A number mass takes no m' term.  Raises
    InvalidSpecError without ``potential_grad``, or with a callback mass and
    no ``mass_grad``, and InvalidArgumentError unless n_steps is an integer
    with 0 <= n_steps <= _MAX_STEPS and dt * n_steps is finite.
    """
    _check_steps("n_steps", n_steps, 0)
    if not np.isfinite(dt * n_steps):
        raise InvalidArgumentError("dt * n_steps must be finite")
    mass, dmass, dpot = spec.mass, spec.mass_grad, spec.potential_grad
    if dpot is None or (callable(mass) and dmass is None):
        raise InvalidSpecError("hamilton_flow needs potential_grad, and mass_grad for a callback mass")

    def rhs(q, p):
        x = np.float64(q)  # what the callbacks saw on the array path
        if not callable(mass):  # a number, checked when the spec was built
            return p / float(mass), 0.0 - float(dpot(x))  # 0.0 - dv: the bits of p*p*0/(2m^2) - dv
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
    total = _quad(grid.h, rho)
    if total <= 0:
        raise InvalidStateError("density has nonpositive total mass")
    return rho / total


_RHO_NEG_TOL = 1e-14  # rounding below zero that a density state accepts and clips


def _check_cells(grid: Grid1D, rho: np.ndarray, lam: np.ndarray, moved: slice, lam_moved: slice,
                 low: Optional[float]) -> float:
    """Check the density state cells rho[moved] and lam[lam_moved] (lam
    finite, then rho >= -1e-14) and h*sum(rho) = 1 on the whole grid (a NaN
    density fails it); clip rho[moved] at 0 in place.  ``low`` is
    min(rho[moved]), or a lower bound of it, when the caller has scanned it,
    else None.  Returns h*sum(rho) of the clipped rho."""
    part = rho[moved]
    if not np.isfinite(lam[lam_moved]).all():
        raise InvalidStateError("lam must be finite")
    if low is None:
        low = part.min()  # a NaN minimum leaves the decision to the cell test
    if not low >= -_RHO_NEG_TOL and (part < -_RHO_NEG_TOL).any():
        raise InvalidStateError("density must be nonnegative")
    total = _quad(grid.h, rho)
    if not abs(total - 1.0) <= _NORM_TOL:
        raise InvalidStateError(f"density not normalised: h*sum(rho) = {total!r}")
    if low > 0.0:
        return total
    np.maximum(part, 0.0, out=part)
    return _quad(grid.h, rho)


@dataclass(frozen=True)
class HydroState:
    """Density rho plus its multiplier field lam on a shared grid: the
    Hamilton-Jacobi S in the classical regime.  The constructor checks rho
    and lam on the grid, then every cell, and stores a clipped copy of rho."""

    grid: Grid1D
    rho: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        if rho.shape != (self.grid.n,) or lam.shape != (self.grid.n,):
            raise InvalidStateError("rho and lam must match the grid")
        _check_cells(self.grid, rho, lam, slice(None), slice(None), None)
        vars(self).update({"rho": rho, "lam": lam})


def _next_state(grid: Grid1D, rho: np.ndarray, lam: np.ndarray, moved: slice, lam_moved: slice,
                low: Optional[float], run: Optional[_RunContext]) -> HydroState:
    """The ``HydroState`` of the fresh arrays rho and lam, built without
    ``__post_init__``: outside rho[moved] and lam[lam_moved] they equal a
    checked state's, so only those cells are checked (``_check_cells``,
    given ``low``).  A ``_RunContext`` ``run`` (else None) gets the state's
    h*sum(rho) as ``run.mass``."""
    mass = _check_cells(grid, rho, lam, moved, lam_moved, low)
    if run is not None:
        run.mass = mass
    state = object.__new__(HydroState)
    vars(state).update({"grid": grid, "rho": rho, "lam": lam})
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


def _godunov_hj_update(h: float, m2, v: np.ndarray, S: np.ndarray, dt: float) -> np.ndarray:
    """Upwind (Godunov) step of dS/dt + (dS/dq)^2/2m + V = 0 for convex H,
    on nodes of spacing h where 2m is ``m2`` and V is ``v``."""
    slope = (S[1:] - S[:-1]) / h
    dm = np.empty(S.size)
    dp = np.empty(S.size)
    dm[1:] = slope
    dp[:-1] = slope
    dm[0] = dp[0]
    dp[-1] = dm[-1]
    p2 = np.maximum(np.maximum(dm, 0.0) ** 2, np.minimum(dp, 0.0) ** 2)
    return S - dt * (p2 / m2 + v)


def _support_window(rho: np.ndarray, floor_frac: float) -> tuple:
    """Index window [lo, hi] covering {rho > floor} dilated by _SUPPORT_BUFFER."""
    idx = _support_mask(rho, floor_frac).nonzero()[0]
    if not idx.size:  # all zero, or NaN
        raise InvalidStateError("no cell of the density is above the support floor")
    lo = max(int(idx[0]) - _SUPPORT_BUFFER, 0)
    hi = min(int(idx[-1]) + _SUPPORT_BUFFER, rho.size - 1)
    return lo, hi


class _RunContext:
    """What a run computes once for its steps: m(q) through ``spec.mass_at``
    at ``grid.midpoints`` and, with ``nodes``, at ``grid.nodes`` (else None);
    ``dist`` (h*i at node i) and the n-cell ``scratch`` of the multiplier
    extension.  What a step leaves for its run: ``moved``, the slice a
    classical step's density update wrote, and ``low``, its minimum;
    ``mass``, h*sum(rho) of the last state checked; the extension ``ext`` a
    supported step recorded and did not write: its window, then per side
    the edge value, gradient and curvature.  The record of the last
    supported window (``samples``): ``win`` = (lo, hi), then ``rec`` =
    (hs, 2m, V) on its nodes."""

    def __init__(self, grid: Grid1D, spec: NaturalSystemSpec, *, nodes: bool):
        self.m_face = spec.mass_at(grid.midpoints)
        self.m_node = spec.mass_at(grid.nodes) if nodes else None
        self.dist = grid.h * np.arange(grid.n)
        self.scratch = np.empty(grid.n)
        self.moved = self.low = self.mass = self.ext = self.win = self.rec = None

    def samples(self, grid: Grid1D, spec: NaturalSystemSpec, lo: int, hi: int) -> tuple:
        """(hs, 2m, V) on the nodes ``build_grid`` would give the window
        lo..hi, q_min + lo*h + i*hs, without building it; sampled (m first)
        only when the window differs from the last one's.  A number mass
        stays a float: its quotient has the bits of a broadcast array's."""
        if self.win != (lo, hi):
            k, q0 = hi - lo + 1, grid.q_min + lo * grid.h
            hs = (grid.q_min + hi * grid.h - q0) / (k - 1)  # k >= 3 (build_grid's n >= 3); hs may differ from h
            q = q0 + np.arange(k) * hs
            self.rec = hs, 2.0 * (spec.mass_at(q) if callable(spec.mass) else float(spec.mass)), spec.potential_at(q)
            self.win = lo, hi
        return self.rec

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


def _step(run: _RunContext, grid: Grid1D, rho: np.ndarray, S: np.ndarray, spec: NaturalSystemSpec, dt: float,
          support_floor: Optional[float]):
    """One (rho, S) step of ``run``, which gets the window as ``moved`` and its
    minimum density as ``low``.  Without ``support_floor`` S comes back new.
    With it S is written in place: the extension in ``run.ext`` on the cells
    the window adds, then the window (2m and V from ``run.samples``); the
    step's own extension is recorded, or written at once (``ext`` None)
    unless |s0| + |g| D + |c/2| D^2 < 1e300 on both sides, D = q_max - q_min."""
    n, h = grid.n, grid.h
    lo, hi = (0, n - 1) if support_floor is None else _support_window(rho, support_floor)
    if run.ext is not None:
        run.fill(S, lo, hi)
    # the whole-grid window keeps every face, so the masked velocity equals
    # the unmasked one bit for bit
    rho_new = _windowed_upwind(grid, rho, S, run.m_face, lo, hi, dt)
    run.low = _reject_negative(rho_new[lo : hi + 1], "after step", lo)  # only lo..hi moved
    run.moved = slice(lo, hi + 1)
    if support_floor is None:
        return rho_new, _godunov_hj_update(h, 2.0 * spec.mass_at(grid.nodes), spec.potential_at(grid.nodes), S, dt)

    S[lo : hi + 1] = _godunov_hj_update(*run.samples(grid, spec, lo, hi), S[lo : hi + 1], dt)
    # quadratic extension outside the window (matching edge gradient and
    # curvature): the multiplier is local to the support, outside values
    # only seed cells the window grows into, and keeping the curvature
    # avoids kicking the density when the window turns around
    l0, l1, l2 = S[lo : lo + 3].tolist()
    gl, cl = -((l1 - l0) / h), (l2 - 2.0 * l1 + l0) / (h * h)  # negated: l0 - g*d is l0 + (-g)*d bit for bit
    r2, r1, r0 = S[hi - 2 : hi + 1].tolist()
    gr, cr = (r0 - r1) / h, (r0 - 2.0 * r1 + r2) / (h * h)
    run.ext = lo, hi, (l0, gl, cl), (r0, gr, cr)
    D = grid.q_max - grid.q_min
    if not (abs(l0) + abs(gl) * D + abs(0.5 * cl) * D * D < 1e300
            and abs(r0) + abs(gr) * D + abs(0.5 * cr) * D * D < 1e300):
        run.fill(S, 0, n - 1)
        run.ext = None
    return rho_new, S


def classical_transport_step(grid: Grid1D, rho: np.ndarray, S: np.ndarray, spec: NaturalSystemSpec, dt: float,
                             support_floor: Optional[float] = None):
    """Shared kernel: one coupled (rho, S) step of the classical balance,
    a one-step ``transport_run`` that returns a new, whole S.

    With ``support_floor`` set, the multiplier equation is advanced only on
    the support window {rho > floor * max(rho)} (dilated by a fixed 12
    cells on each side) and extended quadratically outside it.  The
    equations only hold where rho > 0, and restricting them there keeps
    the multiplier gradients bounded by the ensemble's physical momentum
    range even while the density passes through a focus.

    Raises StepRejectedError when the CFL number exceeds 1 on active faces,
    or when the step leaves a density below -1e-14 (``location`` is the
    most negative cell, ``diagnostics["rho_min"]`` its value),
    InvalidArgumentError unless ``support_floor`` is None or in (0, 1), and
    InvalidStateError when no cell of rho is above the support floor.
    """
    if support_floor is not None and not 0.0 < support_floor < 1.0:
        raise InvalidArgumentError(f"support_floor must be > 0.0 and < 1.0, got {support_floor!r}")
    run = _RunContext(grid, spec, nodes=False)
    rho_new, S_new = _step(run, grid, rho, np.array(S, dtype=float), spec, dt, support_floor)
    if run.ext is not None:
        run.fill(S_new, 0, grid.n - 1)
    return rho_new, S_new


def transport_density(ens: HydroState, spec: NaturalSystemSpec, dt: float) -> HydroState:
    """One step of the coupled global system

        drho/dt + d/dq (rho dS/dq / m) = 0,    dS/dt + H(q, dS/dq) = 0

    with both fields advanced on the whole grid; ``classical_transport_step``
    with a ``support_floor`` restricts the multiplier update to the support.
    """
    return HydroState(ens.grid, *classical_transport_step(ens.grid, ens.rho, ens.lam, spec, dt))


def transport_run(ens: HydroState, spec: NaturalSystemSpec, t_final: float, dt: float,
                  support_floor: Optional[float], observer) -> HydroState:
    """Advance the ensemble to t_final in uniform steps of (at most) dt.

    ``observer(t, rho, mass)`` is called after every step with h*sum(rho),
    the sum the step's check took, and must not modify rho.  The steps
    (``_step``) share one ``_RunContext`` and one S buffer, a copy of
    ``ens.lam``; with ``support_floor`` the run writes it outside the last
    window only before it returns.  Each step checks rho on its window and
    S where it wrote (``_check_cells``).  Raises InvalidArgumentError unless
    t_final and dt are finite and > 0.
    """
    n_steps, dt = _uniform_steps(t_final, dt)
    grid = ens.grid
    run = _RunContext(grid, spec, nodes=False)
    if support_floor is not None and not 0.0 < support_floor < 1.0:  # after m(q): a bad mass raises first
        raise InvalidArgumentError(f"support_floor must be > 0.0 and < 1.0, got {support_floor!r}")
    rho, S = ens.rho, ens.lam.copy()
    t = 0.0
    for _ in range(n_steps):
        rho, S = _step(run, grid, rho, S, spec, dt, support_floor)
        mass = _check_cells(grid, rho, S, run.moved, slice(None) if run.ext is None else run.moved, run.low)
        t += dt
        observer(t, rho, mass)
    if run.ext is not None:
        run.fill(S, 0, grid.n - 1)
    return _next_state(grid, rho, S, run.moved, slice(None), run.low, run)  # S checked whole


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

