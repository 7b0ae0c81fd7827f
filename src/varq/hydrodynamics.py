"""Diffusion-current extension of the classical transport: the coupled
(rho, lam) system

    dlam/dt + (dlam/dq)^2/2m + V + [pole + g(rho) terms] = 0
    drho/dt + d/dq (rho dlam/dq / m) = 0

valid wherever rho > 0.  In quantum-pole mode rho*d^2(rho) = (a/2)^2/rho
+ g(rho), whose singular part turns into the quantum potential
-(a^2/2) (d/dq (m^{-1} d/dq sqrt(rho))) / sqrt(rho); with g = 0 the system
is locally equivalent to the linear evolution in the wavefunction module.

Direct integration is singular at density nodes, so lam-updates are
restricted to the bulk where rho stays above a relative floor; global
statements live with the complex-amplitude variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidSpecError, StepRejectedError
from .mechanics import (NaturalSystemSpec, classical_transport_step, hj_residual_series, _RunContext, _next_state,
                        _reject_negative, _validate_density_state, _windowed_upwind)
from .numerics import (_HEAD, _INNER, _TAIL, RHO_FLOOR_FRAC, Grid1D, TridiagonalOperator, _centered_rate,
                       _check_positive, _sqrt_density_ratio, _support_mask, _uniform_steps, grad_central)
from .wavefunction import schrodinger_operator

__all__ = [
    "DiffusionSpec",
    "HydroState",
    "effective_hamiltonian_density",
    "madelung_step",
    "madelung_run",
    "multiplier_residual_series",
]

_HARD_FRAC = 0.05  # _check_nodeless: depth of a node, times the floor
_SIGNIFICANT_FRAC = 1e3  # _check_nodeless: density level of the bulk, times the floor


@dataclass(frozen=True)
class DiffusionSpec:
    """Action constant a, regular coupling g(rho), and mode selector.

    mode = "classical" forces d(rho) = 0; mode = "quantum-pole" selects
    rho d^2(rho) = (a/2)^2 / rho + g(rho).  The dynamics only sees
    rho*d^2(rho), so the sign branch of rho*d(rho) never enters.
    """

    a: float
    g: Optional[Callable] = None
    g_grad: Optional[Callable] = None
    mode: str = "quantum-pole"

    def __post_init__(self):
        _check_positive("a", self.a, InvalidSpecError)
        if self.mode not in ("classical", "quantum-pole"):
            raise InvalidSpecError(f"unknown mode {self.mode!r}")
        if self.g is not None:
            try:
                g0 = float(np.asarray(self.g(0.0)))
            except ArithmeticError as exc:
                raise InvalidSpecError("g(rho) must be finite at rho = 0") from exc
            if not np.isfinite(g0):
                raise InvalidSpecError("g(rho) must be finite at rho = 0")

    def g_at(self, rho):
        if self.g is None:
            return np.zeros_like(np.asarray(rho, dtype=float))
        return np.asarray(self.g(rho), dtype=float)

    def g_grad_at(self, rho):
        if self.g is None:
            return np.zeros_like(np.asarray(rho, dtype=float))
        if self.g_grad is not None:
            return np.asarray(self.g_grad(rho), dtype=float)
        rho = np.asarray(rho, dtype=float)
        step = 1e-7 * np.maximum(1.0, np.abs(rho))
        return (self.g_at(rho + step) - self.g_at(np.maximum(rho - step, 0.0))) / (
            step + np.minimum(rho, step)
        )

@dataclass(frozen=True)
class HydroState:
    grid: Grid1D
    rho: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        _validate_density_state(self, "lam")


def _bulk_slice(rho: np.ndarray, floor: float, peak: int):
    """Bounds of the connected above-floor component containing the peak
    (``peak`` = rho.argmax(); ``floor`` = floor_frac * rho[peak], so the
    cells above it are ``_support_mask``'s, from the caller's one scan).

    Detached remnants at floor level (left behind by a moving support) are
    not part of the bulk and stay frozen.  The component ends next to the
    nearest below-floor cells on either side of the peak; a peak that is
    itself below the floor (floor_frac >= 1) gives (peak, peak).
    """
    mask = rho > floor
    if not mask[peak]:
        return peak, peak
    off = (~mask).nonzero()[0]
    k = int(off.searchsorted(peak))
    lo = int(off[k - 1]) + 1 if k > 0 else 0
    hi = int(off[k]) - 1 if k < off.size else rho.size - 1
    return lo, hi


def _check_nodeless(rho: np.ndarray, floor_frac: float, where: str):
    """Reject when a deep density dip separates two substantial regions.

    A node means rho drops far below the floor with density well above the
    floor on both sides.  Floor-level remnants detached from a moving
    support do not count; neither do cells hovering within ``_HARD_FRAC``
    of the floor (support boundary noise).  A density that HydroState would
    refuse as negative is rejected too (``mechanics._reject_negative``).
    """
    peak = int(rho.argmax())  # one scan: the floor and the bulk's peak
    floor = floor_frac * float(rho[peak])
    deep = (rho < _HARD_FRAC * floor).nonzero()[0]
    if deep.size:
        sig = (rho > _SIGNIFICANT_FRAC * floor).nonzero()[0]
        if sig.size >= 2:
            inside = deep[(deep > sig[0]) & (deep < sig[-1])]
            if inside.size:
                raise StepRejectedError(
                    f"density node forming inside the bulk ({where})",
                    location=int(inside[0]),
                    diagnostics={"rho_min": float(rho[inside[0]]), "floor": floor},
                )
    _reject_negative(rho, where, 0)
    return _bulk_slice(rho, floor, peak)


def effective_hamiltonian_density(
    spec: NaturalSystemSpec,
    dspec: DiffusionSpec,
    state: HydroState,
) -> np.ndarray:
    """Pointwise rho [ (dlam/dq)^2/2m + V ] + (1/2) rho d^2(rho) (drho/dq)^2 / m.

    Cells below the density floor contribute only through the first term
    with their (frozen) multiplier values.
    """
    grid = state.grid
    q = grid.nodes
    m = spec.mass_at(q)
    grad_lam = grad_central(state.lam, grid.h)
    grad_rho = grad_central(state.rho, grid.h)
    out = state.rho * (grad_lam**2 / (2.0 * m) + spec.potential_at(q))
    if dspec.mode == "quantum-pole":
        mask = _support_mask(state.rho, RHO_FLOOR_FRAC)
        hd2 = np.zeros_like(state.rho)
        hd2[mask] = (0.5 * dspec.a) ** 2 / state.rho[mask] + dspec.g_at(state.rho[mask])
        out = out + 0.5 * hd2 * grad_rho**2 / m
    return out


def _g_terms(dspec, grid, rho, m_face, m_node):
    """(1/2) m^{-1} g'(rho) (drho/dq)^2 - d/dq(m^{-1} g(rho) drho/dq)."""
    h = grid.h
    grad_rho = grad_central(rho, h)
    first = 0.5 * dspec.g_grad_at(rho) * grad_rho**2 / m_node
    mu_f = 1.0 / m_face
    rho_f = 0.5 * (rho[_HEAD] + rho[_TAIL])
    flux = mu_f * dspec.g_at(rho_f) * (rho[_TAIL] - rho[_HEAD]) / h
    div = np.zeros(rho.shape)
    div[_INNER] = (flux[_TAIL] - flux[_HEAD]) / h
    return first - div


def madelung_step(spec: NaturalSystemSpec, dspec: DiffusionSpec, state: HydroState, dt: float,
                  floor_frac: float = RHO_FLOOR_FRAC, support_floor: Optional[float] = None,
                  _op: Optional[TridiagonalOperator] = None, _run: Optional[_RunContext] = None) -> HydroState:
    """One semi-implicit step of the coupled (rho, lam) system.

    Classical mode delegates to the shared classical transport kernel, so
    it reproduces mechanics.transport_density bit for bit.  In quantum-pole
    mode the density moves by limited upwind fluxes and the multiplier is
    then advanced with the quantum term evaluated at the fresh density
    (lagged sqrt(rho)); multiplier updates are restricted to the bulk
    where rho exceeds the relative floor.

    ``_op`` is the quantum operator and ``_run`` the calling run's
    ``_RunContext`` (mass samples, last bulk window).  Given the state the
    run's previous step returned, the step takes that step's window
    instead of scanning the same density again (the clip at 0 moves neither
    the floor, the node test nor the bulk); any other state is scanned.
    Without them the step builds and samples its own, with the same bits.
    ``mechanics._next_state`` builds the new state, checking only the cells
    the step wrote.  ``floor_frac``, ``support_floor`` and ``_op`` keep
    their slots: perfbench/kernels.py passes all seven by position.
    """
    grid = state.grid
    if dspec.mode == "classical":
        rho_new, lam_new = classical_transport_step(grid, state.rho, state.lam, spec, dt,
                                                    support_floor=support_floor, _run=_run)
        return _next_state(HydroState, grid, rho_new, lam_new, _run.moved if _run else slice(None), slice(None),
                           _run and _run.low)

    carried = _run is not None and _run.last is state
    lo, hi = _run.window if carried else _check_nodeless(state.rho, floor_frac, "before step")
    if _run is None:  # sampled after the scan: a noded density is rejected before m(q) is checked
        _run = _RunContext(grid, spec, nodes=True)
    m_face, m_node = _run.m_face, _run.m_node

    rho_new = _windowed_upwind(grid, state.rho, state.lam, m_face, lo, hi, dt)

    # multiplier update with the quantum term (H sqrt(rho))/sqrt(rho) at the
    # fresh density; it reduces exactly to w_r on discrete eigenstate densities
    op = _op if _op is not None else schrodinger_operator(spec, grid, dspec.a)
    lo2, hi2 = _check_nodeless(rho_new, floor_frac, "after step")
    bulk = slice(lo2, hi2 + 1)  # contiguous, so every update below is on views
    rate = _sqrt_density_ratio(op, np.maximum(rho_new, 0.0), bulk)[bulk]
    rate += grad_central(state.lam, grid.h)[bulk] ** 2 / (2.0 * m_node[bulk])
    if dspec.g is not None:
        rate += _g_terms(dspec, grid, rho_new, m_face, m_node)[bulk]
    lam_new = state.lam.copy()
    lam_new[bulk] -= dt * rate
    _run.last, _run.window = _next_state(HydroState, grid, rho_new, lam_new, slice(lo, hi + 1), bulk, None), (lo2, hi2)
    return _run.last


def madelung_run(spec: NaturalSystemSpec, dspec: DiffusionSpec, state: HydroState, t_final: float, dt: float,
                 observer=None) -> HydroState:
    """Advance to t_final in uniform steps of (at most) dt.

    The run builds the quantum operator and samples m(q) into one
    ``_RunContext`` before the first step; the context carries each step's
    bulk window to the next, so k quantum-pole steps scan the density k + 1
    times.  ``observer(t, state)``, when given, is called after every step
    and must not modify the state.  Raises InvalidArgumentError unless
    t_final and dt are finite and > 0.
    """
    n_steps, dt = _uniform_steps(t_final, dt)
    t = 0.0
    op = schrodinger_operator(spec, state.grid, dspec.a) if dspec.mode == "quantum-pole" else None
    run = _RunContext(state.grid, spec, nodes=True)
    for _ in range(n_steps):
        state = madelung_step(spec, dspec, state, dt, _op=op, _run=run)
        t += dt
        if observer is not None:
            observer(t, state)
    return state


def multiplier_residual_series(grid: Grid1D, spec: NaturalSystemSpec, dspec: DiffusionSpec, rho_series: np.ndarray,
                               lam_series: np.ndarray, times: np.ndarray):
    """Residual of the multiplier equation on stored snapshots.

    Returns (residuals, mask) with residuals shaped (nt - 2, n), centered
    in time and evaluated only on the bulk mask of each snapshot.
    """
    lam_series = np.asarray(lam_series, dtype=float)
    if dspec.mode == "classical":
        res = hj_residual_series(grid, spec, lam_series, times)
        return res, np.ones(res.shape, dtype=bool)
    dldt = _centered_rate(lam_series, times)
    rho = np.asarray(rho_series, dtype=float)[1:-1]
    m_face, m = spec.mass_at(grid.midpoints), spec.mass_at(grid.nodes)
    mask = _support_mask(rho, RHO_FLOOR_FRAC)
    quantum = _sqrt_density_ratio(schrodinger_operator(spec, grid, dspec.a), rho, mask)
    if dspec.g is not None:
        quantum[mask] += _g_terms(dspec, grid, rho, m_face, m)[mask]
    return np.where(mask, dldt + grad_central(lam_series[1:-1], grid.h) ** 2 / (2.0 * m) + quantum, 0.0), mask
