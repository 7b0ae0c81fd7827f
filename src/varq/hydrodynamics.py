"""Diffusion-current extension of the classical transport: the coupled
(rho, lam) system

    dlam/dt + (dlam/dq)^2/2m + V + [pole term] = 0
    drho/dt + d/dq (rho dlam/dq / m) = 0

valid wherever rho > 0.  In quantum-pole mode rho*d^2(rho) = (a/2)^2/rho,
which turns into the quantum potential
-(a^2/2) (d/dq (m^{-1} d/dq sqrt(rho))) / sqrt(rho); the system is then
locally equivalent to the linear evolution in the wavefunction module.

Direct integration is singular at density nodes, so lam-updates are
restricted to the bulk where rho stays above a relative floor; global
statements live with the complex-amplitude variables.  The state is
``mechanics.HydroState``, the classical regime's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, InvalidSpecError, StepRejectedError
from .mechanics import (HydroState, NaturalSystemSpec, classical_transport_step, hj_residual_series, _RunContext,
                        _next_state, _reject_negative, _step, _windowed_upwind)
from .numerics import (RHO_FLOOR_FRAC, Grid1D, TridiagonalOperator, _centered_rate, _check_positive,
                       _sqrt_density_ratio, _support_mask, _uniform_steps, grad_central)
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
    """Action constant a and mode selector.

    mode = "classical" forces d(rho) = 0; mode = "quantum-pole" selects
    rho d^2(rho) = (a/2)^2 / rho.  The dynamics only sees rho*d^2(rho), so
    the sign branch of rho*d(rho) never enters.
    """

    a: float
    mode: str = "quantum-pole"

    def __post_init__(self):
        _check_positive("a", self.a, InvalidSpecError)
        if self.mode not in ("classical", "quantum-pole"):
            raise InvalidSpecError(f"unknown mode {self.mode!r}")


def _bulk_slice(rho: np.ndarray, floor: float, peak: int):
    """Bounds of the connected above-floor component containing the peak
    (``peak`` = rho.argmax(); ``floor`` = floor_frac * rho[peak], so the
    cells above it are ``_support_mask``'s, from the caller's one scan).

    Detached remnants at floor level (left behind by a moving support) are
    not part of the bulk and stay frozen.  The component ends next to the
    nearest below-floor cells on either side of the peak.
    """
    mask = rho > floor
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
    Returns the bulk's bounds (``_bulk_slice``) and min(rho).
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
    low = _reject_negative(rho, where, 0)
    return (*_bulk_slice(rho, floor, peak), low)


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
        hd2[mask] = (0.5 * dspec.a) ** 2 / state.rho[mask]
        out = out + 0.5 * hd2 * grad_rho**2 / m
    return out


def _bulk_gradient(lam: np.ndarray, h: float, lo: int, hi: int) -> np.ndarray:
    """grad_central(lam, h)[lo : hi + 1], its interior rule on those nodes alone unless they reach a grid end."""
    if 0 < lo and hi < lam.size - 1:
        return (lam[lo + 1 : hi + 2] - lam[lo - 1 : hi]) * (0.5 / h)
    return grad_central(lam, h)[lo : hi + 1]


def _pole_update(run: _RunContext, op: TridiagonalOperator, state: HydroState, rho_new: np.ndarray, lo: int,
                 hi: int, dt: float, floor_frac: float):
    """A quantum-pole step of ``run`` after the density update rho_new on lo..hi:
    lam advanced on the bulk of rho_new, ``_next_state`` checking only the
    cells written.  Returns the state and its bulk window, which the next
    step takes (the clip at 0 moves neither the floor, the node test nor the bulk)."""
    lo2, hi2, low = _check_nodeless(rho_new, floor_frac, "after step")
    bulk = slice(lo2, hi2 + 1)  # contiguous, so every update below is on views
    # (H sqrt(rho))/sqrt(rho) reduces exactly to w_r on discrete eigenstate densities
    rate = _sqrt_density_ratio(op, np.maximum(rho_new, 0.0), bulk)[bulk]
    rate += _bulk_gradient(state.lam, state.grid.h, lo2, hi2) ** 2 / (2.0 * run.m_node[bulk])
    lam_new = state.lam.copy()
    lam_new[bulk] -= dt * rate
    # low, the whole grid's minimum, bounds the moved cells' from below
    return _next_state(state.grid, rho_new, lam_new, slice(lo, hi + 1), bulk, low, run), (lo2, hi2)


def madelung_step(spec: NaturalSystemSpec, dspec: DiffusionSpec, state: HydroState, dt: float,
                  floor_frac: float = RHO_FLOOR_FRAC, support_floor: Optional[float] = None,
                  _op: Optional[TridiagonalOperator] = None) -> HydroState:
    """One semi-implicit step of the coupled (rho, lam) system: a one-step
    ``madelung_run``.

    Classical mode delegates to the shared classical transport kernel, so
    it reproduces mechanics.classical_transport_step bit for bit.  In quantum-pole
    mode the density moves by limited upwind fluxes and the multiplier is
    then advanced with the quantum term evaluated at the fresh density
    (lagged sqrt(rho)); multiplier updates are restricted to the bulk
    where rho exceeds the relative floor.

    ``_op`` is the quantum operator; without it the step builds its own.
    ``floor_frac``, ``support_floor`` and ``_op`` keep their slots:
    perfbench/kernels.py passes all seven by position.  Raises
    InvalidArgumentError unless ``floor_frac`` is in (0, 1).
    """
    if not 0.0 < floor_frac < 1.0:  # NaN fails too; a normalised peak then lies above its floor
        raise InvalidArgumentError(f"floor_frac must be > 0.0 and < 1.0, got {floor_frac!r}")
    grid = state.grid
    if dspec.mode == "classical":
        rho_new, lam_new = classical_transport_step(grid, state.rho, state.lam, spec, dt, support_floor)
        return _next_state(grid, rho_new, lam_new, slice(None), slice(None), None, None)
    lo, hi = _check_nodeless(state.rho, floor_frac, "before step")[:2]
    run = _RunContext(grid, spec, nodes=True)  # sampled after the scan: a noded density is rejected first
    rho_new = _windowed_upwind(grid, state.rho, state.lam, run.m_face, lo, hi, dt)
    op = _op if _op is not None else schrodinger_operator(spec, grid, dspec.a)
    return _pole_update(run, op, state, rho_new, lo, hi, dt, floor_frac)[0]


def madelung_run(spec: NaturalSystemSpec, dspec: DiffusionSpec, state: HydroState, t_final: float, dt: float,
                 observer=None) -> HydroState:
    """Advance to t_final in uniform steps of (at most) dt.

    The run builds the quantum operator and samples m(q) into one
    ``_RunContext`` before the first step, and hands each quantum-pole step
    the bulk window the step before found, so k steps scan the density
    k + 1 times.  Classical mode takes ``mechanics._step`` on the whole
    grid.  ``observer(t, state, mass)``, when given, is called after every
    step with h*sum(state.rho), the sum the step's check took, and must not
    modify the state.  Raises InvalidArgumentError unless t_final and dt
    are finite and > 0.
    """
    n_steps, dt = _uniform_steps(t_final, dt)
    t, grid = 0.0, state.grid
    op = schrodinger_operator(spec, grid, dspec.a) if dspec.mode == "quantum-pole" else None
    run = _RunContext(grid, spec, nodes=True)
    if op is not None:
        window = _check_nodeless(state.rho, RHO_FLOOR_FRAC, "before step")[:2]
    for _ in range(n_steps):
        if op is None:
            rho, lam = _step(run, grid, state.rho, state.lam, spec, dt, None)
            state = _next_state(grid, rho, lam, run.moved, slice(None), run.low, run)
        else:
            rho = _windowed_upwind(grid, state.rho, state.lam, run.m_face, *window, dt)
            state, window = _pole_update(run, op, state, rho, *window, dt, RHO_FLOOR_FRAC)
        t += dt
        if observer is not None:
            observer(t, state, run.mass)
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
    m = spec.mass_at(grid.nodes)
    mask = _support_mask(rho, RHO_FLOOR_FRAC)
    quantum = _sqrt_density_ratio(schrodinger_operator(spec, grid, dspec.a), rho, mask)
    return np.where(mask, dldt + grad_central(lam_series[1:-1], grid.h) ** 2 / (2.0 * m) + quantum, 0.0), mask
