"""Canonical map between hydrodynamic variables (rho, lam) and a complex
amplitude, plus the global linear evolution

    i a dpsi/dt = -(a^2/2) d/dq (m(q)^{-1} dpsi/dq) + V(q) psi

advanced with the norm-preserving Cayley stepper.  The divergence form of
the kinetic term fixes the operator ordering for position-dependent mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainEscapeError, InvalidStateError
from .mechanics import NaturalSystemSpec
from .numerics import (RHO_FLOOR_FRAC, CayleyPropagator, Grid1D, TridiagonalOperator, _check_positive,
                       _support_mask, sturm_liouville_operator)

__all__ = [
    "WaveFunction",
    "canonical_map_forward",
    "canonical_map_inverse",
    "polar_from_uv",
    "schrodinger_operator",
    "schrodinger_evolve",
    "normalize_wavefunction",
]

_BOUNDARY_THRESHOLD = 1e-8  # edge-cell probability at which the state has left the grid
_BOUNDARY_CELLS = 3  # cells at each grid end that the leakage guard sums


def normalize_wavefunction(grid: Grid1D, psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    norm = grid.h * float(np.sum(np.abs(psi) ** 2))
    if not (np.isfinite(norm) and norm > 0):  # NaN fails too
        raise InvalidStateError(f"wavefunction norm must be finite and > 0, got {norm!r}")
    return psi / np.sqrt(norm)


@dataclass(frozen=True)
class WaveFunction:
    grid: Grid1D
    psi: np.ndarray
    a: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (self.grid.n,):
            raise InvalidStateError("psi must match the grid")
        _check_positive("a", self.a, InvalidStateError)
        norm = self.grid.h * float(np.sum(np.abs(psi) ** 2))
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
            raise InvalidStateError(f"wavefunction not normalised: h*sum|psi|^2 = {norm!r}")
        object.__setattr__(self, "psi", psi)

    @property
    def rho(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def _unwrap_segments(phase: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Unwrap the phase left-to-right independently on each masked segment.

    The branch restarts across masked gaps: the multiplier field is only
    defined per support component, so no continuity is imposed between
    disconnected components.
    """
    out = np.zeros_like(phase)
    # edges of the False-padded mask alternate: segment start, segment stop
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    for i, j in zip(edges[::2], edges[1::2]):
        out[i:j] = np.unwrap(phase[i:j])
    return out


def canonical_map_forward(wf: WaveFunction):
    """(psi) -> (rho, lam, mask): rho = |psi|^2 and lam = a * arg(psi).

    ``mask`` marks cells with rho above the relative floor; lam is branch-
    unwrapped along the grid within each masked segment and zero elsewhere.
    The global phase constant is fixed to zero.
    """
    rho = np.abs(wf.psi) ** 2
    mask = _support_mask(rho, RHO_FLOOR_FRAC)
    phase = np.angle(wf.psi)
    lam = np.where(mask, wf.a * _unwrap_segments(phase, mask), 0.0)
    return rho, lam, mask


def canonical_map_inverse(grid: Grid1D, rho: np.ndarray, lam: np.ndarray, a: float) -> WaveFunction:
    """(rho, lam) -> psi = sqrt(rho) * exp(i lam / a)."""
    rho = np.asarray(rho, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(rho < 0):
        raise InvalidStateError("density must be nonnegative")
    psi = np.sqrt(rho) * np.exp(1j * lam / a)
    return WaveFunction(grid, normalize_wavefunction(grid, psi), a)


def polar_from_uv(u, v, a: float):
    """Map the plane fields (u, v) to (P, Lam) with unit Jacobian:

        P = (u^2 + v^2) / (2a),    Lam = a * arg(u + i v)

    (integration constants and the global phase are fixed to zero).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    P = (u * u + v * v) / (2.0 * a)
    lam = a * np.arctan2(v, u)
    return P, lam


def schrodinger_operator(spec: NaturalSystemSpec, grid: Grid1D, a: float) -> TridiagonalOperator:
    """Interior-node operator -(a^2/2) d/dq (m^{-1} d/dq .) + V; the
    Madelung multiplier update in hydrodynamics applies it to sqrt(rho)."""
    return sturm_liouville_operator(
        grid, lambda q: 1.0 / spec.mass_at(q), spec.potential_at, coeff=a * a
    )


def _expected_energy(h: float, psi: np.ndarray, hpsi: np.ndarray) -> float:
    """h Re<psi|H psi> of a full-length psi, from H applied to its interior."""
    return h * float(np.real(np.vdot(psi[1:-1], hpsi)))


def _check_boundary(grid: Grid1D, psi: np.ndarray, t: float):
    """Leakage guard: raises DomainEscapeError when the 3 cells at each grid
    end hold more than 1e-8 of the probability at time t (the state has left the grid)."""
    dens = np.abs(psi) ** 2
    mass = grid.h * float(np.sum(dens[:_BOUNDARY_CELLS]) + np.sum(dens[-_BOUNDARY_CELLS:]))
    if mass > _BOUNDARY_THRESHOLD:
        raise DomainEscapeError(
            f"boundary density {mass:.3e} exceeds {_BOUNDARY_THRESHOLD:.1e} at t={t:.6g}",
            diagnostics={"boundary_mass": mass, "t": t},
        )


def schrodinger_evolve(
    spec: NaturalSystemSpec,
    wf: WaveFunction,
    dt: float,
    n_steps: int,
) -> WaveFunction:
    """Evolve by n_steps Cayley steps; raises DomainEscapeError if density
    piles up at the grid edge (the state is no longer represented)."""
    prop = CayleyPropagator(schrodinger_operator(spec, wf.grid, wf.a), dt, wf.a)
    for k, (psi, _) in enumerate(prop.run(wf.psi, n_steps)):
        _check_boundary(wf.grid, psi, k * dt)
    return WaveFunction(wf.grid, psi, wf.a)
