"""Discrete-configuration (spin-like) systems: exchange-current balance in
local variables (p_alpha, lam_alpha), the cosine exchange Hamiltonian, and
the equivalent complex-amplitude evolution

    i a dpsi_alpha/dt = sum_beta h_{alpha beta} psi_beta,
    h_{alpha beta} = -b U_{alpha beta} exp(-i theta_{alpha beta} / a).

The local equations use the shifted phase argument
eta_{alpha beta} = lam_alpha - lam_beta + theta_{alpha beta}; this is the
insertion for which the local form and the amplitude form agree (verified
by the cross-validation tests), since the linear-in-gamma action term
shifts the stationary point of each exchange current by +theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, InvalidStateError, StepRejectedError
from .numerics import _check_positive, _uniform_steps, rk4_step

__all__ = [
    "SpinSystemSpec",
    "SpinState",
    "build_hamiltonian",
    "propagate",
    "local_form_rhs",
    "local_form_step",
    "local_form_run",
    "gamma_currents",
    "balance_residual",
    "polar_decompose",
]

P_FLOOR = 1e-12


@dataclass(frozen=True)
class SpinSystemSpec:
    """Symmetric exchange matrix U, antisymmetric phase-shift matrix theta,
    action constant a > 0 and energy scale b."""

    U: np.ndarray
    theta: np.ndarray
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise InvalidSpecError("U must be square")
        if U.shape[0] < 2:
            raise InvalidSpecError("need at least two levels")
        if th.shape != U.shape:
            raise InvalidSpecError("theta must match U")
        if not np.allclose(U, U.T, atol=1e-12):
            raise InvalidSpecError("U must be symmetric")
        if not np.allclose(th, -th.T, atol=1e-12):
            raise InvalidSpecError("theta must be antisymmetric")
        if np.any(np.abs(np.diag(th)) > 1e-12):
            raise InvalidSpecError("theta must have zero diagonal")
        _check_positive("a", self.a, InvalidSpecError)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "theta", th)

    @property
    def n(self) -> int:
        return self.U.shape[0]


@dataclass(frozen=True)
class SpinState:
    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        norm = float(np.sum(np.abs(psi) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise InvalidStateError(f"state not normalised: sum|psi|^2 = {norm!r}")
        object.__setattr__(self, "psi", psi)

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def build_hamiltonian(spec: SpinSystemSpec) -> np.ndarray:
    """h = -b U exp(-i theta / a); hermitian by construction."""
    h = -spec.b * spec.U * np.exp(-1j * spec.theta / spec.a)
    if not np.allclose(h, h.conj().T, atol=1e-12):
        raise InvalidSpecError("hamiltonian failed hermiticity check")
    return h


def propagate(spec: SpinSystemSpec, state: SpinState, t: float) -> SpinState:
    """psi(t) = exp(-i h t / a) psi(0), via hermitian eigendecomposition.

    Each call builds and diagonalises h; a run that needs psi(t) at many
    times builds one `_propagator` instead, which diagonalises h once.
    """
    return _propagator(spec, state)(t)


def _propagator(spec: SpinSystemSpec, state: SpinState):
    """t -> psi(t) of `propagate`, with h built, checked and diagonalised
    once and psi(0) projected onto its eigenvectors once."""
    w, vecs = np.linalg.eigh(build_hamiltonian(spec))
    coeffs = vecs.conj().T @ state.psi

    def at(t: float) -> SpinState:
        if not np.isfinite(t):
            raise InvalidSpecError("t must be finite")
        phases = np.exp(-1j * w * t / spec.a)
        return SpinState(vecs @ (phases * coeffs))

    return at


def _eta(spec: SpinSystemSpec, lam: np.ndarray) -> np.ndarray:
    return lam[:, None] - lam[None, :] + spec.theta


def local_form_rhs(spec: SpinSystemSpec, p: np.ndarray, lam: np.ndarray):
    """Time derivatives (dp, dlam) of the local-variable system.

    dlam_alpha = b sum_beta U_ab sqrt(p_b/p_a) cos(eta_ab / a)
    dp_alpha   = (2b/a) sum_beta sqrt(p_a p_b) U_ab sin(eta_ab / a)
    """
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    sqrtp = np.sqrt(p)
    eta = _eta(spec, lam)
    cos_term = spec.U * np.cos(eta / spec.a)
    sin_term = spec.U * np.sin(eta / spec.a)
    dlam = spec.b * (cos_term @ sqrtp) / sqrtp
    dp = (2.0 * spec.b / spec.a) * sqrtp * (sin_term @ sqrtp)
    return dp, dlam


def gamma_currents(spec: SpinSystemSpec, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Exchange currents gamma_ab = sqrt(p_a p_b) U_ab * (-b/a) sin(eta_ab/a).

    Antisymmetric (U symmetric, theta antisymmetric), which conserves the
    total probability exactly.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise InvalidStateError("populations must be nonnegative")
    sqrtp = np.sqrt(p)
    eta = _eta(spec, np.asarray(lam, dtype=float))
    return np.outer(sqrtp, sqrtp) * spec.U * (-(spec.b / spec.a) * np.sin(eta / spec.a))


def balance_residual(spec: SpinSystemSpec, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """dp_alpha + sum_beta (gamma_ab - gamma_ba); zero up to roundoff."""
    dp, _ = local_form_rhs(spec, p, lam)
    gam = gamma_currents(spec, p, lam)
    return dp + np.sum(gam - gam.T, axis=1)


def _check_floor(p: np.ndarray, floor: float):
    low = np.flatnonzero(np.asarray(p) < floor)
    if low.size:
        raise StepRejectedError(
            f"population below floor {floor:g} (leaving the valid region)",
            location=int(low[0]),
            diagnostics={"p_min": float(np.min(p))},
        )


def local_form_step(spec: SpinSystemSpec, p: np.ndarray, lam: np.ndarray, dt: float,
                    floor: float = P_FLOOR):
    """One RK4 step of the local system; rejects if any p_alpha < floor."""
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    _check_floor(p, floor)
    n = spec.n

    def rhs(y):
        dp, dlam = local_form_rhs(spec, np.maximum(y[:n], floor * 1e-3), y[n:])
        return np.concatenate([dp, dlam])

    out = rk4_step(rhs, np.concatenate([p, lam]), dt)
    p_new, lam_new = out[:n], out[n:]
    _check_floor(p_new, floor)
    return p_new, lam_new


def local_form_run(spec: SpinSystemSpec, p, lam, t_final: float, dt: float,
                   floor: float = P_FLOOR, observer=None):
    """Uniform-step RK4 drive of the local system.

    Raises InvalidArgumentError unless t_final and dt are finite and > 0.
    """
    n_steps, dt = _uniform_steps(t_final, dt)
    t = 0.0
    for _ in range(n_steps):
        p, lam = local_form_step(spec, p, lam, dt, floor=floor)
        t += dt
        if observer is not None:
            observer(t, p, lam)
    return p, lam


def polar_decompose(state: SpinState, a: float):
    """psi_alpha = sqrt(p_alpha) exp(i lam_alpha / a) -> (p, lam).

    lam uses the principal branch; callers tracking trajectories should
    unwrap in time themselves.
    """
    p = np.abs(state.psi) ** 2
    lam = a * np.angle(state.psi)
    return p, lam
