"""Discrete-configuration (spin-like) systems: the exchange dynamics in
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
from math import cos, isfinite, sin, sqrt
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, InvalidSpecError, InvalidStateError, NumericalFailureError, StepRejectedError
from .numerics import _check_positive, _uniform_steps

__all__ = [
    "SpinSystemSpec",
    "SpinState",
    "build_hamiltonian",
    "propagate",
    "local_form_step",
    "local_form_run",
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
        _check_normalised(np.abs(psi) ** 2)
        object.__setattr__(self, "psi", psi)


def _check_normalised(prob: np.ndarray) -> None:
    """The norm rule on |psi|^2, one state per row: InvalidStateError if a sum is NaN or off 1 by > 1e-12."""
    norms = np.atleast_1d(np.sum(prob, axis=-1))
    bad = ~(np.abs(norms - 1.0) <= 1e-12)
    if bad.any():
        raise InvalidStateError(f"state not normalised: sum|psi|^2 = {float(norms[bad][0])!r}")


def build_hamiltonian(spec: SpinSystemSpec) -> np.ndarray:
    """h = -b U exp(-i theta / a); hermitian by construction."""
    h = -spec.b * spec.U * np.exp(-1j * spec.theta / spec.a)
    if not np.allclose(h, h.conj().T, atol=1e-12):
        raise InvalidSpecError("hamiltonian failed hermiticity check")
    return h


def propagate(spec: SpinSystemSpec, state: SpinState, t: float) -> SpinState:
    """psi(t) = exp(-i h t / a) psi(0), via hermitian eigendecomposition.

    Each call builds and diagonalises h and takes `_propagator`'s batched
    path with one time; a run that needs many times makes one batched call.
    """
    psi, _ = _propagator(spec, state)([t])
    return SpinState(psi[0])


def _propagator(spec: SpinSystemSpec, state: SpinState):
    """ts -> (psi, |psi|^2) of `propagate`, one row per time, with h built,
    checked and diagonalised once and psi(0) projected onto its eigenvectors
    once.  Row k has the bits of evaluating ts[k] alone: the same phase
    operation order and a stack of the same matrix-vector products (one
    matrix-matrix product gives other bits).  Raises InvalidSpecError unless
    every time is finite, InvalidStateError if a row breaks the norm rule."""
    w, vecs = np.linalg.eigh(build_hamiltonian(spec))
    coeffs = vecs.conj().T @ state.psi

    def at(ts):
        ts = np.asarray(ts, dtype=float)
        if not np.isfinite(ts).all():
            raise InvalidSpecError("t must be finite")
        phases = np.exp(-1j * w * ts[:, None] / spec.a)
        psi = np.matmul(vecs, (phases * coeffs)[:, :, None])[:, :, 0]
        prob = np.abs(psi) ** 2
        _check_normalised(prob)
        return psi, prob

    return at


def _as_lists(n: int, p, lam):
    """p and lam as lists of floats, with one entry per level each."""
    p, lam = np.asarray(p, dtype=float).tolist(), np.asarray(lam, dtype=float).tolist()
    if len(p) != n or len(lam) != n:
        raise InvalidStateError(f"need {n} populations and phases, got {len(p)} and {len(lam)}")
    return p, lam


def _check_floor(p: list, floor: float):
    low = [i for i, x in enumerate(p) if x < floor]  # NaN passes
    if low:
        raise StepRejectedError(f"population below floor {floor:g} (leaving the valid region)",
                                location=low[0], diagnostics={"p_min": float(np.min(p))})


class _LocalFormRun:
    """What a local-form run sets up once for its steps: U and theta as
    lists, a, b, 2b/a, the floor, its clamp floor * 1e-3, dt/2 and dt/6.
    Steps run on Python floats: at a few levels numpy's per-call dispatch
    costs more than the arithmetic."""

    def __init__(self, spec: SpinSystemSpec, dt: float, floor: float):
        _check_positive("floor", floor, InvalidArgumentError)
        self.n, self.U, self.theta = spec.n, spec.U.tolist(), spec.theta.tolist()
        self.a, self.b = float(spec.a), float(spec.b)
        self.k = 2.0 * self.b / self.a
        self.floor, self.clamp = floor, floor * 1e-3
        self.dt, self.half, self.sixth = dt, 0.5 * dt, dt / 6.0

    def rhs(self, y: list, clamp: float) -> list:
        """dp + dlam at y = p + lam, with p clamped below at ``clamp`` (NaN
        passes, as in np.maximum); rows are summed in index order from their
        first term, so the sign of a zero is kept."""
        U, a, b, k, n = self.U, self.a, self.b, self.k, self.n
        sq = [sqrt(clamp if x < clamp else x) for x in y[:n]]
        lam = y[n:]
        dp, dlam = [], []
        for Ui, thi, li, si in zip(U, self.theta, lam, sq):
            e = (li - lam[0] + thi[0]) / a
            c, s = Ui[0] * cos(e) * sq[0], Ui[0] * sin(e) * sq[0]
            for j in range(1, n):
                e = (li - lam[j] + thi[j]) / a
                c += Ui[j] * cos(e) * sq[j]
                s += Ui[j] * sin(e) * sq[j]
            dlam.append(b * c / si)
            dp.append(k * si * s)
        return dp + dlam


def local_form_step(spec: SpinSystemSpec, p: np.ndarray, lam: np.ndarray, dt: float,
                    floor: float = P_FLOOR, _run: Optional[_LocalFormRun] = None):
    """One RK4 step of the local system; rejects if any p_alpha < floor.

    The stages run in the operation order of y + dt/6 (k1 + 2 k2 + 2 k3 + k4),
    each with p clamped below at floor * 1e-3.  ``_run`` is the calling run's
    ``_LocalFormRun`` for this spec, dt and floor; without it the step builds
    its own (same bits).  Raises InvalidArgumentError unless floor is finite
    and > 0, and NumericalFailureError on a non-finite derivative.
    """
    run = _run if _run is not None else _LocalFormRun(spec, dt, floor)
    p, lam = _as_lists(run.n, p, lam)
    _check_floor(p, run.floor)
    y, f, c, half, dt, n = p + lam, run.rhs, run.clamp, run.half, run.dt, run.n
    try:
        k1 = f(y, c)
        k2 = f([x + half * d for x, d in zip(y, k1)], c)
        k3 = f([x + half * d for x, d in zip(y, k2)], c)
        k4 = f([x + dt * d for x, d in zip(y, k3)], c)
    except (ValueError, ZeroDivisionError):  # cos(inf), x / 0: where numpy gives nan or inf
        raise NumericalFailureError("non-finite derivative in local_form_step") from None
    if not all(map(isfinite, k1 + k2 + k3 + k4)):
        raise NumericalFailureError("non-finite derivative in local_form_step")
    s = run.sixth
    y = [x + s * (d1 + 2.0 * d2 + 2.0 * d3 + d4) for x, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]
    _check_floor(y[:n], run.floor)
    return np.array(y[:n]), np.array(y[n:])


def local_form_run(spec: SpinSystemSpec, p, lam, t_final: float, dt: float,
                   floor: float = P_FLOOR, observer=None):
    """Uniform-step RK4 drive of the local system, set up once (``_LocalFormRun``).

    Raises InvalidArgumentError unless t_final, dt and floor are finite and > 0.
    """
    n_steps, dt = _uniform_steps(t_final, dt)
    run = _LocalFormRun(spec, dt, floor)
    t = 0.0
    for _ in range(n_steps):
        p, lam = local_form_step(spec, p, lam, dt, floor=floor, _run=run)
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
