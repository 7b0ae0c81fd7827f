"""Covariant Hamiltonian field dynamics for one real scalar field in 1+1
dimensions with metric diag(+, -): evolution by the covariant Hamilton
equations with the spatial polymomentum pi1 = -eta dq/dx1 eliminated through
its constraint, the energy-momentum tensor, and the reduction to the
standard single-momentum Hamiltonian density.

Only q and pi0 are evolved and pi1 is never stored, so the constraint holds
exactly by construction.  Time stepping is kick-drift-kick leapfrog, which
is time-reversible and keeps the total energy drift bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, InvalidSpecError, InvalidStateError, StepRejectedError
from .numerics import _check_fixed_steps, _check_positive, _check_steps, _quad
from .potentials import _sample

__all__ = [
    "FieldLagrangianSpec",
    "PeriodicGrid1D",
    "FieldState1p1",
    "ddw_evolve",
    "ddw_evolve_series",
    "extremal_embedding_check",
    "energy_momentum",
    "canonical_reduction",
    "total_energy",
    "total_momentum",
]


@dataclass(frozen=True)
class FieldLagrangianSpec:
    """Constant field-space metric eta > 0 and potential V(q)."""

    eta: float
    potential: Callable
    potential_grad: Callable

    def __post_init__(self):
        _check_positive("eta", self.eta, InvalidSpecError)

    def v_at(self, q):
        return _sample(self.potential, q, "potential V(q)", False)

    def dv_at(self, q):  # unchecked: every leapfrog step calls it
        return np.asarray(self.potential_grad(q), dtype=float)


@dataclass(frozen=True)
class PeriodicGrid1D:
    """Periodic spatial grid on [0, length) with n nodes (no duplicate end)."""

    length: float
    n: int

    def __post_init__(self):
        _check_positive("length", self.length, InvalidArgumentError)
        if self.n < 3:
            raise InvalidArgumentError(f"need n >= 3, got n={self.n}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.dx * np.arange(self.n)


def _d1(f: np.ndarray, dx: float) -> np.ndarray:
    """Periodic central first derivative along the last axis."""
    fp = np.concatenate((f[..., -1:], f, f[..., :1]), axis=-1)  # fp[..., i + 1] = f[..., i]
    return (fp[..., 2:] - fp[..., :-2]) / (2.0 * dx)


@dataclass(frozen=True)
class FieldState1p1:
    x_grid: PeriodicGrid1D
    q: np.ndarray
    pi0: np.ndarray
    time: float = field(default=0.0, init=False)  # set by ddw_evolve on the states it returns

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        pi0 = np.asarray(self.pi0, dtype=float)
        if q.shape != (self.x_grid.n,) or pi0.shape != (self.x_grid.n,):
            raise InvalidStateError("q and pi0 must match the spatial grid")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi0", pi0)
        self._check_finite()

    def _check_finite(self):
        if not (np.isfinite(self.q).all() and np.isfinite(self.pi0).all()):
            raise InvalidStateError("field values must be finite")


class _Leapfrog:
    """The buffers a ddw run steps: q inside the padded buffer ``qp`` (``q =
    qp[1:-1]``, the ends hold its periodic images), pi0, the acceleration
    ``acc`` at the current q, the half kick ``kick = (0.5*dt)*acc`` (a
    step's closing kick is the next one's opening kick; each ``advance``
    takes it afresh, for its own dt), one scratch array, eta and dx*dx.
    Steps write in place, in the operation order of the allocating form,
    so the bits are the same."""

    def __init__(self, spec: FieldLagrangianSpec, state: FieldState1p1):
        self.spec, self.eta, self.dx2 = spec, spec.eta, state.x_grid.dx * state.x_grid.dx
        self.qp = np.concatenate((state.q[-1:], state.q, state.q[:1]))
        self.q, self.pi0 = self.qp[1:-1], state.pi0.copy()
        self.acc, self.kick, self.tmp = np.empty_like(self.q), np.empty_like(self.q), np.empty_like(self.q)
        self._accelerate()

    def _accelerate(self):
        """acc = eta lap - V'(q), lap = (q[i+1] - 2.0 q[i] + q[i-1]) / (dx*dx)."""
        qp, q, acc = self.qp, self.q, self.acc
        qp[0], qp[-1] = q[-1], q[0]
        np.subtract(qp[2:], np.multiply(q, 2.0, out=acc), out=acc)
        np.divide(np.add(acc, qp[:-2], out=acc), self.dx2, out=acc)
        np.subtract(np.multiply(acc, self.eta, out=acc), self.spec.dv_at(q), out=acc)  # V' may alias q

    def advance(self, state: FieldState1p1, dt: float, n_steps: int) -> FieldState1p1:
        """Step the buffers n_steps times from ``state``, the state they hold;
        returns the new state with copies of them, checked for finiteness alone."""
        half, eta, q, pi0, acc, kick, tmp = 0.5 * dt, self.eta, self.q, self.pi0, self.acc, self.kick, self.tmp
        np.multiply(acc, half, out=kick)
        for _ in range(n_steps):
            np.add(pi0, kick, out=pi0)  # pi_half = pi0 + (0.5*dt)*acc
            np.add(q, np.divide(np.multiply(pi0, dt, out=tmp), eta, out=tmp), out=q)  # q + (dt*pi_half)/eta
            self._accelerate()
            np.add(pi0, np.multiply(acc, half, out=kick), out=pi0)  # pi_half + (0.5*dt)*acc
        out = object.__new__(FieldState1p1)
        vars(out).update(x_grid=state.x_grid, q=q.copy(), pi0=pi0.copy(), time=state.time + n_steps * dt)
        out._check_finite()
        return out


def _check_cfl(dt: float, dx: float) -> None:
    if dt > dx:
        raise StepRejectedError(f"CFL violation: dt = {dt:g} > dx = {dx:g}")


def ddw_evolve(spec: FieldLagrangianSpec, state: FieldState1p1, dt: float, n_steps: int) -> FieldState1p1:
    """Advance d0 q = pi0/eta, d0 pi0 = -d1 pi1 - V'(q) by leapfrog.

    Equivalent to the wave equation eta (d0^2 - d1^2) q + V'(q) = 0 once
    pi1 is eliminated through its constraint.  ``n_steps = 0`` returns a
    copy of the state.  Raises InvalidArgumentError unless dt is finite and
    > 0 and n_steps is an integer with 0 <= n_steps <= _MAX_STEPS,
    StepRejectedError if dt > dx, and InvalidStateError on a non-finite field.
    """
    _check_positive("dt", dt, InvalidArgumentError)
    _check_steps("n_steps", n_steps, 0)
    _check_cfl(dt, state.x_grid.dx)
    return _Leapfrog(spec, state).advance(state, dt, n_steps)


def ddw_evolve_series(
    spec: FieldLagrangianSpec, state: FieldState1p1, dt: float, n_steps: int, store_every: int
):
    """Leapfrog drive that stores synchronized (q, pi0) snapshots: one
    ``_Leapfrog`` serves the run, one ``advance`` per stored chunk, and V'
    is evaluated n_steps + 1 times.  Raises as ``ddw_evolve`` does, checking
    dt, dt <= dx, and n_steps and store_every in [1, _MAX_STEPS] once.
    """
    _check_fixed_steps(dt, n_steps, store_every)
    run = _Leapfrog(spec, state)
    _check_cfl(dt, state.x_grid.dx)  # after the first V', as the first chunk's check was
    snaps = [state]
    for done in range(0, n_steps, store_every):
        snaps.append(run.advance(snaps[-1], dt, min(store_every, n_steps - done)))
    return (np.asarray([s.time for s in snaps]), np.asarray([s.q for s in snaps]),
            np.asarray([s.pi0 for s in snaps]), snaps[-1])


def _d2_fourth_order(f: np.ndarray, axis: int, step: float, periodic: bool) -> np.ndarray:
    """5-point fourth-order second derivative along the given axis.

    For the non-periodic (time) axis the two outermost levels on each side
    are dropped by the caller.
    """
    def sh(k):
        if periodic:
            return np.roll(f, -k, axis=axis)
        sl = [slice(None)] * f.ndim
        sl[axis] = slice(2 + k, f.shape[axis] - 2 + k or None)
        return f[tuple(sl)]

    return (-sh(2) + 16.0 * sh(1) - 30.0 * sh(0) + 16.0 * sh(-1) - sh(-2)) / (12.0 * step * step)


def extremal_embedding_check(
    spec: FieldLagrangianSpec, x_grid: PeriodicGrid1D, q_history: np.ndarray, dt: float
) -> float:
    """Max Euler-Lagrange residual eta (d0^2 q - d1^2 q) + V'(q) over the
    stored history.

    The derivatives use fourth-order stencils, independent of the
    integrator's own second-order discretisation, so a ddw_evolve
    trajectory shows its true scheme error, O(dx^2) + O(dt^2); a random
    field shows an O(1) residual.
    """
    q_history = np.asarray(q_history, dtype=float)
    if q_history.ndim != 2 or q_history.shape[0] < 5:
        raise InvalidArgumentError("need at least 5 stored time levels")
    dx = x_grid.dx
    d0sq = _d2_fourth_order(q_history, 0, dt, periodic=False)
    mid = q_history[2:-2]
    d1sq = _d2_fourth_order(mid, 1, dx, periodic=True)
    res = spec.eta * (d0sq - d1sq) + spec.dv_at(mid)
    return float(np.max(np.abs(res)))


def _tensor(spec: FieldLagrangianSpec, q: np.ndarray, pi0: np.ndarray, dx: float) -> tuple:
    """(T^0_0, T^0_1, T^1_0, T^1_1) elementwise over fields of shape (..., n),
    e.g. one state or a (snapshots, n) stack; the spatial axis is the last."""
    w0 = pi0 / spec.eta  # d0 q = d^0 q
    w1c = _d1(q, dx)  # d1 q = -d^1 q
    lag = 0.5 * spec.eta * (w0 * w0 - w1c * w1c) - spec.v_at(q)
    return (spec.eta * w0 * w0 - lag, spec.eta * w0 * w1c,
            -spec.eta * w1c * w0, -spec.eta * w1c * w1c - lag)


def energy_momentum(spec: FieldLagrangianSpec, state: FieldState1p1) -> np.ndarray:
    """T^sigma_nu = eta d^sigma q d_nu q - delta^sigma_nu L, pointwise: the
    mixed components on the spatial grid, shape (n, 2, 2)."""
    T = np.stack(_tensor(spec, state.q, state.pi0, state.x_grid.dx), axis=-1)
    return T.reshape(state.x_grid.n, 2, 2)


def canonical_reduction(spec: FieldLagrangianSpec, pi0, dq_dx1, q):
    """Standard Hamiltonian density after eliminating pi1:

        H_c = (pi0)^2/(2 eta) + (eta/2) (dq/dx1)^2 + V(q)

    which coincides pointwise with T^0_0.
    """
    pi0 = np.asarray(pi0, dtype=float)
    dq = np.asarray(dq_dx1, dtype=float)
    return pi0 * pi0 / (2.0 * spec.eta) + 0.5 * spec.eta * dq * dq + spec.v_at(q)


def total_energy(spec: FieldLagrangianSpec, state: FieldState1p1) -> float:
    return _quad(state.x_grid.dx, _tensor(spec, state.q, state.pi0, state.x_grid.dx)[0])


def total_momentum(spec: FieldLagrangianSpec, state: FieldState1p1) -> float:
    return _quad(state.x_grid.dx, _tensor(spec, state.q, state.pi0, state.x_grid.dx)[1])

