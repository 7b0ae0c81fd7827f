"""Shared numerical kernels: uniform grids, symmetric tridiagonal operators,
their low-lying spectra and Cayley (trapezoidal) unitary stepping.

Conventions used throughout the package:

* grids are uniform, fields carry one value per node;
* differential operators impose a homogeneous Dirichlet condition at the
  grid *end nodes*, so a ``TridiagonalOperator`` built from a grid with
  ``n`` nodes acts on the ``n - 2`` interior values;
* all normalisations use the plain grid quadrature ``h * sum(.)``, which
  coincides with the trapezoid rule for fields that have decayed at the
  boundary;
* spatial helpers act along the last axis: given a stack of snapshots
  ``(nt, n)`` they evaluate every row at once, with the bits of a call on
  each row;
* the linear regimes (Schrodinger, the space-independent sector) step
  through ``CayleyPropagator.run``, which applies H once per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .config import _MAX_STEPS  # numpy-free config owns the step cap, so check applies it too
from .errors import InvalidArgumentError, NumericalFailureError

__all__ = [
    "Grid1D",
    "TridiagonalOperator",
    "build_grid",
    "sturm_liouville_operator",
    "embed_interior",
    "eigensolve_lowest",
    "CayleyPropagator",
    "grad_central",
]


# last-axis slices of a field or a stack of them; prebuilt, they cost no more than plain slices
_HEAD, _TAIL, _INNER = np.s_[..., :-1], np.s_[..., 1:], np.s_[..., 1:-1]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [q_min, q_max] with n nodes, spacing h (stored)."""

    q_min: float
    q_max: float
    n: int
    h: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h", (self.q_max - self.q_min) / (self.n - 1))

    @property
    def nodes(self) -> np.ndarray:
        # each node is one fused multiply-add away from q_min: no
        # accumulated rounding along the grid
        return self.q_min + np.arange(self.n) * self.h

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]

    @property
    def midpoints(self) -> np.ndarray:
        """Face midpoints between adjacent nodes (length n - 1)."""
        return self.q_min + (np.arange(self.n - 1) + 0.5) * self.h


def build_grid(q_min: float, q_max: float, n: int) -> Grid1D:
    if not (np.isfinite(q_min) and np.isfinite(q_max)):
        raise InvalidArgumentError("grid bounds must be finite")
    if not q_min < q_max:
        raise InvalidArgumentError(f"need q_min < q_max, got [{q_min}, {q_max}]")
    if n < 3:
        raise InvalidArgumentError(f"need at least 3 nodes, got n={n}")
    return Grid1D(float(q_min), float(q_max), int(n))


@dataclass(frozen=True)
class TridiagonalOperator:
    """Real symmetric tridiagonal matrix, stored as diagonal + off-diagonal.

    Built from a grid it represents -(c/2) d/dq (mu(q) d/dq .) + V(q) with
    zero Dirichlet values at the removed end nodes.
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.off_diagonal, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or e.size != d.size - 1:
            raise InvalidArgumentError(
                "need diagonal of length m and off-diagonal of length m-1"
            )
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "off_diagonal", e)

    @property
    def size(self) -> int:
        return self.diagonal.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product along the last axis; accepts real or complex v."""
        out = self.diagonal * v
        out[_HEAD] += self.off_diagonal * v[_TAIL]
        out[_TAIL] += self.off_diagonal * v[_HEAD]
        return out

    def dense(self) -> np.ndarray:
        m = np.diag(self.diagonal)
        m += np.diag(self.off_diagonal, 1)
        m += np.diag(self.off_diagonal, -1)
        return m


def sturm_liouville_operator(
    grid: Grid1D,
    mu: Callable[[np.ndarray], np.ndarray] | float,
    potential: Callable[[np.ndarray], np.ndarray] | None,
    coeff: float = 1.0,
) -> TridiagonalOperator:
    """Discretise -(coeff/2) d/dq (mu(q) d/dq .) + V(q) on the interior nodes.

    ``mu`` is evaluated at face midpoints (flux form), ``potential`` at the
    interior nodes; either may be a constant or None (for V = 0).
    """
    h = grid.h
    q_in = grid.interior
    faces = grid.midpoints
    mu_f = np.full(faces.shape, float(mu)) if np.isscalar(mu) else np.asarray(mu(faces), dtype=float)
    if np.any(mu_f <= 0):
        raise InvalidArgumentError("mu(q) must be positive on all faces")
    v_in = np.zeros_like(q_in) if potential is None else np.asarray(potential(q_in), dtype=float)
    if not np.all(np.isfinite(v_in)):
        raise InvalidArgumentError("potential must be finite on the grid")
    k = 0.5 * coeff / (h * h)
    diag = k * (mu_f[:-1] + mu_f[1:]) + v_in
    off = -k * mu_f[1:-1]
    return TridiagonalOperator(diag, off)


def embed_interior(grid: Grid1D, v_interior: np.ndarray) -> np.ndarray:
    """Pad an interior-node vector with the Dirichlet zeros at both ends."""
    out = np.zeros(grid.n, dtype=np.asarray(v_interior).dtype)
    out[1:-1] = v_interior
    return out


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry positive."""
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vecs


def eigensolve_lowest(op: TridiagonalOperator, k: int, h: float = 1.0):
    """Lowest k eigenpairs of a symmetric tridiagonal operator.

    Returns (w, vecs) with ``w`` strictly increasing and ``vecs[:, j]``
    normalised so that h * sum(v**2) = 1.  The ground state is sign-fixed
    to be nonnegative; excited states get a deterministic sign.

    Eigenvalues come from bisection on the Sturm sequence and eigenvectors
    from inverse iteration (LAPACK stebz/stein via scipy).
    """
    if k < 1 or k > op.size:
        raise InvalidArgumentError(f"need 1 <= k <= {op.size}, got {k}")
    try:
        w, vecs = sla.eigh_tridiagonal(
            op.diagonal, op.off_diagonal, select="i", select_range=(0, k - 1)
        )
    except (sla.LinAlgError, ValueError) as exc:
        raise NumericalFailureError(
            "tridiagonal eigensolver failed to converge",
            diagnostics={"size": op.size, "k": k, "reason": str(exc)},
        ) from exc
    vecs = _fix_signs(np.array(vecs))
    vecs /= np.sqrt(h * np.sum(vecs**2, axis=0))
    if np.any(vecs[:, 0] < -1e-10 * np.max(np.abs(vecs[:, 0]))):
        # nonzero off-diagonals guarantee a nodeless ground state; a sign
        # flip can only hide in roundoff
        raise NumericalFailureError("ground state is not sign-definite")
    if np.any(np.diff(w) <= 0):
        raise NumericalFailureError(
            "eigenvalues not strictly increasing", diagnostics={"w": w}
        )
    return w, vecs


class CayleyPropagator:
    """Pre-factored Cayley step (1 + i dt H / 2a) psi+ = (1 - i dt H / 2a) psi.

    The map is exactly unitary for hermitian H and any real dt, so the
    discrete L2 norm is preserved to solver roundoff.

    The matrix 1 + i dt H / 2a is built and LU-factored once, with partial
    pivoting (LAPACK ?gttrf); each step solves with the stored factors
    (?gttrs). That is the same elimination ?gtsv runs, so a step is bitwise
    equal to ``solve_banded`` on the unfactored matrix. Operators of size 1
    and 2 (grids of 3 and 4 nodes) keep the ``solve_banded`` call: scipy's
    ?gttrf wrapper rejects n <= 2.

    A non-finite matrix is rejected when the propagator is built
    (InvalidArgumentError); a non-finite state raises NumericalFailureError
    in ``step``.

    ``run`` hands each step the H psi it yielded for the state before, as
    ``step(psi, _hpsi=op.apply(psi))`` with psi complex: the step is then
    bitwise ``step(psi)``, and H is applied once per step.
    """

    def __init__(self, op: TridiagonalOperator, dt: float, a: float):
        _check_positive("a", a, InvalidArgumentError)
        if not np.isfinite(dt):
            raise InvalidArgumentError("dt must be finite")
        self.op = op
        self.dt = float(dt)
        self.a = float(a)
        mu = 0.5j * dt / a
        m = op.size
        ab = np.zeros((3, m), dtype=complex)
        ab[0, 1:] = mu * op.off_diagonal
        ab[1, :] = 1.0 + mu * op.diagonal
        ab[2, :-1] = mu * op.off_diagonal
        if not np.isfinite(ab).all():
            raise InvalidArgumentError(
                "Cayley matrix must be finite: check the operator entries and dt / a"
            )
        self._ab = ab
        self._mu = mu
        self._factors = None
        if m > 2:
            gttrf, self._gttrs = sla.get_lapack_funcs(("gttrf", "gttrs"), (ab,))
            *factors, info = gttrf(ab[2, :-1], ab[1], ab[0, 1:])
            if info > 0:  # cannot happen for hermitian op, real dt
                raise NumericalFailureError(
                    "singular Cayley system", diagnostics={"size": m, "zero_pivot": info}
                )
            self._factors = factors

    def step(self, psi: np.ndarray, _hpsi: np.ndarray | None = None) -> np.ndarray:
        hpsi = self.op.apply(np.asarray(psi, dtype=complex)) if _hpsi is None else _hpsi
        rhs = psi - self._mu * hpsi
        if not np.isfinite(rhs).all():
            bad = int(np.count_nonzero(~np.isfinite(rhs)))
            raise NumericalFailureError(
                "non-finite state in Cayley step", diagnostics={"size": rhs.size, "nonfinite": bad}
            )
        if self._factors is None:  # n <= 2: scipy's ?gttrf wrapper rejects these sizes
            return sla.solve_banded((1, 1), self._ab, rhs)
        # ?gttrs fails only on an illegal argument, which the stored factors exclude
        x, _ = self._gttrs(*self._factors, rhs, overwrite_b=True)
        return x

    def run(self, psi: np.ndarray, n_steps: int):
        """Yield (psi, H psi[1:-1]) for a copy of the full-length state ``psi``
        and after each of ``n_steps`` steps: k = 0, 1, ..., n_steps. The
        stepped states carry the Dirichlet zeros at both ends."""
        psi = np.array(psi, dtype=complex)
        hpsi = self.op.apply(psi[1:-1])
        yield psi, hpsi
        for _ in range(n_steps):
            nxt = np.zeros(psi.size, complex)  # np.zeros_like costs 1.2 us more at n = 1401
            nxt[1:-1] = self.step(psi[1:-1], _hpsi=hpsi)
            psi, hpsi = nxt, self.op.apply(nxt[1:-1])
            yield psi, hpsi


def grad_central(f: np.ndarray, h: float) -> np.ndarray:
    """Second-order central gradient along the last axis, with one-sided second-order ends."""
    f = np.asarray(f)
    g = np.empty_like(f, dtype=complex if np.iscomplexobj(f) else float)
    f, e = f.T, g.T  # nodes first: the end nodes are scalars of one field, columns of a stack
    e[1:-1] = (f[2:] - f[:-2]) * (0.5 / h)
    e[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    e[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return g


def _centered_rate(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(X[k+1] - X[k-1]) / (t[k+1] - t[k-1]) of the snapshots ``series``
    (nt, n), one row per interior time ``times[1:-1]``; needs nt >= 3."""
    if series.shape[0] < 3:
        raise InvalidArgumentError("need at least 3 stored time levels")
    times = np.asarray(times, dtype=float)
    return (series[2:] - series[:-2]) / (times[2:] - times[:-2])[:, None]


RHO_FLOOR_FRAC = 1e-12  # relative density floor of the support mask in every regime


def _support_mask(rho: np.ndarray, floor_frac: float) -> np.ndarray:
    """Support of a density: the equations hold only where rho > 0, and every
    regime takes that region as the cells above ``floor_frac`` * max(rho) (per row of a stack)."""
    return (rho.T > floor_frac * rho.max(-1)).T


def _sqrt_density_ratio(op: TridiagonalOperator, rho: np.ndarray, mask) -> np.ndarray:
    """(H sqrt(rho)) / sqrt(rho) on ``mask`` and 0 elsewhere, with ``op``
    applied at the interior nodes and the Dirichlet zeros at the ends;
    ``mask`` is a boolean mask of rho's shape or, for one density, a slice."""
    sr = np.sqrt(rho)
    h_sr = np.zeros(rho.shape)
    h_sr[_INNER] = op.apply(sr[_INNER])
    out = np.zeros(rho.shape)
    out[mask] = h_sr[mask] / sr[mask]
    return out


def _moments(h: float, q: np.ndarray, dens: np.ndarray) -> tuple:
    """(centroid, variance) of the density ``dens`` on the nodes ``q`` of spacing h."""
    mean = h * float(np.sum(dens * q))
    return mean, h * float(np.sum(dens * (q - mean) ** 2))


def _check_positive(name: str, val: float, error: type) -> None:
    """Raises ``error`` unless val is finite and > 0."""
    if not (np.isfinite(val) and val > 0):
        raise error(f"{name} must be finite and > 0, got {val!r}")


def _check_fixed_steps(dt: float, n_steps: int, store_every: int) -> None:
    """Raises InvalidArgumentError unless dt is finite and > 0, 1 <= n_steps
    <= _MAX_STEPS and store_every >= 1."""
    _check_positive("dt", dt, InvalidArgumentError)
    if not 1 <= n_steps <= _MAX_STEPS:
        raise InvalidArgumentError(f"n_steps must be >= 1 and <= {_MAX_STEPS}, got {n_steps!r}")
    if store_every < 1:
        raise InvalidArgumentError(f"store_every must be >= 1, got {store_every!r}")


def _uniform_steps(t_final: float, dt: float) -> tuple:
    """(n_steps, dt') of the uniform steps of at most dt that reach t_final.

    Raises InvalidArgumentError unless both values are finite and > 0 and
    t_final / dt <= _MAX_STEPS.
    """
    _check_positive("t_final", t_final, InvalidArgumentError)
    _check_positive("dt", dt, InvalidArgumentError)
    ratio = t_final / dt
    if not ratio <= _MAX_STEPS:  # an overflow to inf fails too
        raise InvalidArgumentError(f"t_final / dt = {ratio!r} exceeds {_MAX_STEPS} steps ({t_final!r} / {dt!r})")
    n_steps = max(1, int(np.ceil(ratio)))
    return n_steps, t_final / n_steps
