"""Shared numerical kernels: uniform grids, symmetric tridiagonal operators,
their low-lying spectra, Cayley (trapezoidal) unitary stepping and RK4.

Conventions used throughout the package:

* grids are uniform, fields carry one value per node;
* differential operators impose a homogeneous Dirichlet condition at the
  grid *end nodes*, so a ``TridiagonalOperator`` built from a grid with
  ``n`` nodes acts on the ``n - 2`` interior values;
* all normalisations use the plain grid quadrature ``h * sum(.)``, which
  coincides with the trapezoid rule for fields that have decayed at the
  boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .errors import InvalidArgumentError, NumericalFailureError

__all__ = [
    "Grid1D",
    "TridiagonalOperator",
    "build_grid",
    "sturm_liouville_operator",
    "embed_interior",
    "eigensolve_lowest",
    "CayleyPropagator",
    "rk4_step",
    "grad_central",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [q_min, q_max] with n nodes, spacing h."""

    q_min: float
    q_max: float
    n: int

    @property
    def h(self) -> float:
        return (self.q_max - self.q_min) / (self.n - 1)

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
        """Matrix-vector product; accepts real or complex v."""
        out = self.diagonal * v
        out[:-1] += self.off_diagonal * v[1:]
        out[1:] += self.off_diagonal * v[:-1]
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

    def step(self, psi: np.ndarray) -> np.ndarray:
        rhs = psi - self._mu * self.op.apply(psi.astype(complex))
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


def rk4_step(f: Callable[[np.ndarray], np.ndarray], state: np.ndarray, dt: float) -> np.ndarray:
    """Classical 4th-order Runge-Kutta update for an autonomous system.

    ``mechanics.hamilton_flow`` runs these stages on Python floats, in this
    operation order and with this check; change the two together.
    """
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(f(y))
    k2 = np.asarray(f(y + 0.5 * dt * k1))
    k3 = np.asarray(f(y + 0.5 * dt * k2))
    k4 = np.asarray(f(y + dt * k3))
    if not (
        np.all(np.isfinite(k1))
        and np.all(np.isfinite(k2))
        and np.all(np.isfinite(k3))
        and np.all(np.isfinite(k4))
    ):
        raise NumericalFailureError("non-finite derivative in rk4_step")
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def grad_central(f: np.ndarray, h: float) -> np.ndarray:
    """Second-order central gradient with one-sided second-order ends."""
    f = np.asarray(f)
    g = np.empty_like(f, dtype=complex if np.iscomplexobj(f) else float)
    g[1:-1] = (f[2:] - f[:-2]) * (0.5 / h)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return g


RHO_FLOOR_FRAC = 1e-12  # relative density floor of the support mask in every regime


def _support_mask(rho: np.ndarray, floor_frac: float) -> np.ndarray:
    """Support of a density: the equations hold only where rho > 0, and every
    regime takes that region as the cells above ``floor_frac`` * max(rho)."""
    return rho > floor_frac * float(rho.max())


def _sqrt_density_ratio(grid: Grid1D, op: TridiagonalOperator, rho: np.ndarray, mask) -> np.ndarray:
    """(H sqrt(rho)) / sqrt(rho) on ``mask`` (a boolean mask or a slice)
    and 0 elsewhere, with ``op`` applied at the interior nodes and the
    Dirichlet zeros at the ends."""
    sr = np.sqrt(rho)
    h_sr = embed_interior(grid, op.apply(sr[1:-1]))
    out = np.zeros(grid.n)
    out[mask] = h_sr[mask] / sr[mask]
    return out


def _check_positive(name: str, val: float, error: type) -> None:
    """Raises ``error`` unless val is finite and > 0."""
    if not (np.isfinite(val) and val > 0):
        raise error(f"{name} must be finite and > 0, got {val!r}")


def _check_fixed_steps(dt: float, n_steps: int, store_every: int) -> None:
    """Raises InvalidArgumentError unless dt is finite and > 0, n_steps >= 1
    and store_every >= 1."""
    _check_positive("dt", dt, InvalidArgumentError)
    if n_steps < 1:
        raise InvalidArgumentError(f"n_steps must be >= 1, got {n_steps!r}")
    if store_every < 1:
        raise InvalidArgumentError(f"store_every must be >= 1, got {store_every!r}")


def _uniform_steps(t_final: float, dt: float) -> tuple:
    """(n_steps, dt') of the uniform steps of at most dt that reach t_final.

    Raises InvalidArgumentError unless both values are finite and > 0.
    """
    _check_positive("t_final", t_final, InvalidArgumentError)
    _check_positive("dt", dt, InvalidArgumentError)
    ratio = t_final / dt
    if not np.isfinite(ratio):
        raise InvalidArgumentError(f"t_final / dt is not finite ({t_final!r} / {dt!r})")
    n_steps = max(1, int(np.ceil(ratio)))
    return n_steps, t_final / n_steps
