"""Shared numerical kernels: uniform grids, symmetric tridiagonal operators,
their low-lying spectra and Cayley (trapezoidal) unitary stepping.

Conventions used throughout the package:

* grids are uniform, fields carry one value per node;
* differential operators impose a homogeneous Dirichlet condition at the
  grid *end nodes*, so a ``TridiagonalOperator`` built from a grid with
  ``n`` nodes acts on the ``n - 2`` interior values;
* all normalisations use the plain grid quadrature ``h * sum(.)``, which
  coincides with the trapezoid rule for fields that have decayed at the
  boundary; every module takes it from ``_quad``, and a unit norm holds to
  ``_NORM_TOL``;
* spatial helpers act along the last axis: given a stack of snapshots
  ``(nt, n)`` they evaluate every row at once, with the bits of a call on
  each row;
* the linear regimes (Schrodinger, the space-independent sector) step
  through ``CayleyPropagator.run``, which applies H once per step;
* LAPACK is scipy's compiled ``scipy.linalg._flapack``, loaded by ``_lapack``
  on first use without running scipy's package inits (about 0.2 s and 28 MB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from typing import Callable

import numpy as np

from .config import _MAX_STEPS  # numpy-free config owns the step cap, so check applies it too
from .errors import InvalidArgumentError, NumericalFailureError

__all__ = [
    "Grid1D",
    "TridiagonalOperator",
    "build_grid",
    "sturm_liouville_operator",
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
            raise InvalidArgumentError("need diagonal of length m and off-diagonal of length m-1")
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
        return np.diag(self.diagonal) + np.diag(self.off_diagonal, 1) + np.diag(self.off_diagonal, -1)


def sturm_liouville_operator(
    grid: Grid1D,
    mu: Callable[[np.ndarray], np.ndarray] | float,
    potential: Callable[[np.ndarray], np.ndarray],
    coeff: float = 1.0,
) -> TridiagonalOperator:
    """Discretise -(coeff/2) d/dq (mu(q) d/dq .) + V(q) on the interior nodes.

    ``mu`` (a constant or a function) is evaluated at face midpoints (flux
    form), ``potential`` at the interior nodes.
    """
    h = grid.h
    q_in = grid.nodes[1:-1]
    faces = grid.midpoints
    mu_f = np.full(faces.shape, float(mu)) if np.isscalar(mu) else np.asarray(mu(faces), dtype=float)
    if np.any(mu_f <= 0):
        raise InvalidArgumentError("mu(q) must be positive on all faces")
    v_in = np.asarray(potential(q_in), dtype=float)
    if not np.all(np.isfinite(v_in)):
        raise InvalidArgumentError("potential must be finite on the grid")
    k = 0.5 * coeff / (h * h)
    diag = k * (mu_f[:-1] + mu_f[1:]) + v_in
    off = -k * mu_f[1:-1]
    return TridiagonalOperator(diag, off)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry positive."""
    vecs[:, vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])] < 0] *= -1.0
    return vecs


@cache
def _lapack():
    """scipy's LAPACK wrappers, scipy.linalg._flapack, loaded from scipy's directory: no package init runs."""
    scipy = find_spec("scipy")  # finds the package without running its __init__
    dirs = scipy.submodule_search_locations if scipy else []
    spec = PathFinder.find_spec("scipy.linalg._flapack", [f"{d}/linalg" for d in dirs])
    if spec is None:
        raise ImportError("varq needs the compiled module scipy.linalg._flapack (scipy >= 1.10)")
    module = module_from_spec(spec)  # its functions are the objects scipy.linalg.lapack hands out
    spec.loader.exec_module(module)
    return module


def eigensolve_lowest(op: TridiagonalOperator, k: int, h: float):
    """Lowest k eigenpairs of a symmetric tridiagonal operator.

    Returns (w, vecs) with ``w`` strictly increasing and ``vecs[:, j]``
    normalised so that h * sum(v**2) = 1.  The ground state is sign-fixed
    to be nonnegative; excited states get a deterministic sign.

    Eigenvalues come from bisection on the Sturm sequence (LAPACK dstebz),
    eigenvectors from inverse iteration (dstein), called through ``_lapack``
    as scipy's ``eigh_tridiagonal(select="i")`` calls them.  A non-finite
    entry or a nonzero info raises NumericalFailureError.  A pair equal or
    swapped by at most 4 eps ``norm`` (||H|| <= max|diag| + 2 max|off|) is
    reported as degenerate to rounding, not as a solver failure.
    """
    if k < 1 or k > op.size:
        raise InvalidArgumentError(f"need 1 <= k <= {op.size}, got {k}")
    d, e = op.diagonal, op.off_diagonal
    w, vecs, reason = d[:1], np.ones((1, 1)), None  # the eigenpair of size 1, which the dstebz wrapper rejects
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        reason = "non-finite operator entries"
    elif op.size > 1:
        m, w, iblock, isplit, info = _lapack().dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")  # the lowest k, block order
        w, reason = w[:m], f"dstebz info {info}"
        if info == 0:
            vecs, info = _lapack().dstein(d, e, w, iblock, isplit)
            reason = f"dstein info {info}" if info else None
    if reason:
        raise NumericalFailureError("tridiagonal eigensolver failed to converge",
                                    diagnostics={"size": op.size, "k": k, "reason": reason})
    order = np.argsort(w)  # block order to ascending
    w, vecs = w[order], _fix_signs(vecs[:, order])
    vecs /= np.sqrt(_quad(h, (vecs**2).T))  # the columns: a view, summed in memory order
    if np.any(vecs[:, 0] < -1e-10 * np.max(np.abs(vecs[:, 0]))):
        # nonzero off-diagonals guarantee a nodeless ground state; a sign
        # flip can only hide in roundoff
        raise NumericalFailureError("ground state is not sign-definite")
    gaps = np.diff(w)
    if np.any(gaps <= 0):
        j = int((gaps <= 0).argmax())
        gap, norm = float(gaps[j]), float(np.abs(op.diagonal).max() + 2.0 * np.abs(op.off_diagonal).max())
        what = (f"eigenvalues {j} and {j + 1} are degenerate to rounding: gap {gap:.3g}, ||H|| <= {norm:.4g}"
                if gap >= -4.0 * np.finfo(float).eps * norm else "eigenvalues not strictly increasing")
        raise NumericalFailureError(what, diagnostics={"w": w, "gap": gap, "norm": norm})
    return w, vecs


class CayleyPropagator:
    """Pre-factored Cayley step (1 + i dt H / 2a) psi+ = (1 - i dt H / 2a) psi.

    The map is exactly unitary for hermitian H and any real dt, so the
    discrete L2 norm is preserved to solver roundoff.

    The matrix 1 + i dt H / 2a is built and LU-factored once, with partial
    pivoting (LAPACK ?gttrf); each step solves with the stored factors
    (?gttrs). That is the same elimination ?gtsv runs, so a step has the
    bits of a one-shot tridiagonal solve of the unfactored matrix. The
    zgttrf wrapper rejects sizes 1 and 2, and so does the propagator: H needs
    at least 3 interior values (a grid of 5 nodes), else InvalidArgumentError.

    A non-finite matrix is rejected when the propagator is built
    (InvalidArgumentError); a non-finite state raises NumericalFailureError
    in ``step``.  ``step(psi)`` on an interior state is a one-step ``run``,
    whose steps reuse the H psi they yield, so H is applied once per step.
    """

    def __init__(self, op: TridiagonalOperator, dt: float, a: float):
        _check_positive("a", a, InvalidArgumentError)
        if not np.isfinite(dt):
            raise InvalidArgumentError("dt must be finite")
        if op.size < 3:
            raise InvalidArgumentError(f"need an operator of size >= 3 (a grid of 5 nodes), got size {op.size}")
        self.op = op
        self._mu = mu = 0.5j * dt / a
        off, diag = mu * op.off_diagonal, 1.0 + mu * op.diagonal
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise InvalidArgumentError("Cayley matrix must be finite: check the operator entries and dt / a")
        self._gttrs = _lapack().zgttrs
        *factors, info = _lapack().zgttrf(off, diag, off)  # copies its inputs: one array serves both off-diagonals
        if info > 0:  # cannot happen for hermitian op, real dt
            raise NumericalFailureError(
                "singular Cayley system", diagnostics={"size": op.size, "zero_pivot": info}
            )
        self._factors = factors

    def _solve(self, psi: np.ndarray, hpsi: np.ndarray) -> np.ndarray:
        """The step from psi, given H psi."""
        rhs = psi - self._mu * hpsi
        if not np.isfinite(rhs).all():
            bad = int(np.count_nonzero(~np.isfinite(rhs)))
            raise NumericalFailureError(
                "non-finite state in Cayley step", diagnostics={"size": rhs.size, "nonfinite": bad}
            )
        # ?gttrs fails only on an illegal argument, which the stored factors exclude
        x, _ = self._gttrs(*self._factors, rhs, overwrite_b=True)
        return x

    def step(self, psi: np.ndarray) -> np.ndarray:
        return self._solve(psi, self.op.apply(np.asarray(psi, dtype=complex)))

    def run(self, psi: np.ndarray, n_steps: int):
        """Yield (psi, H psi[1:-1]) for a copy of the full-length state ``psi``
        and after each of ``n_steps`` steps: k = 0, 1, ..., n_steps. The
        stepped states carry the Dirichlet zeros at both ends."""
        psi = np.array(psi, dtype=complex)
        hpsi = self.op.apply(psi[1:-1])
        yield psi, hpsi
        for _ in range(n_steps):
            nxt = np.zeros(psi.size, complex)  # np.zeros_like costs 1.2 us more at n = 1401
            nxt[1:-1] = self._solve(psi[1:-1], hpsi)
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
_NORM_TOL = 1e-9  # |h*sum(.) - 1| that a state called normalised may show


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


def _quad(h: float, f: np.ndarray):
    """The grid quadrature h * sum(f) of one field (a float) or of each row of a stack."""
    return h * float(f.sum()) if f.ndim == 1 else h * f.sum(axis=-1)


def _moments(h: float, q: np.ndarray, dens: np.ndarray) -> tuple:
    """(centroid, variance) of the density ``dens`` on the nodes ``q`` of spacing h."""
    mean = _quad(h, dens * q)
    return mean, _quad(h, dens * (q - mean) ** 2)


def _check_positive(name: str, val: float, error: type) -> None:
    """Raises ``error`` unless val is finite and > 0."""
    if not (np.isfinite(val) and val > 0):
        raise error(f"{name} must be finite and > 0, got {val!r}")


def _check_steps(name: str, n_steps: int, least: int) -> None:
    """Raises InvalidArgumentError unless the count ``name`` is an integer (no bool) in [least, _MAX_STEPS]."""
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or not least <= n_steps <= _MAX_STEPS:
        raise InvalidArgumentError(f"{name} must be an integer >= {least} and <= {_MAX_STEPS}, got {n_steps!r}")


def _check_fixed_steps(dt: float, n_steps: int, store_every: int) -> None:
    """Raises InvalidArgumentError unless dt is finite and > 0 and n_steps
    and store_every are integers in [1, _MAX_STEPS]."""
    _check_positive("dt", dt, InvalidArgumentError)
    _check_steps("n_steps", n_steps, 1)
    _check_steps("store_every", store_every, 1)


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
