"""Quantum sector of the scalar-field theory at desk scale (one field).

Pieces:

* invariant (vacuum) states: eigenpairs of the stationary operator
  -(f^2/(2 eta)) d^2/dq^2 + V(q) with confining V, ordered 0 <= w0 < w1 < ...;
* the constant energy-momentum tensor delta^sigma_nu * w_s of an invariant
  state, and the (finite) field fluctuations in the fundamental vacuum;
* the space-independent sector: linear evolution in x^0 with constant f,
  its pointwise random energy density and conserved mean energy;
* pointwise random energy/momentum densities from supplied multiplier
  fields;
* static spherically symmetric solutions built from the conjugate pair
  rho = phi_tilde * phi via successive approximation in the eigenbasis:
  the seed pair solves the system without the (f/r) log(phi/phi_tilde)
  source, and each sweep re-integrates that source in radius.  The
  asymptotic excess density decays like exp(-(w1 - w0) r / f), which sets
  the confinement radius f/(w1 - w0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidSpecError,
    InvalidStateError,
    NumericalFailureError,
)
from .numerics import (
    _NORM_TOL,
    RHO_FLOOR_FRAC,
    CayleyPropagator,
    Grid1D,
    _check_fixed_steps,
    _check_positive,
    _moments,
    _quad,
    _sqrt_density_ratio,
    _support_mask,
    eigensolve_lowest,
    grad_central,
    sturm_liouville_operator,
)
from .potentials import _sample

__all__ = [
    "QFieldSpec",
    "VacuumSpectrum",
    "vacuum_spectrum",
    "invariant_state_tensor",
    "field_fluctuations",
    "SpaceIndependentResult",
    "space_independent_evolve",
    "random_energy_density",
    "RadialPair",
    "ConfinedSolveResult",
    "confined_solve",
    "ConfinementReport",
    "confinement_report",
]


@dataclass(frozen=True)
class QFieldSpec:
    """Field metric eta > 0, confining potential V >= 0, action density f."""

    eta: float
    potential: Callable
    f: float

    def __post_init__(self):
        _check_positive("eta", self.eta, InvalidSpecError)
        _check_positive("f", self.f, InvalidSpecError)

    def v_at(self, q):
        return _sample(self.potential, q, "potential V(q)", False)

    def validate_on(self, grid: Grid1D):
        """Check the confinement conditions numerically on the grid:
        V >= 0 everywhere and growth toward both grid ends."""
        v = self.v_at(grid.nodes)
        if np.any(v < -1e-12):
            raise InvalidSpecError("potential must be nonnegative")
        mid = v[grid.n // 4 : (3 * grid.n) // 4]
        vmin = float(np.min(v))
        if v[0] <= vmin or v[-1] <= vmin or v[0] < np.max(mid) or v[-1] < np.max(mid):
            raise InvalidSpecError("potential must grow toward the grid ends")


_TAIL_TOL = 1e-6  # vacuum_spectrum: largest relative amplitude next to the grid ends
_TAIL_FLOOR = 1e-280  # confinement_report: smallest tail integral whose log enters the fit
_MAX_ITER = 60  # confined_solve: sweeps before giving up
_CHANGE_TOL = 1e-12  # confined_solve: mode-amplitude change that counts as converged
_PSI0_FLOOR = 1e-6  # confined_solve: relative |psi0| below which the log source is off
_BLOCK = 64  # confined_solve, tail_integral: most q rows or r columns in one (q, r) temporary


def _operator(spec: QFieldSpec, grid: Grid1D):
    return sturm_liouville_operator(grid, 1.0 / spec.eta, spec.v_at, coeff=spec.f * spec.f)


@dataclass(frozen=True)
class VacuumSpectrum:
    """Ordered eigenvalues w and grid-normalised eigenfunctions (columns);
    ``ortho`` is max |h psi^T psi - I|, the orthonormality error."""

    grid: Grid1D
    w: np.ndarray
    psi: np.ndarray  # (n, k), full-length vectors with Dirichlet zeros
    ortho: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if not (np.all(np.diff(w) > 0) and w[0] >= -1e-10 and np.isfinite(w[-1])):
            raise InvalidStateError("eigenvalues must be finite and satisfy 0 <= w0 < w1 < ...")
        gram = self.grid.h * psi.T @ psi
        ortho = float(np.max(np.abs(gram - np.eye(w.size))))
        if not ortho <= 1e-8:
            raise InvalidStateError("eigenfunctions not orthonormal to 1e-8")
        vars(self).update({"w": w, "psi": psi, "ortho": ortho})


def vacuum_spectrum(spec: QFieldSpec, grid: Grid1D, k: int) -> VacuumSpectrum:
    """Lowest k invariant states of the stationary operator with constant f.

    Raises NumericalFailureError when the requested eigenfunctions are not
    resolved by the grid (relative boundary amplitude above 1e-6).
    """
    spec.validate_on(grid)
    op = _operator(spec, grid)
    w, vecs = eigensolve_lowest(op, k, grid.h)
    # two rows at each end, taken by slices: on a one-row grid both are that row
    tails = np.maximum(np.abs(vecs[:2]).max(axis=0), np.abs(vecs[-2:]).max(axis=0)) / np.max(np.abs(vecs), axis=0)
    if np.any(tails > _TAIL_TOL):
        raise NumericalFailureError(
            "grid does not resolve the requested eigenfunctions",
            diagnostics={"relative_tail": tails.tolist()},
        )
    psi_full = np.zeros((grid.n, k))
    psi_full[1:-1] = vecs
    return VacuumSpectrum(grid, w, psi_full)


def invariant_state_tensor(ws: float) -> np.ndarray:
    """Mixed energy-momentum tensor of an invariant state in 1+1 dimensions: delta^s_n * ws."""
    if ws < 0:
        raise InvalidArgumentError(f"need ws >= 0, got {ws}")
    return ws * np.eye(2)


def field_fluctuations(vac: VacuumSpectrum):
    """(mean, variance) of the field in the fundamental vacuum psi_0^2."""
    mean, var = _moments(vac.grid.h, vac.grid.nodes, vac.psi[:, 0] ** 2)
    if not (np.isfinite(mean) and np.isfinite(var)):
        raise NumericalFailureError("fluctuations are not finite")
    return mean, var


@dataclass(frozen=True)
class SpaceIndependentResult:
    times: np.ndarray
    psi: np.ndarray  # (nt, n) snapshots
    energy_density: np.ndarray  # (nt, n), valid on mask
    mask: np.ndarray  # (nt, n) density-floor masks
    mean_energy: np.ndarray  # (nt,)


def space_independent_evolve(
    spec: QFieldSpec,
    grid: Grid1D,
    psi0: np.ndarray,
    dt: float,
    n_steps: int,
    store_every: int,
) -> SpaceIndependentResult:
    """Evolve i f dpsi/dx0 = -(f^2/2 eta) psi'' + V psi and record the
    pointwise random energy density and its (conserved) expectation.

    The energy density is -d(lam)/dx0 evaluated through the evolution
    equation itself: eps(q, x0) = Re(psi* H psi) / |psi|^2 on the density
    mask; the mean energy h * sum Re(psi* H psi) is constant in x0.
    Raises InvalidArgumentError unless dt is finite and > 0 and n_steps
    and store_every are >= 1.
    """
    _check_fixed_steps(dt, n_steps, store_every)
    op = _operator(spec, grid)
    norm = _quad(grid.h, np.abs(psi0) ** 2)
    if not abs(norm - 1.0) <= _NORM_TOL:  # NaN fails too
        raise InvalidStateError("psi0 must be grid-normalised")
    steps = CayleyPropagator(op, dt, spec.f).run(psi0, n_steps)
    records = [(k * dt, psi, h_in) for k, (psi, h_in) in enumerate(steps) if k % store_every == 0]
    times, psi, h_in = (np.array(column) for column in zip(*records))
    hpsi = np.zeros(psi.shape, dtype=complex)
    hpsi[:, 1:-1] = h_in
    dens = np.abs(psi) ** 2
    mask = _support_mask(dens, RHO_FLOOR_FRAC)
    e = np.real(np.conj(psi) * hpsi)
    eps = np.zeros(dens.shape)
    eps[mask] = e[mask] / dens[mask]
    mean_energy = _quad(grid.h, e)
    return SpaceIndependentResult(times, psi, eps, mask, mean_energy)


def random_energy_density(
    spec: QFieldSpec,
    grid: Grid1D,
    rho: np.ndarray,
    lam0: np.ndarray,
    lam_m: np.ndarray,
):
    """Pointwise random energy density and momentum densities from supplied
    multiplier fields (upper-index components):

        eps = (dq lam0)^2/(2 eta) + sum_m (dq lam^m)^2/(2 eta) + V
              - (f^2/(2 eta)) (d^2 sqrt(rho)/dq^2)/sqrt(rho)
        P_m = -(1/eta) (dq lam0)(dq lam^m)

    Returns (eps, P, mask); values are only meaningful on the mask.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise InvalidStateError("density must be nonnegative")
    lam0 = np.asarray(lam0, dtype=float)
    lam_m_arr = np.atleast_2d(np.asarray(lam_m, dtype=float))
    mask = _support_mask(rho, RHO_FLOOR_FRAC)
    # (H sqrt(rho))/sqrt(rho) carries V - quantum potential in one piece
    eps = _sqrt_density_ratio(_operator(spec, grid), rho, mask)
    g0 = grad_central(lam0, grid.h)
    eps[mask] += g0[mask] ** 2 / (2.0 * spec.eta)
    P = np.zeros((lam_m_arr.shape[0], grid.n))
    for m in range(lam_m_arr.shape[0]):
        gm = grad_central(lam_m_arr[m], grid.h)
        eps[mask] += gm[mask] ** 2 / (2.0 * spec.eta)
        P[m, mask] = -g0[mask] * gm[mask] / spec.eta
    return eps, P, mask


# ---------------------------------------------------------------------------
# static spherically symmetric (confined) solutions


@dataclass(frozen=True)
class RadialPair:
    """Conjugate pair phi, phi_tilde (nq x nr) with rho = phi_tilde * phi."""

    grid: Grid1D
    r: np.ndarray
    phi: np.ndarray
    phi_tilde: np.ndarray


@dataclass(frozen=True)
class ConfinedSolveResult:
    pair: RadialPair
    residual_history: list
    iterations: int
    mode_history: list  # stacked amplitudes (2, K, n_r) per accepted iterate, seed first; each unpacks as A, At


@dataclass(frozen=True)
class ConfinementReport:
    fitted_rate: float
    radius: float
    tail: np.ndarray  # tail_integral at every radius, the fitted ones and the rest


def _index_span(idx: np.ndarray):
    """The ascending indices ``idx``: a slice when they are contiguous, else
    the index array (a ground state can dip below the floor between wells)."""
    return slice(idx[0], idx[-1] + 1) if idx.size and idx[-1] - idx[0] + 1 == idx.size else idx


def _blocks(n: int) -> list:
    """range(n) in order as the fewest slices of at most _BLOCK, of near-equal
    width: a width-1 column block would sum pairwise, not row by row."""
    k = -(-n // _BLOCK)
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def _reverse_cumtrapz(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """I(r_j) = integral_{r_j}^{r_max} g dr, trapezoid on the given nodes."""
    seg = 0.5 * (g[..., 1:] + g[..., :-1]) * np.diff(r)
    out = np.zeros_like(g)
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return out


def confined_solve(
    spec: QFieldSpec,
    vac: VacuumSpectrum,
    c: Sequence[float],
    r_min: float,
    r_max: float,
    tol: float,
    n_r: int = 1200,
) -> ConfinedSolveResult:
    """Successive approximation for the conjugate-pair system

        -f dphi/dr      = (H - w0) phi      + (f/r) log(phi/phi_tilde) phi
        +f dphi_tilde/dr = (H - w0) phi_tilde + (f/r) log(phi/phi_tilde) phi_tilde

    in the truncated eigenbasis of H.  The seed is the exact solution of
    the log-free system: phi_0 = sum_n c_n psi_n exp(-(w_n - w0) r / f),
    phi_tilde_0 = c_0 psi_0 (the only bounded branch).  Each sweep
    re-integrates the log source from r to r_max (the bounded-solution
    quadrature), which reproduces the known large-r correction series.

    The expansion underlying the method is only justified at large radius;
    repeated sweeps amplify below roughly f/(w1 - w0), so the log source
    is switched on from max(r_min, f/(w1 - w0)) outward, and only where
    |psi0| exceeds 1e-6 of its maximum.  Fields below that radius are
    reported (seed plus the constant inward continuation of the
    corrections) but carry no accuracy claim, matching the residual
    window: the outer half of the radial range, which must start at or
    after the source radius.  A sweep works in one per-solve (2, nq, n_r)
    buffer, the pair stacked as everywhere in the solve (row 0 phi, row 1
    phi_tilde): the fields, then the fields times the log source (taken on
    the active box, those rows times a radial suffix; zero outside) for the
    projection, then the residual product.  It ends as the returned pair.
    The log source and the window's max |R| take the active rows in blocks of
    at most 64: no other temporary outgrows a block (products keep full shape).

    A sweep is accepted only if the window residual does not rise above
    max(previous, tol); a rising residual above tolerance stops the
    iteration as stagnation.  It converges once the residual is below tol
    and the mode amplitudes move by less than 1e-12, and stops after 60
    sweeps; a stopped solve whose last residual is not below tol raises
    NumericalFailureError.  Pure vacuum input (all higher c_n zero) is a
    fixed point and returns after zero iterations.
    """
    c = np.asarray(c, dtype=float)
    if c.size < 1 or abs(c[0] - 1.0) > 0:
        raise InvalidArgumentError("mode coefficients must start with c0 = 1")
    if c.size > vac.w.size:
        raise InvalidArgumentError("more coefficients than available modes")
    if not (0 < r_min < r_max):
        raise InvalidArgumentError("need 0 < r_min < r_max")
    if not (0 < tol < np.inf and n_r >= 2):  # a NaN tol fails too
        raise InvalidArgumentError(f"need tol finite and > 0 and n_r >= 2, got tol={tol!r}, n_r={n_r!r}")
    K = vac.w.size
    cs = np.zeros(K)
    cs[: c.size] = c
    f = spec.f
    dw = vac.w - vac.w[0]  # (K,)
    r = np.geomspace(r_min, r_max, n_r)
    psi_mat = vac.psi  # (nq, K)
    h = vac.grid.h
    psi0 = psi_mat[:, 0]
    qmask = _support_mask(np.abs(psi0), _PSI0_FLOOR)
    source_r_start = max(r_min, f / dw[1]) if K > 1 else r_min
    resid_lo = r_min + 0.5 * (r_max - r_min)  # the residual window is [resid_lo, r_max]
    if resid_lo < source_r_start:
        raise InvalidArgumentError("r_max too small: the residual window must start at or after f/(w1 - w0)")

    A0 = np.zeros((2, K, n_r))  # the pair's amplitudes: row 0 phi, row 1 phi_tilde
    A0[0] = cs[:, None] * np.exp(-np.outer(dw, r) / f)
    A0[1, 0] = cs[0]
    sign = np.array([1.0, -1.0])[:, None, None]  # -f dphi/dr, +f dphi_tilde/dr

    # the log source and the residual window are boxes: the qmask rows times
    # a suffix of the ascending r (never empty for the window: r[-1] == r_max),
    # visited in blocks of at most _BLOCK rows, each a slice where it can be
    rows = np.flatnonzero(qmask)
    row_blocks = [_index_span(rows[b]) for b in _blocks(rows.size)]
    src_col, res_col = (int(np.count_nonzero(r < r0)) for r0 in (source_r_start, resid_lo))
    fields = np.empty((2, psi_mat.shape[0], n_r))

    def sources(A):
        """P: the log source times each field of the amplitudes A, projected on the modes."""
        np.matmul(psi_mat, A, out=fields)
        for rb in row_blocks:
            blk = fields[:, rb, src_col:]  # a copy where rb is an index array
            bad = () if blk.min() > 0.0 else np.argwhere((blk <= 0.0).any(axis=0))  # a NaN passes
            if len(bad):  # rows in order: the block's first bad cell of either field is the box's
                raise NumericalFailureError("conjugate pair lost positivity", diagnostics={
                    "q": float(vac.grid.nodes[rb][bad[0, 0]]), "r": float(r[src_col + bad[0, 1]])})
            ratio = np.divide(blk[0], blk[1])  # np.log on a contiguous array: a strided output may take another loop
            fields[:, rb, src_col:] *= np.log(ratio, out=ratio)  # times the log source, zero outside the box
        fields[:, :, :src_col] = 0.0
        fields[:, ~qmask] = 0.0
        return h * (psi_mat.T @ fields)  # (2, K, nr)

    def residual_max(P_prev, P_new, C):
        np.matmul(psi_mat, (f / r) * (P_prev - P_new) - dw[:, None] * C, out=fields)
        ends = [(R.max(), -R.min()) for R in (fields[:, rb, res_col:] for rb in row_blocks)]
        return abs(float(np.max(ends)))  # max |R|: np.max keeps a NaN, abs turns -0.0 into 0.0

    A, P = A0, sources(A0)
    # seed residual: the missing log source (the seed solves the log-free
    # system exactly in the discrete eigenbasis)
    history, mode_history = [residual_max(0.0, P, 0.0)], [A]
    converged = history[0] < tol and not np.any(cs[1:])

    while not converged and len(history) <= _MAX_ITER:  # one entry per accepted sweep after the seed's
        C = sign * _reverse_cumtrapz(P / r, r)
        A_new = A0 + C
        P_new = sources(A_new)
        resid_new = residual_max(P, P_new, C)
        if resid_new > max(history[-1] * (1.0 + 1e-12), tol):
            break  # residual stagnated above tolerance: reject the sweep
        converged = resid_new < tol and float(np.max(np.abs(A_new - A))) < _CHANGE_TOL
        A, P = A_new, P_new
        history.append(resid_new)
        mode_history.append(A)
    if not history[-1] < tol:  # a converged solve ends below tol; a stopped one is accepted there too
        raise NumericalFailureError(
            "confined solve did not reach tolerance (max-iterations)",
            diagnostics={"residual_history": history},
        )
    pair = RadialPair(vac.grid, r, *np.matmul(psi_mat, A, out=fields))
    return ConfinedSolveResult(pair, history, len(history) - 1, mode_history)


def tail_integral(pair: RadialPair, vac: VacuumSpectrum) -> np.ndarray:
    """h * sum_q |rho(q, r) - psi0(q)^2| for each radius, in blocks of at most 64
    radii; each column sums over q row by row, as a whole-grid sum would."""
    rho0 = vac.psi[:, :1] ** 2
    tail = np.empty(pair.phi.shape[1])
    for b in _blocks(tail.size):
        tail[b] = _quad(pair.grid.h, np.abs(pair.phi[:, b] * pair.phi_tilde[:, b] - rho0).T)
    return tail


def confinement_report(pair: RadialPair, vac: VacuumSpectrum, f: float, window: tuple) -> ConfinementReport:
    """Least-squares decay rate of log(tail) over the radii in ``window``
    (lo, hi) and the confinement radius f / (w1 - w0)."""
    tail = tail_integral(pair, vac)
    r = pair.r
    sel = (r >= window[0]) & (r <= window[1]) & (tail > _TAIL_FLOOR)
    if np.count_nonzero(sel) < 2:
        raise NumericalFailureError("fit window empty: tail below numerical floor")
    slope, _ = np.polyfit(r[sel], np.log(tail[sel]), 1)
    radius = f / (vac.w[1] - vac.w[0])
    return ConfinementReport(float(-slope), float(radius), tail)
