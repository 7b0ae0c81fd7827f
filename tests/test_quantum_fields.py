import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varq import hydrodynamics as hy
from varq import mechanics as mech
from varq import potentials as pot
from varq import quantum_fields as qf
from varq.errors import InvalidArgumentError, InvalidSpecError, InvalidStateError, NumericalFailureError
from varq.numerics import CayleyPropagator, _support_mask, build_grid


def harmonic_field_spec(k=1.0, eta=1.0, f=1.0):
    return qf.QFieldSpec(eta=eta, potential=lambda q: 0.5 * k * np.square(q), f=f)


@pytest.fixture(scope="module")
def harmonic_vacuum():
    spec = harmonic_field_spec()
    grid = build_grid(-8.0, 8.0, 801)
    return spec, grid, qf.vacuum_spectrum(spec, grid, 8)


class TestVacuumSpectrum:
    def test_harmonic_levels(self):
        spec = harmonic_field_spec()
        grid = build_grid(-10, 10, 2000)
        vac = qf.vacuum_spectrum(spec, grid, 3)
        assert np.max(np.abs(vac.w - [0.5, 1.5, 2.5])) < 1e-4

    def test_scaling_with_stiffness_and_metric(self):
        # w_r = f sqrt(k/eta) (r + 1/2)
        k, eta, f = 2.0, 0.5, 0.7
        spec = harmonic_field_spec(k=k, eta=eta, f=f)
        grid = build_grid(-8, 8, 1600)
        vac = qf.vacuum_spectrum(spec, grid, 3)
        expected = f * np.sqrt(k / eta) * (np.arange(3) + 0.5)
        assert np.max(np.abs(vac.w - expected)) < 1e-4

    def test_constant_shift(self):
        spec = harmonic_field_spec()
        shifted = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * np.square(q) + 0.75, f=1.0)
        grid = build_grid(-10, 10, 1200)
        w1 = qf.vacuum_spectrum(spec, grid, 3).w
        w2 = qf.vacuum_spectrum(shifted, grid, 3).w
        assert np.max(np.abs(w2 - (w1 + 0.75))) < 1e-9

    def test_quartic_against_dense_diagonalisation(self):
        spec = qf.QFieldSpec(eta=1.0, potential=lambda q: np.power(q, 4), f=1.0)
        grid = build_grid(-6, 6, 900)
        vac = qf.vacuum_spectrum(spec, grid, 1)
        from varq.quantum_fields import _operator

        dense = _operator(spec, grid).dense()
        w_dense = np.linalg.eigvalsh(dense)[0]
        assert abs(vac.w[0] - w_dense) < 1e-6

    def test_unresolved_grid_rejected(self):
        spec = harmonic_field_spec()
        grid = build_grid(-3, 3, 200)  # psi_7 does not fit in [-3, 3]
        with pytest.raises(NumericalFailureError):
            qf.vacuum_spectrum(spec, grid, 8)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_grid_of_four_interior_rows_or_fewer_does_not_resolve(self, n):
        # the tail test reads two rows at each end, so on these grids every row;
        # one interior row raised IndexError
        with pytest.raises(NumericalFailureError, match="grid does not resolve the requested eigenfunctions"):
            qf.vacuum_spectrum(harmonic_field_spec(), build_grid(-3, 3, n), 1)

    def test_nonconfining_potential_rejected(self):
        spec = qf.QFieldSpec(eta=1.0, potential=lambda q: np.zeros_like(np.asarray(q, dtype=float)), f=1.0)
        grid = build_grid(-5, 5, 200)
        with pytest.raises(InvalidSpecError):
            spec.validate_on(grid)

    def test_ground_state_positive_interior(self, harmonic_vacuum):
        _, grid, vac = harmonic_vacuum
        assert np.all(vac.psi[1:-1, 0] > 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 1, -1])
    def test_non_finite_eigenvalue_rejected(self, harmonic_vacuum, index, value):
        _, grid, vac = harmonic_vacuum
        w = vac.w.copy()
        w[index] = value
        with pytest.raises(InvalidStateError, match="eigenvalues must be finite"):
            qf.VacuumSpectrum(grid, w, vac.psi)

    def test_non_finite_eigenfunctions_rejected(self, harmonic_vacuum):
        _, grid, vac = harmonic_vacuum
        with pytest.raises(InvalidStateError, match="orthonormal"):
            qf.VacuumSpectrum(grid, vac.w, np.full(vac.psi.shape, np.nan))
        psi = vac.psi.copy()
        psi[grid.n // 2, 1] = np.nan
        with pytest.raises(InvalidStateError, match="orthonormal"):
            qf.VacuumSpectrum(grid, vac.w, psi)


def _even_well(c4, a2, c0):
    """c0 + c4 (q^2 - a2)^2: a double well for a2 > 0, a single one otherwise."""
    return pot.polynomial([c0 + c4 * a2 * a2, 0.0, -2.0 * c4 * a2, 0.0, c4])


# confining potentials from the catalog, from a scale s > 0, a shape u in
# [-1, 1], a shift c0 >= 0 and T = f^2 / (2 eta).  The well's a2 keeps the
# barrier's WKB action below 2 a^3 sqrt(c4 / T) <= 20: a deeper barrier
# splits its lowest pair by less than rounding (action 43 at c4 = 1/16,
# a2 = 16, T = 1/4, drawn before this bound), and the solver then refuses
# the pair as not strictly increasing or the ground state as not signed.
CONFINING = {
    "harmonic": lambda s, u, c0, T: pot.harmonic(s),
    "quartic": lambda s, u, c0, T: pot.quartic(s),
    "polynomial": lambda s, u, c0, T: _even_well(s, u * (10.0 * np.sqrt(T / s)) ** (2.0 / 3.0), c0),
}


def resolving_half_width(v, T, levels):
    """A grid half-width that resolves the lowest ``levels`` states of
    -T d^2/dq^2 + V for an even V that grows beyond its last minimum.

    E = min over a of T (pi levels / 2a)^2 + max_{|q| <= a} V bounds the
    level w_{levels-1} from above (min-max on the Dirichlet box [-a, a]);
    the half-width is where the WKB decay integral of sqrt((V - E) / T)
    beyond the last q with V <= E reaches 30, far past the relative tail
    1e-6 (exp(-13.8)) that vacuum_spectrum refuses."""
    q = np.linspace(0.0, 100.0, 100001)
    vq = v(q)
    e = np.min(T * (np.pi * levels / (2.0 * q[1:])) ** 2 + np.maximum.accumulate(vq)[1:])
    last = np.flatnonzero(vq <= e)[-1]
    decay = np.cumsum(np.sqrt(np.maximum(vq[last:] - e, 0.0) / T)) * (q[1] - q[0])
    return q[last + np.searchsorted(decay, 30.0)]


class TestVacuumProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=100, max_value=400),
        kind=st.sampled_from(sorted(CONFINING)),
        s=st.floats(min_value=0.05, max_value=5.0),
        u=st.floats(min_value=-1.0, max_value=1.0),
        c0=st.floats(min_value=0.0, max_value=1.0),
        eta=st.floats(min_value=0.5, max_value=2.0),
        f=st.floats(min_value=0.5, max_value=2.0),
        k_eigen=st.integers(min_value=1, max_value=5),
    )
    def test_spectrum_is_ordered_orthonormal_rayleigh(self, n, kind, s, u, c0, eta, f, k_eigen):
        # a refused draw (unresolved tails, an unordered pair) fails here
        T = f * f / (2.0 * eta)
        spec = qf.QFieldSpec(eta=eta, potential=CONFINING[kind](s, u, c0, T).v, f=f)
        half = resolving_half_width(spec.v_at, T, k_eigen)
        grid = build_grid(-half, half, n)
        vac = qf.vacuum_spectrum(spec, grid, k_eigen)
        assert np.all(np.diff(vac.w) > 0)
        assert np.max(np.abs(grid.h * vac.psi.T @ vac.psi - np.eye(k_eigen))) <= 1e-8
        # |h psi^T H psi - w| <= n eps ||H||_inf: the rounding bound of an
        # n-term dot product, with h |psi|^2 = 1; the eigensolver's residual
        # is a few eps ||H|| (at most 0.66 eps ||H|| over 3000 draws)
        op = qf._operator(spec, grid)
        h_norm = np.max(np.abs(op.diagonal)) + 2.0 * np.max(np.abs(op.off_diagonal))
        tol = n * np.finfo(float).eps * h_norm
        for i in range(k_eigen):
            psi = vac.psi[1:-1, i]
            assert abs(grid.h * psi @ op.apply(psi) - vac.w[i]) <= tol

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=100, max_value=400),
        kind=st.sampled_from(sorted(CONFINING)),
        s=st.floats(min_value=0.05, max_value=5.0),
        u=st.floats(min_value=-1.0, max_value=1.0),
        c0=st.floats(min_value=0.0, max_value=1.0),
        eta=st.floats(min_value=0.5, max_value=2.0),
        f=st.floats(min_value=0.5, max_value=2.0),
        modes=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4, unique=True),
        dt=st.floats(min_value=1e-3, max_value=0.1),
        n_steps=st.integers(min_value=1, max_value=60),
    )
    def test_superposition_keeps_its_mean_energy(self, n, kind, s, u, c0, eta, f, modes, dt, n_steps):
        # the space-independent runner's start state and its two invariants, at their tolerances
        T = f * f / (2.0 * eta)
        spec = qf.QFieldSpec(eta=eta, potential=CONFINING[kind](s, u, c0, T).v, f=f)
        half = resolving_half_width(spec.v_at, T, max(modes) + 1)
        grid = build_grid(-half, half, n)
        vac = qf.vacuum_spectrum(spec, grid, max(modes) + 1)
        psi0 = np.sum(vac.psi[:, modes], axis=1) / np.sqrt(len(modes))
        res = qf.space_independent_evolve(spec, grid, psi0.astype(complex), dt, n_steps,
                                          store_every=max(1, n_steps // 50))
        wbar = float(np.mean(vac.w[modes]))
        assert np.max(np.abs(res.mean_energy - res.mean_energy[0])) / abs(res.mean_energy[0]) <= 1e-8
        assert abs(res.mean_energy[0] - wbar) / wbar <= 1e-6


class TestConfinedProperties:
    # 80 draws take about 1.2 s; a few of them raise NumericalFailureError
    # (lost positivity, max-iterations), on which the confined runner exits 3
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=100, max_value=300),
        kind=st.sampled_from(sorted(CONFINING)),
        s=st.floats(min_value=0.05, max_value=5.0),
        u=st.floats(min_value=-1.0, max_value=1.0),
        c0=st.floats(min_value=0.0, max_value=1.0),
        eta=st.floats(min_value=0.5, max_value=2.0),
        f=st.floats(min_value=0.5, max_value=2.0),
        cn=st.lists(st.floats(min_value=0.0, max_value=0.2), min_size=1, max_size=4),
        n_r=st.integers(min_value=100, max_value=400),
    )
    def test_solve_converges_monotone_and_positive_beyond_the_source_radius(self, n, kind, s, u, c0, eta, f, cn,
                                                                           n_r):
        # the confined runner's radii and tolerance, K = len(cn) + 1 modes
        T = f * f / (2.0 * eta)
        spec = qf.QFieldSpec(eta=eta, potential=CONFINING[kind](s, u, c0, T).v, f=f)
        half = resolving_half_width(spec.v_at, T, len(cn) + 1)
        grid = build_grid(-half, half, n)
        vac = qf.vacuum_spectrum(spec, grid, len(cn) + 1)
        dw, tol = vac.w[1] - vac.w[0], 1e-8
        r_min = 0.5 * f / dw
        try:
            res = qf.confined_solve(spec, vac, [1.0, *cn], r_min, 30.0 * f / dw, tol, n_r)
        except NumericalFailureError:
            assume(False)  # a discarded draw, so a solver that stops returning fails the health check
        hist = np.asarray(res.residual_history)
        above = hist[hist > tol]
        assert np.all(np.diff(above) <= 0.0)
        assert hist[-1] < tol
        # no claim below the source radius, where the log source is off
        qmask = _support_mask(np.abs(vac.psi[:, 0]), qf._PSI0_FLOOR)
        rho = res.pair.phi_tilde * res.pair.phi
        assert np.all(rho[qmask][:, res.pair.r >= max(r_min, f / dw)] >= 0.0)


class TestInvariantStateTensor:
    def test_fundamental_vacuum(self):
        t = qf.invariant_state_tensor(0.5)
        assert np.array_equal(t, 0.5 * np.eye(2))

    def test_zero_energy(self):
        assert np.array_equal(qf.invariant_state_tensor(0.0), np.zeros((2, 2)))

    def test_negative_energy_rejected(self):
        with pytest.raises(InvalidArgumentError):
            qf.invariant_state_tensor(-1.0)


class TestFluctuations:
    def test_harmonic_variance(self):
        spec = harmonic_field_spec()
        grid = build_grid(-10, 10, 2000)
        vac = qf.vacuum_spectrum(spec, grid, 1)
        mean, var = qf.field_fluctuations(vac)
        assert abs(mean) < 1e-8
        assert var == pytest.approx(0.5, abs=1e-4)

    def test_variance_scales_linearly_with_f(self):
        grid = build_grid(-10, 10, 2000)
        var = {}
        for f in (1.0, 0.5):
            vac = qf.vacuum_spectrum(harmonic_field_spec(f=f), grid, 1)
            var[f] = qf.field_fluctuations(vac)[1]
        assert var[0.5] == pytest.approx(0.5 * var[1.0], rel=1e-3)


class TestSpaceIndependent:
    def test_eigenstate_energy_density_is_flat(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        r = 1
        res = qf.space_independent_evolve(spec, grid, vac.psi[:, r].astype(complex), 2e-3, 400,
                                          store_every=100)
        for k in range(len(res.times)):
            dev = np.abs(res.energy_density[k][res.mask[k]] - vac.w[r])
            assert np.max(dev) < 1e-4

    def test_superposition_mean_energy_constant(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        psi0 = (vac.psi[:, 0] + vac.psi[:, 1]) / np.sqrt(2.0)
        res = qf.space_independent_evolve(spec, grid, psi0.astype(complex), 2e-3, 1500,
                                          store_every=50)
        drift = np.max(np.abs(res.mean_energy - res.mean_energy[0])) / abs(res.mean_energy[0])
        assert drift <= 1e-8
        assert res.mean_energy[0] == pytest.approx(0.5 * (vac.w[0] + vac.w[1]), abs=1e-8)
        # pointwise density oscillates even though the mean is constant
        iq = np.argmin(np.abs(grid.nodes - 0.5))
        assert np.ptp(res.energy_density[:, iq]) > 0.05

    @pytest.mark.parametrize("dt, n_steps, match", [
        (0.0, 10, "dt must be finite and > 0"),
        (-2e-3, 10, "dt must be finite and > 0"),
        (np.nan, 10, "dt must be finite and > 0"),
        (2e-3, 0, "n_steps must be an integer >= 1 and <= 1000000"),
        (2e-3, -3, "n_steps must be an integer >= 1 and <= 1000000"),
    ])
    def test_bad_step_rejected(self, harmonic_vacuum, dt, n_steps, match):
        spec, grid, vac = harmonic_vacuum
        with pytest.raises(InvalidArgumentError, match=match):
            qf.space_independent_evolve(spec, grid, vac.psi[:, 0].astype(complex), dt, n_steps, store_every=1)

    @pytest.mark.parametrize("store_every", [0, -1, 2.5, True, np.float64(5.0)])
    def test_bad_store_interval_rejected(self, harmonic_vacuum, store_every):
        # a non-integer or bool interval is refused, not used as a step stride
        spec, grid, vac = harmonic_vacuum
        match = rf"store_every must be an integer >= 1 and <= 1000000, got {re.escape(repr(store_every))}$"
        with pytest.raises(InvalidArgumentError, match=match):
            qf.space_independent_evolve(spec, grid, vac.psi[:, 0].astype(complex), 2e-3, 10,
                                        store_every=store_every)

    def test_numpy_integer_store_interval(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        psi0 = vac.psi[:, 0].astype(complex)
        res = qf.space_independent_evolve(spec, grid, psi0, 2e-3, 10, store_every=np.int64(5))
        assert np.array_equal(res.times, [0.0, 5 * 2e-3, 10 * 2e-3])
        assert np.array_equal(res.psi, qf.space_independent_evolve(spec, grid, psi0, 2e-3, 10, store_every=5).psi)

    @pytest.mark.parametrize("scale", [2.0, np.nan])
    def test_unnormalised_psi0_rejected(self, harmonic_vacuum, scale):
        # a NaN psi0 used to pass the norm rule and fail in the first Cayley step
        spec, grid, vac = harmonic_vacuum
        with pytest.raises(InvalidStateError, match="psi0 must be grid-normalised"):
            qf.space_independent_evolve(spec, grid, scale * vac.psi[:, 0].astype(complex), 2e-3, 10, store_every=1)

    def test_snapshots_are_distinct_fresh_states(self, harmonic_vacuum):
        # the run hands each step's H psi to the next; no stored row may
        # alias the state the loop steps on or the caller's psi0
        spec, grid, vac = harmonic_vacuum
        psi0 = ((vac.psi[:, 0] + vac.psi[:, 2]) / np.sqrt(2.0)).astype(complex)
        res = qf.space_independent_evolve(spec, grid, psi0, 2e-3, 60, store_every=7)
        prop = CayleyPropagator(qf._operator(spec, grid), 2e-3, spec.f)
        psi, fresh = psi0, [psi0]
        for k in range(60):  # every step applies H itself
            psi = np.pad(prop.step(psi[1:-1]), 1)
            if (k + 1) % 7 == 0:
                fresh.append(psi)
        assert np.array_equal(res.psi, np.asarray(fresh))
        assert len({row.tobytes() for row in res.psi}) == len(fresh) == 9
        again = qf.space_independent_evolve(spec, grid, psi0, 2e-3, 60, store_every=7)
        assert np.array_equal(again.psi, res.psi)
        assert not np.shares_memory(again.psi, res.psi) and not np.shares_memory(res.psi, psi0)

    def test_momentum_density_vanishes(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        rho = vac.psi[:, 0] ** 2
        eps, P, mask = qf.random_energy_density(spec, grid, rho, np.zeros(grid.n),
                                                np.zeros((3, grid.n)))
        assert np.array_equal(P, np.zeros((3, grid.n)))


class TestRandomEnergyDensity:
    def test_invariant_state_reads_eigenvalue(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        eps, _, mask = qf.random_energy_density(spec, grid, vac.psi[:, 0] ** 2, np.zeros(grid.n), np.zeros((0, grid.n)))
        assert np.max(np.abs(eps[mask] - vac.w[0])) < 1e-7

    def test_excited_state_away_from_node(self, harmonic_vacuum):
        # sqrt(rho) has a kink at the node, so the identity holds on cells
        # at least two nodes away from the zero crossing
        spec, grid, vac = harmonic_vacuum
        psi1 = vac.psi[:, 1]
        eps, _, mask = qf.random_energy_density(spec, grid, psi1**2, np.zeros(grid.n), np.zeros((0, grid.n)))
        crossings = np.flatnonzero(np.sign(psi1[:-1]) * np.sign(psi1[1:]) < 0)
        keep = mask.copy()
        for c in crossings:
            keep[max(c - 2, 0) : c + 4] = False
        assert np.max(np.abs(eps[keep] - vac.w[1])) < 1e-5

    def test_flat_time_multiplier_kills_momentum(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        rng = np.random.default_rng(0)
        lam_m = rng.normal(size=(2, grid.n))
        _, P, mask = qf.random_energy_density(spec, grid, vac.psi[:, 0] ** 2,
                                              np.full(grid.n, 3.0), lam_m)
        assert np.array_equal(P[:, mask], np.zeros_like(P[:, mask]))


class TestConfinedSolve:
    def test_pure_vacuum_is_exact_fixed_point(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        res = qf.confined_solve(spec, vac, [1.0], r_min=0.5, r_max=30.0, tol=1e-8)
        assert res.iterations == 0
        assert np.max(np.abs(res.pair.phi - vac.psi[:, 0][:, None])) == 0.0
        assert np.max(np.abs(res.pair.phi_tilde - vac.psi[:, 0][:, None])) == 0.0

    def test_tail_decay_rate(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        res = qf.confined_solve(spec, vac, [1.0, 0.1], r_min=0.5, r_max=30.0, tol=1e-8)
        rep = qf.confinement_report(res.pair, vac, spec.f, window=(10.0, 25.0))
        expected = (vac.w[1] - vac.w[0]) / spec.f
        assert rep.fitted_rate == pytest.approx(expected, rel=0.02)
        assert rep.radius == pytest.approx(spec.f / (vac.w[1] - vac.w[0]))

    def test_first_correction_matches_large_r_series(self, harmonic_vacuum):
        # coefficient of (1/r) exp(-(w1-w0) r / f) in the first sweep
        spec, grid, vac = harmonic_vacuum
        c1 = 0.1
        res = qf.confined_solve(spec, vac, [1.0, c1], r_min=0.5, r_max=30.0, tol=1e-8)
        A0, _ = res.mode_history[0]
        A1, _ = res.mode_history[1]
        r = res.pair.r
        dw = vac.w[1] - vac.w[0]
        d1 = A1[1] - A0[1]
        sel = (r >= 10.0) & (r <= 20.0)
        y = d1[sel] * np.exp(dw * r[sel] / spec.f)
        X = np.column_stack([r[sel] ** (-k) for k in (1, 2, 3)])
        coef = np.linalg.lstsq(X, y, rcond=None)[0]
        assert coef[0] == pytest.approx(c1 * spec.f / dw, rel=0.05)

    def test_second_mode_sets_decay_when_first_absent(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        res = qf.confined_solve(spec, vac, [1.0, 0.0, 0.1], r_min=0.5, r_max=30.0, tol=1e-8)
        rep = qf.confinement_report(res.pair, vac, spec.f, window=(6.0, 13.0))
        assert rep.fitted_rate == pytest.approx((vac.w[2] - vac.w[0]) / spec.f, rel=0.02)

    def test_radius_doubles_with_f_at_fixed_gap(self):
        # radius = f / (w1 - w0); holding the level gap fixed (stiffness
        # k -> k/4 compensates f -> 2f) the radius scales linearly with f
        reports = {}
        for f, k in ((1.0, 1.0), (2.0, 0.25)):
            half_width = 8.0 * np.sqrt(f / np.sqrt(k))
            grid = build_grid(-half_width, half_width, 1201)
            spec = harmonic_field_spec(k=k, f=f)
            vac = qf.vacuum_spectrum(spec, grid, 6)
            dw = vac.w[1] - vac.w[0]
            res = qf.confined_solve(spec, vac, [1.0, 0.1], r_min=0.5 * f / dw,
                                    r_max=30.0 * f / dw, tol=1e-8)
            reports[f] = qf.confinement_report(
                res.pair, vac, f, window=(10.0 * f / dw, 25.0 * f / dw)
            )
        assert reports[2.0].radius == pytest.approx(2 * reports[1.0].radius, rel=1e-4)

    def test_rho_stays_nonnegative_on_claimed_region(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        res = qf.confined_solve(spec, vac, [1.0, 0.1], r_min=0.5, r_max=30.0, tol=1e-8)
        psi0 = vac.psi[:, 0]
        qmask = np.abs(psi0) > 1e-6 * np.max(np.abs(psi0))
        assert np.min((res.pair.phi * res.pair.phi_tilde)[qmask, :]) >= 0.0

    def test_positivity_loss_reported(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        with pytest.raises(NumericalFailureError) as err:
            qf.confined_solve(spec, vac, [1.0, 5.0], r_min=0.5, r_max=30.0, tol=1e-8)
        assert "positivity" in str(err.value)

    def test_bad_normalisation_rejected(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        with pytest.raises(InvalidArgumentError):
            qf.confined_solve(spec, vac, [0.5, 0.1], r_min=0.5, r_max=30.0, tol=1e-8)

    @pytest.mark.parametrize("tol, n_r", [(0.0, 1200), (-1e-8, 1200), (np.nan, 1200), (np.inf, 1200),
                                          (1e-8, 1), (1e-8, 0)])
    def test_bad_tol_or_radial_count_rejected(self, harmonic_vacuum, tol, n_r):
        # a tol of 0, below 0 or NaN ran all 60 sweeps; n_r < 2 leaves the residual window empty
        spec, grid, vac = harmonic_vacuum
        with pytest.raises(InvalidArgumentError, match="need tol finite and > 0 and n_r >= 2"):
            qf.confined_solve(spec, vac, [1.0, 0.1], r_min=0.5, r_max=30.0, tol=tol, n_r=n_r)

    def test_peak_memory(self, harmonic_vacuum):
        """The sweep works in one grid buffer that ends as the returned pair.
        tracemalloc peak of this solve (801 x 1200, K = 8, numpy 2.4): 20.6 MB;
        24.0 MB with whole-box temporaries, and 50.6 MB when the sweep kept
        four grid fields besides the pair."""
        spec, grid, vac = harmonic_vacuum
        tracemalloc.start()
        try:
            qf.confined_solve(spec, vac, [1.0, 0.1], r_min=0.5, r_max=30.0, tol=1e-8, n_r=1200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"

    def test_solve_and_report_peak_memory(self, harmonic_vacuum):
        """Solve and report hold the (2, nq, n_r) field buffer, the mode history
        and temporaries of a block or so.  At 801 x 400, K = 8 (numpy 2.4) the
        traced peak is 7.2 MB against a bound of 8.0 MB; whole-grid temporaries
        in the sweep and in tail_integral read 11.6 MB."""
        spec, grid, vac = harmonic_vacuum
        n_r = 400
        tracemalloc.start()
        try:
            res = qf.confined_solve(spec, vac, [1.0, 0.1], r_min=0.5, r_max=30.0, tol=1e-8, n_r=n_r)
            qf.confinement_report(res.pair, vac, spec.f, window=(10.0, 25.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fields = 2 * grid.n * n_r * 8
        block = 2 * qf._BLOCK * max(grid.n, n_r) * 8  # a (2, _BLOCK, n) stack of floats
        bound = fields + sum(a.nbytes for a in res.mode_history) + 2 * block
        assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"

    def test_residual_history_decreasing_above_tol(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        res = qf.confined_solve(spec, vac, [1.0, 0.1], r_min=0.5, r_max=30.0, tol=1e-8)
        hist = np.asarray(res.residual_history)
        above = hist[hist > 1e-8]
        if above.size > 1:
            assert np.all(np.diff(above) <= 0)
        assert hist[-1] < 1e-8

    def test_fit_window_empty_raises(self, harmonic_vacuum):
        spec, grid, vac = harmonic_vacuum
        res = qf.confined_solve(spec, vac, [1.0], r_min=0.5, r_max=30.0, tol=1e-8)
        # pure vacuum has an identically zero tail: no window can be fit
        with pytest.raises(NumericalFailureError, match="fit window empty"):
            qf.confinement_report(res.pair, vac, spec.f, window=(10.0, 25.0))


class TestSpaceTimeInversion:
    def test_residuals_invariant_under_inversion(self, harmonic_vacuum):
        # map x0 -> -x0, lam -> -lam, rho -> rho on the stored
        # space-independent solution; equation residuals keep their size
        spec, grid, vac = harmonic_vacuum
        psi0 = (vac.psi[:, 0] + vac.psi[:, 1]) / np.sqrt(2.0)
        res = qf.space_independent_evolve(spec, grid, psi0.astype(complex), 1e-3, 60,
                                          store_every=10)
        from varq import wavefunction as wv

        rho_series, lam_series = [], []
        for snap in res.psi:
            wf = wv.WaveFunction(grid, snap, spec.f)
            rho, lam, _ = wv.canonical_map_forward(wf)
            rho_series.append(rho)
            lam_series.append(lam)
        rho_series = np.asarray(rho_series)
        lam_series = np.asarray(lam_series)
        mspec = mech.NaturalSystemSpec(
            mass=lambda q: spec.eta if np.isscalar(q) else np.full(np.shape(q), spec.eta),
            potential=spec.potential,
        )
        dspec = hy.DiffusionSpec(a=spec.f)
        fwd, masks = hy.multiplier_residual_series(
            grid, mspec, dspec, rho_series, lam_series, res.times
        )
        bwd, masks_b = hy.multiplier_residual_series(
            grid, mspec, dspec, rho_series[::-1], -lam_series[::-1], -res.times[::-1]
        )
        sel = masks & masks_b[::-1]
        assert np.allclose(np.abs(bwd[::-1][sel]), np.abs(fwd[sel]), atol=1e-10)
        cf = mech.continuity_residual_series(grid, mspec, rho_series, lam_series, res.times)
        cb = mech.continuity_residual_series(
            grid, mspec, rho_series[::-1], -lam_series[::-1], -res.times[::-1]
        )
        assert np.allclose(np.abs(cb[::-1]), np.abs(cf), atol=1e-10)
