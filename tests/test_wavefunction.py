import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import mechanics as mech
from varq import wavefunction as wv
from varq.errors import DomainEscapeError, InvalidStateError
from varq.numerics import CayleyPropagator, build_grid, eigensolve_lowest


def nodeless_wavefunction(grid, a=1.0, seed=0):
    rng = np.random.default_rng(seed)
    q = grid.nodes
    rho = np.exp(-(q**2)) * (1.0 + 0.4 * np.sin(1.7 * q + rng.uniform(0, 2 * np.pi)))
    lam = 0.3 * q + 0.2 * np.cos(q + rng.uniform(0, 2 * np.pi))
    rho = mech.normalize_density(grid, rho)
    return wv.canonical_map_inverse(grid, rho, lam, a)


class TestNormRule:
    """A NaN norm fails the norm rules: ``abs(norm - 1) > tol`` and
    ``norm <= 0`` are both false for NaN, so a NaN state used to build."""

    @pytest.mark.parametrize("fill", [np.nan, np.nan + 1j, 2.0])
    def test_wavefunction_rejects_bad_norm(self, fill):
        grid = build_grid(0.0, 1.0, 101)
        with pytest.raises(InvalidStateError, match="wavefunction not normalised"):
            wv.WaveFunction(grid, np.full(grid.n, fill, dtype=complex), 1.0)

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    def test_normalize_rejects_zero_or_non_finite_norm(self, fill):
        grid = build_grid(0.0, 1.0, 101)
        with pytest.raises(InvalidStateError, match="wavefunction norm must be finite and > 0"):
            wv.normalize_wavefunction(grid, np.full(grid.n, fill))


class TestCanonicalMap:
    def test_amplitude_density_from_components(self):
        # P(psi1=3, psi2=4) = 25 regardless of the scale constant
        for a in (0.5, 1.0, 2.0):
            u, v = np.sqrt(2 * a) * 3.0, np.sqrt(2 * a) * 4.0
            P, _ = wv.polar_from_uv(u, v, a)
            assert P == pytest.approx(25.0, rel=1e-14)

    def test_real_positive_state_has_zero_multiplier(self):
        grid = build_grid(-6, 6, 500)
        rho = mech.normalize_density(grid, np.exp(-grid.nodes**2))
        wf = wv.WaveFunction(grid, np.sqrt(rho).astype(complex), 1.0)
        _, lam, mask = wv.canonical_map_forward(wf)
        assert np.all(lam[mask] == 0.0)

    def test_global_phase_shifts_multiplier(self):
        grid = build_grid(-6, 6, 500)
        a = 0.7
        wf = nodeless_wavefunction(grid, a=a)
        theta = 0.9
        wf2 = wv.WaveFunction(grid, wf.psi * np.exp(1j * theta), a)
        rho1, lam1, m1 = wv.canonical_map_forward(wf)
        rho2, lam2, m2 = wv.canonical_map_forward(wf2)
        assert np.allclose(rho1, rho2, atol=1e-15)
        assert np.allclose(lam2[m2] - lam1[m1], a * theta, atol=1e-10)

    def test_inverse_from_flat_fields(self):
        grid = build_grid(0, 1, 101)
        rho = np.full(grid.n, 1.0 / (grid.h * grid.n))
        wf = wv.canonical_map_inverse(grid, rho, np.zeros(grid.n), 1.0)
        assert np.allclose(wf.psi.imag, 0.0)
        assert np.allclose(wf.psi.real, np.sqrt(rho), atol=1e-14)

    def test_negative_density_rejected(self):
        grid = build_grid(0, 1, 11)
        with pytest.raises(InvalidStateError):
            wv.canonical_map_inverse(grid, -np.ones(grid.n), np.zeros(grid.n), 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000), st.floats(min_value=0.3, max_value=3.0))
    def test_round_trip_identity_on_nodeless_states(self, seed, a):
        grid = build_grid(-6, 6, 400)
        wf = nodeless_wavefunction(grid, a=a, seed=seed)
        rho, lam, mask = wv.canonical_map_forward(wf)
        back = wv.canonical_map_inverse(grid, rho, lam, a)
        assert np.max(np.abs(back.psi[mask] - wf.psi[mask])) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.4, max_value=2.5),
    )
    def test_unit_jacobian(self, u, v, a):
        if u * u + v * v < 1e-2:
            return  # the map is singular at the origin
        if u < 0 and abs(v) < 1e-3:
            return  # keep the finite-difference probe off the branch cut
        eps = 1e-6 * max(1.0, abs(u), abs(v))

        def num_grad(f, x, y):
            return (
                (f(x + eps, y) - f(x - eps, y)) / (2 * eps),
                (f(x, y + eps) - f(x, y - eps)) / (2 * eps),
            )

        dPu, dPv = num_grad(lambda x, y: wv.polar_from_uv(x, y, a)[0], u, v)
        dLu, dLv = num_grad(lambda x, y: wv.polar_from_uv(x, y, a)[1], u, v)
        jac = dPu * dLv - dPv * dLu
        assert jac == pytest.approx(1.0, abs=1e-6)


class TestSchrodingerEvolve:
    def test_free_gaussian_dispersion(self, free_particle):
        grid = build_grid(-14, 14, 1401)
        q = grid.nodes
        psi0 = np.exp(-(q**2) / 4.0).astype(complex)  # position variance 1
        wf = wv.WaveFunction(grid, wv.normalize_wavefunction(grid, psi0), 1.0)
        out = wv.schrodinger_evolve(free_particle, wf, 0.002, 1000)
        var = grid.h * np.sum(out.rho * q**2)
        assert var == pytest.approx(2.0, rel=0.005)

    def test_eigenstate_modulus_invariant_phase_rotates(self, unit_mass_harmonic):
        grid = build_grid(-10, 10, 1000)
        op = wv.schrodinger_operator(unit_mass_harmonic, grid, 1.0)
        w, vecs = eigensolve_lowest(op, 2, grid.h)
        psi = np.pad(vecs[:, 1], 1).astype(complex)
        wf = wv.WaveFunction(grid, psi, 1.0)
        out = wv.schrodinger_evolve(unit_mass_harmonic, wf, 1e-3, 1000)
        assert np.max(np.abs(np.abs(out.psi) - np.abs(wf.psi))) < 1e-10
        phase = np.angle(np.vdot(wf.psi, out.psi))
        expected = (-w[1] * 1.0 + np.pi) % (2 * np.pi) - np.pi
        assert phase == pytest.approx(expected, abs=1e-6)

    def test_potential_shift_is_global_phase(self, unit_mass_harmonic):
        grid = build_grid(-10, 10, 800)
        s = 0.8
        shifted = mech.NaturalSystemSpec(
            mass=unit_mass_harmonic.mass,
            potential=lambda q: unit_mass_harmonic.potential(q) + s,
            potential_grad=unit_mass_harmonic.potential_grad,
        )
        wf = nodeless_wavefunction(grid)
        dt, n = 1e-3, 400
        out1 = wv.schrodinger_evolve(unit_mass_harmonic, wf, dt, n)
        out2 = wv.schrodinger_evolve(shifted, wf, dt, n)
        t = dt * n
        assert np.max(np.abs(out2.psi * np.exp(1j * s * t) - out1.psi)) < 1e-6

    def test_linearity(self, unit_mass_harmonic):
        grid = build_grid(-10, 10, 700)
        wf1 = nodeless_wavefunction(grid, seed=1)
        wf2 = nodeless_wavefunction(grid, seed=2)
        alpha, beta = 0.6, 0.8j
        combo = alpha * wf1.psi + beta * wf2.psi
        combo /= np.sqrt(grid.h * np.sum(np.abs(combo) ** 2))
        wfc = wv.WaveFunction(grid, combo, 1.0)
        dt, n = 2e-3, 200
        out_c = wv.schrodinger_evolve(unit_mass_harmonic, wfc, dt, n)
        out_1 = wv.schrodinger_evolve(unit_mass_harmonic, wf1, dt, n)
        out_2 = wv.schrodinger_evolve(unit_mass_harmonic, wf2, dt, n)
        recombined = alpha * out_1.psi + beta * out_2.psi
        recombined /= np.sqrt(grid.h * np.sum(np.abs(recombined) ** 2))
        assert np.max(np.abs(out_c.psi - recombined)) < 1e-12

    def test_norm_and_energy_conserved(self, unit_mass_harmonic):
        grid = build_grid(-10, 10, 900)
        wf = nodeless_wavefunction(grid, seed=3)
        op = wv.schrodinger_operator(unit_mass_harmonic, grid, 1.0)
        steps = CayleyPropagator(op, 1e-3, 1.0).run(wf.psi, 500)
        prev_norm = None
        for psi, hpsi in steps:
            norm = grid.h * np.sum(np.abs(psi) ** 2)
            if prev_norm is None:
                e0 = wv._expected_energy(grid.h, psi, hpsi)
            else:
                assert abs(norm - prev_norm) / prev_norm <= 1e-12
            prev_norm = norm
        assert abs(wv._expected_energy(grid.h, psi, hpsi) - e0) / abs(e0) <= 1e-8

    def test_boundary_escape_raises(self, free_particle):
        grid = build_grid(-4, 4, 300)
        q = grid.nodes
        psi0 = np.exp(-((q) ** 2) / 4.0) * np.exp(3j * q)
        wf = wv.WaveFunction(grid, wv.normalize_wavefunction(grid, psi0), 1.0)
        with pytest.raises(DomainEscapeError):
            wv.schrodinger_evolve(free_particle, wf, 0.005, 1000)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(6, 40), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.integers(0, 2), min_size=6, max_size=6), h=st.floats(1e-12, 1.0))
    def test_edge_mass_is_the_numpy_sum(self, n, seed, kinds, h):
        # the guard's Python-float edge sum keeps the bits of the ndarray form it
        # replaced; each edge cell is a zero, a subnormal or a random float
        rng = np.random.default_rng(seed)
        dens = rng.uniform(0.0, 1e3, n)
        cells = [*range(3), *range(n - 3, n)]
        dens[cells] = np.choose(kinds, [0.0, rng.uniform(0.0, 2.2e-308, 6), rng.uniform(0.0, 1e3, 6)])
        expected = h * float(dens[:3].sum() + dens[-3:].sum())
        if expected > 1e-8:
            with pytest.raises(DomainEscapeError) as err:
                wv._check_boundary(h, dens, 0.0)
            assert err.value.diagnostics["boundary_mass"] == expected
        else:
            wv._check_boundary(h, dens, 0.0)


def test_branch_restarts_across_masked_gaps():
    # two disconnected support components unwrap independently
    grid = build_grid(-8, 8, 801)
    q = grid.nodes
    rho = np.exp(-((q - 3) ** 2) / 0.5) + np.exp(-((q + 3) ** 2) / 0.5)
    rho = mech.normalize_density(grid, rho)
    lam = np.where(q < 0, 5.0, 9.0)  # constant per component
    wf = wv.canonical_map_inverse(grid, rho, lam, 1.0)
    _, lam_back, mask = wv.canonical_map_forward(wf)
    left = mask & (q < 0)
    right = mask & (q > 0)
    # principal branch per segment, offset by 2 pi a per segment allowed
    assert np.ptp(lam_back[left]) < 1e-10
    assert np.ptp(lam_back[right]) < 1e-10
    assert (lam_back[left][0] - 5.0) % (2 * np.pi) == pytest.approx(0.0, abs=1e-9)


def _unwrap_segments_loop(phase, mask):
    """Reference: the per-cell walk that _unwrap_segments replaced."""
    out = np.zeros_like(phase)
    n = phase.size
    i = 0
    while i < n:
        if not mask[i]:
            i += 1
            continue
        j = i
        while j < n and mask[j]:
            j += 1
        out[i:j] = np.unwrap(phase[i:j])
        i = j
    return out


class TestUnwrapSegments:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_loop_on_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        # phases that jump across the branch cut, masks with runs of any length
        phase = np.angle(np.exp(1j * np.cumsum(rng.uniform(-3.0, 3.0, n))))
        mask = rng.random(n) < rng.uniform(0.1, 0.95)
        got = wv._unwrap_segments(phase, mask)
        assert np.array_equal(got, _unwrap_segments_loop(phase, mask))

    @pytest.mark.parametrize("mask", [
        np.zeros(12, dtype=bool),
        np.ones(12, dtype=bool),
        np.array([1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1], dtype=bool),  # touches 0 and n-1
        np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0], dtype=bool),  # single cells
        np.array([0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1], dtype=bool),
        np.array([True]),
        np.array([False]),
    ])
    def test_edge_masks(self, mask):
        phase = np.angle(np.exp(2.5j * np.arange(mask.size)))
        got = wv._unwrap_segments(phase, mask)
        assert np.array_equal(got, _unwrap_segments_loop(phase, mask))
        assert np.all(got[~mask] == 0.0)
