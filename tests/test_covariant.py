import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import covariant as cv
from varq import runners
from varq.config import parse_scenario
from varq.errors import InvalidArgumentError, StepRejectedError


def kg_spec(eta=1.0, m=1.0):
    return cv.FieldLagrangianSpec(
        eta=eta,
        potential=lambda q: 0.5 * m * m * q * q,
        potential_grad=lambda q: m * m * q,
    )


def plane_wave_state(grid, spec, k, amp, m):
    x = grid.nodes
    omega = np.sqrt(k * k + m * m)
    q0 = amp * np.cos(k * x)
    pi0 = amp * omega * np.sin(k * x) * spec.eta
    return cv.FieldState1p1(grid, q0, pi0), omega


def d1_roll(f, dx):
    """`_d1` as it was before the padded stencil; reference."""
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * dx)


def lap_roll(f, dx):
    """`_lap` as it was before the padded stencil; reference."""
    return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / (dx * dx)


class TestPeriodicStencils:
    @pytest.mark.parametrize("n", [3, 4, 257])
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_roll_form(self, n, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        dx = float(rng.uniform(1e-3, 1.0))
        assert np.array_equal(cv._d1(f, dx), d1_roll(f, dx))
        assert np.array_equal(cv._lap(f, dx), lap_roll(f, dx))


class TestCovariantLegendre:
    def test_timelike_unit_velocity(self):
        spec = cv.FieldLagrangianSpec(eta=1.0, potential=lambda q: np.zeros_like(np.asarray(q, dtype=float)))
        pi0, pi1, ham = cv.covariant_legendre(spec, 1.0, 0.0)
        assert (pi0, pi1) == (1.0, 0.0)
        assert ham == pytest.approx(0.5)

    def test_lightlike_velocity_null_hamiltonian(self):
        spec = cv.FieldLagrangianSpec(eta=2.0, potential=lambda q: np.zeros_like(np.asarray(q, dtype=float)))
        _, _, ham = cv.covariant_legendre(spec, 1.0, 1.0)
        assert ham == pytest.approx(0.0, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.3, max_value=4.0),
    )
    def test_legendre_involution(self, w0, w1, eta):
        # dH/dpi recovers the velocities with lowered index
        spec = cv.FieldLagrangianSpec(eta=eta, potential=lambda q: np.zeros_like(np.asarray(q, dtype=float)))
        pi0, pi1, _ = cv.covariant_legendre(spec, w0, w1)
        assert pi0 / eta == pytest.approx(w0, abs=1e-12)   # dH/dpi0 = d_0 q
        assert -pi1 / eta == pytest.approx(-w1, abs=1e-12)  # dH/dpi1 = d_1 q = -w^1


class TestDdwEvolve:
    @pytest.mark.parametrize("store_every", [0, -1])
    def test_bad_store_interval_rejected(self, store_every):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 16)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError, match=f"store_every must be >= 1, got {store_every}"):
            cv.ddw_evolve_series(spec, state, 1e-3, 10, store_every=store_every)

    def test_klein_gordon_dispersion(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 256)
        state, omega = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        dt = 1e-3
        times, qs, _, _ = cv.ddw_evolve_series(spec, state, dt, 12000, store_every=100)
        c = qs @ np.exp(-1j * grid.nodes) * (2.0 / grid.n)
        slope = np.polyfit(times, np.unwrap(np.angle(c)), 1)[0]
        assert abs(abs(slope) - omega) / omega < 1e-3

    def test_free_pulse_advects_at_unit_speed(self):
        spec = cv.FieldLagrangianSpec(
            eta=1.0,
            potential=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
            potential_grad=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        )
        grid = cv.PeriodicGrid1D(20.0, 1000)
        x = grid.nodes
        f0 = np.exp(-((x - 5.0) ** 2))
        df0 = -2.0 * (x - 5.0) * f0
        state = cv.FieldState1p1(grid, f0, -df0)  # right mover: d0 q = -f'
        t = 4.0
        dt = 0.01
        out = cv.ddw_evolve(spec, state, dt, int(t / dt))
        shifted = np.exp(-((np.mod(x - 5.0 - t + 10.0, 20.0) - 10.0) ** 2))
        assert np.max(np.abs(out.q - shifted)) < 5e-3

    def test_equilibrium_state_is_static(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(5.0, 128)
        state = cv.FieldState1p1(grid, np.zeros(grid.n), np.zeros(grid.n))
        out = cv.ddw_evolve(spec, state, 0.01, 500)
        assert np.array_equal(out.q, np.zeros(grid.n))
        assert np.array_equal(out.pi0, np.zeros(grid.n))

    def test_cfl_guard(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 64)
        state = cv.FieldState1p1(grid, np.zeros(grid.n), np.zeros(grid.n))
        with pytest.raises(StepRejectedError):
            cv.ddw_evolve(spec, state, 10.0, 1)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_bad_dt_rejected_before_stepping(self, dt):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 64)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError, match="dt must be finite and > 0"):
            cv.ddw_evolve(spec, state, dt, 10)
        with pytest.raises(InvalidArgumentError, match="dt must be finite and > 0"):
            cv.ddw_evolve_series(spec, state, dt, 10)

    @pytest.mark.parametrize("n_steps", [0, -5])
    def test_series_needs_a_step(self, n_steps):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 64)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError, match="n_steps must be >= 1"):
            cv.ddw_evolve_series(spec, state, 1e-3, n_steps)

    def test_negative_step_count_rejected(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 64)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError, match="n_steps must be >= 0"):
            cv.ddw_evolve(spec, state, 1e-3, -1)

    def test_zero_steps_is_identity(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 64)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        out = cv.ddw_evolve(spec, state, 1e-3, 0)
        assert np.array_equal(out.q, state.q)
        assert np.array_equal(out.pi0, state.pi0)
        assert out.time == state.time

    def test_constraint_exact_by_construction(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 128)
        state, _ = plane_wave_state(grid, spec, 2.0, 0.05, 1.0)
        out = cv.ddw_evolve(spec, state, 1e-3, 1000)
        pi1 = cv.reconstruct_pi1(spec, out)
        d1q = (np.roll(out.q, -1) - np.roll(out.q, 1)) / (2 * grid.dx)
        assert np.max(np.abs(pi1 + spec.eta * d1q)) == 0.0

    def test_time_reversal_retraces(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 128)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.02, 1.0)
        fwd = cv.ddw_evolve(spec, state, 1e-3, 2000)
        back = cv.ddw_evolve(spec, cv.FieldState1p1(grid, fwd.q, -fwd.pi0), 1e-3, 2000)
        assert np.max(np.abs(back.q - state.q)) < 1e-11
        assert np.max(np.abs(-back.pi0 - state.pi0)) < 1e-11

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=16, max_value=128),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.1, max_value=0.7),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=200),
    )
    def test_time_reversal_on_random_fields(self, n, seed, cfl, eta, m, quartic, n_steps):
        # leapfrog retraces any periodic field under any potential force;
        # error relative to the largest field value on the way (worst seen
        # over 300 random draws: 5.5e-14)
        rng = np.random.default_rng(seed)
        grid = cv.PeriodicGrid1D(2 * np.pi, n)
        amp = rng.uniform(0.01, 1.0, size=2)
        state = cv.FieldState1p1(grid, amp[0] * rng.standard_normal(n), amp[1] * rng.standard_normal(n))
        spec = cv.FieldLagrangianSpec(eta, potential=lambda q: 0.5 * m * m * q * q + quartic * q**4,
                                      potential_grad=lambda q: m * m * q + 4.0 * quartic * q**3)
        dt = cfl * grid.dx
        fwd = cv.ddw_evolve(spec, state, dt, n_steps)
        back = cv.ddw_evolve(spec, cv.FieldState1p1(grid, fwd.q, -fwd.pi0), dt, n_steps)
        scale = max(np.abs(s).max() for s in (state.q, state.pi0, fwd.q, fwd.pi0))
        assert np.abs(back.q - state.q).max() <= 1e-11 * scale
        assert np.abs(-back.pi0 - state.pi0).max() <= 1e-11 * scale


class TestExtremalEmbedding:
    def test_solution_residual_is_scheme_order(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 128)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        dt = grid.dx / 4
        _, qs, _, _ = cv.ddw_evolve_series(spec, state, dt, 200, store_every=1)
        res = cv.extremal_embedding_check(spec, grid, qs, dt)
        assert res < 1e-4

    def test_refinement_halves_residual_fourfold(self):
        spec = kg_spec()

        def residual(n):
            grid = cv.PeriodicGrid1D(2 * np.pi, n)
            state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
            dt = grid.dx / 4
            _, qs, _, _ = cv.ddw_evolve_series(spec, state, dt, 64, store_every=1)
            return cv.extremal_embedding_check(spec, grid, qs, dt)

        ratio = residual(64) / residual(128)
        assert 4 * 0.75 <= ratio <= 4 * 1.25

    def test_random_field_is_not_extremal(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 64)
        rng = np.random.default_rng(0)
        qs = rng.normal(size=(5, grid.n))
        res = cv.extremal_embedding_check(spec, grid, qs, 0.05)
        assert res > 1.0


DDW_SHORT = """
[scenario]
regime = ddw
seed = 0

[grid]
length = 5.0
n = 96

[system]
eta = 1.3
kg_mass = 0.7

[initial]
k_mode = 2
amplitude = 0.05

[run]
dt = 0.004
n_steps = 600
"""


class TestRunDdwConservationSeries:
    def test_matches_total_energy_and_momentum_per_snapshot(self):
        sc = parse_scenario(DDW_SHORT)
        rows = runners.run_ddw(sc, 1.0).series["conservation"].rows
        spec = kg_spec(eta=1.3, m=0.7)
        grid = cv.PeriodicGrid1D(5.0, 96)
        st0, _ = plane_wave_state(grid, spec, 2 * np.pi * 2 / 5.0, 0.05, 0.7)
        times, qs, pis, _ = cv.ddw_evolve_series(spec, st0, 0.004, 600, store_every=3)
        snaps = [cv.FieldState1p1(grid, q, pi) for q, pi in zip(qs, pis)]
        assert np.array_equal(rows[:, 0], times)
        assert np.array_equal(rows[:, 1], [cv.total_energy(spec, s) for s in snaps])
        assert np.array_equal(rows[:, 2], [cv.total_momentum(spec, s) for s in snaps])


class TestEnergyMomentum:
    def test_static_zero_field_zero_tensor(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(3.0, 64)
        state = cv.FieldState1p1(grid, np.zeros(grid.n), np.zeros(grid.n))
        em = cv.energy_momentum(spec, state)
        assert np.array_equal(em.T, np.zeros((grid.n, 2, 2)))

    def test_plane_wave_mean_energy_density(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 512)
        amp = 0.01
        state, omega = plane_wave_state(grid, spec, 1.0, amp, 1.0)
        em = cv.energy_momentum(spec, state)
        mean_t00 = float(np.mean(em.T[:, 0, 0]))
        assert mean_t00 == pytest.approx(amp**2 * omega**2 / 2, rel=1e-3)

    def test_total_energy_momentum_conserved(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 256)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        dt = 5e-4
        e0 = cv.total_energy(spec, state)
        p0 = cv.total_momentum(spec, state)
        cur = state
        for _ in range(10):
            cur = cv.ddw_evolve(spec, cur, dt, 800)
            assert abs(cv.total_energy(spec, cur) - e0) / abs(e0) < 1e-6
            assert abs(cv.total_momentum(spec, cur) - p0) / max(abs(p0), abs(e0)) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_reduction_matches_t00_pointwise(self, seed):
        spec = kg_spec(eta=1.3)
        grid = cv.PeriodicGrid1D(4.0, 96)
        rng = np.random.default_rng(seed)
        state = cv.FieldState1p1(grid, rng.normal(size=grid.n), rng.normal(size=grid.n))
        em = cv.energy_momentum(spec, state)
        d1q = (np.roll(state.q, -1) - np.roll(state.q, 1)) / (2 * grid.dx)
        hc = cv.canonical_reduction(spec, state.pi0, d1q, state.q)
        assert np.max(np.abs(hc - em.T[:, 0, 0])) <= 1e-12
        assert np.min(em.T[:, 0, 0]) >= 0.0  # nonnegative energy density

    def test_divergence_diagnostic_small_on_solutions(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 256)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        dt = grid.dx / 4
        _, qs, pis, _ = cv.ddw_evolve_series(spec, state, dt, 100, store_every=1)
        res = cv.energy_momentum_divergence(spec, grid, qs, pis, dt)
        assert res < 1e-6
        rng = np.random.default_rng(0)
        res_rnd = cv.energy_momentum_divergence(
            spec, grid, rng.normal(size=(3, grid.n)), rng.normal(size=(3, grid.n)), dt
        )
        assert res_rnd > res * 1e3

    def test_reduction_simple_values(self):
        spec = cv.FieldLagrangianSpec(eta=1.0, potential=lambda q: np.zeros_like(np.asarray(q, dtype=float)))
        assert cv.canonical_reduction(spec, 1.0, 1.0, 0.0) == pytest.approx(1.0)
        spec_v = kg_spec()
        assert cv.canonical_reduction(spec_v, 0.0, 0.0, 2.0) == pytest.approx(2.0)
