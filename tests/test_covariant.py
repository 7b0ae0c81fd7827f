import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varq import covariant as cv
from varq import runners
from varq.cli import EXIT_CONFIG, main
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
    omega = np.sqrt(k * k + m * m / spec.eta)
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
        # the leapfrog's in-place Laplacian: acc = 1.0 * lap - 0.0 with eta = 1, V' = 0
        free = cv.FieldLagrangianSpec(1.0, potential=np.zeros_like, potential_grad=np.zeros_like)
        grid = cv.PeriodicGrid1D(n * dx, n)
        run = cv._Leapfrog(free, cv.FieldState1p1(grid, f, f))
        assert np.array_equal(run.acc, lap_roll(f, grid.dx))


class TestDdwEvolve:
    @pytest.mark.parametrize("store_every", [0, -1, 2.5, True, np.float64(5.0)])
    def test_bad_store_interval_rejected(self, store_every):
        # a non-integer or bool interval is refused by name before the chunk loop
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 16)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        match = rf"store_every must be an integer >= 1 and <= 1000000, got {re.escape(repr(store_every))}$"
        with pytest.raises(InvalidArgumentError, match=match):
            cv.ddw_evolve_series(spec, state, 1e-3, 10, store_every=store_every)

    def test_numpy_integer_store_interval(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 16)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        times, qs, pis, _ = cv.ddw_evolve_series(spec, state, 1e-3, 10, store_every=np.int64(5))
        want = cv.ddw_evolve_series(spec, state, 1e-3, 10, store_every=5)
        assert np.array_equal(times, want[0]) and np.array_equal(qs, want[1]) and np.array_equal(pis, want[2])
        assert len(times) == 3

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
            cv.ddw_evolve_series(spec, state, dt, 10, store_every=1)

    @pytest.mark.parametrize("n_steps", [0, -5])
    def test_series_needs_a_step(self, n_steps):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 64)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError, match=r"n_steps must be an integer >= 1 and <= 1000000"):
            cv.ddw_evolve_series(spec, state, 1e-3, n_steps, store_every=1)

    def test_negative_step_count_rejected(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 64)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError, match=r"n_steps must be an integer >= 0 and <= 1000000, got -1"):
            cv.ddw_evolve(spec, state, 1e-3, -1)

    def test_zero_steps_is_identity(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 64)
        state, _ = plane_wave_state(grid, spec, 1.0, 0.01, 1.0)
        out = cv.ddw_evolve(spec, state, 1e-3, 0)
        assert np.array_equal(out.q, state.q)
        assert np.array_equal(out.pi0, state.pi0)
        assert out.time == state.time

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
    # unbounded, this draw's cfl of 0.625 is past the quartic force's
    # stability limit and the field blows up to NaN (InvalidStateError)
    @example(n=16, seed=13, cfl=0.625, eta=0.5, m=0.0, quartic=1.0, n_steps=10)
    # a subnormal quartic: dividing the energy by it overflowed the bound to
    # inf and the step to 0
    @example(n=16, seed=0, cfl=0.5, eta=1.0, m=0.0, quartic=5e-324, n_steps=1)
    def test_time_reversal_on_random_fields(self, n, seed, cfl, eta, m, quartic, n_steps):
        # leapfrog retraces any periodic field under any potential force it
        # steps stably; error relative to the largest field value on the way
        # (worst seen over 300 random draws: 5.5e-14)
        rng = np.random.default_rng(seed)
        grid = cv.PeriodicGrid1D(2 * np.pi, n)
        amp = rng.uniform(0.01, 1.0, size=2)
        state = cv.FieldState1p1(grid, amp[0] * rng.standard_normal(n), amp[1] * rng.standard_normal(n))
        spec = cv.FieldLagrangianSpec(eta, potential=lambda q: 0.5 * m * m * q * q + quartic * q**4,
                                      potential_grad=lambda q: m * m * q + 4.0 * quartic * q**3)
        # half the limit: at 0.9 of it, 200 steps of the stiffest draws
        # (n 16, eta 0.5, quartic 1) amplified roundoff to 1.7e-11 in one of
        # 1000 draws; at half it stayed below 2.9e-12 over 1500 of them
        dt = min(cfl, 0.5 * stable_cfl(state, eta, m, quartic)) * grid.dx
        fwd = cv.ddw_evolve(spec, state, dt, n_steps)
        back = cv.ddw_evolve(spec, cv.FieldState1p1(grid, fwd.q, -fwd.pi0), dt, n_steps)
        scale = max(np.abs(s).max() for s in (state.q, state.pi0, fwd.q, fwd.pi0))
        assert np.abs(back.q - state.q).max() <= 1e-11 * scale
        assert np.abs(-back.pi0 - state.pi0).max() <= 1e-11 * scale


def stable_cfl(state, eta, m, quartic):
    """The largest dt/dx at which the leapfrog steps V = m^2 q^2/2 + quartic q^4
    stably from ``state``.

    Linearised about a field value q, each Fourier mode k obeys
    q'' = -W^2 q with W^2 = 4 sin^2(k dx/2)/dx^2 + V''(q)/eta, at most
    4/dx^2 + V''(q)/eta, and the leapfrog is stable on it while W dt < 2:
    (dt/dx)^2 (4 + dx^2 V''/eta) < 4.  V'' = m^2 + 12 quartic q^2 is
    largest at the largest |q| of the run.  The energy
    H = dx sum(pi0^2/(2 eta) + eta/2 ((q[i+1] - q[i])/dx)^2 + V(q[i]))
    is conserved by the flow (the leapfrog keeps a nearby one while it is
    stable) and every term is >= 0, so at every node and time
    quartic q^4 <= V(q) <= H/dx, i.e. quartic q^2 <= sqrt(quartic H / dx),
    which holds for quartic = 0 too and divides by no tiny quartic.
    """
    dx, q, pi0 = state.x_grid.dx, state.q, state.pi0
    grad = (np.roll(q, -1) - q) / dx
    energy = dx * np.sum(pi0**2 / (2 * eta) + 0.5 * eta * grad**2 + 0.5 * m * m * q * q + quartic * q**4)
    return 2.0 / np.sqrt(4.0 + dx * dx * (m * m + 12.0 * np.sqrt(quartic * energy / dx)) / eta)


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
        sc = parse_scenario(DDW_SHORT, "scenario")
        rows = runners.run_scenario_object(sc).series["conservation"].rows
        spec = kg_spec(eta=1.3, m=0.7)
        grid = cv.PeriodicGrid1D(5.0, 96)
        st0, _ = plane_wave_state(grid, spec, 2 * np.pi * 2 / 5.0, 0.05, 0.7)
        times, qs, pis, _ = cv.ddw_evolve_series(spec, st0, 0.004, 600, store_every=3)
        snaps = [cv.FieldState1p1(grid, q, pi) for q, pi in zip(qs, pis)]
        assert np.array_equal(rows[:, 0], times)
        assert np.array_equal(rows[:, 1], [cv.total_energy(spec, s) for s in snaps])
        assert np.array_equal(rows[:, 2], [cv.total_momentum(spec, s) for s in snaps])


KG_CFG = (Path(__file__).resolve().parent.parent / "configs" / "ddw_klein_gordon.cfg").read_text()


def kg_cfg(**changes):
    """The shipped Klein-Gordon config at 4000 steps, with keys replaced."""
    text = KG_CFG.replace("n_steps = 20000", "n_steps = 4000")
    for key, value in changes.items():
        line = next(l for l in text.splitlines() if l.startswith(f"{key} = "))
        text = text.replace(line, f"{key} = {value}")
    return text


BAD_DDW = [
    ({"k_mode": 0}, "initial.k_mode", "[initial] k_mode must be nonzero: a k = 0 field has no wave"),
    ({"amplitude": 0.0}, "initial.amplitude", "[initial] amplitude must be finite and nonzero, got 0.0"),
    ({"amplitude": "nan"}, "initial.amplitude", "[initial] amplitude must be finite and nonzero, got nan"),
    ({"amplitude": "-inf"}, "initial.amplitude", "[initial] amplitude must be finite and nonzero, got -inf"),
    ({"kg_mass": "nan"}, "system.kg_mass", "[system] kg_mass and its square must be finite, got nan"),
    ({"kg_mass": "inf"}, "system.kg_mass", "[system] kg_mass and its square must be finite, got inf"),
    ({"kg_mass": "1e200"}, "system.kg_mass", "[system] kg_mass and its square must be finite, got 1e+200"),
]


class TestRunDdwInputs:
    @pytest.mark.parametrize("eta", [0.5, 1.3, 2.0, 3.0])
    def test_invariants_pass_at_any_eta(self, eta):
        # the plane wave of eta (q_tt - q_xx) + kg^2 q = 0 has omega^2 = k^2 + kg^2 / eta
        report = runners.run_scenario_object(parse_scenario(kg_cfg(eta=eta), "scenario"))
        assert [c.name for c in report.invariants] == ["energy_drift_rel", "momentum_drift_rel", "dispersion"]
        assert all(c.passed for c in report.invariants), report.invariants
        assert report.scalars["omega_exact"] == np.sqrt(1.0 + 1.0 / eta)

    @pytest.mark.parametrize("changes", [{"kg_mass": 0.0}, {"k_mode": -1}, {"k_mode": -2, "kg_mass": -0.5}])
    def test_massless_and_left_moving_waves_pass(self, changes):
        report = runners.run_scenario_object(parse_scenario(kg_cfg(**changes), "scenario"))
        assert all(c.passed for c in report.invariants), report.invariants

    @pytest.mark.parametrize("changes, key, message", BAD_DDW)
    def test_bad_input_is_config_error(self, tmp_path, capsys, changes, key, message):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(kg_cfg(**changes))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message} (key: {key})\n"


class TestEnergyMomentum:
    def test_static_zero_field_zero_tensor(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(3.0, 64)
        state = cv.FieldState1p1(grid, np.zeros(grid.n), np.zeros(grid.n))
        em = cv.energy_momentum(spec, state)
        assert np.array_equal(em, np.zeros((grid.n, 2, 2)))

    def test_plane_wave_mean_energy_density(self):
        spec = kg_spec()
        grid = cv.PeriodicGrid1D(2 * np.pi, 512)
        amp = 0.01
        state, omega = plane_wave_state(grid, spec, 1.0, amp, 1.0)
        em = cv.energy_momentum(spec, state)
        mean_t00 = float(np.mean(em[:, 0, 0]))
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
        assert np.max(np.abs(hc - em[:, 0, 0])) <= 1e-12
        assert np.min(em[:, 0, 0]) >= 0.0  # nonnegative energy density

    def test_reduction_simple_values(self):
        zero = lambda q: np.zeros_like(np.asarray(q, dtype=float))
        spec = cv.FieldLagrangianSpec(eta=1.0, potential=zero, potential_grad=zero)
        assert cv.canonical_reduction(spec, 1.0, 1.0, 0.0) == pytest.approx(1.0)
        spec_v = kg_spec()
        assert cv.canonical_reduction(spec_v, 0.0, 0.0, 2.0) == pytest.approx(2.0)
