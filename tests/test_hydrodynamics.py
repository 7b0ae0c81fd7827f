import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import hydrodynamics as hy
from varq import mechanics as mech
from varq import wavefunction as wv
from varq.errors import InvalidArgumentError, InvalidSpecError, StepRejectedError
from varq.numerics import build_grid, eigensolve_lowest


def ground_state_density(spec, grid, a=1.0):
    op = wv.schrodinger_operator(spec, grid, a)
    w, vecs = eigensolve_lowest(op, 1, grid.h)
    psi0 = np.pad(vecs[:, 0], 1)
    return w[0], psi0**2


class TestDiffusionSpec:
    def test_requires_positive_a(self):
        with pytest.raises(InvalidSpecError):
            hy.DiffusionSpec(a=0.0)


class TestEffectiveHamiltonian:
    def test_classical_flat_multiplier_free_potential(self, free_particle):
        grid = build_grid(-4, 4, 301)
        dspec = hy.DiffusionSpec(a=1.0, mode="classical")
        rho = mech.normalize_density(grid, np.exp(-grid.nodes**2))
        state = hy.HydroState(grid, rho, np.full(grid.n, 2.0))
        he = hy.effective_hamiltonian_density(free_particle, dspec, state)
        assert np.allclose(he, 0.0, atol=1e-12)

    def test_classical_density_linearity(self, unit_mass_harmonic):
        # with a flat multiplier the classical density only enters linearly
        grid = build_grid(-4, 4, 301)
        dspec = hy.DiffusionSpec(a=1.0, mode="classical")
        rho = mech.normalize_density(grid, np.exp(-grid.nodes**2))
        state = hy.HydroState(grid, rho, np.zeros(grid.n))
        he = hy.effective_hamiltonian_density(unit_mass_harmonic, dspec, state)
        assert np.allclose(he, rho * unit_mass_harmonic.potential_at(grid.nodes), atol=1e-14)

    def test_ground_state_energy(self, unit_mass_harmonic):
        grid = build_grid(-10, 10, 2000)
        w0, rho0 = ground_state_density(unit_mass_harmonic, grid)
        dspec = hy.DiffusionSpec(a=1.0)
        state = hy.HydroState(grid, rho0, np.zeros(grid.n))
        he = hy.effective_hamiltonian_density(unit_mass_harmonic, dspec, state)
        assert grid.h * np.sum(he) == pytest.approx(w0, abs=1e-4)


class TestMadelungStep:
    def test_stationary_pair(self, unit_mass_harmonic):
        grid = build_grid(-10, 10, 1200)
        w0, rho0 = ground_state_density(unit_mass_harmonic, grid)
        dspec = hy.DiffusionSpec(a=1.0)
        state = hy.HydroState(grid, rho0, np.zeros(grid.n))
        dt = 1e-4
        out = hy.madelung_step(unit_mass_harmonic, dspec, state, dt)
        assert np.max(np.abs(out.rho - state.rho)) < 1e-14
        mask = state.rho > 1e-12 * state.rho.max()
        lam_rate = (out.lam[mask] - state.lam[mask]) / dt
        assert np.max(np.abs(lam_rate + w0)) < 1e-6

    def test_classical_mode_matches_transport(self, unit_mass_harmonic):
        grid = build_grid(-4, 4, 501)
        rho = mech.normalize_density(grid, np.exp(-grid.nodes**2))
        lam = 0.3 * grid.nodes
        dspec = hy.DiffusionSpec(a=1.0, mode="classical")
        state = mech.HydroState(grid, rho, lam)
        dt = 1e-3
        out_h = hy.madelung_step(unit_mass_harmonic, dspec, state, dt)
        out_m = mech.transport_density(state, unit_mass_harmonic, dt)
        assert np.max(np.abs(out_h.rho - out_m.rho)) <= 1e-12
        assert np.max(np.abs(out_h.lam - out_m.lam)) <= 1e-12

    def test_coherent_centroid_oscillates_with_classical_period(self, unit_mass_harmonic):
        # half a period is enough to pin the oscillation against d cos(t)
        grid = build_grid(-7, 7, 601)
        q = grid.nodes
        d = 0.3
        rho = mech.normalize_density(grid, np.exp(-((q - d) ** 2)))
        dspec = hy.DiffusionSpec(a=1.0)
        state = hy.HydroState(grid, rho, np.zeros(grid.n))
        dt = 0.25 * grid.h**2
        ts, cens = [], []

        def obs(t, s, mass):
            ts.append(t)
            cens.append(grid.h * np.sum(s.rho * q))

        hy.madelung_run(unit_mass_harmonic, dspec, state, np.pi, dt, observer=obs)
        cens = np.asarray(cens)
        ts = np.asarray(ts)
        assert np.max(np.abs(cens - d * np.cos(ts))) < 0.02 * d

    def test_node_formation_rejected(self, unit_mass_harmonic):
        grid = build_grid(-6, 6, 601)
        q = grid.nodes
        rho = np.exp(-(q**2))
        rho[295:305] = 1e-15  # interior hole below the relative floor
        rho = mech.normalize_density(grid, rho)
        dspec = hy.DiffusionSpec(a=1.0)
        state = hy.HydroState(grid, rho, np.zeros(grid.n))
        with pytest.raises(StepRejectedError) as err:
            hy.madelung_step(unit_mass_harmonic, dspec, state, 1e-5)
        assert err.value.location is not None

    def test_cfl_rejection(self, unit_mass_harmonic):
        grid = build_grid(-6, 6, 601)
        rho = mech.normalize_density(grid, np.exp(-grid.nodes**2))
        dspec = hy.DiffusionSpec(a=1.0)
        state = hy.HydroState(grid, rho, 50.0 * grid.nodes)
        with pytest.raises(StepRejectedError):
            hy.madelung_step(unit_mass_harmonic, dspec, state, 0.5)

    def test_negative_density_rejected(self, unit_mass_harmonic):
        # at CFL 1 both faces of cell 11 carry density out, and its two
        # thin neighbours on the left are not bulk, so no node is seen
        grid = build_grid(-5, 5, 41)
        q = grid.nodes
        rho = np.exp(-(q**2))
        rho[:10] = 0.0
        rho[10:13] = 1e-10
        state = hy.HydroState(grid, mech.normalize_density(grid, rho), np.abs(q - q[11]))
        with pytest.raises(StepRejectedError, match=r"negative density \(after step\)") as err:
            hy.madelung_step(unit_mass_harmonic, hy.DiffusionSpec(a=1.0), state, grid.h)
        assert err.value.location == 11
        assert err.value.diagnostics["rho_min"] < -1e-14

    def test_probability_conserved_all_modes(self, unit_mass_harmonic):
        grid = build_grid(-8, 8, 401)
        rho = mech.normalize_density(grid, np.exp(-grid.nodes**2))
        for dspec in (hy.DiffusionSpec(a=1.0), hy.DiffusionSpec(a=1.0, mode="classical")):
            state = hy.HydroState(grid, rho, 0.1 * grid.nodes)
            for _ in range(20):
                state = hy.madelung_step(unit_mass_harmonic, dspec, state, 0.2 * grid.h**2)
                assert abs(grid.h * np.sum(state.rho) - 1.0) < 1e-9


class TestQuantumClassicalContrast:
    def test_quantum_multiplier_update_differs_from_classical(self, unit_mass_harmonic):
        # same snapshot, same coupling: the quantum balance produces a
        # different multiplier update (the coupling is no longer inert)
        grid = build_grid(-6, 6, 601)
        rho = mech.normalize_density(grid, np.exp(-grid.nodes**2))
        lam = 0.2 * grid.nodes
        dt = 1e-5
        q_state = hy.HydroState(grid, rho, lam)
        out_q = hy.madelung_step(unit_mass_harmonic, hy.DiffusionSpec(a=1.0), q_state, dt)
        out_c = hy.madelung_step(
            unit_mass_harmonic, hy.DiffusionSpec(a=1.0, mode="classical"), q_state, dt
        )
        mask = rho > 1e-6 * rho.max()
        assert np.max(np.abs(out_q.lam[mask] - out_c.lam[mask])) > 1e-7


class TestReversal:
    def test_residuals_invariant_under_time_reversal(self, unit_mass_harmonic):
        grid = build_grid(-8, 8, 501)
        rho = mech.normalize_density(grid, np.exp(-((grid.nodes - 0.2) ** 2)))
        dspec = hy.DiffusionSpec(a=1.0)
        state = hy.HydroState(grid, rho, np.zeros(grid.n))
        dt = 0.2 * grid.h**2
        rhos, lams, times = [state.rho], [state.lam], [0.0]
        for k in range(6):
            state = hy.madelung_step(unit_mass_harmonic, dspec, state, dt)
            rhos.append(state.rho)
            lams.append(state.lam)
            times.append((k + 1) * dt)
        rhos, lams, times = np.array(rhos), np.array(lams), np.array(times)
        res, masks = hy.multiplier_residual_series(grid, unit_mass_harmonic, dspec, rhos, lams, times)
        res_m, masks_m = hy.multiplier_residual_series(
            grid, unit_mass_harmonic, dspec, rhos[::-1], -lams[::-1], -times[::-1]
        )
        sel = masks & masks_m[::-1]
        assert np.allclose(np.abs(res_m[::-1][sel]), np.abs(res[sel]), atol=1e-9)
        rc = mech.continuity_residual_series(grid, unit_mass_harmonic, rhos, lams, times)
        rc_m = mech.continuity_residual_series(
            grid, unit_mass_harmonic, rhos[::-1], -lams[::-1], -times[::-1]
        )
        assert np.allclose(np.abs(rc_m[::-1]), np.abs(rc), atol=1e-11)


def _bulk_slice_loop(rho, floor_frac):
    """Reference bulk search: walk out from the peak while cells stay above
    the floor."""
    mask = rho > floor_frac * float(np.max(rho))
    peak = int(np.argmax(rho))
    lo = peak
    while lo > 0 and mask[lo - 1]:
        lo -= 1
    hi = peak
    while hi < rho.size - 1 and mask[hi + 1]:
        hi += 1
    return lo, hi


def _bulk(rho, floor_frac):
    """``hy._bulk_slice`` given the floor and peak that ``_check_nodeless``
    takes from its one scan."""
    peak = int(rho.argmax())
    return hy._bulk_slice(rho, floor_frac * float(rho[peak]), peak)


class TestBulkSlice:
    FLOORS = (1e-12, 1e-6, 0.3, 0.9)  # madelung_step takes a floor_frac in (0, 1) only

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_loop_on_random_densities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        q = np.linspace(-1.0, 1.0, n)
        rho = np.exp(-0.5 * ((q - rng.uniform(-1, 1)) / rng.uniform(0.02, 0.5)) ** 2)
        rho = rho + rng.random(n) ** rng.uniform(1.0, 20.0) * rng.uniform(0.0, 1e-3)
        for _ in range(int(rng.integers(0, 4))):  # holes and detached remnants
            a = int(rng.integers(0, n))
            rho[a : a + int(rng.integers(1, 6))] = rng.choice([0.0, 1e-15, 1e-3])
        floors = self.FLOORS + tuple(rng.uniform(1e-12, 1.0, 3))
        for floor_frac in floors:
            assert _bulk(rho, floor_frac) == _bulk_slice_loop(rho, floor_frac)

    @pytest.mark.parametrize("peak_at", ["first", "last"])
    def test_peak_at_grid_edge(self, peak_at):
        rho = np.linspace(1.0, 0.0, 50)
        rho[20:23] = 0.0
        if peak_at == "last":
            rho = rho[::-1].copy()
        for floor_frac in self.FLOORS:
            got = _bulk(rho, floor_frac)
            assert got == _bulk_slice_loop(rho, floor_frac)
            assert (got[0] == 0) if peak_at == "first" else (got[1] == rho.size - 1)

    def test_whole_grid_above_floor(self):
        rho = 1.0 + np.random.default_rng(0).random(64)
        assert _bulk(rho, 0.5) == (0, 63) == _bulk_slice_loop(rho, 0.5)

    @pytest.mark.parametrize("floor_frac", [0.0, 1.0, 2.0, np.nan])
    def test_floor_frac_outside_unit_interval_rejected(self, unit_mass_harmonic, floor_frac):
        # at floor_frac >= 1 the peak would lie below its own floor and leave no bulk
        grid = build_grid(-4, 4, 81)
        state = hy.HydroState(grid, mech.normalize_density(grid, np.exp(-grid.nodes**2)), np.zeros(grid.n))
        for mode in ("quantum-pole", "classical"):
            with pytest.raises(InvalidArgumentError, match=r"floor_frac must be > 0.0 and < 1.0, got "):
                hy.madelung_step(unit_mass_harmonic, hy.DiffusionSpec(a=1.0, mode=mode), state, 1e-4, floor_frac)

    def test_single_cell_and_zero_density(self):
        for rho in (np.array([0.7]), np.array([0.0, 0.0, 0.7, 0.0])):  # one cell, amid zero density
            assert _bulk(rho, 1e-12) == _bulk_slice_loop(rho, 1e-12)


class TestMassConservation:
    """The Madelung density moves by telescoping upwind fluxes with no-flux
    walls, so h*sum(rho) stays at its start value to roundoff; the density
    state's own check only holds it to 1e-9."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=5.0, max_value=9.0),
        st.integers(min_value=81, max_value=241),
        st.floats(min_value=-0.3, max_value=0.3),
        st.floats(min_value=0.2, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.5, max_value=2.0),
    )
    def test_random_nodeless_gaussian(self, half_width, n, center_frac, variance, kick, mass, a):
        grid = build_grid(-half_width, half_width, n)
        q = grid.nodes
        spec = mech.NaturalSystemSpec(mass=lambda x: mass, potential=lambda x: 0.5 * np.square(x),
                                      mass_grad=lambda x: 0.0, potential_grad=lambda x: x)
        rho = mech.normalize_density(grid, np.exp(-((q - center_frac * half_width) ** 2) / (2 * variance)))
        start = grid.h * float(np.sum(rho))
        masses = []
        dt = 0.2 * grid.h**2 * mass / a
        hy.madelung_run(spec, hy.DiffusionSpec(a=a), hy.HydroState(grid, rho, kick * q), 20 * dt, dt,
                        observer=lambda t, s, mass: masses.append((mass, grid.h * float(np.sum(s.rho)))))
        assert all(mass == summed for mass, summed in masses)  # the observer's mass is h*sum(rho)
        masses = [m for m, _ in masses]
        assert len(masses) >= 20
        assert max(abs(m - start) for m in masses) <= 1e-13


def _varying_mass(q):
    return 1.0 + 0.2 * np.cos(np.asarray(q, dtype=float))


def _face_hole_spec(grid, face):
    """Harmonic spec with m <= 0 at exactly one face midpoint; m > 0 at
    every node."""
    mid = grid.midpoints[face]

    def mass(q):
        q = np.asarray(q, dtype=float)
        return np.where(np.abs(q - mid) < 0.25 * grid.h, -1.0, 1.0)

    return mech.NaturalSystemSpec(mass=mass, potential=lambda q: 0.5 * np.asarray(q) ** 2)


class TestRunSampling:
    """The runs sample m(q) once; every step must see the same bits as a
    step that samples the spec itself."""

    @pytest.mark.parametrize(
        "dspec",
        [hy.DiffusionSpec(a=1.0), hy.DiffusionSpec(a=1.0, mode="classical")],
        ids=["pole", "classical"],
    )
    def test_madelung_run_matches_unsampled_steps(self, dspec):
        spec = mech.NaturalSystemSpec(mass=_varying_mass, potential=lambda q: 0.5 * np.asarray(q) ** 2)
        grid = build_grid(-8, 8, 401)
        rho = mech.normalize_density(grid, np.exp(-((grid.nodes - 0.3) ** 2)))
        state0 = hy.HydroState(grid, rho, 0.1 * grid.nodes)
        dt = 0.2 * grid.h**2
        t_final = 25 * dt
        seen = []
        out = hy.madelung_run(spec, dspec, state0, t_final, dt, observer=lambda t, s, mass: seen.append(s))
        n_steps = int(np.ceil(t_final / dt))
        ref = state0
        for k in range(n_steps):
            ref = hy.madelung_step(spec, dspec, ref, t_final / n_steps)
            assert np.array_equal(seen[k].rho, ref.rho) and np.array_equal(seen[k].lam, ref.lam)
        assert len(seen) == n_steps
        assert np.array_equal(out.rho, ref.rho) and np.array_equal(out.lam, ref.lam)

    @pytest.mark.parametrize("mode", ["quantum-pole", "classical"])
    def test_bad_face_mass_rejected_before_first_step(self, mode, monkeypatch):
        grid = build_grid(-4, 4, 201)
        spec = _face_hole_spec(grid, 137)
        assert np.all(spec.mass_at(grid.nodes) > 0)
        rho = mech.normalize_density(grid, np.exp(-grid.nodes**2))
        steps = []
        for name in ("_step", "_windowed_upwind"):  # the first call of a classical, a quantum-pole run step
            monkeypatch.setattr(hy, name, lambda *a, real=getattr(hy, name): steps.append(1) or real(*a))
        with pytest.raises(InvalidSpecError):
            hy.madelung_run(spec, hy.DiffusionSpec(a=1.0, mode=mode),
                            hy.HydroState(grid, rho, np.zeros(grid.n)), 0.01, 1e-4)
        assert steps == []

    @pytest.mark.parametrize("t_final, dt", [
        (0.1, 0.0), (0.1, -1e-3), (-0.1, 1e-3), (0.0, 1e-3), (float("nan"), 1e-3),
        (0.1, float("nan")), (float("inf"), 1e-3), (0.1, float("inf")), (0.1, 1e-320),
    ])
    def test_bad_time_arguments_rejected(self, unit_mass_harmonic, t_final, dt):
        grid = build_grid(-4, 4, 101)
        rho = mech.normalize_density(grid, np.exp(-grid.nodes**2))
        state = hy.HydroState(grid, rho, np.zeros(grid.n))
        seen = []
        with pytest.raises(InvalidArgumentError):
            hy.madelung_run(unit_mass_harmonic, hy.DiffusionSpec(a=1.0), state, t_final, dt,
                            observer=lambda t, s, mass: seen.append(t))
        assert seen == []
