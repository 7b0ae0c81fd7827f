import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import cli
from varq import hydrodynamics as hy
from varq import mechanics as mech
from varq import potentials as pot
from varq import wavefunction as wv
from varq.errors import (
    InvalidArgumentError,
    InvalidSpecError,
    InvalidStateError,
    NumericalFailureError,
    StepRejectedError,
)
from varq.numerics import build_grid

from test_step_reference import rk4_step


def gaussian_ensemble(grid, center, width, momentum=0.0):
    q = grid.nodes
    rho = np.exp(-0.5 * ((q - center) / width) ** 2)
    return mech.HydroState(grid, mech.normalize_density(grid, rho), momentum * q)


class TestHamiltonFlow:
    def test_harmonic_period(self, unit_mass_harmonic):
        dt = 1e-3
        flow = mech.hamilton_flow(unit_mass_harmonic, mech.PhaseState(1.0, 0.0), dt, 7000)
        # bracket the return of p to 0 from above near t = 2 pi, refine by bisection
        t = _refine_period(unit_mass_harmonic, flow, dt)
        assert t == pytest.approx(2 * np.pi, abs=1e-6)

    def test_free_motion_exact(self, free_particle):
        flow = mech.hamilton_flow(free_particle, mech.PhaseState(0.5, 1.5), 0.01, 100)
        times = 0.01 * np.arange(101)
        assert np.allclose(flow[:, 0], 0.5 + 1.5 * times, atol=1e-12)
        assert np.allclose(flow[:, 1], 1.5, atol=1e-14)

    def test_time_reversal(self, unit_mass_harmonic):
        fwd = mech.hamilton_flow(unit_mass_harmonic, mech.PhaseState(0.7, 0.4), 1e-3, 1500)
        qf, pf = fwd[-1]
        back = mech.hamilton_flow(unit_mass_harmonic, mech.PhaseState(qf, -pf), 1e-3, 1500)
        qb, pb = back[-1]
        assert qb == pytest.approx(0.7, abs=1e-10)
        assert -pb == pytest.approx(0.4, abs=1e-10)

    def test_energy_conservation(self, unit_mass_harmonic):
        flow = mech.hamilton_flow(unit_mass_harmonic, mech.PhaseState(1.0, 0.0), 1e-3, 6283)
        e = 0.5 * flow[:, 1] ** 2 + 0.5 * flow[:, 0] ** 2
        assert np.max(np.abs(e - e[0])) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_fails(self, free_particle):
        # every derivative is finite (dq/dt = p = 1), but q + dt p overflows to inf
        with pytest.raises(NumericalFailureError, match="^non-finite state in hamilton_flow$"):
            mech.hamilton_flow(free_particle, mech.PhaseState(1.7e308, 1.0), 1e308, 1)
        # with a callback mass, p = 1.7e308 overflows p^2 in dp/dt = p^2 m'/2m^2 - V'
        # (inf * 0 = nan) before any state does
        with pytest.raises(NumericalFailureError, match="^non-finite derivative in hamilton_flow$"):
            mech.hamilton_flow(free_particle, mech.PhaseState(0.0, 1.7e308), 10.0, 5)

    def test_number_mass_takes_no_mass_gradient_term(self):
        # a constant mass has no p^2 m' term to overflow: a free particle at p = 1e300 flows
        spec = mech.NaturalSystemSpec(mass=1.0, potential=lambda q: 0.0 * q, potential_grad=lambda q: 0.0 * q)
        flow = mech.hamilton_flow(spec, mech.PhaseState(0.0, 1e300), 1e-10, 5)
        assert np.isfinite(flow).all()
        assert np.array_equal(flow[:, 1], np.full(6, 1e300))
        assert flow[-1, 0] == pytest.approx(5e290, rel=1e-12)

    @pytest.mark.parametrize("mass", [1.0, lambda q: 1.0 + 0.0 * q], ids=["number", "callback"])
    def test_missing_gradient_rejected(self, mass):
        # V' is always needed, m' for a callback mass: no finite-difference fallback
        p = pot.harmonic(1.0)
        specs = [mech.NaturalSystemSpec(mass=mass, potential=p.v, mass_grad=lambda q: 0.0 * q)]
        if callable(mass):
            specs.append(mech.NaturalSystemSpec(mass=mass, potential=p.v, potential_grad=p.dv))
        for spec in specs:
            with pytest.raises(InvalidSpecError, match="^hamilton_flow needs potential_grad, and mass_grad"):
                mech.hamilton_flow(spec, mech.PhaseState(1.0, 0.0), 0.1, 1)


def _refine_period(spec, flow, dt):
    # the initial state (q0, 0) returns where p crosses 0 downward with q > 0
    p = flow[:, 1]
    q = flow[:, 0]
    down = (p[:-1] > 0) & (p[1:] <= 0) & (q[:-1] > 0)
    k = int(np.flatnonzero(down)[0])
    t_lo, t_hi = k * dt, (k + 1) * dt
    state_lo = mech.PhaseState(*flow[k])
    for _ in range(60):
        half = 0.5 * (t_hi - t_lo)
        if half < 1e-14:
            break
        probe = mech.hamilton_flow(spec, state_lo, half / 8, 8)
        if probe[-1, 1] > 0:  # crossing is later
            t_lo += half
            state_lo = mech.PhaseState(*probe[-1])
        else:
            t_hi = t_lo + half
    return 0.5 * (t_lo + t_hi)


class TestTransport:
    def test_constant_multiplier_leaves_density(self, unit_mass_harmonic):
        grid = build_grid(-3, 3, 301)
        ens = gaussian_ensemble(grid, 0.0, 0.4)
        out = mech.transport_density(ens, unit_mass_harmonic, 1e-3)
        assert np.array_equal(out.rho, ens.rho)

    def test_linear_multiplier_translates(self, free_particle):
        grid = build_grid(-6, 6, 1200)
        p0 = 0.8
        ens = gaussian_ensemble(grid, 0.0, 0.5, momentum=p0)
        dt = 2e-3
        n = 200
        for _ in range(n):
            ens = mech.transport_density(ens, free_particle, dt)
        centroid = grid.h * np.sum(ens.rho * grid.nodes)
        assert centroid == pytest.approx(p0 * dt * n, abs=2 * grid.h)

    def test_probability_conserved_per_step(self, unit_mass_harmonic):
        grid = build_grid(-3, 3, 500)
        ens = gaussian_ensemble(grid, 0.5, 0.3)
        ens.lam[:] = 0.4 * grid.nodes
        for _ in range(50):
            ens = mech.transport_density(ens, unit_mass_harmonic, 1e-3)
            assert abs(grid.h * np.sum(ens.rho) - 1.0) < 1e-9

    def test_cfl_rejection(self, free_particle):
        grid = build_grid(-3, 3, 301)
        ens = gaussian_ensemble(grid, 0.0, 0.4, momentum=5.0)
        with pytest.raises(StepRejectedError):
            mech.transport_density(ens, free_particle, 1.0)

    def test_delta_limit_tracks_flow_short_horizon(self, unit_mass_harmonic):
        # pre-caustic horizon: centroid follows the characteristic to O(h)
        grid = build_grid(-1.5, 1.5, 1001)
        width = 3 * grid.h
        ens = gaussian_ensemble(grid, 1.0, width)
        t_final = 0.5
        ens = mech.transport_run(ens, unit_mass_harmonic, t_final, 0.4 * grid.h,
                                 support_floor=1e-6, observer=lambda t, rho, mass: None)
        centroid = grid.h * np.sum(ens.rho * grid.nodes)
        assert centroid == pytest.approx(np.cos(t_final), abs=2 * grid.h)

    def test_delta_limit_width_convergence(self):
        # invariant: narrower initial data tracks the characteristic flow
        # better; probed on an anharmonic well, where a finite width
        # genuinely biases the centroid (mean force differs from the force
        # at the mean)
        spec = mech.NaturalSystemSpec(
            mass=lambda q: 1.0 if np.isscalar(q) else np.ones(np.shape(q)),
            potential=lambda q: 0.25 * np.power(q, 4),
            mass_grad=lambda q: 0.0 if np.isscalar(q) else np.zeros(np.shape(q)),
            potential_grad=lambda q: np.power(q, 3),
        )
        t_final = 0.8
        flow = mech.hamilton_flow(spec, mech.PhaseState(1.0, 0.0), 1e-4, 8000)
        q_ref = flow[-1, 0]
        errs = []
        for width_cells in (16.0, 9.0, 4.0):
            grid = build_grid(-1.6, 1.6, 1201)
            ens = gaussian_ensemble(grid, 1.0, width_cells * grid.h)
            out = mech.transport_run(ens, spec, t_final, 0.4 * grid.h, support_floor=1e-6,
                                     observer=lambda t, rho, mass: None)
            centroid = grid.h * np.sum(out.rho * grid.nodes)
            errs.append(abs(centroid - q_ref))
        assert errs[0] > errs[1] > errs[2]


class TestRunSampling:
    """transport_run samples m(q) at the faces once and writes S outside the
    support window only before it returns; every step's density and the
    returned S (sign bits too) must be the bits of a checked ensemble built
    from each standalone classical_transport_step, which samples the spec
    itself and returns the whole S."""

    @pytest.mark.parametrize("support_floor", [1e-6, None])
    def test_transport_run_matches_standalone_steps(self, support_floor):
        spec = mech.NaturalSystemSpec(
            mass=lambda q: 1.0 + 0.2 * np.cos(np.asarray(q, dtype=float)),
            potential=lambda q: 0.5 * np.asarray(q) ** 2,
        )
        grid = build_grid(-1.4, 1.4, 401)
        ens0 = gaussian_ensemble(grid, 1.0, 3 * grid.h)
        dt = 0.4 * grid.h
        t_final = 60 * dt
        seen = []
        out = mech.transport_run(ens0, spec, t_final, dt, support_floor=support_floor,
                                 observer=lambda t, rho, mass: seen.append((rho.copy(), mass)))
        n_steps = int(np.ceil(t_final / dt))
        ref = ens0
        for k in range(n_steps):
            ref = mech.HydroState(grid, *mech.classical_transport_step(grid, ref.rho, ref.lam, spec,
                                                                              t_final / n_steps, support_floor))
            assert np.array_equal(seen[k][0], ref.rho) and seen[k][1] == grid.h * float(ref.rho.sum())
        assert len(seen) == n_steps
        assert np.array_equal(out.rho, ref.rho) and np.array_equal(out.lam, ref.lam)
        assert np.array_equal(np.signbit(out.lam), np.signbit(ref.lam))

    def test_bad_face_mass_rejected_before_first_step(self, monkeypatch):
        grid = build_grid(-3, 3, 201)
        mid = grid.midpoints[58]
        spec = mech.NaturalSystemSpec(
            mass=lambda q: np.where(np.abs(np.asarray(q) - mid) < 0.25 * grid.h, -1.0, 1.0),
            potential=lambda q: 0.5 * np.asarray(q) ** 2,
        )
        assert np.all(spec.mass_at(grid.nodes) > 0)
        steps = []
        real_step = mech._step
        monkeypatch.setattr(mech, "_step", lambda *a: steps.append(1) or real_step(*a))
        with pytest.raises(InvalidSpecError):
            mech.transport_run(gaussian_ensemble(grid, 0.0, 0.4), spec, 0.1, 1e-2, support_floor=1e-6,
                               observer=lambda t, rho, mass: None)
        assert steps == []

    @pytest.mark.parametrize("t_final, dt", [
        (0.1, 0.0), (0.1, -1e-3), (-0.1, 1e-3), (0.0, 1e-3), (float("nan"), 1e-3),
        (0.1, float("nan")), (float("inf"), 1e-3), (0.1, float("inf")), (0.1, 1e-320),
    ])
    def test_bad_time_arguments_rejected(self, unit_mass_harmonic, t_final, dt):
        grid = build_grid(-3, 3, 101)
        seen = []
        with pytest.raises(InvalidArgumentError):
            mech.transport_run(gaussian_ensemble(grid, 0.0, 0.4), unit_mass_harmonic, t_final, dt,
                               support_floor=None, observer=lambda t, e, mass: seen.append(t))
        assert seen == []

    @pytest.mark.parametrize("floor", [1.0, 2.0, float("nan"), 0.0, -1.0])
    @pytest.mark.parametrize("via", ["transport_run", "classical_transport_step", "madelung_step"])
    def test_support_floor_outside_unit_interval_rejected(self, unit_mass_harmonic, via, floor):
        grid = build_grid(-3, 3, 101)
        ens = gaussian_ensemble(grid, 0.0, 0.4)
        with pytest.raises(InvalidArgumentError, match=r"support_floor must be > 0\.0 and < 1\.0, got"):
            if via == "transport_run":
                mech.transport_run(ens, unit_mass_harmonic, 0.01, 0.4 * grid.h, support_floor=floor,
                                   observer=lambda t, rho, mass: None)
            elif via == "classical_transport_step":
                mech.classical_transport_step(grid, ens.rho, ens.lam, unit_mass_harmonic, 0.4 * grid.h, floor)
            else:
                hy.madelung_step(unit_mass_harmonic, hy.DiffusionSpec(a=1.0, mode="classical"),
                                 ens, 0.4 * grid.h, support_floor=floor)

    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_no_cell_above_support_floor_rejected(self, unit_mass_harmonic, value):
        grid = build_grid(-3, 3, 101)
        with pytest.raises(InvalidStateError, match="no cell of the density is above the support floor"):
            mech.classical_transport_step(grid, np.full(grid.n, value), np.zeros(grid.n), unit_mass_harmonic,
                                          0.4 * grid.h, 1e-6)


class TestTimeReversal:
    def test_residuals_invariant_under_reversal(self, unit_mass_harmonic):
        # map t -> -t, S -> -S, rho -> rho on a stored numerical solution:
        # the residual fields keep their magnitudes exactly
        grid = build_grid(-3, 3, 400)
        ens = gaussian_ensemble(grid, 0.8, 0.25)
        dt = 0.4 * grid.h
        rhos, lams, times = [ens.rho], [ens.lam], [0.0]
        for k in range(6):
            ens = mech.transport_density(ens, unit_mass_harmonic, dt)
            rhos.append(ens.rho)
            lams.append(ens.lam)
            times.append((k + 1) * dt)
        rhos, lams, times = np.array(rhos), np.array(lams), np.array(times)

        r_hj = mech.hj_residual_series(grid, unit_mass_harmonic, lams, times)
        r_ct = mech.continuity_residual_series(grid, unit_mass_harmonic, rhos, lams, times)
        # reversed-order fields with flipped multiplier sign at times -t
        r_hj_m = mech.hj_residual_series(grid, unit_mass_harmonic, -lams[::-1], -times[::-1])
        r_ct_m = mech.continuity_residual_series(
            grid, unit_mass_harmonic, rhos[::-1], -lams[::-1], -times[::-1]
        )
        assert np.allclose(np.abs(r_hj_m[::-1]), np.abs(r_hj), atol=1e-11)
        assert np.allclose(np.abs(r_ct_m[::-1]), np.abs(r_ct), atol=1e-11)


def transport_step_unmasked(grid, rho, S, spec, dt, m_face=None):
    """classical_transport_step(support_floor=None) before the windowed upwind
    step was shared: the unmasked face velocity drives the upwind update."""
    if m_face is None:
        m_face = spec.mass_at(grid.midpoints)
    lo, hi = 0, grid.n - 1
    v_face = np.diff(S) / grid.h / m_face
    active = slice(lo, hi)
    vmax = float(np.max(np.abs(v_face[active]))) if hi > lo else 0.0
    cfl = vmax * dt / grid.h
    if cfl > 1.0:
        loc = lo + int(np.argmax(np.abs(v_face[active])))
        raise StepRejectedError(
            f"CFL violation: max |v| dt / h = {cfl:.3g} > 1",
            location=loc,
            diagnostics={"cfl": cfl},
        )
    rho_new = mech.upwind_density_update(grid, rho, v_face, dt)
    S_new = mech._godunov_hj_update(grid.h, 2.0 * spec.mass_at(grid.nodes), spec.potential_at(grid.nodes), S, dt)
    return rho_new, S_new


def windowed_upwind_masked(grid, rho, lam, m_face, lo, hi, dt):
    """_windowed_upwind before it became window-local: the face velocity on
    the whole grid, masked to the faces between nodes lo..hi, drives a
    whole-grid upwind update."""
    v_face = np.diff(lam) / grid.h / m_face
    active = slice(lo, hi)  # faces between nodes lo..hi
    vmax = float(np.max(np.abs(v_face[active]))) if hi > lo else 0.0
    cfl = vmax * dt / grid.h
    if cfl > 1.0:
        raise StepRejectedError(
            f"CFL violation: max |v| dt / h = {cfl:.3g} > 1",
            location=lo + int(np.argmax(np.abs(v_face[active]))),
            diagnostics={"cfl": cfl},
        )
    v_masked = np.zeros_like(v_face)
    v_masked[active] = v_face[active]
    return mech.upwind_density_update(grid, rho, v_masked, dt)


def _outcome(step, *args, **kwargs):
    try:
        return step(*args, **kwargs)
    except StepRejectedError as exc:
        return str(exc), exc.location, exc.diagnostics


class TestWholeGridWindow:
    """Without ``support_floor`` the window is the whole grid, so the shared
    windowed step must give the old unmasked results bit for bit, and reject
    with the same message, location and CFL number."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.05, max_value=2.0),
        st.booleans(),
    )
    def test_matches_unmasked_formula(self, n, seed, cfl_target, pass_run):
        rng = np.random.default_rng(seed)
        grid = build_grid(-rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), n)
        c0, c1 = rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4)
        spec = mech.NaturalSystemSpec(
            mass=lambda q: c0 + c1 * np.sin(3.0 * np.asarray(q, dtype=float)),
            potential=lambda q: c0 * np.asarray(q, dtype=float) ** 2,
        )
        rho = rng.random(n) ** 3 * (rng.random(n) > 0.2)
        S = np.cumsum(rng.normal(scale=rng.uniform(1e-3, 5.0), size=n))
        vmax = float(np.max(np.abs(np.diff(S) / grid.h / spec.mass_at(grid.midpoints))))
        dt = cfl_target * grid.h / max(vmax, 1e-300)
        m_face = spec.mass_at(grid.midpoints) if pass_run else None
        if pass_run:  # a run's step
            new = _outcome(mech._step, mech._RunContext(grid, spec), grid, rho, S, spec, dt, None)
        else:
            new = _outcome(mech.classical_transport_step, grid, rho, S, spec, dt, None)
        old = _outcome(transport_step_unmasked, grid, rho, S, spec, dt, m_face)
        if not isinstance(old[0], str) and np.min(old[0]) < -1e-14:
            # an overdrawn cell: the step now rejects where the old form went negative
            low = int(np.argmin(old[0]))
            old = ("negative density (after step)", low, {"rho_min": float(old[0][low])})
        assert isinstance(new[0], str) == isinstance(old[0], str)
        if isinstance(old[0], str):
            assert new == old
        else:
            assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])

    def test_rejection_location_is_fastest_face(self, free_particle):
        grid = build_grid(-1.0, 1.0, 11)
        S = np.zeros(grid.n)
        S[7:] = 3.0  # one steep face between nodes 6 and 7
        rho = np.full(grid.n, 0.5)
        with pytest.raises(StepRejectedError) as err:
            mech.classical_transport_step(grid, rho, S, free_particle, 0.1)
        assert err.value.location == 6
        assert _outcome(transport_step_unmasked, grid, rho, S, free_particle, 0.1)[1] == 6


def _random_flow(seed, n, cfl):
    """A grid, a nonnegative density with empty stretches, a multiplier S
    and a face velocity v = (dS/dq)/m, with dt at CFL number ``cfl``."""
    rng = np.random.default_rng(seed)
    grid = build_grid(-rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), n)
    c0, c1 = rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4)
    spec = mech.NaturalSystemSpec(
        mass=lambda q: c0 + c1 * np.cos(2.0 * np.asarray(q, dtype=float)),
        potential=lambda q: c0 * np.asarray(q, dtype=float) ** 2,
    )
    rho = rng.random(n) ** 3 * (rng.random(n) > 0.3) * 10.0 ** rng.uniform(-3, 3)
    rho[rng.integers(n)] += 1.0
    S = np.cumsum(rng.normal(scale=rng.uniform(1e-3, 5.0), size=n))
    v_face = np.diff(S) / grid.h / spec.mass_at(grid.midpoints)
    # just below the CFL number, so that rounding never lifts it past 1
    dt = cfl * grid.h / float(np.max(np.abs(v_face))) * (1.0 - 1e-12)
    return grid, spec, rho, S, v_face, dt


def _mass_moved(grid, rho, new):
    """|h*sum(new) - h*sum(rho)| in units of the roundoff bound of a
    telescoping update (a few ulp per cell of the largest density)."""
    bound = 8.0 * grid.n * np.finfo(float).eps * grid.h * float(np.max(np.abs(rho)))
    return abs(grid.h * float(np.sum(new)) - grid.h * float(np.sum(rho))) / bound


class TestUpwindMassConservation:
    """h*sum(rho) is conserved by every upwind step at CFL <= 1: the fluxes
    telescope and the walls carry none."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=3, max_value=200),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_upwind_density_update(self, n, seed, cfl):
        grid, _, rho, _, v_face, dt = _random_flow(seed, n, cfl)
        assert _mass_moved(grid, rho, mech.upwind_density_update(grid, rho, v_face, dt)) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=3, max_value=200),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.01, max_value=1.0),
        st.one_of(st.none(), st.floats(min_value=1e-9, max_value=0.9)),
    )
    def test_classical_transport_step(self, n, seed, cfl, support_floor):
        grid, spec, rho, S, _, dt = _random_flow(seed, n, cfl)
        try:
            rho_new, _ = mech.classical_transport_step(grid, rho, S, spec, dt, support_floor)
        except StepRejectedError as exc:
            # an overdrawn cell rejects the step; the density it computed
            # (the old masked form) must still have conserved mass
            lo, hi = (0, n - 1) if support_floor is None else mech._support_window(rho, support_floor)
            rho_new = windowed_upwind_masked(grid, rho, S, spec.mass_at(grid.midpoints), lo, hi, dt)
            low = int(np.argmin(rho_new))
            assert rho_new[low] < -1e-14
            assert (str(exc), exc.location, exc.diagnostics) == (
                "negative density (after step)", low, {"rho_min": float(rho_new[low])})
        assert _mass_moved(grid, rho, rho_new) <= 1.0


def hamilton_flow_rk4(spec, state, dt, n_steps):
    """hamilton_flow before its scalar path: the array rk4_step on [q, p]
    arrays, with a callback mass sampled through mass_at and the removed
    dmass_at/dpotential_at (the analytic gradients)."""
    if not np.isfinite(dt * n_steps):
        raise InvalidArgumentError("dt * n_steps must be finite")

    def rhs(y):
        q, p = y
        m = float(spec.mass_at(q))
        dm = float(np.asarray(spec.mass_grad(q), dtype=float))
        dv = float(np.asarray(spec.potential_grad(q), dtype=float))
        return np.array([p / m, p * p * dm / (2.0 * m * m) - dv])

    out = np.empty((n_steps + 1, 2))
    out[0] = (state.q, state.p)
    y = out[0].copy()
    for k in range(1, n_steps + 1):
        y = rk4_step(rhs, y, dt, "hamilton_flow")
        if not np.all(np.isfinite(y)):
            raise NumericalFailureError("non-finite state in hamilton_flow")
        out[k] = y
    return out


def _flow_outcome(flow, *args):
    try:
        return flow(*args)
    except (InvalidSpecError, NumericalFailureError) as exc:
        return type(exc), str(exc)


def _assert_same_flow(spec, *args):
    new = _flow_outcome(mech.hamilton_flow, spec, *args)
    old = _flow_outcome(hamilton_flow_rk4, spec, *args)
    assert type(new) is type(old)
    assert new == old if isinstance(old, tuple) else np.array_equal(new, old)
    return new


_POTENTIALS = {
    "harmonic": lambda c: pot.harmonic(1.0 + abs(c[0])),
    "quartic": lambda c: pot.quartic(c[0]),  # c < 0 is an inverted well: trajectories blow up
    "polynomial": lambda c: pot.polynomial(c),
}


def _flow_spec(kind, coeffs, m0, m1):
    """Potential from the catalogue and mass m0 (1 + m1 cos q) (> 0 for
    |m1| < 1), with their analytic gradients."""
    p = _POTENTIALS[kind](coeffs)
    return mech.NaturalSystemSpec(
        mass=lambda q: m0 * (1.0 + m1 * np.cos(q)),
        potential=p.v,
        mass_grad=lambda q: -m0 * m1 * np.sin(q),
        potential_grad=p.dv,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # blow-ups overflow in the callbacks
class TestScalarFlow:
    """hamilton_flow runs its RK4 stages on Python floats; states and errors
    must be those of rk4_step on [q, p] arrays, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(_POTENTIALS)),
        st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=5),
        st.floats(min_value=0.2, max_value=3.0),
        st.sampled_from([0.0, 0.5, -0.9]),
        st.tuples(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-4.0, max_value=4.0)),
        st.floats(min_value=1e-3, max_value=0.5),
        st.integers(min_value=0, max_value=120),
    )
    def test_matches_rk4_step_flow(self, kind, coeffs, m0, m1, qp, dt, n_steps):
        spec = _flow_spec(kind, coeffs, m0, m1)
        _assert_same_flow(spec, mech.PhaseState(*qp), dt, n_steps)

    def test_overflowing_state_fails_as_before(self, free_particle):
        # finite derivatives, and q + dt p overflows: the state, not a derivative, stops being finite
        failed = _assert_same_flow(free_particle, mech.PhaseState(1.7e308, 1.0), 1e308, 1)
        assert failed == (NumericalFailureError, "non-finite state in hamilton_flow")

    def test_blow_up_fails_as_before(self):
        # V = -q^4 sends the particle to infinity in finite time
        spec = _flow_spec("quartic", [-1.0], 1.0, 0.0)
        for dt in (0.01, 0.1, 0.4):
            failed = _assert_same_flow(spec, mech.PhaseState(1.0, 0.0), dt, 400)
            assert failed == (NumericalFailureError, "non-finite derivative in hamilton_flow")

    def test_nonpositive_mass_mid_flow(self):
        # m = 1 - q reaches 0 at q = 1; the free particle gets there near t = 0.5
        spec = mech.NaturalSystemSpec(mass=lambda q: 1.0 - q, potential=lambda q: 0.0 * q,
                                      mass_grad=lambda q: -1.0 + 0.0 * q, potential_grad=lambda q: 0.0 * q)
        outcomes = [_assert_same_flow(spec, mech.PhaseState(0.0, 1.0), 0.1, n) for n in range(1, 12)]
        assert isinstance(outcomes[0], np.ndarray)
        assert outcomes[-1] == (InvalidSpecError, "mass m(q) must be finite and > 0")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass_mid_flow(self, bad):
        # m jumps from 1 to nan or inf at q = 1; the free particle gets there near t = 1
        spec = mech.NaturalSystemSpec(mass=lambda q: 1.0 if q < 1.0 else bad, potential=lambda q: 0.0,
                                      mass_grad=lambda q: 0.0, potential_grad=lambda q: 0.0)
        outcomes = [_assert_same_flow(spec, mech.PhaseState(0.0, 1.0), 0.1, n) for n in range(1, 14)]
        assert isinstance(outcomes[0], np.ndarray)
        assert outcomes[-1] == (InvalidSpecError, "mass m(q) must be finite and > 0")
        with pytest.raises(InvalidSpecError, match="finite and > 0"):
            mech.hamilton_flow(spec, mech.PhaseState(0.0, 1.0), 0.1, 13)

    def test_nonfinite_derivative_mid_flow(self):
        # dV/dq = 0 * sqrt(q) is NaN once a stage reaches q < 0
        spec = mech.NaturalSystemSpec(mass=lambda q: 1.0, potential=lambda q: 0.0,
                                      mass_grad=lambda q: 0.0, potential_grad=lambda q: 0.0 * np.sqrt(q))
        outcomes = [_assert_same_flow(spec, mech.PhaseState(0.5, -1.0), 0.1, n) for n in range(1, 10)]
        assert isinstance(outcomes[0], np.ndarray)
        assert outcomes[-1] == (NumericalFailureError, "non-finite derivative in hamilton_flow")

    def test_mass_underflow_fails_as_before(self):
        # 2 m^2 underflows to 0: numpy divides to NaN where Python floats would raise
        spec = mech.NaturalSystemSpec(mass=lambda q: 1e-170, potential=lambda q: 0.0,
                                      mass_grad=lambda q: 0.0, potential_grad=lambda q: 0.0)
        assert _assert_same_flow(spec, mech.PhaseState(0.0, 1.0), 0.1, 3) == (
            NumericalFailureError, "non-finite derivative in hamilton_flow")

    @pytest.mark.parametrize("n_steps", [-1, 2.5, "3", True, None])
    def test_bad_n_steps_rejected(self, free_particle, n_steps):
        with pytest.raises(InvalidArgumentError, match="n_steps"):
            mech.hamilton_flow(free_particle, mech.PhaseState(0.0, 1.0), 0.1, n_steps)

    @pytest.mark.parametrize("n_steps", [0, np.int64(3)])
    def test_integer_n_steps_accepted(self, free_particle, n_steps):
        flow = mech.hamilton_flow(free_particle, mech.PhaseState(0.0, 1.0), 0.1, n_steps)
        assert flow.shape == (n_steps + 1, 2)


def _confining_spec(c2, c4, m0, m1):
    """V = c2 q^2 + c4 q^4 with c2, c4 >= 0, mass m0 (1 + m1 cos q), analytic gradients."""
    return mech.NaturalSystemSpec(
        mass=lambda q: m0 * (1.0 + m1 * np.cos(q)),
        potential=lambda q: c2 * q**2 + c4 * q**4,
        mass_grad=lambda q: -m0 * m1 * np.sin(q),
        potential_grad=lambda q: 2.0 * c2 * q + 4.0 * c4 * q**3,
    )


def _energy(spec, states):
    q, p = states[:, 0], states[:, 1]
    return p**2 / (2.0 * spec.mass_at(q)) + spec.potential_at(q)


class TestFlowInvariants:
    """Time reversal and energy conservation of the RK4 characteristic flow
    on random confining potentials and position-dependent masses."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=-0.5, max_value=0.5),
        st.tuples(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0)),
    )
    def test_time_reversal(self, c2, c4, m0, m1, qp):
        spec = _confining_spec(c2, c4, m0, m1)
        fwd = mech.hamilton_flow(spec, mech.PhaseState(*qp), 1e-3, 500)
        qf, pf = fwd[-1]
        back = mech.hamilton_flow(spec, mech.PhaseState(qf, -pf), 1e-3, 500)
        qb, pb = back[-1]
        assert abs(qb - qp[0]) <= 1e-9 and abs(pb + qp[1]) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=-0.5, max_value=0.5),
        st.tuples(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0)),
    )
    def test_energy_conservation(self, c2, c4, m0, m1, qp):
        spec = _confining_spec(c2, c4, m0, m1)
        e = _energy(spec, mech.hamilton_flow(spec, mech.PhaseState(*qp), 1e-3, 1000))
        assert np.max(np.abs(e - e[0])) <= 1e-9 * (1.0 + abs(e[0]))


def _window(mode, rng, n):
    """(lo, hi) node window: anywhere, from node 0, to node n-1, empty or whole."""
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo, n))
    return {"any": (lo, hi), "left": (0, hi), "right": (lo, n - 1), "empty": (lo, lo),
            "whole": (0, n - 1)}[mode]


class TestWindowLocalUpwind:
    """_windowed_upwind updates only nodes lo-1..hi+1; results, rejections,
    locations and CFL numbers must be those of the whole-grid masked form."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=3, max_value=80),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["any", "left", "right", "empty", "whole"]),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_matches_masked_form(self, n, seed, mode, cfl_target):
        grid, spec, rho, S, v_face, _ = _random_flow(seed, n, 1.0)
        lo, hi = _window(mode, np.random.default_rng(seed + 1), n)
        m_face = spec.mass_at(grid.midpoints)
        vmax = float(np.max(np.abs(v_face[lo:hi]))) if hi > lo else 1.0
        dt = cfl_target * grid.h / max(vmax, 1e-300)
        new = _outcome(mech._windowed_upwind, grid, rho, S, m_face, lo, hi, dt)
        old = _outcome(windowed_upwind_masked, grid, rho, S, m_face, lo, hi, dt)
        assert isinstance(new, tuple) == isinstance(old, tuple)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert np.array_equal(new, old)

    def test_cfl_rejection_as_before(self):
        grid = build_grid(-1.0, 1.0, 21)
        S = np.zeros(grid.n)
        S[13:] = 2.0  # one steep face between nodes 12 and 13
        rho = np.full(grid.n, 0.5)
        m_face = np.ones(grid.n - 1)
        for lo, hi in ((0, 20), (5, 13), (12, 13)):
            new = _outcome(mech._windowed_upwind, grid, rho, S, m_face, lo, hi, 0.1)
            assert new == _outcome(windowed_upwind_masked, grid, rho, S, m_face, lo, hi, 0.1)
            assert new[1] == 12 and new[2]["cfl"] == pytest.approx(20.0)
        # the steep face outside the window is not an active face
        assert np.array_equal(mech._windowed_upwind(grid, rho, S, m_face, 0, 12, 0.1), rho)

    @pytest.mark.parametrize("bad", ["lam", "dt", "m_face"])
    def test_nan_cfl_rejected(self, bad):
        grid = build_grid(-1.0, 1.0, 21)
        lam, m_face, dt = 0.1 * grid.nodes, np.ones(grid.n - 1), 0.01
        if bad == "lam":
            lam[7] = np.nan
        elif bad == "m_face":
            m_face[6] = np.nan
        else:
            dt = np.nan
        with pytest.raises(StepRejectedError, match="CFL violation: max .* = nan > 1") as err:
            mech._windowed_upwind(grid, np.full(grid.n, 0.5), lam, m_face, 2, 18, dt)
        assert np.isnan(err.value.diagnostics["cfl"])
        assert err.value.location == (2 if bad == "dt" else 6)


def _overdrawn():
    """A thin Gaussian whose peak the multiplier |q - q_20| drains through
    both faces at CFL 0.6 (> 1/2 per face), with three near-empty cells."""
    grid = build_grid(-1.0, 1.0, 41)
    q = grid.nodes
    rho = np.exp(-(q**2) / 0.1)
    rho[10:13] = 1e-10
    return grid, mech.normalize_density(grid, rho), np.abs(q - q[20]), 0.6 * grid.h


class TestOverdraw:
    """A step that leaves a density below -1e-14 is a rejected step
    (StepRejectedError, exit 3), not a bad state (InvalidStateError, exit 2)."""

    @pytest.mark.parametrize("support_floor", [None, 1e-6])
    @pytest.mark.parametrize("via", ["classical_transport_step", "madelung_step"])
    def test_rejected_at_most_negative_cell(self, free_particle, via, support_floor):
        grid, rho, S, dt = _overdrawn()
        lo, hi = (0, grid.n - 1) if support_floor is None else mech._support_window(rho, support_floor)
        unchecked = windowed_upwind_masked(grid, rho, S, np.ones(grid.n - 1), lo, hi, dt)
        low = int(np.argmin(unchecked))
        assert unchecked[low] < -1e-14
        with pytest.raises(StepRejectedError) as err:
            if via == "classical_transport_step":
                mech.classical_transport_step(grid, rho, S, free_particle, dt, support_floor)
            else:
                hy.madelung_step(free_particle, hy.DiffusionSpec(a=1.0, mode="classical"),
                                 hy.HydroState(grid, rho, S), dt, support_floor=support_floor)
        assert str(err.value) == "negative density (after step)"
        assert err.value.location == low
        assert err.value.diagnostics == {"rho_min": float(unchecked[low])}
        assert cli._classify(err.value) == cli.EXIT_NUMERICAL

    def test_half_cfl_accepted(self, free_particle):
        grid, rho, S, dt = _overdrawn()
        out = mech.transport_density(mech.HydroState(grid, rho, S), free_particle, 0.5 * dt)
        assert np.min(out.rho) >= 0.0


class TestNonFiniteStates:
    """A NaN fails the normalisation test and a non-finite multiplier is
    refused by the density state."""

    @pytest.mark.parametrize("field, value", [("rho", np.nan), ("mult", np.nan), ("mult", np.inf),
                                              ("mult", -np.inf)])
    def test_rejected(self, field, value):
        grid = build_grid(-1.0, 1.0, 41)
        rho = mech.normalize_density(grid, np.exp(-(grid.nodes**2)))
        lam = 0.3 * grid.nodes
        (rho if field == "rho" else lam)[17] = value
        match = "density not normalised: h\\*sum\\(rho\\) = nan" if field == "rho" else "^lam must be finite$"
        with pytest.raises(InvalidStateError, match=match):
            mech.HydroState(grid, rho, lam)

    def test_nan_step_rejected_not_returned(self, free_particle):
        grid = build_grid(-1.0, 1.0, 41)
        ens = mech.HydroState(grid, mech.normalize_density(grid, np.exp(-(grid.nodes**2))), 0.3 * grid.nodes)
        with pytest.raises(StepRejectedError, match="CFL violation"):
            mech.transport_density(ens, free_particle, float("nan"))


class TestNumberMass:
    """A number mass gives the bits of the constant callable that the
    scenario runner used to pass (with its zero gradient)."""

    @staticmethod
    def _pair(m):
        p = pot.harmonic(1.3)
        number = mech.NaturalSystemSpec(mass=m, potential=p.v, potential_grad=p.dv)
        callable_ = mech.NaturalSystemSpec(mass=lambda q: m, potential=p.v, potential_grad=p.dv,
                                           mass_grad=lambda q: 0.0 if np.isscalar(q) else np.zeros(np.shape(q)))
        return number, callable_

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.05, max_value=20.0), st.integers(min_value=0, max_value=2**32 - 1))
    def test_same_bits_as_constant_callable(self, m, seed):
        number, callable_ = self._pair(m)
        rng = np.random.default_rng(seed)
        grid = build_grid(-2.0, 2.0, 57)
        S = rng.standard_normal(grid.n)
        # the windowed step divides by a float 2m for a number mass, the whole-grid step by an array
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((grid.nodes - 0.3) / (3 * grid.h)) ** 2))
        for floor in (1e-6, None):
            steps = [mech.classical_transport_step(grid, rho, 0.1 * S, s, 1e-4, floor)[1] for s in (number, callable_)]
            assert np.array_equal(*steps)
        runs = [mech._RunContext(grid, s) for s in (number, callable_)]
        assert np.array_equal(runs[0].m_face, runs[1].m_face)
        assert np.array_equal(number.mass_at(grid.nodes), callable_.mass_at(grid.nodes))
        start = mech.PhaseState(*rng.uniform(-1.0, 1.0, 2))
        flows = [mech.hamilton_flow(s, start, 0.01, 50) for s in (number, callable_)]
        assert np.array_equal(flows[0], flows[1])
        ops = [wv.schrodinger_operator(s, grid, 0.8) for s in (number, callable_)]
        assert np.array_equal(ops[0].diagonal, ops[1].diagonal)
        assert np.array_equal(ops[0].off_diagonal, ops[1].off_diagonal)
