import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import discrete as ds
from varq import runners
from varq.config import parse_scenario
from varq.errors import InvalidSpecError, InvalidStateError, StepRejectedError


def two_level_exchange(b=-1.0, a=1.0):
    return ds.SpinSystemSpec(
        U=np.array([[0.0, 1.0], [1.0, 0.0]]), theta=np.zeros((2, 2)), a=a, b=b
    )


def random_spec(seed, n=4, a=0.7, b=0.9):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(n, n))
    U = 0.5 * (U + U.T)
    theta = rng.normal(size=(n, n))
    theta = 0.5 * (theta - theta.T)
    np.fill_diagonal(theta, 0.0)
    return ds.SpinSystemSpec(U=U, theta=theta, a=a, b=b)


def random_state(seed, n=4):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ds.SpinState(psi / np.linalg.norm(psi))


class TestBuildHamiltonian:
    def test_two_level_exchange_is_pauli_x(self):
        h = ds.build_hamiltonian(two_level_exchange())
        assert np.allclose(h, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_hermiticity(self, seed):
        h = ds.build_hamiltonian(random_spec(seed))
        assert np.allclose(h, h.conj().T, atol=1e-14)

    def test_zero_scale_gives_zero(self):
        spec = random_spec(1, b=0.0)
        assert np.allclose(ds.build_hamiltonian(spec), 0.0)

    def test_invariant_violations_rejected(self):
        with pytest.raises(InvalidSpecError):
            ds.SpinSystemSpec(U=np.array([[0.0, 1.0], [2.0, 0.0]]), theta=np.zeros((2, 2)))
        with pytest.raises(InvalidSpecError):
            ds.SpinSystemSpec(U=np.eye(2), theta=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(InvalidSpecError):
            ds.SpinSystemSpec(U=np.ones((1, 1)), theta=np.zeros((1, 1)))


class TestPropagate:
    def test_rabi_populations(self):
        spec = two_level_exchange()
        st0 = ds.SpinState(np.array([1.0, 0.0], dtype=complex))
        for t in (0.3, 1.0, 2.0, 5.5):
            out = ds.propagate(spec, st0, t)
            assert abs(out.psi[1]) ** 2 == pytest.approx(np.sin(t) ** 2, abs=1e-10)

    def test_zero_time_identity(self):
        spec = random_spec(7)
        st0 = random_state(8)
        out = ds.propagate(spec, st0, 0.0)
        assert np.allclose(out.psi, st0.psi, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-8, max_value=8))
    def test_unitarity_and_energy_conservation(self, seed, t):
        spec = random_spec(seed, n=5)
        st0 = random_state(seed + 1, n=5)
        out = ds.propagate(spec, st0, t)
        assert abs(np.sum(np.abs(out.psi) ** 2) - 1.0) <= 1e-12
        h = ds.build_hamiltonian(spec)
        e0 = np.real(np.vdot(st0.psi, h @ st0.psi))
        e1 = np.real(np.vdot(out.psi, h @ out.psi))
        assert abs(e1 - e0) <= 1e-12 * max(1.0, abs(e0))


def propagate_per_call(spec, state, t):
    """`propagate` as it was before the per-run propagator: builds and
    diagonalises h on every call.  Reference for the bitwise tests."""
    if not np.isfinite(t):
        raise InvalidSpecError("t must be finite")
    h = ds.build_hamiltonian(spec)
    w, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * w * t / spec.a)
    psi = vecs @ (phases * (vecs.conj().T @ state.psi))
    return ds.SpinState(psi)


SPIN_SHORT = """
[scenario]
regime = spin
seed = 3

[system]
levels = 4
a = 0.9
b = -0.8
u_kind = exchange
theta_kind = random

[initial]
basis_state = 1

[run]
t_start = 0.1
t_final = 0.2
dt = 0.001
p_floor = 1e-9
"""


class TestPropagator:
    @pytest.mark.parametrize("seed", range(12))
    def test_bitwise_equal_to_per_call_propagate(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 4
        spec = random_spec(seed, n=n, a=float(rng.uniform(0.3, 2.0)),
                           b=float(rng.uniform(-1.5, 1.5)))
        st0 = random_state(seed + 100, n=n)
        at = ds._propagator(spec, st0)
        for t in (0.0, -0.0, -2.7, 1e-9, 0.3, 5.5, *rng.uniform(-10.0, 10.0, size=8)):
            want = propagate_per_call(spec, st0, t)
            assert np.array_equal(at(t).psi, want.psi)
            assert np.array_equal(ds.propagate(spec, st0, t).psi, want.psi)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected_on_every_call(self, t):
        at = ds._propagator(random_spec(1, n=3), random_state(2, n=3))
        at(0.5)
        with pytest.raises(InvalidSpecError, match="t must be finite"):
            at(t)
        at(0.5)
        with pytest.raises(InvalidSpecError, match="t must be finite"):
            at(t)

    def test_hermiticity_checked_when_built(self):
        spec = random_spec(4, n=3)
        bad = spec.theta.copy()
        bad[0, 1] = bad[1, 0]  # no longer antisymmetric
        object.__setattr__(spec, "theta", bad)
        with pytest.raises(InvalidSpecError, match="hermiticity"):
            ds._propagator(spec, random_state(5, n=3))

    def test_run_spin_matches_per_call_propagate(self, monkeypatch):
        sc = parse_scenario(SPIN_SHORT)
        new = runners.run_scenario_object(sc)
        monkeypatch.setattr(
            ds, "_propagator", lambda spec, st: (lambda t: propagate_per_call(spec, st, t))
        )
        old = runners.run_scenario_object(sc)
        assert new.scalars == old.scalars
        assert np.array_equal(new.series["populations"].rows, old.series["populations"].rows)
        assert new.scalars["cross_validation_max_err"] > 0.0


class TestLocalForm:
    def test_equal_populations_equal_phases_static(self):
        spec = ds.SpinSystemSpec(U=np.ones((3, 3)) - np.eye(3), theta=np.zeros((3, 3)),
                                 a=1.0, b=0.5)
        p = np.full(3, 1.0 / 3.0)
        lam = np.full(3, 0.7)
        dp, _ = ds.local_form_rhs(spec, p, lam)
        assert np.allclose(dp, 0.0, atol=1e-15)

    def test_rabi_cross_validation(self):
        spec = two_level_exchange()
        st0 = ds.SpinState(np.array([1.0, 0.0], dtype=complex))
        t0 = 0.2
        p, lam = ds.polar_decompose(ds.propagate(spec, st0, t0), spec.a)
        worst = 0.0

        def obs(t, p_now, lam_now):
            nonlocal worst
            ref = ds.propagate(spec, st0, t0 + t)
            worst = max(worst, float(np.max(np.abs(p_now - np.abs(ref.psi) ** 2))))

        p, lam = ds.local_form_run(spec, p, lam, 1.15, 1e-4, floor=1e-6, observer=obs)
        assert worst <= 1e-4
        assert np.min(p) > 1e-6

    def test_theta_insertion_matches_amplitude_form(self):
        # nonzero theta: the shifted phase argument keeps both formulations
        # in lockstep (this is the convention cross-validation)
        spec = random_spec(3, n=3)
        st0 = random_state(4, n=3)
        p, lam = ds.polar_decompose(st0, spec.a)
        worst = 0.0

        def obs(t, p_now, lam_now):
            nonlocal worst
            ref = ds.propagate(spec, st0, t)
            worst = max(worst, float(np.max(np.abs(p_now - np.abs(ref.psi) ** 2))))

        ds.local_form_run(spec, p, lam, 0.5, 5e-5, floor=1e-9, observer=obs)
        assert worst <= 1e-8

    def test_total_probability_exactly_conserved(self):
        spec = random_spec(11, n=4)
        st0 = random_state(12, n=4)
        p, lam = ds.polar_decompose(st0, spec.a)
        sums = []

        def obs(t, p_now, lam_now):
            sums.append(np.sum(p_now))

        ds.local_form_run(spec, p, lam, 0.4, 1e-4, floor=1e-9, observer=obs)
        assert np.max(np.abs(np.asarray(sums) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("p", [[0.5, 0.0], [1.5, -0.5], [np.nan, 0.5]])
    def test_rhs_needs_positive_populations(self, p):
        # dlam divides by sqrt(p_alpha)
        with pytest.raises(InvalidStateError, match=r"populations must be > 0"):
            ds.local_form_rhs(two_level_exchange(), np.array(p), np.zeros(2))

    def test_floor_rejection(self):
        spec = two_level_exchange()
        st0 = ds.SpinState(np.array([1.0, 0.0], dtype=complex))
        p, lam = ds.polar_decompose(ds.propagate(spec, st0, 0.05), spec.a)
        with pytest.raises(StepRejectedError):
            # running to the population zero at t = pi/2 must reject
            ds.local_form_run(spec, p, lam, 3.0, 1e-3, floor=1e-9)


class TestGammaCurrents:
    def test_symmetric_configuration_zero_flux(self):
        spec = ds.SpinSystemSpec(U=np.ones((3, 3)) - np.eye(3), theta=np.zeros((3, 3)))
        gam = ds.gamma_currents(spec, np.array([0.2, 0.3, 0.5]), np.full(3, 1.3))
        assert np.allclose(gam - gam.T, 0.0, atol=1e-15)
        assert np.allclose(gam, 0.0, atol=1e-15)

    def test_zero_scale_zero_currents(self):
        spec = random_spec(5, b=0.0)
        gam = ds.gamma_currents(spec, np.full(4, 0.25), np.zeros(4))
        assert np.array_equal(gam, np.zeros((4, 4)))

    def test_balance_residual_at_rabi_midpoint(self):
        spec = two_level_exchange()
        st0 = ds.SpinState(np.array([1.0, 0.0], dtype=complex))
        mid = ds.propagate(spec, st0, np.pi / 4)
        p, lam = ds.polar_decompose(mid, spec.a)
        res = ds.balance_residual(spec, p, lam)
        assert np.max(np.abs(res)) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_exchange_antisymmetry_conserves_total(self, seed):
        spec = random_spec(seed, n=5)
        state = random_state(seed + 17, n=5)
        p, lam = ds.polar_decompose(state, spec.a)
        p = np.maximum(p, 1e-8)
        dp, _ = ds.local_form_rhs(spec, p, lam)
        assert abs(np.sum(dp)) <= 1e-13
        gam = ds.gamma_currents(spec, p, lam)
        assert np.allclose(gam, -gam.T, atol=1e-14)
