import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import discrete as ds
from varq import runners
from varq.config import parse_scenario
from varq.errors import InvalidSpecError, InvalidStateError, NumericalFailureError, StepRejectedError


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
            ds.SpinSystemSpec(U=np.array([[0.0, 1.0], [2.0, 0.0]]), theta=np.zeros((2, 2)), b=1.0)
        with pytest.raises(InvalidSpecError):
            ds.SpinSystemSpec(U=np.eye(2), theta=np.array([[0.0, 1.0], [1.0, 0.0]]), b=1.0)
        with pytest.raises(InvalidSpecError):
            ds.SpinSystemSpec(U=np.ones((1, 1)), theta=np.zeros((1, 1)), b=1.0)


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


def per_call_rows(spec, state, ts):
    """`_propagator`'s (psi, |psi|^2) rows, one `propagate_per_call` per time."""
    psi = np.array([propagate_per_call(spec, state, t).psi for t in ts]).reshape(len(ts), spec.n)
    return psi, np.abs(psi) ** 2


class TestPropagator:
    @pytest.mark.parametrize("seed", range(12))
    def test_bitwise_equal_to_per_call_propagate(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 4
        spec = random_spec(seed, n=n, a=float(rng.uniform(0.3, 2.0)),
                           b=float(rng.uniform(-1.5, 1.5)))
        st0 = random_state(seed + 100, n=n)
        ts = (0.0, -0.0, -2.7, 1e-9, 0.3, 5.5, *rng.uniform(-10.0, 10.0, size=8))
        psi, _ = ds._propagator(spec, st0)(ts)
        for row, t in zip(psi, ts):
            want = propagate_per_call(spec, st0, t)
            assert np.array_equal(row, want.psi)
            assert np.array_equal(ds.propagate(spec, st0, t).psi, want.psi)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.lists(st.floats(min_value=-10.0, max_value=10.0), max_size=20),
    )
    def test_batched_rows_are_per_call_bits(self, levels, seed, a, b, drawn):
        spec = random_spec(seed, n=levels, a=a, b=b)
        st0 = random_state(seed + 1, n=levels)
        ts = [0.0, -0.0, 1e-9, -10.0, 10.0, *drawn]
        psi, prob = ds._propagator(spec, st0)(ts)
        want_psi, want_prob = per_call_rows(spec, st0, ts)
        assert psi.tobytes() == want_psi.tobytes()  # bytes: -0.0 and 0.0 differ
        assert prob.tobytes() == want_prob.tobytes()

    def test_no_times_gives_no_rows(self):
        psi, prob = ds._propagator(random_spec(1, n=3), random_state(2, n=3))([])
        assert psi.shape == prob.shape == (0, 3)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected_on_every_call(self, t):
        at = ds._propagator(random_spec(1, n=3), random_state(2, n=3))
        at([0.5])
        with pytest.raises(InvalidSpecError, match="t must be finite"):
            at([t])
        at([0.5])
        with pytest.raises(InvalidSpecError, match="t must be finite"):
            at([0.1, 0.2, t, 0.3])
        with pytest.raises(InvalidSpecError, match="t must be finite"):
            ds.propagate(random_spec(1, n=3), random_state(2, n=3), t)

    def test_row_breaking_the_norm_rule_rejected(self):
        st0 = random_state(2, n=3)
        object.__setattr__(st0, "psi", st0.psi * 1.001)
        at = ds._propagator(random_spec(1, n=3), st0)
        with pytest.raises(InvalidStateError, match="state not normalised"):
            at([0.1, 0.2])
        with pytest.raises(InvalidStateError, match="state not normalised"):
            ds.propagate(random_spec(1, n=3), st0, 0.1)

    def test_norm_rule_names_the_first_failing_row(self):
        prob = np.array([[0.5, 0.5], [0.5, 0.625], [0.5, 0.75]])
        with pytest.raises(InvalidStateError, match=r"sum\|psi\|\^2 = 1\.125$"):
            ds._check_normalised(prob)
        ds._check_normalised(prob[:1])

    @pytest.mark.parametrize("psi", [[np.nan, 0.0], [np.nan, np.nan], [np.inf, 0.0]])
    def test_non_finite_state_rejected(self, psi):
        with pytest.raises(InvalidStateError, match="state not normalised"):
            ds.SpinState(np.array(psi))
        with pytest.raises(InvalidStateError, match=r"sum\|psi\|\^2 = nan$"):
            ds._check_normalised(np.array([[0.5, 0.5], [np.nan, 0.0]]))

    def test_hermiticity_checked_when_built(self):
        spec = random_spec(4, n=3)
        bad = spec.theta.copy()
        bad[0, 1] = bad[1, 0]  # no longer antisymmetric
        object.__setattr__(spec, "theta", bad)
        with pytest.raises(InvalidSpecError, match="hermiticity"):
            ds._propagator(spec, random_state(5, n=3))

    def test_run_spin_matches_per_call_propagate(self, monkeypatch):
        sc = parse_scenario(SPIN_SHORT, "scenario")
        new = runners.run_scenario_object(sc)
        monkeypatch.setattr(
            ds, "_propagator", lambda spec, st: (lambda ts: per_call_rows(spec, st, ts))
        )
        old = runners.run_scenario_object(sc)
        assert new.scalars == old.scalars
        assert np.array_equal(new.series["populations"].rows, old.series["populations"].rows)
        assert new.scalars["cross_validation_max_err"] > 0.0


def _failing_run(monkeypatch, ref_fails_from: int, run_fails_at: int):
    """SPIN_SHORT (t_start 0.1, dt 1e-3) with its reference failing at every
    time from step ``ref_fails_from`` on and its local step failing at step
    ``run_fails_at``."""
    real_propagator, real_step, calls = ds._propagator, ds._LocalFormRun.step, []

    def propagator(spec, state):
        at = real_propagator(spec, state)

        def checked(ts):
            if np.any(np.asarray(ts) > 0.1 + (ref_fails_from - 0.5) * 1e-3):
                raise InvalidStateError("reference failed")
            return at(ts)
        return checked

    def step(run, p, lam):
        calls.append(1)
        if len(calls) == run_fails_at:
            raise StepRejectedError("local step failed")
        return real_step(run, p, lam)

    monkeypatch.setattr(ds, "_propagator", propagator)
    monkeypatch.setattr(ds._LocalFormRun, "step", step)
    runners.run_scenario_object(parse_scenario(SPIN_SHORT, "scenario"))


class TestErrorPrecedence:
    """A run failing at step K checks the references of steps 1..K-1 first,
    as the per-step observer did."""

    @pytest.mark.parametrize("ref_fails_from", [1, 5, 9])
    def test_earlier_reference_failure_wins(self, monkeypatch, ref_fails_from):
        with pytest.raises(InvalidStateError, match="reference failed"):
            _failing_run(monkeypatch, ref_fails_from, run_fails_at=10)

    @pytest.mark.parametrize("ref_fails_from", [10, 11, 500])
    def test_local_failure_wins_at_or_before_the_reference(self, monkeypatch, ref_fails_from):
        with pytest.raises(StepRejectedError, match="local step failed"):
            _failing_run(monkeypatch, ref_fails_from, run_fails_at=10)

    def test_reference_failure_after_a_whole_run(self, monkeypatch):
        with pytest.raises(InvalidStateError, match="reference failed"):
            _failing_run(monkeypatch, ref_fails_from=100, run_fails_at=0)

    def test_nan_row_skipped_as_the_per_step_fold_skipped_it(self, monkeypatch):
        sc = parse_scenario(SPIN_SHORT, "scenario")
        rows = runners.run_scenario_object(sc).series["populations"].rows[1:]
        spec = runners._spin_spec(sc, np.random.default_rng(sc.seed))
        real_propagator = ds._propagator
        _, ref = real_propagator(spec, ds.SpinState(np.eye(4, dtype=complex)[1]))(rows[:, 0])
        errs = np.max(np.abs(rows[:, 1:] - ref), axis=1)
        worst, want = int(np.argmax(errs)), 0.0
        for k, v in enumerate(errs):
            want = max(want, np.nan if k == worst else float(v))  # the per-step fold

        def propagator(spec, state):
            at = real_propagator(spec, state)

            def with_nan(ts):
                psi, prob = at(ts)
                if len(ts) == len(rows):
                    prob[worst] = np.nan
                return psi, prob
            return with_nan

        monkeypatch.setattr(ds, "_propagator", propagator)
        got = runners.run_scenario_object(sc).scalars["cross_validation_max_err"]
        assert got == want < errs[worst]


class TestLocalForm:
    def test_equal_populations_equal_phases_static(self):
        spec = ds.SpinSystemSpec(U=np.ones((3, 3)) - np.eye(3), theta=np.zeros((3, 3)),
                                 a=1.0, b=0.5)
        p = np.full(3, 1.0 / 3.0)
        lam = np.full(3, 0.7)
        dp = ds._LocalFormRun(spec, 0.0, ds.P_FLOOR).rhs(p.tolist() + lam.tolist(), 0.0)[:3]
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

    @pytest.mark.parametrize("p, error", [([0.5, 0.0], StepRejectedError), ([1.5, -0.5], StepRejectedError),
                                          ([np.nan, 0.5], NumericalFailureError)])
    def test_step_needs_positive_populations(self, p, error):
        # dlam divides by sqrt(p_alpha): a population below the floor rejects
        # before any stage; a NaN one passes the check and fails in the stages
        with pytest.raises(error):
            ds.local_form_step(two_level_exchange(), np.array(p), np.zeros(2), 1e-3)

    def test_floor_rejection(self):
        spec = two_level_exchange()
        st0 = ds.SpinState(np.array([1.0, 0.0], dtype=complex))
        p, lam = ds.polar_decompose(ds.propagate(spec, st0, 0.05), spec.a)
        with pytest.raises(StepRejectedError):
            # running to the population zero at t = pi/2 must reject
            ds.local_form_run(spec, p, lam, 3.0, 1e-3, floor=1e-9, observer=lambda t, p, lam: None)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_exchange_antisymmetry_conserves_total(self, seed):
        spec = random_spec(seed, n=5)
        state = random_state(seed + 17, n=5)
        p, lam = ds.polar_decompose(state, spec.a)
        p = np.maximum(p, 1e-8)
        dp = ds._LocalFormRun(spec, 0.0, ds.P_FLOOR).rhs(p.tolist() + lam.tolist(), 0.0)[:5]
        assert abs(np.sum(dp)) <= 1e-13
