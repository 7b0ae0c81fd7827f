import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varq import covariant as cv
from varq import discrete as ds
from varq import hydrodynamics as hy
from varq import mechanics as mech
from varq import numerics as nx
from varq import potentials
from varq import quantum_fields as qf
from varq import runners
from varq import wavefunction as wv
from varq.config import parse_scenario
from varq.errors import (
    InvalidArgumentError,
    InvalidSpecError,
    InvalidStateError,
    NumericalFailureError,
    StepRejectedError,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestBuildGrid:
    def test_three_node_grid(self):
        g = nx.build_grid(0.0, 1.0, 3)
        assert np.array_equal(g.nodes, [0.0, 0.5, 1.0])
        assert g.h == 0.5

    def test_fine_grid_spacing(self):
        g = nx.build_grid(-10.0, 10.0, 2001)
        assert g.h == pytest.approx(0.01, abs=0)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InvalidArgumentError):
            nx.build_grid(1.0, 1.0, 5)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            nx.build_grid(0.0, 1.0, 2)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(InvalidArgumentError):
            nx.build_grid(0.0, np.inf, 10)

    def test_no_accumulated_rounding(self):
        # every node must be exactly q_min + i*h, not a running sum
        g = nx.build_grid(-3.7, 9.2, 1234)
        i = np.arange(g.n)
        assert np.array_equal(g.nodes, g.q_min + i * g.h)


def harmonic_operator(n=2000, c=1.0, lo=-10.0, hi=10.0):
    g = nx.build_grid(lo, hi, n)
    op = nx.sturm_liouville_operator(g, 1.0, lambda q: 0.5 * q * q, coeff=c)
    return g, op


class TestEigensolve:
    def test_harmonic_spectrum(self):
        g, op = harmonic_operator()
        w, _ = nx.eigensolve_lowest(op, 3, g.h)
        assert np.max(np.abs(w - [0.5, 1.5, 2.5])) < 1e-4

    def test_dirichlet_box_ground_state(self):
        g = nx.build_grid(0.0, 1.0, 2000)
        op = nx.sturm_liouville_operator(g, 1.0, potentials.free().v, coeff=1.0)
        w, _ = nx.eigensolve_lowest(op, 1, g.h)
        assert w[0] == pytest.approx(np.pi**2 / 2, rel=1e-5)

    def test_constant_shift_moves_spectrum_only(self):
        g, op = harmonic_operator(n=400)
        w, v = nx.eigensolve_lowest(op, 3, g.h)
        shifted = nx.TridiagonalOperator(op.diagonal + 2.25, op.off_diagonal)
        ws, vs = nx.eigensolve_lowest(shifted, 3, g.h)
        assert np.max(np.abs(ws - (w + 2.25))) < 1e-9
        assert np.max(np.abs(vs - v)) < 1e-9

    def test_eigen_residual_invariant(self):
        g, op = harmonic_operator()
        w, v = nx.eigensolve_lowest(op, 4, g.h)
        for j in range(4):
            res = np.max(np.abs(op.apply(v[:, j]) - w[j] * v[:, j]))
            assert res <= 1e-8 * (1.0 + abs(w[j]))

    def test_grid_quadrature_normalisation(self):
        g, op = harmonic_operator(n=700)
        _, v = nx.eigensolve_lowest(op, 2, g.h)
        for j in range(2):
            assert g.h * np.sum(v[:, j] ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_nonnegative(self):
        g, op = harmonic_operator(n=900)
        _, v = nx.eigensolve_lowest(op, 1, g.h)
        assert np.min(v[:, 0]) > -1e-12

    def test_strictly_increasing(self):
        g, op = harmonic_operator(n=600)
        w, _ = nx.eigensolve_lowest(op, 6, g.h)
        assert np.all(np.diff(w) > 0)

    def test_k_out_of_range(self):
        _, op = harmonic_operator(n=50)
        with pytest.raises(InvalidArgumentError):
            nx.eigensolve_lowest(op, op.size + 1, 1.0)

    def test_pair_degenerate_to_rounding_is_named(self):
        # a double well with barrier action about 43: its lowest pair comes
        # out equal, a gap within 4 eps ||H||, which is no solver failure
        g = nx.build_grid(-8.0, 8.0, 100)
        op = nx.sturm_liouville_operator(g, 0.5, potentials.polynomial([16.0, 0.0, -2.0, 0.0, 0.0625]).v)
        with pytest.raises(NumericalFailureError, match=r"^eigenvalues 0 and 1 are degenerate to rounding") as exc:
            nx.eigensolve_lowest(op, 2, g.h)
        d = exc.value.diagnostics
        assert d["gap"] == 0.0 and d["norm"] == np.abs(op.diagonal).max() + 2.0 * np.abs(op.off_diagonal).max()
        assert d["w"][0] == d["w"][1]


class TestUnitaryStep:
    def test_zero_dt_is_identity(self):
        g, op = harmonic_operator(n=300)
        rng = np.random.default_rng(0)
        psi = rng.normal(size=op.size) + 1j * rng.normal(size=op.size)
        out = nx.CayleyPropagator(op, 0.0, 1.0).step(psi)
        assert np.allclose(out, psi, atol=1e-15)

    def test_eigenvector_picks_up_phase(self):
        g, op = harmonic_operator()
        w, v = nx.eigensolve_lowest(op, 2, g.h)
        dt = 0.01
        for j in range(2):
            out = nx.CayleyPropagator(op, dt, 1.0).step(v[:, j].astype(complex))
            phase = np.angle(np.vdot(v[:, j].astype(complex), out))
            # Cayley phase error is O((w dt)^3) per step
            assert phase == pytest.approx(-w[j] * dt, abs=(w[j] * dt) ** 3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-0.5, max_value=0.5))
    def test_norm_preserved_for_random_operators(self, seed, dt):
        rng = np.random.default_rng(seed)
        m = 40
        op = nx.TridiagonalOperator(rng.normal(size=m), rng.normal(size=m - 1))
        psi = rng.normal(size=m) + 1j * rng.normal(size=m)
        out = nx.CayleyPropagator(op, dt, 0.7).step(psi)
        n0 = np.sum(np.abs(psi) ** 2)
        n1 = np.sum(np.abs(out) ** 2)
        assert abs(n1 - n0) / n0 <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=3, max_value=80),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_energy_conserved_for_random_hermitian_operators(self, m, seed, dt, a):
        # the Cayley map is a function of H, so <psi|H|psi> is conserved
        # exactly; 50 steps keep it to rounding, relative to ||H|| ||psi||^2
        # (worst seen over 400 random draws: 1.4e-14)
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        op = nx.TridiagonalOperator(scale[0] * rng.normal(size=m), scale[1] * rng.normal(size=m - 1))
        psi = rng.normal(size=m) + 1j * rng.normal(size=m)
        prop = nx.CayleyPropagator(op, dt, a)
        out = psi
        for _ in range(50):
            out = prop.step(out)
        h_norm = np.abs(op.diagonal).max() + 2.0 * np.abs(op.off_diagonal).max(initial=0.0)
        drift = abs(np.vdot(out, op.apply(out)).real - np.vdot(psi, op.apply(psi)).real)
        assert drift <= 1e-12 * h_norm * np.vdot(psi, psi).real


def cayley_step_per_call(op, dt, a, psi):
    """`CayleyPropagator.step` as it was before the stored factorisation:
    the banded matrix is built and solved (and so re-factored) on every call;
    reference."""
    mu = 0.5j * dt / a
    m = op.size
    ab = np.zeros((3, m), dtype=complex)
    ab[0, 1:] = mu * op.off_diagonal
    ab[1, :] = 1.0 + mu * op.diagonal
    ab[2, :-1] = mu * op.off_diagonal
    rhs = psi - mu * op.apply(psi.astype(complex))
    return sla.solve_banded((1, 1), ab, rhs)


def _step_per_call(monkeypatch):
    """Makes every CayleyPropagator built from here on step by
    ``cayley_step_per_call`` with the dt and a it was built with."""
    init = nx.CayleyPropagator.__init__

    def record(self, op, dt, a):
        init(self, op, dt, a)
        self.ref_dt_a = dt, a

    monkeypatch.setattr(nx.CayleyPropagator, "__init__", record)
    # applies H itself: a run that hands the solve a wrong H psi differs from it
    monkeypatch.setattr(nx.CayleyPropagator, "_solve",
                        lambda self, psi, hpsi: cayley_step_per_call(self.op, *self.ref_dt_a, psi))


class TestCayleyPrefactored:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 4, 5, 40]),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=0.05, max_value=20.0),
        st.booleans(),
    )
    @example(1401, 7, 0.002, 1.0, True)
    @example(40, 3, 0.0, 0.7, True)
    @example(3, 5, 0.3, 1.0, False)
    @example(4, 6, -0.4, 2.0, False)
    def test_bitwise_equal_to_per_call_solve(self, m, seed, dt, a, complex_psi):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        op = nx.TridiagonalOperator(scale[0] * rng.normal(size=m),
                                    scale[1] * rng.normal(size=m - 1))
        psi = rng.normal(size=m) + (1j * rng.normal(size=m) if complex_psi else 0.0)
        prop = nx.CayleyPropagator(op, dt, a)
        got = want = psi
        wants = [np.pad(psi.astype(complex), 1)]
        for _ in range(20):
            got = prop.step(got)
            want = cayley_step_per_call(op, dt, a, want)
            assert np.array_equal(got, want)
            wants.append(np.pad(want, 1))
        # the run loop on the padded state: the per-call states, and each
        # handed-over H psi is H applied to that state's interior
        runs = list(prop.run(wants[0], 20))
        assert len(runs) == len(wants) and not np.shares_memory(runs[0][0], wants[0])
        for (state, hpsi), want in zip(runs, wants):
            assert np.array_equal(state, want) and state.dtype == complex
            assert np.array_equal(hpsi, op.apply(state[1:-1]))

    @pytest.mark.parametrize("m", [1, 2])
    def test_fewer_than_three_unknowns_rejected(self, m):
        # scipy's ?gttrf rejects these sizes, and no grid that small gets through config
        op = nx.TridiagonalOperator(np.ones(m), np.ones(m - 1))
        with pytest.raises(InvalidArgumentError, match=f"need an operator of size >= 3 .*, got size {m}$"):
            nx.CayleyPropagator(op, 0.1, 1.0)

    @pytest.mark.parametrize("m", [3, 40])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_is_numerical_failure(self, m, bad):
        rng = np.random.default_rng(m)
        prop = nx.CayleyPropagator(nx.TridiagonalOperator(rng.normal(size=m), rng.normal(size=m - 1)), 0.1, 1.0)
        psi = rng.normal(size=m) + 1j * rng.normal(size=m)
        psi[m // 2] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalFailureError, match="non-finite state in Cayley step") as err:
                prop.step(psi)
        assert err.value.diagnostics["size"] == m
        # the bad entry and its two neighbours, through the off-diagonal
        assert err.value.diagnostics["nonfinite"] == min(m, 3)
        # the propagator is still usable once the state is finite again
        psi[m // 2] = 0.0
        assert np.array_equal(prop.step(psi), cayley_step_per_call(prop.op, 0.1, 1.0, psi))

    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected_when_built(self, where, bad):
        d, e = np.ones(5), np.ones(4)
        {"diagonal": d, "off_diagonal": e}[where][2] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(InvalidArgumentError, match="Cayley matrix must be finite"):
                nx.CayleyPropagator(nx.TridiagonalOperator(d, e), 0.1, 1.0)

    def test_overflowing_matrix_rejected_when_built(self):
        op = nx.TridiagonalOperator(np.full(5, 1e307), np.ones(4))
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidArgumentError, match="Cayley matrix must be finite"):
                nx.CayleyPropagator(op, 0.5, 1e-3)

    @pytest.mark.parametrize("a", [np.inf, np.nan, 0.0, -1.0])
    def test_bad_a_rejected(self, a):
        with pytest.raises(InvalidArgumentError, match="a must be finite and > 0"):
            nx.CayleyPropagator(nx.TridiagonalOperator(np.ones(5), np.ones(4)), 0.1, a)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(InvalidArgumentError, match="dt must be finite"):
            nx.CayleyPropagator(nx.TridiagonalOperator(np.ones(5), np.ones(4)), dt, 1.0)

    @pytest.mark.parametrize("kicked_in_trap", [False, True])
    def test_run_schrodinger_matches_per_call_step(self, monkeypatch, kicked_in_trap):
        text = (CONFIG_DIR / "schrodinger_free_gaussian.cfg").read_text()
        text = text.replace("t_final = 2.0", "t_final = 0.3")
        if kicked_in_trap:
            text = text.replace("kind = free", "kind = harmonic\nk = 1.0")
            text = text.replace("center = 0.0", "center = 0.5\nmomentum = 1.5")
        sc = parse_scenario(text, "scenario")
        new = runners.run_scenario_object(sc)
        _step_per_call(monkeypatch)
        old = runners.run_scenario_object(sc)
        assert new.scalars == old.scalars
        assert [(c.name, c.value) for c in new.invariants] == [(c.name, c.value) for c in old.invariants]
        assert np.array_equal(new.series["moments"].rows, old.series["moments"].rows)
        assert new.series["moments"].rows.shape[0] > 2

    def test_space_independent_evolve_matches_per_call_step(self, monkeypatch):
        spec = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * np.square(q), f=1.3)
        grid = nx.build_grid(-8.0, 8.0, 401)
        vac = qf.vacuum_spectrum(spec, grid, 3)
        psi0 = ((vac.psi[:, 0] + vac.psi[:, 2]) / np.sqrt(2.0)).astype(complex)
        new = qf.space_independent_evolve(spec, grid, psi0, 2e-3, 200, store_every=20)
        _step_per_call(monkeypatch)
        old = qf.space_independent_evolve(spec, grid, psi0, 2e-3, 200, store_every=20)
        for name in ("times", "psi", "energy_density", "mask", "mean_energy"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name


def _step_outcome(step, *args):
    """The step's result, or the class, message and diagnostics it raised."""
    try:
        with np.errstate(invalid="ignore"):
            return step(*args)
    except NumericalFailureError as exc:
        return type(exc), str(exc), exc.diagnostics


class TestCayleyHandedHpsi:
    """``_solve(psi, op.apply(psi))`` for a complex psi: ``run`` hands the
    solve the H psi it already holds, where ``step`` applies H itself."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 4, 40, 1401]),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=0.05, max_value=20.0),
        st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    @example(1401, 7, 0.002, 1.0, None)
    @example(3, 5, 0.3, 1.0, np.nan)
    @example(40, 3, 0.1, 0.7, -np.inf)
    def test_bitwise_equal_to_applying_h(self, m, seed, dt, a, bad):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        op = nx.TridiagonalOperator(scale[0] * rng.normal(size=m), scale[1] * rng.normal(size=m - 1))
        prop = nx.CayleyPropagator(op, dt, a)
        psi = rng.normal(size=m) + 1j * rng.normal(size=m)
        for _ in range(5):
            want = _step_outcome(prop.step, psi)
            with np.errstate(invalid="ignore"):
                hpsi = op.apply(psi)
            got = _step_outcome(prop._solve, psi, hpsi)
            if isinstance(want, tuple):  # a non-finite state: the same failure either way
                assert got == want
                break
            assert np.array_equal(got, want)
            psi = want
            if bad is not None:
                psi = psi.copy()
                psi[rng.integers(m)] = bad

    def test_non_finite_failure_names_size_and_count(self):
        rng = np.random.default_rng(2)
        op = nx.TridiagonalOperator(rng.normal(size=40), rng.normal(size=39))
        psi = rng.normal(size=40) + 1j * rng.normal(size=40)
        psi[20] = np.nan
        with np.errstate(invalid="ignore"):
            got = _step_outcome(nx.CayleyPropagator(op, 0.1, 1.0)._solve, psi, op.apply(psi))
        assert got == (NumericalFailureError, "non-finite state in Cayley step", {"size": 40, "nonfinite": 3})


def test_operator_shape_validation():
    with pytest.raises(InvalidArgumentError):
        nx.TridiagonalOperator(np.zeros(4), np.zeros(4))


def test_operator_apply_matches_dense():
    rng = np.random.default_rng(5)
    op = nx.TridiagonalOperator(rng.normal(size=12), rng.normal(size=11))
    v = rng.normal(size=12)
    assert np.allclose(op.apply(v), op.dense() @ v, atol=1e-14)


POSITIVE_CONSTANTS = [
    pytest.param("a", lambda v: hy.DiffusionSpec(a=v), InvalidSpecError, id="DiffusionSpec.a"),
    pytest.param("a", lambda v: ds.SpinSystemSpec(U=np.ones((2, 2)) - np.eye(2), theta=np.zeros((2, 2)), a=v, b=1.0),
                 InvalidSpecError, id="SpinSystemSpec.a"),
    pytest.param("eta", lambda v: cv.FieldLagrangianSpec(eta=v, potential=lambda q: q * q,
                                                         potential_grad=lambda q: 2.0 * q),
                 InvalidSpecError, id="FieldLagrangianSpec.eta"),
    pytest.param("eta", lambda v: qf.QFieldSpec(eta=v, potential=lambda q: q * q, f=1.0), InvalidSpecError,
                 id="QFieldSpec.eta"),
    pytest.param("f", lambda v: qf.QFieldSpec(eta=1.0, potential=lambda q: q * q, f=v), InvalidSpecError,
                 id="QFieldSpec.f"),
    pytest.param("a", lambda v: wv.WaveFunction(nx.build_grid(0.0, 1.0, 3), np.array([0.0, 2.0**0.5, 0.0]),
                                                v),
                 InvalidStateError, id="WaveFunction.a"),
    pytest.param("length", lambda v: cv.PeriodicGrid1D(v, 8), InvalidArgumentError,
                 id="PeriodicGrid1D.length"),
    pytest.param("mass m(q)", lambda v: mech.NaturalSystemSpec(mass=v, potential=lambda q: q * q),
                 InvalidSpecError, id="NaturalSystemSpec.mass"),
]


class TestPositiveConstants:
    """Every spec constant must be finite and > 0, checked by one rule that
    keeps each constructor's error class."""

    @pytest.mark.parametrize("name, build, error", POSITIVE_CONSTANTS)
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_bad_value_rejected(self, name, build, error, value):
        with pytest.raises(error, match=f"^{re.escape(name)} must be finite and > 0, got"):
            build(value)

    @pytest.mark.parametrize("name, build, error", POSITIVE_CONSTANTS)
    def test_good_value_accepted(self, name, build, error):
        build(0.5)

    def test_periodic_grid_needs_three_nodes(self):
        with pytest.raises(InvalidArgumentError, match="need n >= 3, got n=2"):
            cv.PeriodicGrid1D(1.0, 2)

    def test_error_class_is_required(self):
        with pytest.raises(TypeError):
            nx._check_positive("a", 1.0)


SAMPLERS = [
    pytest.param(lambda fn: mech.NaturalSystemSpec(mass=fn, potential=lambda q: q * q).mass_at,
                 id="NaturalSystemSpec.mass_at"),
    pytest.param(lambda fn: mech.NaturalSystemSpec(mass=1.0, potential=fn).potential_at,
                 id="NaturalSystemSpec.potential_at"),
    pytest.param(lambda fn: cv.FieldLagrangianSpec(eta=1.0, potential=fn, potential_grad=fn).v_at,
                 id="FieldLagrangianSpec.v_at"),
    pytest.param(lambda fn: qf.QFieldSpec(eta=1.0, potential=fn, f=1.0).v_at, id="QFieldSpec.v_at"),
]


class TestSpecSampler:
    """Every spec samples m and V through one rule (``potentials._sample``):
    a NaN or inf value at a finite q raises InvalidSpecError."""

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_at_finite_q_rejected(self, sampler, bad):
        at = sampler(lambda q: np.where(np.asarray(q) > 0.5, bad, 1.0 + np.square(q)))
        for q in (np.linspace(-1.0, 1.0, 7), 0.75):
            with pytest.raises(InvalidSpecError, match="must be finite"):
                at(q)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("fn", [lambda x: 1.0 + np.square(x), lambda x: 2.0], ids=["profile", "constant"])
    def test_finite_values_pass_with_the_shape_of_q(self, sampler, fn):
        q = np.linspace(-1.0, 1.0, 7)
        assert sampler(fn)(q).shape == q.shape

    def test_non_finite_value_at_non_finite_q_passes(self):
        # a flow that blew up samples m at q = inf; only a value <= 0 is then an error
        spec = mech.NaturalSystemSpec(mass=lambda q: 1.0 + np.square(q), potential=lambda q: np.square(q))
        q = np.array([0.0, np.inf, np.nan])
        assert np.array_equal(spec.mass_at(q), [1.0, np.inf, np.nan], equal_nan=True)
        assert np.array_equal(spec.potential_at(q), [0.0, np.inf, np.nan], equal_nan=True)
        with pytest.raises(InvalidSpecError, match="finite and > 0"):
            mech.NaturalSystemSpec(mass=lambda q: -np.square(q), potential=lambda q: q).mass_at(q)


def madelung_step_inline(spec, dspec, state, dt, floor_frac=nx.RHO_FLOOR_FRAC):
    """madelung_step's quantum-pole branch before the windowed upwind step and
    (H sqrt(rho))/sqrt(rho) were shared."""
    grid = state.grid
    lo, hi, _ = hy._check_nodeless(state.rho, floor_frac, "before step")
    m_face, m_node = spec.mass_at(grid.midpoints), spec.mass_at(grid.nodes)
    v_face = np.diff(state.lam) / grid.h / m_face
    active = slice(lo, hi)
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
    rho_new = mech.upwind_density_update(grid, state.rho, v_masked, dt)
    op = wv.schrodinger_operator(spec, grid, dspec.a)
    sr = np.sqrt(np.maximum(rho_new, 0.0))
    h_sr = np.pad(op.apply(sr[1:-1]), 1)
    mask = np.zeros(grid.n, dtype=bool)
    lo2, hi2, _ = hy._check_nodeless(rho_new, floor_frac, "after step")
    mask[lo2 : hi2 + 1] = True
    grad_lam = nx.grad_central(state.lam, grid.h)
    rate = np.zeros(grid.n)
    rate[mask] = grad_lam[mask] ** 2 / (2.0 * m_node[mask]) + h_sr[mask] / sr[mask]
    lam_new = state.lam.copy()
    lam_new[mask] -= dt * rate[mask]
    return rho_new, lam_new


def multiplier_residual_series_inline(grid, spec, dspec, rho_series, lam_series, times,
                                      floor_frac=nx.RHO_FLOOR_FRAC):
    """multiplier_residual_series (quantum-pole) before (H sqrt(rho))/sqrt(rho) was shared."""
    m = spec.mass_at(grid.nodes)
    nt = rho_series.shape[0]
    out = np.zeros((nt - 2, grid.n))
    masks = np.zeros((nt - 2, grid.n), dtype=bool)
    op = wv.schrodinger_operator(spec, grid, dspec.a)
    for k in range(1, nt - 1):
        dldt = (lam_series[k + 1] - lam_series[k - 1]) / (times[k + 1] - times[k - 1])
        grad_lam = nx.grad_central(lam_series[k], grid.h)
        res = dldt + grad_lam**2 / (2.0 * m)
        sr = np.sqrt(rho_series[k])
        h_sr = np.pad(op.apply(sr[1:-1]), 1)
        mask = nx._support_mask(rho_series[k], floor_frac)
        quantum = np.zeros(grid.n)
        quantum[mask] = h_sr[mask] / sr[mask]
        res = np.where(mask, res + quantum, 0.0)
        out[k - 1] = res
        masks[k - 1] = mask
    return out, masks


def random_energy_density_inline(spec, grid, rho, lam0, lam_m, floor_frac=nx.RHO_FLOOR_FRAC):
    """random_energy_density before (H sqrt(rho))/sqrt(rho) was shared."""
    mask = nx._support_mask(rho, floor_frac)
    sr = np.sqrt(rho)
    h_sr = np.pad(qf._operator(spec, grid).apply(sr[1:-1]), 1)
    eps = np.zeros(grid.n)
    eps[mask] = h_sr[mask] / sr[mask]
    g0 = nx.grad_central(lam0, grid.h)
    eps[mask] += g0[mask] ** 2 / (2.0 * spec.eta)
    P = np.zeros((lam_m.shape[0], grid.n))
    for m in range(lam_m.shape[0]):
        gm = nx.grad_central(lam_m[m], grid.h)
        eps[mask] += gm[mask] ** 2 / (2.0 * spec.eta)
        P[m, mask] = -g0[mask] * gm[mask] / spec.eta
    return eps, P, mask


def _random_setup(seed, n):
    rng = np.random.default_rng(seed)
    grid = nx.build_grid(-rng.uniform(2.0, 6.0), rng.uniform(2.0, 6.0), n)
    c0, c1, k = rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4), rng.uniform(0.1, 3.0)
    spec = mech.NaturalSystemSpec(
        mass=lambda q: c0 + c1 * np.cos(np.asarray(q, dtype=float)),
        potential=lambda q: k * np.asarray(q, dtype=float) ** 2,
    )
    return rng, grid, spec


def _random_density(rng, grid):
    """A normalised bump with random ripples, zero in random end stretches."""
    q = grid.nodes
    rho = np.exp(-((q - rng.uniform(-1.0, 1.0)) ** 2) / rng.uniform(0.2, 2.0))
    rho *= 1.0 + 0.3 * rng.random(grid.n)
    rho[: rng.integers(0, grid.n // 4)] = 0.0
    return rho / (grid.h * rho.sum())


class TestSqrtDensityRatio:
    """The three call sites of _sqrt_density_ratio give the bits of the
    inline forms they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=8, max_value=120),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_madelung_step(self, n, seed, cfl_target):
        rng, grid, spec = _random_setup(seed, n)
        dspec = hy.DiffusionSpec(a=rng.uniform(0.3, 2.0))
        lam = np.cumsum(rng.normal(scale=rng.uniform(1e-3, 1.0), size=n))
        state = hy.HydroState(grid, _random_density(rng, grid), lam)
        vmax = float(np.max(np.abs(np.diff(lam) / grid.h / spec.mass_at(grid.midpoints))))
        dt = cfl_target * grid.h / max(vmax, 1e-300)
        try:
            new = hy.madelung_step(spec, dspec, state, dt)
            new = (new.rho, new.lam)
        except StepRejectedError as exc:
            new = (str(exc), exc.location, exc.diagnostics)
        try:
            # stored as madelung_step stores it: HydroState clips rounding below 0
            old = hy.HydroState(grid, *madelung_step_inline(spec, dspec, state, dt))
            old = (old.rho, old.lam)
        except StepRejectedError as exc:
            old = (str(exc), exc.location, exc.diagnostics)
        assert isinstance(new[0], str) == isinstance(old[0], str)
        if isinstance(old[0], str):
            assert new == old
        else:
            assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=8, max_value=120),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_multiplier_residual_series(self, n, seed):
        rng, grid, spec = _random_setup(seed, n)
        dspec = hy.DiffusionSpec(a=rng.uniform(0.3, 2.0))
        nt = int(rng.integers(3, 7))
        rho = np.array([_random_density(rng, grid) for _ in range(nt)])
        lam = rng.normal(size=(nt, n))
        times = np.cumsum(rng.uniform(0.01, 0.1, size=nt))
        res, masks = hy.multiplier_residual_series(grid, spec, dspec, rho, lam, times)
        res_old, masks_old = multiplier_residual_series_inline(grid, spec, dspec, rho, lam, times)
        assert np.array_equal(res, res_old) and np.array_equal(masks, masks_old)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=8, max_value=120),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3),
    )
    def test_random_energy_density(self, n, seed, n_spatial):
        rng, grid, _ = _random_setup(seed, n)
        k = rng.uniform(0.1, 3.0)
        spec = qf.QFieldSpec(eta=rng.uniform(0.3, 3.0), potential=lambda q: k * q * q,
                             f=rng.uniform(0.3, 3.0))
        rho = _random_density(rng, grid)
        lam0 = rng.normal(size=n)
        lam_m = rng.normal(size=(n_spatial, n))
        new = qf.random_energy_density(spec, grid, rho, lam0, lam_m)
        old = random_energy_density_inline(spec, grid, rho, lam0, lam_m)
        assert all(np.array_equal(a, b) for a, b in zip(new, old))


class _FirstStep(Exception):
    """Raised by a callback that no capped call may reach."""


class TestQuad:
    """_quad keeps the bits of the sums it replaced, for one field, a stack
    of rows and the columns of a matrix taken as a transposed view."""

    @pytest.mark.parametrize("shape", [(1,), (7,), (1401,), (3, 1401), (51, 257), (1401, 8), (801, 1200)])
    def test_bits(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        h = float(rng.uniform(1e-3, 1.0))
        if a.ndim == 1:
            out = nx._quad(h, a)
            assert type(out) is float and out == h * float(np.sum(a))
        else:
            assert np.array_equal(nx._quad(h, a), h * np.sum(a, axis=1))
            assert np.array_equal(nx._quad(h, a.T), h * np.sum(a, axis=0))


class TestStepCap:
    """_MAX_STEPS = 10^6 bounds every run before its first step: a
    spin dt of 1e-300 passed check and run, then grew without bound."""

    def test_uniform_steps(self):
        assert nx._uniform_steps(1.0, 1e-6) == (nx._MAX_STEPS, 1e-6)
        for t_final, dt in ((1.0, 1e-300), (1.0, 0.99e-6)):
            with pytest.raises(InvalidArgumentError, match=r"exceeds 1000000 steps"):
                nx._uniform_steps(t_final, dt)

    def test_fixed_steps(self):
        nx._check_fixed_steps(1e-3, nx._MAX_STEPS, 1)
        with pytest.raises(InvalidArgumentError, match=r"n_steps must be an integer >= 1 and <= 1000000, got 1000001"):
            nx._check_fixed_steps(1e-3, nx._MAX_STEPS + 1, 1)

    @pytest.mark.parametrize("n_steps", [nx._MAX_STEPS + 1, 2.5, True, -1])
    def test_stepping_entry_points_take_the_cap(self, n_steps):
        # a V' that raises makes a call that skipped the check fail at its first step
        def dv(q):
            raise _FirstStep

        natural = mech.NaturalSystemSpec(mass=1.0, potential=lambda q: 0.5 * q * q, potential_grad=dv)
        field = cv.FieldLagrangianSpec(eta=1.0, potential=lambda q: 0.5 * q * q, potential_grad=dv)
        grid = cv.PeriodicGrid1D(2 * np.pi, 16)
        match = rf"n_steps must be an integer >= 0 and <= 1000000, got {re.escape(repr(n_steps))}$"
        with pytest.raises(InvalidArgumentError, match=match):
            mech.hamilton_flow(natural, mech.PhaseState(1.0, 0.0), 1e-3, n_steps)
        with pytest.raises(InvalidArgumentError, match=match):
            cv.ddw_evolve(field, cv.FieldState1p1(grid, np.zeros(grid.n), np.zeros(grid.n)), 1e-3, n_steps)

    def test_fixed_steps_take_integers(self):
        for n_steps in (2.5, True, np.float64(3.0)):
            match = rf"n_steps must be an integer >= 1 .*, got {re.escape(repr(n_steps))}$"
            with pytest.raises(InvalidArgumentError, match=match):
                nx._check_fixed_steps(1e-3, n_steps, 1)
        nx._check_fixed_steps(1e-3, np.int64(3), 1)

    def test_spin_run_rejected_before_stepping(self):
        spec = ds.SpinSystemSpec(U=np.ones((2, 2)) - np.eye(2), theta=np.zeros((2, 2)), b=-1.0)
        seen = []
        with pytest.raises(InvalidArgumentError, match="exceeds 1000000 steps"):
            ds.local_form_run(spec, np.array([0.9, 0.1]), np.zeros(2), 1.0, 1e-300, floor=1e-6,
                              observer=lambda t, p, lam: seen.append(t))
        assert seen == []
