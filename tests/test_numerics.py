from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varq import numerics as nx
from varq import quantum_fields as qf
from varq import runners
from varq.config import parse_scenario
from varq.errors import InvalidArgumentError, NumericalFailureError

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
        op = nx.sturm_liouville_operator(g, 1.0, None, coeff=1.0)
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
            nx.eigensolve_lowest(op, op.size + 1)


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


def _per_call_step(self, psi):
    return cayley_step_per_call(self.op, self.dt, self.a, psi)


class TestCayleyPrefactored:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 4, 40]),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=0.05, max_value=20.0),
        st.booleans(),
    )
    @example(1401, 7, 0.002, 1.0, True)
    @example(40, 3, 0.0, 0.7, True)
    @example(1, 5, 0.3, 1.0, False)
    @example(2, 6, -0.4, 2.0, False)
    def test_bitwise_equal_to_per_call_solve(self, m, seed, dt, a, complex_psi):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        op = nx.TridiagonalOperator(scale[0] * rng.normal(size=m),
                                    scale[1] * rng.normal(size=m - 1))
        psi = rng.normal(size=m) + (1j * rng.normal(size=m) if complex_psi else 0.0)
        prop = nx.CayleyPropagator(op, dt, a)
        got = want = psi
        for _ in range(20):
            got = prop.step(got)
            want = cayley_step_per_call(op, dt, a, want)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [1, 2, 40])
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
        sc = parse_scenario(text)
        new = runners.run_schrodinger(sc, 1.0)
        monkeypatch.setattr(nx.CayleyPropagator, "step", _per_call_step)
        old = runners.run_schrodinger(sc, 1.0)
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
        monkeypatch.setattr(nx.CayleyPropagator, "step", _per_call_step)
        old = qf.space_independent_evolve(spec, grid, psi0, 2e-3, 200, store_every=20)
        for name in ("times", "psi", "energy_density", "mask", "mean_energy"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name


class TestRk4:
    def test_zero_field_fixed_point(self):
        y = np.array([1.0, -2.0])
        out = nx.rk4_step(lambda s: np.zeros_like(s), y, 0.3)
        assert np.array_equal(out, y)

    def test_exponential_growth(self):
        out = nx.rk4_step(lambda s: s, np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(np.exp(0.1), abs=1e-7)

    def test_fourth_order_convergence(self):
        # halving dt cuts the one-period error by 16 (up to 20%)
        def err(dt):
            y = np.array([1.0, 0.0])
            f = lambda s: np.array([s[1], -s[0]])
            n = int(round(2 * np.pi / dt))
            for _ in range(n):
                y = nx.rk4_step(f, y, 2 * np.pi / n)
            return np.hypot(y[0] - 1.0, y[1])

        ratio = err(0.02) / err(0.01)
        assert 16 * 0.8 <= ratio <= 16 * 1.2

    def test_nonfinite_derivative_raises(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericalFailureError):
                nx.rk4_step(lambda s: s / 0.0, np.array([1.0]), 0.1)


def test_operator_shape_validation():
    with pytest.raises(InvalidArgumentError):
        nx.TridiagonalOperator(np.zeros(4), np.zeros(4))


def test_operator_apply_matches_dense():
    rng = np.random.default_rng(5)
    op = nx.TridiagonalOperator(rng.normal(size=12), rng.normal(size=11))
    v = rng.normal(size=12)
    assert np.allclose(op.apply(v), op.dense() @ v, atol=1e-14)
