import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import numerics as nx
from varq.errors import InvalidArgumentError, NumericalFailureError


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
