"""Bitwise references for the transport step loops.

``madelung_run`` hands each quantum-pole step the bulk window that the
previous step found (one density scan per step), the multiplier update
runs on views of the contiguous bulk, and the per-step code calls ndarray
methods where it called numpy's Python-level wrappers (``np.diff``,
``np.max``, ``np.flatnonzero``, ...).  The forms they replaced are kept
here: the two-scan, boolean-mask ``madelung_step`` and the ``np.diff``
forms of ``_windowed_upwind`` and ``_godunov_hj_update``.  Every run must
give their bits, observer samples included, and reject where and as they
did.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import hydrodynamics as hy
from varq import mechanics as mech
from varq import numerics as nx
from varq import potentials as pot
from varq import wavefunction as wv
from varq.errors import StepRejectedError
from varq.numerics import build_grid

ROOT = Path(__file__).resolve().parent.parent


# -- the replaced forms -------------------------------------------------------


def upwind_density_update_ref(grid, rho, v_face, dt):
    drho = np.zeros_like(rho)
    drho[1:-1] = mech._minmod(rho[1:-1] - rho[:-2], rho[2:] - rho[1:-1])
    nu = v_face * dt / grid.h
    r_left = rho[:-1] + 0.5 * (1.0 - nu) * drho[:-1]
    r_right = rho[1:] - 0.5 * (1.0 + nu) * drho[1:]
    flux = (dt / grid.h) * np.where(v_face > 0.0, v_face * r_left, v_face * r_right)
    new = rho.copy()
    new[:-1] -= flux
    new[1:] += flux
    return new


def reject_negative_ref(rho, where, offset):
    low = int(np.argmin(rho))
    if rho[low] < -1e-14:
        raise StepRejectedError(
            f"negative density ({where})", location=offset + low, diagnostics={"rho_min": float(rho[low])}
        )


def windowed_upwind_ref(grid, rho, lam, m_face, lo, hi, dt):
    a, b = max(lo - 1, 0), min(hi + 1, grid.n - 1)
    v = np.zeros(b - a)
    v[lo - a : hi - a] = np.diff(lam[lo : hi + 1]) / grid.h / m_face[lo:hi]
    speed = np.abs(v)
    k = int(np.argmax(speed))
    cfl = float(speed[k]) * dt / grid.h
    if not cfl <= 1.0:
        raise StepRejectedError(
            f"CFL violation: max |v| dt / h = {cfl:.3g} > 1", location=a + k, diagnostics={"cfl": cfl}
        )
    new = rho.copy()
    new[a : b + 1] = upwind_density_update_ref(grid, rho[a : b + 1], v, dt)
    return new


def godunov_hj_update_ref(grid, spec, S, dt):
    h = grid.h
    dm = np.empty_like(S)
    dp = np.empty_like(S)
    dm[1:] = np.diff(S) / h
    dp[:-1] = np.diff(S) / h
    dm[0] = dp[0]
    dp[-1] = dm[-1]
    p2 = np.maximum(np.maximum(dm, 0.0) ** 2, np.minimum(dp, 0.0) ** 2)
    q = grid.nodes
    return S - dt * (p2 / (2.0 * spec.mass_at(q)) + spec.potential_at(q))


def support_mask_ref(rho, floor_frac):
    return rho > floor_frac * float(np.max(rho))


def classical_transport_step_ref(grid, rho, S, spec, dt, support_floor, m_face):
    if support_floor is None:
        lo, hi = 0, grid.n - 1
    else:
        idx = np.flatnonzero(support_mask_ref(rho, support_floor))
        lo = max(int(idx[0]) - mech._SUPPORT_BUFFER, 0)
        hi = min(int(idx[-1]) + mech._SUPPORT_BUFFER, rho.size - 1)
    rho_new = windowed_upwind_ref(grid, rho, S, m_face, lo, hi, dt)
    reject_negative_ref(rho_new[lo : hi + 1], "after step", lo)
    if support_floor is None:
        return rho_new, godunov_hj_update_ref(grid, spec, S, dt)
    h = grid.h
    S_new = S.copy()
    if hi - lo + 1 >= 3:
        sub = build_grid(grid.q_min + lo * h, grid.q_min + hi * h, hi - lo + 1)
        S_new[lo : hi + 1] = godunov_hj_update_ref(sub, spec, S[lo : hi + 1], dt)
    if lo > 0:
        gl = (S_new[lo + 1] - S_new[lo]) / h
        cl = (S_new[lo + 2] - 2.0 * S_new[lo + 1] + S_new[lo]) / (h * h) if lo + 2 < grid.n else 0.0
        d = h * np.arange(lo, 0, -1)
        S_new[:lo] = S_new[lo] - gl * d + 0.5 * cl * d * d
    if hi < grid.n - 1:
        gr = (S_new[hi] - S_new[hi - 1]) / h
        cr = (S_new[hi] - 2.0 * S_new[hi - 1] + S_new[hi - 2]) / (h * h) if hi - 2 >= 0 else 0.0
        d = h * np.arange(1, grid.n - hi)
        S_new[hi + 1 :] = S_new[hi] + gr * d + 0.5 * cr * d * d
    return rho_new, S_new


def bulk_slice_ref(rho, floor_frac):
    mask = support_mask_ref(rho, floor_frac)
    peak = int(np.argmax(rho))
    if not mask[peak]:
        return peak, peak
    off = np.flatnonzero(~mask)
    k = int(np.searchsorted(off, peak))
    lo = int(off[k - 1]) + 1 if k > 0 else 0
    hi = int(off[k]) - 1 if k < off.size else rho.size - 1
    return lo, hi


def check_nodeless_ref(rho, floor_frac, where):
    floor = floor_frac * float(np.max(rho))
    deep = np.flatnonzero(rho < hy._HARD_FRAC * floor)
    if deep.size:
        sig = np.flatnonzero(rho > hy._SIGNIFICANT_FRAC * floor)
        if sig.size >= 2:
            inside = deep[(deep > sig[0]) & (deep < sig[-1])]
            if inside.size:
                raise StepRejectedError(
                    f"density node forming inside the bulk ({where})",
                    location=int(inside[0]),
                    diagnostics={"rho_min": float(rho[inside[0]]), "floor": floor},
                )
    reject_negative_ref(rho, where, 0)
    return bulk_slice_ref(rho, floor_frac)


def sqrt_density_ratio_ref(grid, op, rho, mask):
    sr = np.sqrt(rho)
    h_sr = nx.embed_interior(grid, op.apply(sr[1:-1]))
    out = np.zeros(grid.n)
    out[mask] = h_sr[mask] / sr[mask]
    return out


def g_terms_ref(dspec, grid, rho, m_face, m_node):
    h = grid.h
    grad_rho = nx.grad_central(rho, h)
    first = 0.5 * dspec.g_grad_at(rho) * grad_rho**2 / m_node
    rho_f = 0.5 * (rho[:-1] + rho[1:])
    flux = (1.0 / m_face) * dspec.g_at(rho_f) * np.diff(rho) / h
    div = np.zeros_like(rho)
    div[1:-1] = (flux[1:] - flux[:-1]) / h
    return first - div


def madelung_step_ref(spec, dspec, state, dt, op, m_face, m_node, floor_frac=nx.RHO_FLOOR_FRAC):
    """Two scans per step, boolean-mask gathers and scatters."""
    grid = state.grid
    if dspec.mode == "classical":
        rho_new, lam_new = classical_transport_step_ref(grid, state.rho, state.lam, spec, dt, None, m_face)
        return hy.HydroState(grid, rho_new, lam_new)
    lo, hi = check_nodeless_ref(state.rho, floor_frac, "before step")
    rho_new = windowed_upwind_ref(grid, state.rho, state.lam, m_face, lo, hi, dt)
    mask = np.zeros(grid.n, dtype=bool)
    lo2, hi2 = check_nodeless_ref(rho_new, floor_frac, "after step")
    mask[lo2 : hi2 + 1] = True
    grad_lam = nx.grad_central(state.lam, grid.h)
    rate = sqrt_density_ratio_ref(grid, op, np.maximum(rho_new, 0.0), mask)
    rate[mask] += grad_lam[mask] ** 2 / (2.0 * m_node[mask])
    if dspec.g is not None:
        rate[mask] += np.asarray(g_terms_ref(dspec, grid, rho_new, m_face, m_node))[mask]
    lam_new = state.lam.copy()
    lam_new[mask] -= dt * rate[mask]
    return hy.HydroState(grid, rho_new, lam_new)


def madelung_run_ref(spec, dspec, state, t_final, dt, observer):
    n_steps, dt = nx._uniform_steps(t_final, dt)
    grid = state.grid
    op = wv.schrodinger_operator(spec, grid, dspec.a) if dspec.mode == "quantum-pole" else None
    m_face, m_node = spec.mass_at(grid.midpoints), spec.mass_at(grid.nodes)
    t = 0.0
    for _ in range(n_steps):
        state = madelung_step_ref(spec, dspec, state, dt, op, m_face, m_node)
        t += dt
        observer(t, state)
    return state


def transport_run_ref(ens, spec, t_final, dt, support_floor, observer):
    n_steps, dt = nx._uniform_steps(t_final, dt)
    m_face = spec.mass_at(ens.grid.midpoints)
    t = 0.0
    for _ in range(n_steps):
        rho, S = classical_transport_step_ref(ens.grid, ens.rho, ens.S, spec, dt, support_floor, m_face)
        ens = mech.ClassicalEnsemble(ens.grid, rho, S)
        t += dt
        observer(t, ens)
    return ens


# -- runs against the references ----------------------------------------------


def _trajectory(run, *args):
    """(observed states with the runners' samples, final state or rejection)."""
    seen = []
    try:
        out = run(*args, lambda t, s: seen.append((t, s, _samples(s))))
    except StepRejectedError as exc:
        return seen, (str(exc), exc.location, exc.diagnostics)
    return seen, out


def _samples(s):
    """What run_classical/run_madelung record from each state, in the
    method form they use."""
    q, h = s.grid.nodes, s.grid.h
    return h * float((s.rho * q).sum()), h * float(s.rho.sum())


def _samples_ref(s):
    q, h = s.grid.nodes, s.grid.h
    return h * float(np.sum(s.rho * q)), h * float(np.sum(s.rho))


def _assert_same(new, old, field):
    (seen_new, end_new), (seen_old, end_old) = new, old
    assert len(seen_new) == len(seen_old)
    for (t1, s1, x1), (t2, s2, _) in zip(seen_new, seen_old):
        assert t1 == t2
        assert np.array_equal(s1.rho, s2.rho) and np.array_equal(getattr(s1, field), getattr(s2, field))
        assert x1 == _samples_ref(s2)
    assert isinstance(end_new, tuple) == isinstance(end_old, tuple)
    if isinstance(end_old, tuple):
        assert end_new == end_old
    else:
        assert np.array_equal(end_new.rho, end_old.rho)
        assert np.array_equal(getattr(end_new, field), getattr(end_old, field))


def _spec(kind, strength, m0, m1):
    p = pot.harmonic(strength) if kind == "harmonic" else pot.quartic(0.05 * strength)
    return mech.NaturalSystemSpec(mass=lambda q: m0 * (1.0 + m1 * np.cos(np.asarray(q, dtype=float))),
                                  potential=p.v, potential_grad=p.dv)


SPECS = dict(
    kind=st.sampled_from(["harmonic", "quartic"]),
    strength=st.floats(min_value=0.5, max_value=2.0),
    m0=st.floats(min_value=0.5, max_value=2.0),
    m1=st.floats(min_value=-0.3, max_value=0.3),
)


class TestMadelungRun:
    @settings(max_examples=40, deadline=None)
    @given(
        half_width=st.floats(min_value=5.0, max_value=9.0),
        n=st.integers(min_value=81, max_value=201),
        center_frac=st.floats(min_value=-0.3, max_value=0.3),
        variance=st.floats(min_value=0.2, max_value=1.0),
        kick=st.floats(min_value=-2.0, max_value=2.0),
        coupling=st.sampled_from([None, 0.05, -0.05]),
        mode=st.sampled_from(["quantum-pole", "quantum-pole", "classical"]),
        **SPECS,
    )
    def test_matches_two_scan_masked_run(self, half_width, n, center_frac, variance, kick, coupling, mode,
                                         kind, strength, m0, m1):
        grid = build_grid(-half_width, half_width, n)
        q = grid.nodes
        spec = _spec(kind, strength, m0, m1)
        g = {} if coupling is None else dict(g=lambda r: coupling * r, g_grad=lambda r: coupling)
        dspec = hy.DiffusionSpec(a=1.0, mode=mode, **g)
        rho = mech.normalize_density(grid, np.exp(-((q - center_frac * half_width) ** 2) / (2 * variance)))
        state = hy.HydroState(grid, rho, kick * q)
        dt = 0.2 * grid.h**2
        new = _trajectory(hy.madelung_run, spec, dspec, state, 20 * dt, dt)
        old = _trajectory(madelung_run_ref, spec, dspec, state, 20 * dt, dt)
        _assert_same(new, old, "lam")

    def test_node_mid_run_rejected_as_before(self):
        # a frozen remnant (cells 10-19) beyond an empty gap (20-24) turns
        # significant as the kicked packet spreads and its peak falls
        spec = mech.NaturalSystemSpec(mass=lambda q: 1.0, potential=lambda q: 0.0 * q,
                                      mass_grad=lambda q: 0.0, potential_grad=lambda q: 0.0)
        grid = build_grid(-6.0, 6.0, 121)
        q = grid.nodes
        rho = np.exp(-(q**2) / 0.2)
        rho[20:25] = 0.0
        rho[10:20] = 6e-10
        state = hy.HydroState(grid, mech.normalize_density(grid, rho), q**2)
        dt = 0.2 * grid.h**2
        dspec = hy.DiffusionSpec(a=1.0)
        new = _trajectory(hy.madelung_run, spec, dspec, state, 300 * dt, dt)
        old = _trajectory(madelung_run_ref, spec, dspec, state, 300 * dt, dt)
        _assert_same(new, old, "lam")
        assert len(new[0]) == 94
        assert new[1][:2] == ("density node forming inside the bulk (after step)", 20)
        assert new[1][2]["rho_min"] == 0.0


class TestTransportRun:
    @settings(max_examples=40, deadline=None)
    @given(
        half_width=st.floats(min_value=1.0, max_value=3.0),
        n=st.integers(min_value=61, max_value=301),
        center_frac=st.floats(min_value=-0.5, max_value=0.5),
        width_cells=st.floats(min_value=2.0, max_value=8.0),
        kick=st.floats(min_value=-1.0, max_value=1.0),
        cfl=st.floats(min_value=0.05, max_value=0.6),
        support_floor=st.sampled_from([1e-6, None]),
        **SPECS,
    )
    def test_matches_diff_form_run(self, half_width, n, center_frac, width_cells, kick, cfl, support_floor,
                                   kind, strength, m0, m1):
        grid = build_grid(-half_width, half_width, n)
        q = grid.nodes
        spec = _spec(kind, strength, m0, m1)
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - center_frac * half_width) / (width_cells * grid.h)) ** 2))
        ens = mech.ClassicalEnsemble(grid, rho, kick * q)
        dt = cfl * grid.h
        new = _trajectory(mech.transport_run, ens, spec, 30 * dt, dt, support_floor)
        old = _trajectory(transport_run_ref, ens, spec, 30 * dt, dt, support_floor)
        _assert_same(new, old, "S")


# -- one scan per step --------------------------------------------------------


def _gaussian_state(n=201):
    grid = build_grid(-8.0, 8.0, n)
    q = grid.nodes
    return hy.HydroState(grid, mech.normalize_density(grid, np.exp(-((q - 0.2) ** 2))), 0.1 * q)


def _noded_state():
    grid = build_grid(-6.0, 6.0, 601)
    q = grid.nodes
    rho = np.exp(-(q**2))
    rho[295:305] = 1e-15  # a hole far below the floor between two bulk regions
    return hy.HydroState(grid, mech.normalize_density(grid, rho), np.zeros(grid.n))


class TestScanCount:
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_run_of_k_steps_scans_k_plus_one_times(self, unit_mass_harmonic, monkeypatch, k):
        calls = []
        real = hy._check_nodeless
        monkeypatch.setattr(hy, "_check_nodeless", lambda rho, frac, where: calls.append(where) or real(rho, frac, where))
        state = _gaussian_state()
        dt = 0.2 * state.grid.h**2
        hy.madelung_run(unit_mass_harmonic, hy.DiffusionSpec(a=1.0), state, k * dt, dt)
        assert calls == ["before step"] + ["after step"] * k

    def test_classical_mode_does_not_scan(self, unit_mass_harmonic, monkeypatch):
        calls = []
        monkeypatch.setattr(hy, "_check_nodeless", lambda *a: calls.append(a))
        state = _gaussian_state()
        hy.madelung_run(unit_mass_harmonic, hy.DiffusionSpec(a=1.0, mode="classical"), state, 0.01, 1e-3)
        assert calls == []

    def test_state_from_no_run_is_scanned_before_step(self, unit_mass_harmonic):
        with pytest.raises(StepRejectedError, match=r"density node forming inside the bulk \(before step\)"):
            hy.madelung_step(unit_mass_harmonic, hy.DiffusionSpec(a=1.0), _noded_state(), 1e-5)

    def test_other_state_given_with_a_run_is_scanned(self, unit_mass_harmonic):
        # the carried window belongs to the state the run's last step returned
        noded = _noded_state()
        smooth = hy.HydroState(noded.grid, mech.normalize_density(noded.grid, np.exp(-noded.grid.nodes**2)),
                               np.zeros(noded.grid.n))
        run = mech._RunContext(*hy._mass_sample(unit_mass_harmonic, noded.grid))
        dspec = hy.DiffusionSpec(a=1.0)
        assert hy.madelung_step(unit_mass_harmonic, dspec, smooth, 1e-5, _run=run) is run.last
        with pytest.raises(StepRejectedError, match=r"density node forming inside the bulk \(before step\)"):
            hy.madelung_step(unit_mass_harmonic, dspec, noded, 1e-5, _run=run)

    def test_benchmark_positional_calls(self):
        # perfbench/kernels.py calls madelung_step with seven positional
        # arguments and classical_transport_step with six
        spec_ = importlib.util.spec_from_file_location("perfbench_kernels", ROOT / "perfbench" / "kernels.py")
        kernels = importlib.util.module_from_spec(spec_)
        spec_.loader.exec_module(kernels)
        fn, args = kernels._madelung(801)
        spec, dspec, state, dt = args[:4]
        out = fn(*args)
        want = hy.madelung_step(spec, dspec, state, dt)
        assert np.array_equal(out.rho, want.rho) and np.array_equal(out.lam, want.lam)
        fn, args = kernels._transport(1401)
        grid, rho, S, spec, dt, floor = args
        got = fn(*args)
        want = classical_transport_step_ref(grid, rho, S, spec, dt, floor, spec.mass_at(grid.midpoints))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
