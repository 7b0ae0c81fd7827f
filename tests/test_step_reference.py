"""Bitwise references for the step loops.

``madelung_run`` hands each quantum-pole step the bulk window that the
previous step found (one density scan per step), the multiplier update
runs on views of the contiguous bulk, and the per-step code calls ndarray
methods where it called numpy's Python-level wrappers (``np.diff``,
``np.max``, ``np.flatnonzero``, ...).  The forms they replaced are kept
here: the two-scan, boolean-mask ``madelung_step`` and the ``np.diff``
forms of ``_windowed_upwind`` and ``_godunov_hj_update``.  Every run must
give their bits, observer samples included, and reject where and as they
did.

The spin local-form step and ``mechanics.hamilton_flow`` run their RK4
stages on Python floats.  The numpy forms they replaced are kept here too:
``rk4_step`` (the classic update on arrays) and the spin step that drove
the array rhs ``local_form_rhs_ref`` through it.

The transport run loops check only the cells a step wrote
(``mechanics._check_cells``, through ``mechanics._next_state`` in
``madelung_run``); the constructor's former whole-grid check is kept here
(``density_state_ref``) and both must match it.  ``transport_run`` with a
support floor writes S outside the window once, before it returns, and
samples V and m once per window; the reference keeps a whole S and a
checked ensemble at every step and samples every step's window
(``transport_run_ref``), and the run must give its densities, rejections
and returned S, sign bits included.  The spin step's comparison with its numpy form is held to a rounding
bound derived in ``rk4_rounding_bound``.

The De Donder-Weyl leapfrog steps in place on the buffers of one
``covariant._Leapfrog`` per run, which advances them chunk by stored
chunk, and ``run_ddw`` evaluates the energy-momentum tensor once over the
stacked snapshots.  The allocating leapfrog with its ``_lap``/``_accel`` and
the per-snapshot conservation loop are kept here; runs and series must give
their bits.

The linear run loops step through ``CayleyPropagator.run``, whose steps
reuse the H psi they yield (``CayleyPropagator._solve``), and
``confined_solve`` evaluates its log source and window residual on the
active box, in blocks of rows, in one per-solve grid buffer;
``tail_integral`` sums in blocks of columns.  The Schrodinger
runner must give the bits of a loop that calls ``CayleyPropagator.step``
without the H psi and applies H for the energy itself, the solver
those of its former whole-grid form, ``confined_solve_ref``, failures and
their diagnostics included, and the tail those of one whole-grid sum.

The HJ and continuity residual series and the space-independent records
(energy density, mask, mean energy) evaluate once over the stacked
snapshots, through spatial helpers that act along the last axis.  The
per-snapshot loops and the one-field helpers they called
(``grad_central_ref``, ``apply_ref``) are kept here; every row must give
their bits.
"""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varq import covariant as cv
from varq import discrete as ds
from varq import hydrodynamics as hy
from varq import mechanics as mech
from varq import numerics as nx
from varq import potentials as pot
from varq import quantum_fields as qf
from varq import runners
from varq import wavefunction as wv
from varq.errors import (InvalidArgumentError, InvalidSpecError, InvalidStateError, NumericalFailureError,
                         StepRejectedError)
from varq.config import parse_scenario
from varq.numerics import build_grid

ROOT = Path(__file__).resolve().parent.parent


# -- the replaced forms -------------------------------------------------------


def rk4_step(f, state, dt, caller="rk4_step"):
    """Classical 4th-order Runge-Kutta update for an autonomous system; its
    error names ``caller``, the library function the reference stands for."""
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(f(y))
    k2 = np.asarray(f(y + 0.5 * dt * k1))
    k3 = np.asarray(f(y + 0.5 * dt * k2))
    k4 = np.asarray(f(y + dt * k3))
    if not (
        np.all(np.isfinite(k1))
        and np.all(np.isfinite(k2))
        and np.all(np.isfinite(k3))
        and np.all(np.isfinite(k4))
    ):
        raise NumericalFailureError(f"non-finite derivative in {caller}")
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def local_form_rhs_ref(spec, p, lam):
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    sqrtp = np.sqrt(p)
    eta = lam[:, None] - lam[None, :] + spec.theta
    cos_term = spec.U * np.cos(eta / spec.a)
    sin_term = spec.U * np.sin(eta / spec.a)
    dlam = spec.b * (cos_term @ sqrtp) / sqrtp
    dp = (2.0 * spec.b / spec.a) * sqrtp * (sin_term @ sqrtp)
    return dp, dlam


def run_rhs(spec, p, lam):
    """(dp, dlam) of the step's rhs, ``_LocalFormRun.rhs``, at (p, lam) unclamped."""
    y = np.asarray(p, dtype=float).tolist() + np.asarray(lam, dtype=float).tolist()
    d = ds._LocalFormRun(spec, 0.0, ds.P_FLOOR).rhs(y, 0.0)
    return np.array(d[: spec.n]), np.array(d[spec.n :])


def check_floor_ref(p, floor):
    low = np.flatnonzero(np.asarray(p) < floor)
    if low.size:
        raise StepRejectedError(
            f"population below floor {floor:g} (leaving the valid region)",
            location=int(low[0]),
            diagnostics={"p_min": float(np.min(p))},
        )


def local_form_step_ref(spec, p, lam, dt, floor=ds.P_FLOOR):
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    check_floor_ref(p, floor)
    n = spec.n

    def rhs(y):
        dp, dlam = local_form_rhs_ref(spec, np.maximum(y[:n], floor * 1e-3), y[n:])
        return np.concatenate([dp, dlam])

    out = rk4_step(rhs, np.concatenate([p, lam]), dt, "local_form_step")
    p_new, lam_new = out[:n], out[n:]
    check_floor_ref(p_new, floor)
    return p_new, lam_new


def local_form_run_ref(spec, p, lam, t_final, dt, floor, observer):
    n_steps, dt = nx._uniform_steps(t_final, dt)
    t = 0.0
    for _ in range(n_steps):
        p, lam = local_form_step_ref(spec, p, lam, dt, floor=floor)
        t += dt
        observer(t, p, lam)
    return p, lam



def minmod_ref(a, b):
    return np.where(a * b > 0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def upwind_density_update_ref(grid, rho, v_face, dt):
    drho = np.zeros_like(rho)
    drho[1:-1] = minmod_ref(rho[1:-1] - rho[:-2], rho[2:] - rho[1:-1])
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


def grad_central_ref(f, h):
    """``numerics.grad_central`` on one field, before it took a stack."""
    f = np.asarray(f)
    g = np.empty_like(f, dtype=complex if np.iscomplexobj(f) else float)
    g[1:-1] = (f[2:] - f[:-2]) * (0.5 / h)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return g


def apply_ref(op, v):
    """``TridiagonalOperator.apply`` on one vector, before it took a stack."""
    out = op.diagonal * v
    out[:-1] += op.off_diagonal * v[1:]
    out[1:] += op.off_diagonal * v[:-1]
    return out


def sqrt_density_ratio_ref(grid, op, rho, mask):
    sr = np.sqrt(rho)
    h_sr = np.pad(apply_ref(op, sr[1:-1]), 1)
    out = np.zeros(grid.n)
    out[mask] = h_sr[mask] / sr[mask]
    return out


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
    grad_lam = grad_central_ref(state.lam, grid.h)
    rate = sqrt_density_ratio_ref(grid, op, np.maximum(rho_new, 0.0), mask)
    rate[mask] += grad_lam[mask] ** 2 / (2.0 * m_node[mask])
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
        observer(t, state, grid.h * float(np.sum(state.rho)))
    return state


def transport_run_ref(ens, spec, t_final, dt, support_floor, observer):
    """A whole-grid S and a checked ensemble at every step."""
    n_steps, dt = nx._uniform_steps(t_final, dt)
    m_face = spec.mass_at(ens.grid.midpoints)
    t = 0.0
    for _ in range(n_steps):
        rho, S = classical_transport_step_ref(ens.grid, ens.rho, ens.lam, spec, dt, support_floor, m_face)
        ens = mech.HydroState(ens.grid, rho, S)
        t += dt
        observer(t, ens.rho, ens.grid.h * float(np.sum(ens.rho)))
    return ens


# -- runs against the references ----------------------------------------------


def _trajectory(run, *args):
    """(observed states with the runners' samples, final state or rejection)."""
    seen = []
    try:
        out = run(*args, lambda t, s, mass: seen.append((t, s, _samples(s, mass))))
    except StepRejectedError as exc:
        return seen, (str(exc), exc.location, exc.diagnostics)
    return seen, out


def _rho_trajectory(run, ens, *args):
    """``_trajectory`` of a transport run, whose observer takes (t, rho, mass): the
    observed densities with the runner's samples, then the final ensemble
    or the rejection (a rejected step, a bad state or a spec the step's
    samples refuse) as (class, message, location, diagnostics)."""
    q, h = ens.grid.nodes, ens.grid.h
    seen = []
    try:
        out = run(ens, *args, lambda t, rho, mass: seen.append((t, rho.copy(), (h * float((rho * q).sum()), mass))))
    except (StepRejectedError, InvalidStateError, InvalidSpecError) as exc:
        return seen, (type(exc), str(exc), getattr(exc, "location", None), getattr(exc, "diagnostics", None))
    return seen, out


def _assert_same_rho(new, old, q, h):
    """Every observed density and sample, then the rejection, or the final
    ensemble with the sign bits of S."""
    (seen_new, end_new), (seen_old, end_old) = new, old
    assert len(seen_new) == len(seen_old)
    for (t1, r1, x1), (t2, r2, _) in zip(seen_new, seen_old):
        assert t1 == t2 and np.array_equal(r1, r2)
        assert x1 == (h * float(np.sum(r2 * q)), h * float(np.sum(r2)))
    assert isinstance(end_new, tuple) == isinstance(end_old, tuple)
    if isinstance(end_old, tuple):
        assert end_new == end_old
    else:
        assert np.array_equal(end_new.rho, end_old.rho) and np.array_equal(end_new.lam, end_old.lam)
        assert np.array_equal(np.signbit(end_new.lam), np.signbit(end_old.lam))


def _samples(s, mass):
    """What run_classical/run_madelung record from each state, in the
    method form they use: the centroid and the mass the run hands over."""
    q, h = s.grid.nodes, s.grid.h
    return h * float((s.rho * q).sum()), mass


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
        mode=st.sampled_from(["quantum-pole", "quantum-pole", "classical"]),
        **SPECS,
    )
    def test_matches_two_scan_masked_run(self, half_width, n, center_frac, variance, kick, mode,
                                         kind, strength, m0, m1):
        grid = build_grid(-half_width, half_width, n)
        q = grid.nodes
        spec = _spec(kind, strength, m0, m1)
        dspec = hy.DiffusionSpec(a=1.0, mode=mode)
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

    @pytest.mark.parametrize("center, ends", [(0.0, "interior"), (-7.5, "first node"), (7.5, "last node")])
    def test_bulk_gradient_at_the_grid_ends(self, center, ends):
        # the step forms grad(lam) on the bulk alone unless the bulk touches a
        # grid end; either way its bits are grad_central's on the whole grid
        spec = _spec("quartic", 1.2, 1.1, 0.2)
        grid = build_grid(-8.0, 8.13, 161)
        q = grid.nodes
        rho = mech.normalize_density(grid, np.exp(-((q - center) ** 2) / 0.8))
        lam = 0.3 * q + 0.05 * q * q + 1e-3 * np.random.default_rng(5).standard_normal(grid.n)
        state = hy.HydroState(grid, rho, lam)
        dt = 0.2 * grid.h**2
        dspec = hy.DiffusionSpec(a=1.0)
        run = mech._RunContext(grid, spec, nodes=True)
        lo, hi = hy._check_nodeless(state.rho, nx.RHO_FLOOR_FRAC, "before step")[:2]
        rho_new = mech._windowed_upwind(grid, state.rho, state.lam, run.m_face, lo, hi, dt)
        new, (lo2, hi2) = hy._pole_update(run, wv.schrodinger_operator(spec, grid, 1.0), state, rho_new, lo, hi, dt,
                                          nx.RHO_FLOOR_FRAC)
        assert np.array_equal(new.lam, hy.madelung_step(spec, dspec, state, dt).lam)
        assert {"interior": 0 < lo2 and hi2 < grid.n - 1, "first node": lo2 == 0 and hi2 < grid.n - 1,
                "last node": hi2 == grid.n - 1 and lo2 > 0}[ends]
        m_face, m_node = spec.mass_at(grid.midpoints), spec.mass_at(grid.nodes)
        old = madelung_step_ref(spec, dspec, state, dt, wv.schrodinger_operator(spec, grid, 1.0), m_face, m_node)
        assert np.array_equal(new.rho, old.rho) and np.array_equal(new.lam, old.lam)
        assert not np.array_equal(new.lam[lo2 : hi2 + 1], state.lam[lo2 : hi2 + 1])

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=3, max_value=300), seed=st.integers(min_value=0, max_value=2**32 - 1),
           ends=st.sampled_from(["interior", "first node", "last node", "whole grid"]))
    def test_bulk_gradient_is_grad_central_on_the_bulk(self, n, seed, ends):
        rng = np.random.default_rng(seed)
        grid = build_grid(-rng.uniform(0.5, 9.0), rng.uniform(0.5, 9.0), n)
        lam = rng.normal(scale=rng.uniform(1e-3, 1e3), size=n)
        lo, hi = sorted(rng.integers(0, n, size=2).tolist())
        lo, hi = {"interior": (min(max(lo, 1), n - 2), max(min(hi, n - 2), min(max(lo, 1), n - 2))),
                  "first node": (0, min(hi, n - 2)), "last node": (max(lo, 1), n - 1), "whole grid": (0, n - 1)}[ends]
        got = hy._bulk_gradient(lam, grid.h, lo, hi)
        assert got.shape == (hi - lo + 1,) and np.array_equal(got, grad_central_ref(lam, grid.h)[lo : hi + 1])


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
        ens = mech.HydroState(grid, rho, kick * q)
        dt = cfl * grid.h
        new = _rho_trajectory(mech.transport_run, ens, spec, 30 * dt, dt, support_floor)
        old = _rho_trajectory(transport_run_ref, ens, spec, 30 * dt, dt, support_floor)
        _assert_same_rho(new, old, q, grid.h)

    @pytest.mark.parametrize("wall, seen, error", [(1e308, 4, "lam must be finite"), (1e302, 5, "CFL violation")],
                             ids=["overflow", "bound-only"])
    def test_planted_overflow_fails_as_before(self, monkeypatch, wall, seen, error):
        # the packet's window reaches a potential wall at step 5; there the
        # edge curvature of S bursts the bound |s0| + |g| D + |c/2| D^2 <
        # 1e300, so the step writes the whole extension: at 1e308 it
        # overflows and the state check fails, at 1e302 it stays finite and
        # the next step's CFL test rejects the kick the wall gave
        spec = mech.NaturalSystemSpec(mass=1.0, potential=lambda q: np.where(np.asarray(q) >= 0.3, wall, 0.0))
        grid = build_grid(-1.4, 1.4, 401)
        q = grid.nodes
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 0.1) / (3 * grid.h)) ** 2))
        ens = mech.HydroState(grid, rho, 0.5 * q)
        dt = 0.4 * grid.h
        written = []
        real = mech._extend
        monkeypatch.setattr(mech, "_extend", lambda out, *a: written.append(out.size) or real(out, *a))
        with np.errstate(over="ignore"):
            new = _rho_trajectory(mech.transport_run, ens, spec, 200 * dt, dt, 1e-6)
            old = _rho_trajectory(transport_run_ref, ens, spec, 200 * dt, dt, 1e-6)
        _assert_same_rho(new, old, q, grid.h)
        assert len(new[0]) == seen and new[1][1].startswith(error)
        assert new[1][0] is (InvalidStateError if wall == 1e308 else StepRejectedError)
        assert sum(written[-2:]) == grid.n - 56  # every cell outside the wall step's 56-node window

    def test_planted_nan_wall_fails_as_before(self):
        # V is NaN from q = 0.4 on; the packet's window reaches it mid-run, and
        # the step that first samples there refuses the spec, as the
        # reference, which samples every step's window, does at that step
        spec = mech.NaturalSystemSpec(mass=1.0, potential=lambda q: np.where(np.asarray(q) >= 0.4, np.nan,
                                                                             0.5 * np.square(q)))
        grid = build_grid(-1.4, 1.4, 401)
        q = grid.nodes
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 0.1) / (3 * grid.h)) ** 2))
        ens = mech.HydroState(grid, rho, 0.5 * q)
        dt = 0.4 * grid.h
        new = _rho_trajectory(mech.transport_run, ens, spec, 200 * dt, dt, 1e-6)
        old = _rho_trajectory(transport_run_ref, ens, spec, 200 * dt, dt, 1e-6)
        _assert_same_rho(new, old, q, grid.h)
        assert len(new[0]) > 10 and new[1][:2] == (InvalidSpecError, "potential V(q) must be finite")

    def test_full_S_outside_a_run(self):
        # a public step returns the whole S
        spec = _spec("quartic", 1.3, 0.9, 0.2)
        grid = build_grid(-2.0, 2.0, 301)
        q = grid.nodes
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 0.4) / (4 * grid.h)) ** 2))
        S, dt, floor = -0.7 * q, 0.3 * grid.h, 1e-6
        want = classical_transport_step_ref(grid, rho, S, spec, dt, floor, spec.mass_at(grid.midpoints))[1]
        dspec = hy.DiffusionSpec(a=1.0, mode="classical")
        state = hy.HydroState(grid, rho, S)
        for got in (mech.classical_transport_step(grid, rho, S, spec, dt, floor)[1],
                    hy.madelung_step(spec, dspec, state, dt, support_floor=floor).lam):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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


# -- states a run step builds --------------------------------------------------


def density_state_ref(grid, rho, lam):
    """The constructor's whole-grid check and clip before it shared
    ``mechanics._check_cells`` with ``mechanics._next_state``."""
    rho, lam = np.asarray(rho, dtype=float), np.asarray(lam, dtype=float)
    if not np.isfinite(lam).all():
        raise InvalidStateError("lam must be finite")
    if (rho < -1e-14).any():
        raise InvalidStateError("density must be nonnegative")
    total = grid.h * float(np.sum(rho))
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidStateError(f"density not normalised: h*sum(rho) = {total!r}")
    return SimpleNamespace(grid=grid, rho=np.maximum(rho, 0.0), lam=lam)


def _build(make, *args):
    """The new state's arrays, or the rejection as (class, message, location, diagnostics)."""
    try:
        state = make(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "location", None), getattr(exc, "diagnostics", None)
    return state.grid, state.rho, state.lam


class TestNextState:
    """``mechanics._next_state`` checks only the cells a step wrote; given a
    checked state changed on those cells alone it must build what the public
    constructor builds, and reject bad cells as the constructor does.  Both
    are held to the whole-grid form the constructors had before."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        lam_whole=st.booleans(),
        bad=st.lists(st.sampled_from(["nan", "negative", "unnormalised", "lam_inf", "lam_nan", "tiny_negative"]),
                     max_size=2),
    )
    def test_matches_public_constructor(self, n, seed, lam_whole, bad):
        rng = np.random.default_rng(seed)
        grid = build_grid(-rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0), n)
        rho0 = rng.random(n) ** 3 * (rng.random(n) > 0.3)
        rho0[rng.integers(n)] += 1.0
        prev = mech.HydroState(grid, mech.normalize_density(grid, rho0), rng.normal(scale=3.0, size=n))
        lo = int(rng.integers(0, n - 2))
        hi = int(rng.integers(lo + 2, n))
        moved = slice(lo, hi + 1)
        lam_moved = slice(None) if lam_whole else slice(int(rng.integers(0, lo + 1)), int(rng.integers(hi, n)) + 1)
        rho = prev.rho.copy()
        w = rng.random(hi - lo + 1) * (rng.random(hi - lo + 1) > 0.2)
        if w.sum() > 0:  # the window keeps its mass, so the state stays normalised to rounding
            rho[moved] = w * (prev.rho[moved].sum() / w.sum())
        lam = prev.lam.copy()
        lam[lam_moved] += rng.normal(size=lam[lam_moved].size)
        cell = lo + int(rng.integers(0, hi - lo + 1))
        for kind in bad:
            if kind == "nan":
                rho[cell] = np.nan
            elif kind == "negative":
                rho[cell] = -2e-14
            elif kind == "tiny_negative":  # accepted and clipped
                rho[cell] = -0.5e-14
            elif kind == "unnormalised":
                rho[cell] += 1e-6 / grid.h
            else:
                lam[lam_moved][int(rng.integers(0, lam[lam_moved].size))] = np.inf if kind == "lam_inf" else np.nan
        old = _build(density_state_ref, grid, rho.copy(), lam.copy())
        public = _build(mech.HydroState, grid, rho.copy(), lam.copy())
        private = _build(mech._next_state, grid, rho.copy(), lam.copy(), moved, lam_moved, None, None)
        # a step hands over the minimum its rejection test took (a NaN when rho[moved] holds one)
        scanned = _build(mech._next_state, grid, rho.copy(), lam.copy(), moved, lam_moved,
                         float(rho[moved][int(rho[moved].argmin())]), None)
        for got in (public, private, scanned):
            assert isinstance(got[0], type) == isinstance(old[0], type)
            if isinstance(old[0], type):
                assert got == old
            else:
                assert got[0] is grid
                for a, b in zip(got[1:], old[1:]):
                    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    def test_rejections_in_constructor_order(self):
        grid = build_grid(-1.0, 1.0, 11)
        rho = mech.normalize_density(grid, np.ones(grid.n))
        rho[4], lam = np.nan, np.zeros(grid.n)
        lam[6] = np.inf
        with pytest.raises(InvalidStateError, match="^lam must be finite$"):
            mech._next_state(grid, rho.copy(), lam.copy(), slice(3, 8), slice(None), None, None)
        with pytest.raises(InvalidStateError, match=r"^density not normalised: h\*sum\(rho\) = nan$"):
            mech._next_state(grid, rho.copy(), np.zeros(grid.n), slice(3, 8), slice(None), None, None)


class TestStepWork:
    """Per-step work of the transport run loops: no whole-state validation,
    no grid object, one step of one run per step, one spec sample per window."""

    def _count(self, monkeypatch):
        calls = {"validate": 0, "build_grid": 0}

        def counting(name, real):
            def wrapped(*a, **kw):
                calls[name] += 1
                return real(*a, **kw)
            return wrapped

        monkeypatch.setattr(mech.HydroState, "__post_init__", counting("validate", mech.HydroState.__post_init__))
        monkeypatch.setattr(nx, "build_grid", counting("build_grid", nx.build_grid))
        return calls

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_transport_run(self, unit_mass_harmonic, monkeypatch, k):
        grid = build_grid(-1.4, 1.4, 401)
        q = grid.nodes
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 0.9) / (3 * grid.h)) ** 2))
        ens = mech.HydroState(grid, rho, 0.3 * q)
        calls, steps = self._count(monkeypatch), []
        real = mech._step
        monkeypatch.setattr(mech, "_step", lambda run, *a: steps.append(run) or real(run, *a))
        dt = 0.4 * grid.h
        mech.transport_run(ens, unit_mass_harmonic, k * dt, dt, support_floor=1e-6, observer=lambda t, rho, mass: None)
        assert calls == {"validate": 0, "build_grid": 0}
        assert len(steps) == k and all(r is steps[0] for r in steps)

    @pytest.mark.parametrize("mode", ["quantum-pole", "classical"])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_madelung_run(self, unit_mass_harmonic, monkeypatch, mode, k):
        state = _gaussian_state()
        calls, steps = self._count(monkeypatch), []
        name = "_pole_update" if mode == "quantum-pole" else "_step"
        real = getattr(hy, name)
        monkeypatch.setattr(hy, name, lambda run, *a: steps.append(run) or real(run, *a))
        dt = 0.2 * state.grid.h**2
        hy.madelung_run(unit_mass_harmonic, hy.DiffusionSpec(a=1.0, mode=mode), state, k * dt, dt)
        assert calls == {"validate": 0, "build_grid": 0}
        assert len(steps) == k and all(r is steps[0] for r in steps)

    @pytest.mark.parametrize("floor", [1e-6, None])
    def test_standalone_step_equals_run_step(self, monkeypatch, floor):
        spec = _spec("quartic", 1.3, 0.9, 0.2)
        grid = build_grid(-2.0, 2.0, 301)
        q = grid.nodes
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 0.4) / (4 * grid.h)) ** 2))
        ens = mech.HydroState(grid, rho, -0.7 * q)
        seen = []
        real = mech._step

        def recording(run, *a):
            out = real(run, *a)
            moved = run.moved  # the step's window: a run's S holds the step's values only there
            seen.append((a[1].copy(), out[0].copy(), moved, out[1][moved].copy()))
            return out

        monkeypatch.setattr(mech, "_step", recording)
        dt = 0.3 * grid.h
        out = mech.transport_run(ens, spec, 40 * dt, dt, support_floor=floor, observer=lambda t, rho, mass: None)
        monkeypatch.undo()  # the standalone steps below take _step too
        assert len(seen) == 40
        S = ens.lam  # the whole S of each step, from the standalone steps
        for rho, rho_run, moved, S_run in seen:
            rho_alone, S = mech.classical_transport_step(grid, rho, S, spec, dt, floor)
            assert np.array_equal(rho_alone, rho_run) and np.array_equal(S[moved], S_run)
            assert np.array_equal(np.signbit(S[moved]), np.signbit(S_run))
        assert np.array_equal(out.lam, S) and np.array_equal(np.signbit(out.lam), np.signbit(S))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=3, max_value=80), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_fill_writes_the_recorded_extension_outside_its_window(self, n, seed):
        # any later window, overlapping the recorded one or not, gets the
        # bits of the whole extension on its cells outside it, and no other cell changes
        rng = np.random.default_rng(seed)
        grid = build_grid(-rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), n)
        run = mech._RunContext(grid, mech.NaturalSystemSpec(mass=1.0, potential=lambda q: 0.0 * q), nodes=False)
        wlo, whi = sorted(rng.choice(n, size=2, replace=False).tolist())
        run.ext = wlo, whi, tuple(rng.normal(scale=5.0, size=3)), tuple(rng.normal(scale=5.0, size=3))
        whole = np.full(n, np.nan)
        run.fill(whole, 0, n - 1)
        assert np.isnan(whole[wlo : whi + 1]).all() and not np.isnan(np.delete(whole, range(wlo, whi + 1))).any()
        lo, hi = sorted(rng.integers(0, n, size=2).tolist())
        S = np.full(n, np.nan)
        run.fill(S, lo, hi)
        want = np.full(n, np.nan)
        want[lo : hi + 1] = whole[lo : hi + 1]
        assert np.array_equal(S, want, equal_nan=True)
        assert np.array_equal(np.signbit(S), np.signbit(want))

    def test_window_samples_once_per_window(self, monkeypatch):
        # a supported run shaped like the benchmark's classical scenarios
        # samples V on a window only when the window differs from the
        # previous step's, and then on that window's nodes
        sampled = []
        spec = mech.NaturalSystemSpec(mass=1.0, potential=lambda q: sampled.append(np.size(q)) or 0.5 * np.square(q))
        grid = build_grid(-1.4, 1.4, 1401)
        q = grid.nodes
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 1.0) / (3 * grid.h)) ** 2))
        ens = mech.HydroState(grid, rho, np.zeros(grid.n))
        windows = []
        real = mech._step

        def recording(run, *a):
            out = real(run, *a)
            windows.append(run.moved)
            return out

        monkeypatch.setattr(mech, "_step", recording)
        dt = 0.4 * grid.h
        mech.transport_run(ens, spec, 157 * dt, dt, support_floor=1e-6, observer=lambda t, rho, mass: None)
        assert len(windows) == 157
        moved = sum(w != v for v, w in zip(windows, windows[1:]))
        assert len(sampled) == 1 + moved and len(sampled) < len(windows) // 2
        assert sampled == [w.stop - w.start for w, v in zip(windows, [None] + windows) if w != v]

    def test_extension_written_once_per_run(self, unit_mass_harmonic, monkeypatch):
        # 200 supported steps write S outside their windows in about one
        # grid's worth of cells, not one grid per step
        grid = build_grid(-1.4, 1.4, 1401)
        q = grid.nodes
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 1.0) / (3 * grid.h)) ** 2))
        ens = mech.HydroState(grid, rho, np.zeros(grid.n))
        written = []
        real = mech._extend
        monkeypatch.setattr(mech, "_extend", lambda out, *a: written.append(out.size) or real(out, *a))
        dt = 0.4 * grid.h
        mech.transport_run(ens, unit_mass_harmonic, 200 * dt, dt, support_floor=1e-6,
                           observer=lambda t, rho, mass: None)
        assert 0 < sum(written) <= 2 * grid.n


# -- RK4 on Python floats -----------------------------------------------------


class TestRk4:
    """The reference form itself."""

    def test_zero_field_fixed_point(self):
        y = np.array([1.0, -2.0])
        out = rk4_step(lambda s: np.zeros_like(s), y, 0.3)
        assert np.array_equal(out, y)

    def test_exponential_growth(self):
        out = rk4_step(lambda s: s, np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(np.exp(0.1), abs=1e-7)

    def test_fourth_order_convergence(self):
        # halving dt cuts the one-period error by 16 (up to 20%)
        def err(dt):
            y = np.array([1.0, 0.0])
            f = lambda s: np.array([s[1], -s[0]])
            n = int(round(2 * np.pi / dt))
            for _ in range(n):
                y = rk4_step(f, y, 2 * np.pi / n)
            return np.hypot(y[0] - 1.0, y[1])

        ratio = err(0.02) / err(0.01)
        assert 16 * 0.8 <= ratio <= 16 * 1.2

    def test_nonfinite_derivative_raises(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericalFailureError):
                rk4_step(lambda s: s / 0.0, np.array([1.0]), 0.1)


def _spin_outcome(run, *args):
    """(observed (t, p, lam) after each step, final (p, lam) or the error)."""
    seen = []
    try:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = run(*args, lambda t, p, lam: seen.append((t, p.copy(), lam.copy())))
    except NumericalFailureError as exc:
        return seen, (type(exc), str(exc), getattr(exc, "location", None), exc.diagnostics)
    return seen, out


def _assert_same_spin(new, old):
    (seen_new, end_new), (seen_old, end_old) = new, old
    assert len(seen_new) == len(seen_old)
    for (t1, p1, l1), (t2, p2, l2) in zip(seen_new, seen_old):
        assert t1 == t2 and np.array_equal(p1, p2) and np.array_equal(l1, l2)
    if isinstance(end_old[0], type):
        assert end_new == end_old
    else:
        assert np.array_equal(end_new[0], end_old[0]) and np.array_equal(end_new[1], end_old[1])


def _exchange(theta, a=1.0, b=-1.0):
    """Two levels, U = [[0, 1], [1, 0]]: the spin_rabi system."""
    return ds.SpinSystemSpec(U=np.ones((2, 2)) - np.eye(2), theta=np.array([[0.0, theta], [-theta, 0.0]]), a=a, b=b)


def _random_spin(seed, n, a, b):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(n, n))
    theta = rng.normal(size=(n, n))
    theta = 0.5 * (theta - theta.T)
    np.fill_diagonal(theta, 0.0)
    spec = ds.SpinSystemSpec(U=0.5 * (U + U.T), theta=theta, a=a, b=b)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return spec, ds.polar_decompose(ds.SpinState(psi / np.linalg.norm(psi)), a)


def rhs_index_order(spec, p, lam):
    """The local right-hand side with each row summed in index order from its
    first term (BLAS and numpy's pairwise sums group the terms otherwise)."""
    n, k = spec.n, 2.0 * spec.b / spec.a
    sq = [math.sqrt(x) for x in p]
    dp, dlam = [], []
    for i in range(n):
        e = [(lam[i] - lam[j] + spec.theta[i, j]) / spec.a for j in range(n)]
        c, s = spec.U[i, 0] * math.cos(e[0]) * sq[0], spec.U[i, 0] * math.sin(e[0]) * sq[0]
        for j in range(1, n):
            c = c + spec.U[i, j] * math.cos(e[j]) * sq[j]
            s = s + spec.U[i, j] * math.sin(e[j]) * sq[j]
        dlam.append(spec.b * c / sq[i])
        dp.append(k * sq[i] * s)
    return np.array(dp), np.array(dlam)


def _ulps(new, old, scale):
    return float(np.max(np.abs(new - old) / np.spacing(scale)))


def rk4_rounding_bound(spec, p, lam, dt, floor):
    """First-order bound, per component, on how far two double evaluations of
    one local-form RK4 step can land apart when they differ only as
    ``local_form_step`` and ``local_form_step_ref`` do.

    Both run the same operations in the same order except inside each rhs
    row: the n terms U_ab cos(e_ab) sqrt(p_b) (and the sin row) are grouped
    differently (index order against the BLAS product, which may fuse), and
    math's cos/sin against numpy's.  So at one input the two rhs values
    differ by at most gamma F: F is the row's sum of |terms| times |b|/sqrt(p_a)
    or |2b/a| sqrt(p_a), and gamma = (n + 7) eps covers n - 1 additions, the
    two products, 4 ulp for each cos/sin and the last two operations.  A stage
    difference delta moves the next stage's rhs by |J| (c dt delta), J the
    rhs Jacobian (central differences here), and each stage input rounds on
    its own (eps |y_s|); the final combination adds 2 eps (|y| + dt/6 sum w|k|).
    Everything is evaluated in np.longdouble, along the extended-precision
    step; where longdouble is the same type as double (as on some
    platforms), that reference step is a double step.  Second-order terms
    are dropped.

    Measured over 70000 draws of ``test_random_levels_within_rounding_bound``'s
    domain: the two forms differ by at most 0.46 of this bound, and each lies
    within 0.25 of it of the longdouble step, so neither form is the less
    accurate one.  The bound is 3.4 ulp of max|y| at the median and reaches
    10^6 ulp where a population near the clamp makes dlam ~ 1/sqrt(p) and
    its Jacobian ~ p^(-3/2); the old fixed 4 ulp failed on 0.03% of draws.
    """
    L, eps, n = np.longdouble, np.finfo(float).eps, spec.n
    U, theta, a, b = spec.U.astype(L), spec.theta.astype(L), L(spec.a), L(spec.b)
    k, clamp = 2 * b / a, L(floor) * L(1e-3)

    def rhs(y):
        sq = np.sqrt(np.maximum(y[:n], clamp))
        eta = (y[n:, None] - y[None, n:] + theta) / a
        return np.concatenate([k * sq * ((U * np.sin(eta)) @ sq), b * ((U * np.cos(eta)) @ sq) / sq])

    def size(y):
        sq = np.sqrt(np.maximum(y[:n], clamp))
        row = np.abs(U) @ sq
        return np.concatenate([abs(k) * sq * row, abs(b) * row / sq])

    def jac(y):
        cols = []
        for j in range(2 * n):
            e = np.zeros(2 * n, dtype=L)
            e[j] = L(1e-7) * max(abs(y[j]), L(1e-6))
            cols.append((rhs(y + e) - rhs(y - e)) / (2 * e[j]))
        return np.abs(np.column_stack(cols))

    y, dt = np.concatenate([p, lam]).astype(L), L(dt)
    ks, bs = [], []
    for c in (None, L(0.5), L(0.5), L(1)):
        ys = y if c is None else y + c * dt * ks[-1]
        ks.append(rhs(ys))
        bs.append((n + 7) * eps * size(ys) + (0 if c is None else jac(ys) @ (c * dt * bs[-1] + eps * np.abs(ys))))
    w = (1, 2, 2, 1)
    inc = sum(wi * np.abs(ki) for wi, ki in zip(w, ks))
    return (dt / 6 * sum(wi * bi for wi, bi in zip(w, bs)) + 2 * eps * (np.abs(y) + dt / 6 * inc)).astype(float)


def local_form_step_at(spec, p, lam, dt, floor):
    """``local_form_step`` with the floor ``floor``: one step of a run."""
    run = ds._LocalFormRun(spec, dt, floor)
    p, lam = run.step(*run.start(p, lam))
    return np.array(p), np.array(lam)


def _step_or_rejection(step, *args):
    try:
        return np.concatenate(step(*args))
    except StepRejectedError as exc:
        return exc


A_B_DT = dict(
    a=st.floats(min_value=0.3, max_value=3.0),
    b=st.floats(min_value=-2.0, max_value=2.0),
    dt=st.floats(min_value=1e-4, max_value=5e-2),
)


class TestLocalFormStep:
    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(min_value=-3.0, max_value=3.0), seed=st.integers(min_value=0, max_value=2**32 - 1),
           floor=st.sampled_from([1e-9, 1e-6, 1e-3]), **A_B_DT)
    def test_two_level_exchange_runs_bitwise(self, theta, seed, floor, a, b, dt):
        spec = _exchange(theta, a, b)
        _, (p, lam) = _random_spin(seed, 2, a, b)
        new = _spin_outcome(ds.local_form_run, spec, p, lam, 80 * dt, dt, floor)
        old = _spin_outcome(local_form_run_ref, spec, p, lam, 80 * dt, dt, floor)
        _assert_same_spin(new, old)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=3, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1), **A_B_DT)
    @example(n=5, seed=81, a=0.5, b=1.0, dt=0.046875)  # 6 ulp of max|y| apart: 0.11 of the bound
    @example(n=3, seed=2343, a=0.47451267988423673, b=-1.5, dt=0.04710716534043634)  # 7 ulp: 0.07
    @example(n=4, seed=82, a=0.5, b=2.0, dt=0.03125)  # leaves the valid region: both reject
    def test_random_levels_within_rounding_bound(self, n, seed, a, b, dt):
        spec, (p, lam) = _random_spin(seed, n, a, b)
        p = np.maximum(p, 1e-6)
        # the summation order is pinned exactly ...
        dp, dlam = run_rhs(spec, p, lam)
        dp_i, dlam_i = rhs_index_order(spec, p, lam)
        assert np.array_equal(dp, dp_i) and np.array_equal(dlam, dlam_i)
        assert np.array_equal(np.signbit(dp), np.signbit(dp_i))
        # ... and differs from the matrix products only in how the terms are grouped
        dp_ref, dlam_ref = local_form_rhs_ref(spec, p, lam)
        eta = lam[:, None] - lam[None, :] + spec.theta
        sq = np.sqrt(p)
        cos_abs, sin_abs = np.abs(spec.U * np.cos(eta / a)) @ sq, np.abs(spec.U * np.sin(eta / a)) @ sq
        assert _ulps(dlam, dlam_ref, abs(b) * cos_abs / sq) <= 4
        assert _ulps(dp, dp_ref, abs(2.0 * b / a) * sq * sin_abs) <= 4
        # the step amplifies those rhs differences by up to dt times its
        # Jacobian, so it is held to the derived rounding bound, not to 4 ulp
        new = _step_or_rejection(local_form_step_at, spec, p, lam, dt, 1e-7)
        old = _step_or_rejection(local_form_step_ref, spec, p, lam, dt, 1e-7)
        bound = rk4_rounding_bound(spec, p, lam, dt, 1e-7)
        if isinstance(old, StepRejectedError) or isinstance(new, StepRejectedError):
            # both reject at the same population (only a population within
            # the bound of the floor could split them); p_min may differ
            # within the bound
            assert (type(new), str(new), new.location) == (type(old), str(old), old.location)
            assert abs(new.diagnostics["p_min"] - old.diagnostics["p_min"]) <= bound[:n].max()
        else:
            assert np.all(np.abs(new - old) <= bound)

    def test_pinned_rejection_is_identical(self):
        # a falsifying draw of the old 4-ulp property: the step drains p_1 to
        # -1.36e-3 and both forms reject it with the same bits
        spec, (p, lam) = _random_spin(82, 4, 0.5, 2.0)
        args = (spec, np.maximum(p, 1e-6), lam, 0.03125, 1e-7)
        new, old = _step_or_rejection(local_form_step_at, *args), _step_or_rejection(local_form_step_ref, *args)
        assert isinstance(new, StepRejectedError) and new.location == 1
        assert (str(new), new.location, new.diagnostics) == (str(old), old.location, old.diagnostics)
        assert type(new) is type(old)

    def test_zero_rows_keep_their_sign(self):
        # every sin term is -0.0: summed from the first term the row is -0.0,
        # where a sum started at 0.0 (numpy's matrix product) gives +0.0
        spec = ds.SpinSystemSpec(U=-np.ones((2, 2)), theta=np.zeros((2, 2)), a=1.0, b=1.0)
        p, lam = np.array([0.5, 0.5]), np.array([0.3, 0.3])
        dp, _ = run_rhs(spec, p, lam)
        assert np.signbit(dp).all() and not np.signbit(local_form_rhs_ref(spec, p, lam)[0]).any()
        p_new, lam_new = ds.local_form_step(spec, p, lam, 1e-3)
        p_ref, lam_ref = local_form_step_ref(spec, p, lam, 1e-3)
        assert np.array_equal(p_new, p_ref) and np.array_equal(lam_new, lam_ref)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_standalone_step_equals_run_step(self, n):
        spec, (p, lam) = _random_spin(7 + n, n, 0.8, -1.3)
        run = ds._LocalFormRun(spec, 2e-3, ds.P_FLOOR)
        p1, l1 = p, lam
        p2, l2 = run.start(p, lam)
        for _ in range(25):
            p1, l1 = ds.local_form_step(spec, p1, l1, 2e-3)
            p2, l2 = run.step(p2, l2)
            assert np.array_equal(p1, p2) and np.array_equal(l1, l2)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, -1.0, 0.0, -0.0])
    def test_floor_must_be_finite_and_positive(self, floor):
        spec = _exchange(0.0)
        p, lam = np.array([0.5, 0.5]), np.zeros(2)
        with pytest.raises(InvalidArgumentError, match=r"floor must be finite and > 0"):
            ds.local_form_run(spec, p, lam, 0.01, 1e-3, floor=floor, observer=lambda t, p, lam: None)

    @pytest.mark.parametrize("p, lam, where", [
        ([0.5, 1e-10, 0.5 - 1e-10], [0.0, 0.0, 0.0], "before"),  # below the floor on entry
        ([np.nan, 1e-12, 1.0], [0.0, 0.0, 0.0], "before"),  # NaN is not below the floor; p_min is NaN
        ([1.0 - 2e-9, 2e-9], [0.0, 0.5], "after"),  # drained below the floor by the step
    ])
    def test_floor_rejection(self, p, lam, where):
        n = len(p)
        spec = ds.SpinSystemSpec(U=np.ones((n, n)) - np.eye(n), theta=np.zeros((n, n)), b=-1.0)
        new = _spin_outcome(ds.local_form_run, spec, np.array(p), np.array(lam), 1e-3, 1e-3, 1e-9)
        old = _spin_outcome(local_form_run_ref, spec, np.array(p), np.array(lam), 1e-3, 1e-3, 1e-9)
        assert new[0] == old[0] == []
        kind, message, location, diagnostics = new[1]
        assert (kind, message, location) == old[1][:3] == (
            StepRejectedError, "population below floor 1e-09 (leaving the valid region)", 1)
        assert diagnostics.keys() == {"p_min"}
        if where == "before":
            assert diagnostics == {"p_min": 1e-10} or math.isnan(diagnostics["p_min"])
        else:
            assert diagnostics == old[1][3] and diagnostics["p_min"] < 0.0

    @pytest.mark.parametrize("p, lam, floor", [
        ([np.nan, 0.5], [0.0, 0.0], 1e-9),  # passes the floor test, then poisons every stage
        ([0.5, 0.5], [np.inf, 0.0], 1e-9),  # cos(inf): numpy's nan, math's ValueError
        ([0.5, 0.5], [1e308, -1e308], 1e-9),  # lam_a - lam_b overflows to inf
        ([1.0, 1e-320], [0.0, 0.5], 1e-321),  # the clamp floor * 1e-3 underflows: a stage divides by sqrt(0)
    ])
    def test_nonfinite_derivative(self, p, lam, floor):
        spec = _exchange(0.0)
        new = _spin_outcome(ds.local_form_run, spec, np.array(p), np.array(lam), 1e-3, 1e-3, floor)
        old = _spin_outcome(local_form_run_ref, spec, np.array(p), np.array(lam), 1e-3, 1e-3, floor)
        assert new == old == ([], (NumericalFailureError, "non-finite derivative in local_form_step", None, {}))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidStateError, match="need 2 populations and phases, got 3 and 2"):
            ds.local_form_step(_exchange(0.0), np.full(3, 1 / 3), np.zeros(2), 1e-3)
        with pytest.raises(InvalidStateError, match="need 2 populations and phases, got 2 and 3"):
            ds.local_form_step(_exchange(0.0), np.full(2, 0.5), np.zeros(3), 1e-3)

    @pytest.mark.parametrize("levels", [2, 4])
    def test_benchmark_kernel_call(self, levels):
        # perfbench/kernels.py calls local_form_step with four positional arguments
        spec_ = importlib.util.spec_from_file_location("perfbench_kernels", ROOT / "perfbench" / "kernels.py")
        kernels = importlib.util.module_from_spec(spec_)
        spec_.loader.exec_module(kernels)
        fn, args = kernels._local_form(levels)
        p, lam = fn(*args)
        p_ref, lam_ref = local_form_step_ref(*args)
        y_ref = np.concatenate([p_ref, lam_ref])
        assert _ulps(np.concatenate([p, lam]), y_ref, np.max(np.abs(y_ref))) <= (0 if levels == 2 else 4)

    def test_run_spin_rows_as_from_returned_arrays(self):
        # the observer gets float lists; the populations table must hold the
        # rows that returned arrays give it, step by one-step run
        sc = parse_scenario((ROOT / "configs" / "spin_rabi.cfg").read_text(), "spin_rabi")
        rows = runners.run_scenario_object(sc).series["populations"].rows
        spec, run = runners._spin_spec(sc, np.random.default_rng(sc.seed)), sc.params["run"]
        start, _ = ds._propagator(spec, ds.SpinState(np.eye(2, dtype=complex)[0]))([run["t_start"]])
        p, lam = ds.polar_decompose(ds.SpinState(start[0]), spec.a)
        want, t = [(run["t_start"], *p)], 0.0
        n_steps, dt = nx._uniform_steps(run["t_final"], run["dt"])
        for _ in range(n_steps):
            p, lam = local_form_step_at(spec, p, lam, dt, run["p_floor"])
            t += dt
            want.append((run["t_start"] + t, *p))
        assert rows.tobytes() == np.asarray(want).tobytes()


# -- the De Donder-Weyl leapfrog ----------------------------------------------
#
# ``ddw_evolve`` steps in place on the buffers of one ``covariant._Leapfrog``
# per run, and ``run_ddw`` takes its conservation series from one tensor
# evaluation over the stacked snapshots.  The allocating forms they replaced:


def lap_ref(f, dx):
    """Periodic 3-point Laplacian."""
    fp = np.concatenate((f[-1:], f, f[:1]))  # fp[i + 1] = f[i]
    return (fp[2:] - 2.0 * f + fp[:-2]) / (dx * dx)


def accel_ref(spec, q, dx):
    return spec.eta * lap_ref(q, dx) - spec.dv_at(q)


def ddw_evolve_ref(spec, state, dt, n_steps):
    dx = state.x_grid.dx
    if dt > dx:
        raise StepRejectedError(f"CFL violation: dt = {dt:g} > dx = {dx:g}")
    q = state.q.copy()
    pi0 = state.pi0.copy()
    acc = accel_ref(spec, q, dx)
    for _ in range(n_steps):
        pi_half = pi0 + 0.5 * dt * acc
        q = q + dt * pi_half / spec.eta
        acc = accel_ref(spec, q, dx)
        pi0 = pi_half + 0.5 * dt * acc
    out = cv.FieldState1p1(state.x_grid, q, pi0)
    object.__setattr__(out, "time", state.time + n_steps * dt)
    return out


def ddw_evolve_series_ref(spec, state, dt, n_steps, store_every=1):
    snaps = [state]
    done = 0
    while done < n_steps:
        chunk = min(store_every, n_steps - done)
        snaps.append(ddw_evolve_ref(spec, snaps[-1], dt, chunk))
        done += chunk
    return (np.asarray([s.time for s in snaps]), np.asarray([s.q for s in snaps]),
            np.asarray([s.pi0 for s in snaps]), snaps[-1])


def energy_momentum_ref(spec, state):
    dx = state.x_grid.dx
    w0 = state.pi0 / spec.eta
    w1c = cv._d1(state.q, dx)
    v = spec.v_at(state.q)
    lag = 0.5 * spec.eta * (w0 * w0 - w1c * w1c) - v
    T = np.empty((state.x_grid.n, 2, 2))
    T[:, 0, 0] = spec.eta * w0 * w0 - lag
    T[:, 0, 1] = spec.eta * w0 * w1c
    T[:, 1, 0] = -spec.eta * w1c * w0
    T[:, 1, 1] = -spec.eta * w1c * w1c - lag
    return T


def conservation_ref(spec, grid, qs, pis):
    """run_ddw's energy and momentum series, one snapshot at a time."""
    energies = np.empty(len(qs))
    momenta = np.empty(len(qs))
    for i in range(len(qs)):
        T = energy_momentum_ref(spec, cv.FieldState1p1(grid, qs[i], pis[i]))
        energies[i] = grid.dx * float(np.sum(T[:, 0, 0]))
        momenta[i] = grid.dx * float(np.sum(T[:, 0, 1]))
    return energies, momenta


def _field_spec(eta, m, quartic, grad="closed"):
    """Klein-Gordon plus a quartic term; ``grad`` "closed" gives V' in closed
    form, "identity" a V' that returns its argument (it aliases the q it
    is handed)."""
    grads = {"closed": lambda q: m * m * q + 4.0 * quartic * q**3, "identity": lambda q: q}
    return cv.FieldLagrangianSpec(eta, potential=lambda q: 0.5 * m * m * q * q + quartic * q**4,
                                  potential_grad=grads[grad])


def _random_field(seed, n):
    rng = np.random.default_rng(seed)
    grid = cv.PeriodicGrid1D(n * rng.uniform(0.02, 0.2), n)
    amp = rng.uniform(0.01, 1.0, size=2)
    state = cv.FieldState1p1(grid, amp[0] * rng.standard_normal(n), amp[1] * rng.standard_normal(n))
    object.__setattr__(state, "time", 0.25)
    return state


DDW_DRAWS = dict(
    n=st.integers(min_value=3, max_value=600),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cfl=st.floats(min_value=0.05, max_value=1.0),
    eta=st.floats(min_value=0.3, max_value=3.0),
    m=st.floats(min_value=0.0, max_value=2.0),
    quartic=st.floats(min_value=0.0, max_value=1.0),
    n_steps=st.integers(min_value=1, max_value=60),
    store_every=st.integers(min_value=1, max_value=25),
)


def _ddw_outcome(run, *args):
    """The run's result, or the type and message of what it raised: a stiff
    quartic field can blow up, and must then fail as the reference did."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return run(*args)
        except (InvalidSpecError, InvalidStateError) as exc:
            return type(exc), str(exc)


def _assert_same_state(new, old):
    assert np.array_equal(new.q, old.q) and np.array_equal(new.pi0, old.pi0) and new.time == old.time


def _assert_same_series(new, old):
    assert isinstance(new[0], type) == isinstance(old[0], type)
    if isinstance(old[0], type):
        assert new == old
        return
    for a, b in zip(new[:3], old[:3]):
        assert np.array_equal(a, b)
    _assert_same_state(new[3], old[3])


class TestDdwLeapfrog:
    @settings(max_examples=60, deadline=None)
    @given(grad=st.sampled_from(["closed", "identity"]), **DDW_DRAWS)
    def test_series_bitwise(self, grad, n, seed, cfl, eta, m, quartic, n_steps, store_every):
        spec = _field_spec(eta, m, quartic, grad)
        state = _random_field(seed, n)
        dt = cfl * state.x_grid.dx
        new = _ddw_outcome(cv.ddw_evolve_series, spec, state, dt, n_steps, store_every)
        _assert_same_series(new, _ddw_outcome(ddw_evolve_series_ref, spec, state, dt, n_steps, store_every))

    @settings(max_examples=30, deadline=None)
    @given(**DDW_DRAWS)
    def test_returned_states_are_copies(self, n, seed, cfl, eta, m, quartic, n_steps, store_every):
        # chunks of one run: no state handed out changes as the run steps on
        spec = _field_spec(eta, m, quartic, "identity")
        state = _random_field(seed, n)
        dt = cfl * state.x_grid.dx
        run = cv._Leapfrog(spec, state)
        states, kept = [state], [(state.q.copy(), state.pi0.copy())]
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for _ in range(1 + n_steps // store_every):
                    states.append(run.advance(states[-1], dt, store_every))
                    kept.append((states[-1].q.copy(), states[-1].pi0.copy()))
            except InvalidStateError:
                pass  # a field that blew up; the states before it must still hold
        for s, (q, pi0) in zip(states, kept):
            assert not np.shares_memory(s.q, run.qp) and not np.shares_memory(s.pi0, run.pi0)
            assert np.array_equal(s.q, q) and np.array_equal(s.pi0, pi0)

    @settings(max_examples=30, deadline=None)
    @given(**DDW_DRAWS)
    def test_standalone_call_is_the_series_end(self, n, seed, cfl, eta, m, quartic, n_steps, store_every):
        spec = _field_spec(eta, m, quartic)
        state = _random_field(seed, n)
        dt = cfl * state.x_grid.dx
        end = _ddw_outcome(cv.ddw_evolve, spec, state, dt, n_steps)
        ref = _ddw_outcome(ddw_evolve_ref, spec, state, dt, n_steps)
        series = _ddw_outcome(cv.ddw_evolve_series, spec, state, dt, n_steps, store_every)
        if isinstance(ref, tuple):
            assert end == ref == series
            return
        _assert_same_state(end, ref)
        last = series[3]  # the series sums its time chunk by chunk
        assert np.array_equal(end.q, last.q) and np.array_equal(end.pi0, last.pi0)
        assert end.time == pytest.approx(last.time, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=3, max_value=1100), snaps=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2**32 - 1), eta=st.floats(min_value=0.3, max_value=3.0),
           m=st.floats(min_value=0.0, max_value=2.0), quartic=st.floats(min_value=0.0, max_value=1.0))
    def test_stacked_conservation_rows(self, n, snaps, seed, eta, m, quartic):
        spec = _field_spec(eta, m, quartic)
        rng = np.random.default_rng(seed)
        grid = cv.PeriodicGrid1D(float(rng.uniform(0.5, 20.0)), n)
        qs, pis = rng.standard_normal((2, snaps, n)) * 10.0 ** rng.uniform(-3, 1, size=(2, snaps, 1))
        t00, t01 = cv._tensor(spec, qs, pis, grid.dx)[:2]
        energies, momenta = grid.dx * np.sum(t00, axis=1), grid.dx * np.sum(t01, axis=1)
        e_ref, p_ref = conservation_ref(spec, grid, qs, pis)
        assert np.array_equal(energies, e_ref) and np.array_equal(momenta, p_ref)
        states = [cv.FieldState1p1(grid, q, pi) for q, pi in zip(qs, pis)]
        assert np.array_equal(energies, [cv.total_energy(spec, s) for s in states])
        assert np.array_equal(momenta, [cv.total_momentum(spec, s) for s in states])
        for s in states:
            assert np.array_equal(cv.energy_momentum(spec, s), energy_momentum_ref(spec, s))

    def test_run_ddw_series_bitwise(self):
        # the whole runner against the allocating leapfrog and the per-snapshot loop
        sc = parse_scenario(DDW_CFG.format(eta=1.3, n_steps=700), "scenario")
        rows = runners.run_scenario_object(sc).series["conservation"].rows
        spec = _field_spec(1.3, 0.7, 0.0)
        grid = cv.PeriodicGrid1D(5.0, 96)
        k = 2 * np.pi * 2 / 5.0
        omega = np.sqrt(k * k + 0.7**2 / 1.3)
        st0 = cv.FieldState1p1(grid, 0.05 * np.cos(k * grid.nodes), 0.05 * omega * np.sin(k * grid.nodes) * 1.3)
        times, qs, pis, _ = ddw_evolve_series_ref(spec, st0, 0.004, 700, store_every=3)
        e_ref, p_ref = conservation_ref(spec, grid, qs, pis)
        assert np.array_equal(rows, np.column_stack([times, e_ref, p_ref]))

    def test_acceleration_evaluations(self):
        # n_steps + 1 evaluations of V' per run, whatever the chunking
        calls = []
        spec = cv.FieldLagrangianSpec(1.0, potential=lambda q: 0.5 * q * q,
                                      potential_grad=lambda q: calls.append(1) or q.copy())
        state = _random_field(2, 64)
        cv.ddw_evolve_series(spec, state, 0.5 * state.x_grid.dx, 103, store_every=5)
        assert len(calls) == 104

    @pytest.mark.parametrize("cells, n_steps, error, message, v_calls", [
        (1.5, 10, StepRejectedError, "CFL violation: dt = 0.589049 > dx = 0.392699", 1),
        (np.nan, 10, InvalidArgumentError, "dt must be finite and > 0, got nan", 0),
        (0.0, 10, InvalidArgumentError, "dt must be finite and > 0, got 0.0", 0),
        (0.5, 2.5, InvalidArgumentError, "n_steps must be an integer >= 1 and <= 1000000, got 2.5", 0),
        (0.5, True, InvalidArgumentError, "n_steps must be an integer >= 1 and <= 1000000, got True", 0),
        (1.5, 2.5, InvalidArgumentError, "n_steps must be an integer >= 1 and <= 1000000, got 2.5", 0),
    ])
    def test_series_checks_once_as_each_chunk_did(self, cells, n_steps, error, message, v_calls):
        # checked once per series, with the classes, messages and V'
        # evaluations before the error that a check in every chunk gave
        calls = []
        spec = cv.FieldLagrangianSpec(1.0, potential=lambda q: 0.5 * q * q,
                                      potential_grad=lambda q: calls.append(1) or q)
        grid = cv.PeriodicGrid1D(2 * np.pi, 16)
        state = cv.FieldState1p1(grid, np.cos(grid.nodes), np.sin(grid.nodes))
        with pytest.raises(error) as exc:
            cv.ddw_evolve_series(spec, state, cells * grid.dx, n_steps, 3)
        assert str(exc.value) == message and len(calls) == v_calls

    @pytest.mark.parametrize("bad_step, store_every", [(1, 1), (7, 3), (9, 3), (20, 5), (30, 4)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_force_fails_at_its_chunk(self, monkeypatch, bad_step, store_every, value):
        # V' turns non-finite from step bad_step on; the chunk holding that
        # step fails as a FieldState1p1 of its field would
        calls = []

        def grad(q):
            calls.append(1)
            out = q.copy()
            if len(calls) > bad_step:  # the first call is the run's set-up
                out[2] = value
            return out

        spec = cv.FieldLagrangianSpec(1.0, potential=lambda q: 0.5 * q * q, potential_grad=grad)
        state = _random_field(4, 32)
        chunks, real = [], cv._Leapfrog.advance
        monkeypatch.setattr(cv._Leapfrog, "advance", lambda run, st, dt, n: chunks.append(n) or real(run, st, dt, n))
        with np.errstate(invalid="ignore"), pytest.raises(InvalidStateError, match=r"^field values must be finite$"):
            cv.ddw_evolve_series(spec, state, 0.5 * state.x_grid.dx, 30, store_every)
        assert len(chunks) == -(-bad_step // store_every) and len(calls) == 1 + sum(chunks)


DDW_CFG = """
[scenario]
regime = ddw

[grid]
length = 5.0
n = 96

[system]
eta = {eta}
kg_mass = 0.7

[initial]
k_mode = 2
amplitude = 0.05

[run]
dt = 0.004
n_steps = {n_steps}
"""


# -- the linear run loops -----------------------------------------------------


def run_schrodinger_ref(sc):
    """``runners.run_schrodinger``'s loop over ``CayleyPropagator.step(psi)``
    on the interior and ``wavefunction._expected_energy``, each applying H
    itself, with the moments taken from psi as the runner took them; returns
    the rows, the final variance and the two drifts."""
    p = sc.params
    spec = runners._mech_spec(sc)
    grid = runners._grid_from(sc)
    q = grid.nodes
    a = p["system"]["a"]

    def variance(psi):
        dens = np.abs(psi) ** 2
        mean = grid.h * float(np.sum(dens * q))
        return grid.h * float(np.sum(dens * (q - mean) ** 2))

    def row(t, psi, norm_drift, energy_drift):
        return t, grid.h * float(np.sum(np.abs(psi) ** 2 * q)), variance(psi), norm_drift, energy_drift

    psi0 = (np.exp(-((q - p["initial"]["center"]) ** 2) / (4 * p["initial"]["sigma"] ** 2))
            * np.exp(1j * p["initial"]["momentum"] * q / a))
    psi = wv.WaveFunction(grid, wv.normalize_wavefunction(grid, psi0), a).psi.copy()
    n_steps, dt = nx._uniform_steps(p["run"]["t_final"], p["run"]["dt"])
    op = wv.schrodinger_operator(spec, grid, a)
    prop = nx.CayleyPropagator(op, dt, a)

    def energy(psi):
        return wv._expected_energy(grid.h, psi, op.apply(psi[1:-1]))

    e0 = energy(psi)
    rows = [row(0.0, psi, 0.0, 0.0)]
    norm_drift = energy_drift = 0.0
    for k in range(n_steps):
        psi = np.pad(prop.step(psi[1:-1]), 1)
        norm_drift = max(norm_drift, abs(grid.h * float(np.sum(np.abs(psi) ** 2)) - 1.0))
        energy_drift = max(energy_drift, abs(energy(psi) - e0) / max(abs(e0), 1e-300))
        if (k + 1) % max(1, n_steps // 64) == 0:
            rows.append(row((k + 1) * dt, psi, norm_drift, energy_drift))
    return np.asarray(rows), variance(psi), norm_drift, energy_drift


SCHRODINGER_CFG = """
[scenario]
regime = schrodinger
[grid]
q_min = -14.0
q_max = 14.0
n = {n}
[system]
mass = {mass}
a = {a}
[potential]
{potential}
[initial]
sigma = {sigma}
center = {center}
momentum = {momentum}
[run]
t_final = {t_final}
dt = 0.002
"""


class TestSchrodingerRun:
    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([281, 700, 1401]), mass=st.floats(0.8, 1.25), a=st.floats(0.8, 1.25),
           k=st.one_of(st.none(), st.floats(0.6, 1.4)), sigma=st.floats(0.8, 1.2),
           center=st.floats(-1.0, 1.0), momentum=st.floats(0.0, 2.0), t_final=st.floats(0.002, 0.3))
    def test_moments_bitwise(self, n, mass, a, k, sigma, center, momentum, t_final):
        potential = "kind = free" if k is None else f"kind = harmonic\nk = {k!r}"
        sc = parse_scenario(SCHRODINGER_CFG.format(n=n, mass=repr(mass), a=repr(a), potential=potential,
                                                   sigma=repr(sigma), center=repr(center),
                                                   momentum=repr(momentum), t_final=repr(t_final)), "scenario")
        rows, variance, norm_drift, energy_drift = run_schrodinger_ref(sc)
        report = runners.run_scenario_object(sc)
        assert np.array_equal(report.series["moments"].rows, rows)
        assert report.scalars["final_variance"] == variance
        assert {c.name: c.value for c in report.invariants} == {"norm_drift_per_run": norm_drift,
                                                                 "energy_drift_rel": energy_drift}


def confined_solve_ref(spec, vac, c, r_min, r_max, tol=1e-8, n_r=1200):
    """``quantum_fields.confined_solve`` as it was before the sweep evaluated
    its log source on the active box into per-solve buffers: every sweep
    rebuilds the whole-grid ``active`` mask and gathers and scatters through
    it, and every product allocates."""
    c = np.asarray(c, dtype=float)
    if c.size < 1 or abs(c[0] - 1.0) > 0:
        raise InvalidArgumentError("mode coefficients must start with c0 = 1")
    if c.size > vac.w.size:
        raise InvalidArgumentError("more coefficients than available modes")
    if not (0 < r_min < r_max):
        raise InvalidArgumentError("need 0 < r_min < r_max")
    K = vac.w.size
    cs = np.zeros(K)
    cs[: c.size] = c
    f = spec.f
    dw = vac.w - vac.w[0]
    r = np.geomspace(r_min, r_max, n_r)
    psi_mat = vac.psi
    h = vac.grid.h
    psi0 = psi_mat[:, 0]
    qmask = nx._support_mask(np.abs(psi0), qf._PSI0_FLOOR)
    source_r_start = max(r_min, f / dw[1]) if K > 1 else r_min
    rmask = r >= source_r_start
    resid_window = (r_min + 0.5 * (r_max - r_min), r_max)
    if resid_window[0] < source_r_start:
        raise InvalidArgumentError("r_max too small: the residual window must start at or after f/(w1 - w0)")
    rw = (r >= resid_window[0]) & (r <= resid_window[1])

    A0 = cs[:, None] * np.exp(-np.outer(dw, r) / f)
    At0 = np.zeros_like(A0)
    At0[0, :] = cs[0]

    def fields(A, At):
        return psi_mat @ A, psi_mat @ At

    def log_source(phi, phi_tilde):
        active = qmask[:, None] & rmask[None, :]
        bad = active & ((phi <= 0.0) | (phi_tilde <= 0.0))
        if np.any(bad):
            iq, ir = np.argwhere(bad)[0]
            raise NumericalFailureError(
                "conjugate pair lost positivity",
                diagnostics={"q": float(vac.grid.nodes[iq]), "r": float(r[ir])},
            )
        L = np.zeros_like(phi)
        L[active] = np.log(phi[active] / phi_tilde[active])
        return L

    def project(field):
        return h * (psi_mat.T @ field)

    def residual_max(P_prev, P_new, C, Pt_prev, Pt_new, Ct):
        R = (f / r)[None, :] * (P_prev - P_new) - dw[:, None] * C
        Rt = (f / r)[None, :] * (Pt_prev - Pt_new) - dw[:, None] * Ct
        r_field = psi_mat @ R
        rt_field = psi_mat @ Rt
        sub = np.ix_(qmask, rw)
        return max(float(np.max(np.abs(r_field[sub]))), float(np.max(np.abs(rt_field[sub]))))

    A, At = A0.copy(), At0.copy()
    phi, phi_tilde = fields(A, At)
    L = log_source(phi, phi_tilde)
    P = project(L * phi)
    Pt = project(L * phi_tilde)
    resid = residual_max(np.zeros_like(P), P, np.zeros_like(P), np.zeros_like(Pt), Pt, np.zeros_like(Pt))
    history = [resid]
    mode_history = [(A.copy(), At.copy())]
    converged = resid < tol and not np.any(cs[1:])
    iterations = 0

    while not converged and iterations < qf._MAX_ITER:
        C = qf._reverse_cumtrapz(P / r[None, :], r)
        Ct = -qf._reverse_cumtrapz(Pt / r[None, :], r)
        A_new = A0 + C
        At_new = At0 + Ct
        phi_new, phit_new = fields(A_new, At_new)
        L_new = log_source(phi_new, phit_new)
        P_new = project(L_new * phi_new)
        Pt_new = project(L_new * phit_new)
        resid_new = residual_max(P, P_new, C, Pt, Pt_new, Ct)
        if resid_new > max(history[-1] * (1.0 + 1e-12), tol):
            break
        change = max(float(np.max(np.abs(A_new - A))), float(np.max(np.abs(At_new - At))))
        A, At = A_new, At_new
        P, Pt = P_new, Pt_new
        history.append(resid_new)
        mode_history.append((A.copy(), At.copy()))
        iterations += 1
        if resid_new < tol and change < qf._CHANGE_TOL:
            converged = True
    if not converged and history[-1] < tol:
        converged = True
    if not converged:
        raise NumericalFailureError(
            "confined solve did not reach tolerance (max-iterations)",
            diagnostics={"residual_history": history},
        )
    phi, phi_tilde = fields(A, At)
    pair = qf.RadialPair(vac.grid, r, phi, phi_tilde)
    return qf.ConfinedSolveResult(pair, history, iterations, mode_history)


def _confined_outcome(solve, *args):
    """The solve's result, or the class, message and diagnostics it raised."""
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return solve(*args)
    except (NumericalFailureError, InvalidArgumentError) as exc:
        return type(exc), str(exc), getattr(exc, "diagnostics", None)


def _assert_same_solve(new, old):
    if isinstance(old, tuple):
        assert new == old
        return
    assert not isinstance(new, tuple), new
    assert new.residual_history == old.residual_history
    assert new.iterations == old.iterations
    assert len(new.mode_history) == len(old.mode_history)
    for (a, at), (b, bt) in zip(new.mode_history, old.mode_history):
        assert np.array_equal(a, b) and np.array_equal(at, bt)
    for name in ("r", "phi", "phi_tilde"):
        assert np.array_equal(getattr(new.pair, name), getattr(old.pair, name)), name


def _two_well_vacuum(n=321, k=4, half_width=8.0, centre=4.0):
    """A hand-made orthonormal spectrum whose ground state is two lumps: |psi0|
    falls below 1e-6 of its maximum between them, so the active rows have a gap."""
    grid = build_grid(-half_width, half_width, n)
    q = grid.nodes
    lumps = np.exp(-((q - centre) ** 2)) + np.exp(-((q + centre) ** 2))
    basis = np.column_stack([lumps * q**j for j in range(k)])
    basis[[0, -1], :] = 0.0  # the Dirichlet ends
    Q, _ = np.linalg.qr(basis)
    Q *= np.sign(Q[np.argmax(np.abs(Q[:, 0])), 0]) / np.sqrt(grid.h)
    return grid, qf.VacuumSpectrum(grid, 0.5 + np.arange(k, dtype=float), Q)


class TestConfinedSolve:
    @settings(max_examples=25, deadline=None)
    @given(k=st.floats(0.6, 1.4), modes=st.integers(2, 9), c1=st.floats(0.0, 0.4), c2=st.floats(0.0, 0.1),
           n=st.sampled_from([201, 301, 501]), n_r=st.integers(100, 600),
           r_min=st.floats(0.2, 1.0), r_max=st.floats(3.0, 40.0), f=st.floats(0.8, 1.25))
    @example(k=1.0, modes=4, c1=0.1, c2=0.0, n=501, n_r=1200, r_min=0.5, r_max=30.0, f=1.0)
    @example(k=1.0, modes=4, c1=5.0, c2=0.0, n=201, n_r=240, r_min=0.5, r_max=30.0, f=1.0)
    @example(k=1.0, modes=4, c1=0.1, c2=0.0, n=201, n_r=240, r_min=0.5, r_max=1.2, f=1.0)
    # the shipped config's shape: 8 modes, 801 rows, 997 source columns
    @example(k=1.0, modes=8, c1=0.1, c2=0.0, n=801, n_r=1200, r_min=0.5, r_max=30.0, f=1.0)
    # 467 source columns: K-mode products on the qmask rows alone change bits here
    @example(k=1.17, modes=8, c1=0.27, c2=0.07, n=501, n_r=523, r_min=0.66, r_max=32.2, f=1.03)
    def test_bitwise(self, k, modes, c1, c2, n, n_r, r_min, r_max, f):
        spec = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * k * np.square(q), f=f)
        vac = qf.vacuum_spectrum(spec, build_grid(-10.0, 10.0, n), modes)
        dw = vac.w[1] - vac.w[0]  # radii in units of f / (w1 - w0), as the runner draws them
        args = (spec, vac, [1.0, c1, c2][:modes], r_min * f / dw, r_max * f / dw, 1e-8, n_r)
        _assert_same_solve(_confined_outcome(qf.confined_solve, *args),
                           _confined_outcome(confined_solve_ref, *args))

    @pytest.mark.parametrize("c1", [5.0, -5.0, 40.0])
    def test_positivity_loss_reports_the_reference_point(self, c1):
        spec = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * np.square(q), f=1.0)
        vac = qf.vacuum_spectrum(spec, build_grid(-8.0, 8.0, 401), 4)
        args = (spec, vac, [1.0, c1], 0.5, 30.0, 1e-8, 600)
        new = _confined_outcome(qf.confined_solve, *args)
        assert new[:2] == (NumericalFailureError, "conjugate pair lost positivity")
        assert set(new[2]) == {"q", "r"}
        assert new == _confined_outcome(confined_solve_ref, *args)
        if c1 > 0.0:  # the first bad row lies past the first block of rows
            assert new[2]["q"] > vac.grid.nodes[_row_spans(vac)[0].stop - 1]

    @pytest.mark.parametrize("c1", [0.0, 0.02, 0.05, 30.0])
    def test_gapped_active_rows(self, c1):
        grid, vac = _two_well_vacuum()
        assert any(isinstance(s, np.ndarray) for s in _row_spans(vac))  # the gap falls inside a block of rows
        spec = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * np.square(q), f=1.0)
        args = (spec, vac, [1.0, c1], 0.5, 30.0, 1e-8, 300)
        new = _confined_outcome(qf.confined_solve, *args)
        _assert_same_solve(new, _confined_outcome(confined_solve_ref, *args))
        if c1 == 30.0:
            assert new[:2] == (NumericalFailureError, "conjugate pair lost positivity")
        else:
            assert not isinstance(new, tuple)

    def test_contiguous_rows_over_several_blocks(self):
        """263 active rows: five slice blocks, the last narrower than _BLOCK."""
        spec = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * np.square(q), f=1.0)
        vac = qf.vacuum_spectrum(spec, build_grid(-8.0, 8.0, 401), 4)
        spans = _row_spans(vac)
        assert len(spans) >= 3 and all(isinstance(s, slice) for s in spans)
        assert spans[-1].stop - spans[-1].start < qf._BLOCK
        args = (spec, vac, [1.0, 0.1], 0.5, 30.0, 1e-8, 600)
        _assert_same_solve(_confined_outcome(qf.confined_solve, *args), _confined_outcome(confined_solve_ref, *args))

    def test_gap_on_a_block_boundary(self):
        """The gap between the wells falls between two slice blocks."""
        grid, vac = _two_well_vacuum(n=361)
        spans = _row_spans(vac)
        assert all(isinstance(s, slice) for s in spans)
        assert any(a.stop < b.start for a, b in zip(spans, spans[1:]))
        spec = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * np.square(q), f=1.0)
        args = (spec, vac, [1.0, 0.05], 0.5, 30.0, 1e-8, 300)
        new = _confined_outcome(qf.confined_solve, *args)
        assert not isinstance(new, tuple)
        _assert_same_solve(new, _confined_outcome(confined_solve_ref, *args))


def _row_spans(vac):
    """The row blocks of ``confined_solve``: its active rows as spans of at most ``_BLOCK``."""
    rows = np.flatnonzero(nx._support_mask(np.abs(vac.psi[:, 0]), qf._PSI0_FLOOR))
    return [qf._index_span(rows[b]) for b in qf._blocks(rows.size)]


@pytest.mark.parametrize("width", [1, qf._BLOCK - 1, qf._BLOCK, qf._BLOCK + 1, 3 * qf._BLOCK + 5])
def test_tail_integral_blocks_keep_the_bits(width):
    """The blocked tail equals one whole-grid quadrature of the (n_r, nq) view."""
    grid, vac = _two_well_vacuum()
    rng = np.random.default_rng(width)
    psi0 = vac.psi[:, :1]
    phi, phi_tilde = (psi0 * (1.0 + 0.3 * rng.standard_normal((grid.n, width))) for _ in range(2))
    pair = qf.RadialPair(grid, np.geomspace(0.5, 30.0, width), phi, phi_tilde)
    whole = nx._quad(grid.h, np.abs(phi * phi_tilde - vac.psi[:, 0][:, None] ** 2).T)
    assert np.array_equal(qf.tail_integral(pair, vac), whole)


def test_blocks():
    for n in (0, 1, 2, qf._BLOCK - 1, qf._BLOCK, qf._BLOCK + 1, 3 * qf._BLOCK + 5):
        spans = qf._blocks(n)
        assert [i for b in spans for i in range(n)[b]] == list(range(n))
        assert all(2 <= b.stop - b.start <= qf._BLOCK for b in spans) or n < 2
        assert len(spans) == -(-n // qf._BLOCK)


def test_index_span():
    assert qf._index_span(np.array([1, 2])) == slice(1, 3)
    assert qf._index_span(np.array([0, 1])) == slice(0, 2)
    assert np.array_equal(qf._index_span(np.array([0, 2])), [0, 2])
    assert np.array_equal(qf._index_span(np.zeros(0, dtype=int)), np.zeros(0, dtype=int))


# -- the snapshot series ------------------------------------------------------


def hj_residual_series_ref(grid, spec, S_series, times):
    """``mechanics.hj_residual_series`` as one centred difference and one
    gradient per snapshot."""
    S_series = np.asarray(S_series, dtype=float)
    times = np.asarray(times, dtype=float)
    q = grid.nodes
    m = spec.mass_at(q)
    v = spec.potential_at(q)
    out = np.empty((S_series.shape[0] - 2, grid.n))
    for k in range(1, S_series.shape[0] - 1):
        dSdt = (S_series[k + 1] - S_series[k - 1]) / (times[k + 1] - times[k - 1])
        grad = grad_central_ref(S_series[k], grid.h)
        out[k - 1] = dSdt + grad**2 / (2.0 * m) + v
    return out


def continuity_residual_series_ref(grid, spec, rho_series, lam_series, times):
    """``mechanics.continuity_residual_series`` snapshot by snapshot."""
    rho_series = np.asarray(rho_series, dtype=float)
    lam_series = np.asarray(lam_series, dtype=float)
    times = np.asarray(times, dtype=float)
    m = spec.mass_at(grid.nodes)
    out = np.empty((rho_series.shape[0] - 2, grid.n))
    for k in range(1, rho_series.shape[0] - 1):
        drdt = (rho_series[k + 1] - rho_series[k - 1]) / (times[k + 1] - times[k - 1])
        flux = rho_series[k] * grad_central_ref(lam_series[k], grid.h) / m
        out[k - 1] = drdt + grad_central_ref(flux, grid.h)
    return out


def space_independent_evolve_ref(spec, grid, psi0, dt, n_steps, store_every):
    """``quantum_fields.space_independent_evolve`` with each record (t, psi,
    eps, mask, mean energy) built as its step is stored."""
    op = qf._operator(spec, grid)
    psi = np.asarray(psi0, dtype=complex).copy()
    prop = nx.CayleyPropagator(op, dt, spec.f)

    def record(t, psi_now, h_in):
        hpsi = np.pad(h_in, 1)
        dens = np.abs(psi_now) ** 2
        mask = support_mask_ref(dens, nx.RHO_FLOOR_FRAC)
        eps = np.zeros(grid.n)
        eps[mask] = np.real(np.conj(psi_now[mask]) * hpsi[mask]) / dens[mask]
        wbar = grid.h * float(np.sum(np.real(np.conj(psi_now) * hpsi)))
        return t, psi_now, eps, mask, wbar

    h_in = apply_ref(op, psi[1:-1])
    records = [record(0.0, psi, h_in)]
    for k in range(n_steps):
        psi = np.pad(prop.step(psi[1:-1]), 1)
        if (k + 1) % store_every == 0:
            h_in = apply_ref(op, psi[1:-1])
            records.append(record((k + 1) * dt, psi, h_in))
    return [np.asarray(column) for column in zip(*records)]


def _series_setup(seed, n, nt, mass, reverse):
    """A grid, a spec of constant or varying mass, nt densities (zero in
    random end stretches) and multipliers, and nt increasing times, reversed
    (the time-reversed series) when ``reverse``."""
    rng = np.random.default_rng(seed)
    grid = build_grid(-rng.uniform(2.0, 6.0), rng.uniform(2.0, 6.0), n)
    c0, c1, k = rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4), rng.uniform(0.1, 3.0)
    spec = mech.NaturalSystemSpec(
        mass=c0 if mass == "constant" else (lambda q: c0 + c1 * np.cos(np.asarray(q, dtype=float))),
        potential=lambda q: k * np.asarray(q, dtype=float) ** 2,
    )
    rho = np.exp(-((grid.nodes[None, :] - rng.uniform(-1.0, 1.0, (nt, 1))) ** 2) / rng.uniform(0.2, 2.0, (nt, 1)))
    for row in rho:
        row[: rng.integers(0, n // 3)] = 0.0
        row[n - rng.integers(0, n // 3) :] = 0.0
    rho /= grid.h * rho.sum(axis=1, keepdims=True)
    lam = np.cumsum(rng.normal(scale=rng.uniform(1e-3, 1.0), size=(nt, n)), axis=1)
    times = np.cumsum(rng.uniform(1e-3, 0.1, size=nt))
    if reverse:
        return grid, spec, rho[::-1], -lam[::-1], -times[::-1]
    return grid, spec, rho, lam, times


SERIES_DRAWS = dict(
    n=st.integers(min_value=3, max_value=400),
    nt=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mass=st.sampled_from(["constant", "varying"]),
    reverse=st.booleans(),
)


class TestSnapshotSeries:
    """The residual series and the space-independent records evaluate once
    over the stacked snapshots; each row must have the bits of the
    per-snapshot form."""

    @settings(max_examples=80, deadline=None)
    @given(**SERIES_DRAWS)
    def test_residual_series_bitwise(self, n, nt, seed, mass, reverse):
        grid, spec, rho, lam, times = _series_setup(seed, n, nt, mass, reverse)
        hj = mech.hj_residual_series(grid, spec, lam, times)
        assert hj.shape == (nt - 2, n) and np.array_equal(hj, hj_residual_series_ref(grid, spec, lam, times))
        ct = mech.continuity_residual_series(grid, spec, rho, lam, times)
        assert np.array_equal(ct, continuity_residual_series_ref(grid, spec, rho, lam, times))

    @pytest.mark.parametrize("nt", [1, 2])
    @pytest.mark.parametrize("series", ["hj", "continuity", "multiplier", "multiplier-classical"])
    def test_fewer_than_three_snapshots_rejected(self, nt, series):
        # these returned (0, n) arrays: no interior time to centre on
        grid, spec, rho, lam, times = _series_setup(7, 40, nt, "varying", False)
        call = {
            "hj": lambda: mech.hj_residual_series(grid, spec, lam, times),
            "continuity": lambda: mech.continuity_residual_series(grid, spec, rho, lam, times),
            "multiplier": lambda: hy.multiplier_residual_series(grid, spec, hy.DiffusionSpec(a=1.0), rho, lam, times),
            "multiplier-classical": lambda: hy.multiplier_residual_series(
                grid, spec, hy.DiffusionSpec(a=1.0, mode="classical"), rho, lam, times),
        }[series]
        with pytest.raises(InvalidArgumentError, match="need at least 3 stored time levels"):
            call()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=5, max_value=300), n_steps=st.integers(min_value=1, max_value=80),
           store_every=st.integers(min_value=1, max_value=30), seed=st.integers(min_value=0, max_value=2**32 - 1),
           zero_ends=st.booleans())  # 5 nodes: the fewest whose operator the Cayley propagator takes
    # the benchmark's larger grid: the stacked mean energy sums rows of 2400 strided values
    @example(n=2400, n_steps=60, store_every=6, seed=3, zero_ends=False)
    def test_space_independent_records_bitwise(self, n, n_steps, store_every, seed, zero_ends):
        rng = np.random.default_rng(seed)
        grid = build_grid(-rng.uniform(3.0, 8.0), rng.uniform(3.0, 8.0), n)
        k = rng.uniform(0.2, 3.0)
        spec = qf.QFieldSpec(eta=rng.uniform(0.3, 3.0), potential=lambda q: k * q * q, f=rng.uniform(0.3, 3.0))
        q = grid.nodes
        psi0 = np.exp(-((q - rng.uniform(-1.0, 1.0)) ** 2) / rng.uniform(0.3, 3.0) + 1j * rng.uniform(-3.0, 3.0) * q)
        psi0[[0, -1]] = 0.0
        if zero_ends:  # cells below the density floor: the mask matters
            psi0[: n // 4] = psi0[n - n // 4 :] = 0.0
        if not np.any(psi0):
            return
        psi0 /= np.sqrt(grid.h * np.sum(np.abs(psi0) ** 2))
        dt = rng.uniform(1e-4, 1e-1)
        res = qf.space_independent_evolve(spec, grid, psi0, dt, n_steps, store_every)
        ref = space_independent_evolve_ref(spec, grid, psi0, dt, n_steps, store_every)
        new = [res.times, res.psi, res.energy_density, res.mask, res.mean_energy]
        assert all(a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(new, ref))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=3, max_value=500), rows=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**32 - 1), floor=st.sampled_from([1e-12, 1e-3, 0.5]))
    def test_spatial_helpers_stack_rows(self, n, rows, seed, floor):
        # every row of a stacked call has the bits of the former one-field forms
        rng = np.random.default_rng(seed)
        grid = build_grid(-rng.uniform(2.0, 6.0), rng.uniform(2.0, 6.0), n)
        spec = mech.NaturalSystemSpec(mass=rng.uniform(0.5, 2.0), potential=lambda q: q * q)
        op = wv.schrodinger_operator(spec, grid, rng.uniform(0.3, 2.0))
        rho = rng.uniform(0.0, 1.0, (rows, n)) ** 4
        f = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        mask = nx._support_mask(rho, floor)
        stacked = [nx.grad_central(f, grid.h), nx.grad_central(rho, grid.h), mask, op.apply(f[:, 1:-1]),
                   nx._sqrt_density_ratio(op, rho, mask)]
        for i in range(rows):
            one = [nx.grad_central(f[i], grid.h), nx.grad_central(rho[i], grid.h), nx._support_mask(rho[i], floor),
                   op.apply(f[i, 1:-1]), nx._sqrt_density_ratio(op, rho[i], mask[i])]
            ref = [grad_central_ref(f[i], grid.h), grad_central_ref(rho[i], grid.h), support_mask_ref(rho[i], floor),
                   apply_ref(op, f[i, 1:-1]), sqrt_density_ratio_ref(grid, op, rho[i], mask[i])]
            for a, b, c in zip(stacked, one, ref):
                assert a[i].dtype == b.dtype == c.dtype
                assert np.array_equal(a[i], b) and np.array_equal(b, c)


# -- a public step is a one-step run ------------------------------------------


def _one_step(fn, *args):
    """The arrays of fn's result, or the class, message, location and diagnostics it raised."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            out = fn(*args)
        except (ValueError, NumericalFailureError) as exc:
            return type(exc), str(exc), getattr(exc, "location", None), repr(getattr(exc, "diagnostics", None))
    if isinstance(out, (mech.HydroState, cv.FieldState1p1)):
        return [np.asarray(v) for v in vars(out).values() if not isinstance(v, (nx.Grid1D, cv.PeriodicGrid1D))]
    return [np.asarray(v) for v in (out if isinstance(out, tuple) else (out,))]


def _assert_same_step(alone, run):
    assert isinstance(alone, list) == isinstance(run, list)
    if not isinstance(alone, list):
        assert alone == run
        return
    assert len(alone) == len(run)
    for a, b in zip(alone, run):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _first_cayley_step(prop, psi):
    steps = prop.run(np.pad(psi, 1), 1)
    next(steps)
    return next(steps)[0][1:-1]


class TestOneStepRun:
    """Each public step equals the first step of its run, bit for bit,
    rejections included: the step and the run share one private step."""

    @settings(max_examples=40, deadline=None)
    @given(half_width=st.floats(min_value=1.0, max_value=3.0), n=st.integers(min_value=61, max_value=301),
           center_frac=st.floats(min_value=-0.5, max_value=0.5), width_cells=st.floats(min_value=2.0, max_value=8.0),
           kick=st.floats(min_value=-3.0, max_value=3.0), cfl=st.floats(min_value=0.05, max_value=1.5),
           support_floor=st.sampled_from([1e-6, None]), **SPECS)
    def test_classical_transport_step(self, half_width, n, center_frac, width_cells, kick, cfl, support_floor,
                                      kind, strength, m0, m1):
        grid = build_grid(-half_width, half_width, n)
        q = grid.nodes
        spec = _spec(kind, strength, m0, m1)
        centre, width = center_frac * half_width, width_cells * grid.h
        rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - centre) / width) ** 2))
        ens = mech.HydroState(grid, rho, kick * q + 0.1 * q * q)
        dt = cfl * grid.h
        alone = _one_step(lambda: mech.HydroState(grid, *mech.classical_transport_step(grid, ens.rho, ens.lam, spec,
                                                                                      dt, support_floor)))
        run = _one_step(mech.transport_run, ens, spec, dt, dt, support_floor, lambda t, rho, mass: None)
        _assert_same_step(alone, run)

    @settings(max_examples=40, deadline=None)
    @given(half_width=st.floats(min_value=5.0, max_value=9.0), n=st.integers(min_value=81, max_value=201),
           center_frac=st.floats(min_value=-0.3, max_value=0.3), variance=st.floats(min_value=0.2, max_value=1.0),
           kick=st.floats(min_value=-2.0, max_value=2.0), mode=st.sampled_from(["quantum-pole", "classical"]),
           cfl=st.floats(min_value=0.05, max_value=1.0), **SPECS)
    def test_madelung_step(self, half_width, n, center_frac, variance, kick, mode, cfl, kind, strength, m0, m1):
        grid = build_grid(-half_width, half_width, n)
        q = grid.nodes
        spec = _spec(kind, strength, m0, m1)
        dspec = hy.DiffusionSpec(a=1.0, mode=mode)
        rho = mech.normalize_density(grid, np.exp(-((q - center_frac * half_width) ** 2) / (2 * variance)))
        state = hy.HydroState(grid, rho, kick * q)
        dt = cfl * grid.h**2
        _assert_same_step(_one_step(hy.madelung_step, spec, dspec, state, dt),
                          _one_step(hy.madelung_run, spec, dspec, state, dt, dt))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1), **A_B_DT)
    def test_local_form_step(self, n, seed, a, b, dt):
        spec, (p, lam) = _random_spin(seed, n, a, b)
        _assert_same_step(_one_step(ds.local_form_step, spec, p, lam, dt),
                          _one_step(ds.local_form_run, spec, p, lam, dt, dt, ds.P_FLOOR, lambda t, p, lam: None))

    @settings(max_examples=60, deadline=None)
    @given(n=DDW_DRAWS["n"], seed=DDW_DRAWS["seed"], cfl=st.floats(min_value=0.05, max_value=1.2),
           eta=DDW_DRAWS["eta"], m=DDW_DRAWS["m"], quartic=DDW_DRAWS["quartic"])
    def test_ddw_evolve(self, n, seed, cfl, eta, m, quartic):
        spec = _field_spec(eta, m, quartic)
        state = _random_field(seed, n)
        dt = cfl * state.x_grid.dx
        _assert_same_step(_one_step(cv.ddw_evolve, spec, state, dt, 1),
                          _one_step(lambda: cv.ddw_evolve_series(spec, state, dt, 1, 1)[3]))

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([3, 4, 40, 1401]), seed=st.integers(min_value=0, max_value=10_000),
           dt=st.floats(min_value=-0.5, max_value=0.5), a=st.floats(min_value=0.05, max_value=20.0),
           bad=st.sampled_from([None, np.nan, np.inf]))
    def test_cayley_step(self, m, seed, dt, a, bad):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        op = nx.TridiagonalOperator(scale[0] * rng.normal(size=m), scale[1] * rng.normal(size=m - 1))
        prop = nx.CayleyPropagator(op, dt, a)
        psi = rng.normal(size=m) + 1j * rng.normal(size=m)
        if bad is not None:
            psi[rng.integers(m)] = bad
        _assert_same_step(_one_step(prop.step, psi), _one_step(_first_cayley_step, prop, psi))
