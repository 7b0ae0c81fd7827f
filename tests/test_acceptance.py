"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import scipy.linalg as sla

from varq import covariant as cv
from varq import discrete as ds
from varq import hydrodynamics as hy
from varq import mechanics as mech
from varq import quantum_fields as qf
from varq import wavefunction as wv
from varq.numerics import CayleyPropagator, build_grid
from varq.potentials import harmonic


def record(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def unit_mass_spec(pot):
    return mech.NaturalSystemSpec(
        mass=lambda q: 1.0 if np.isscalar(q) else np.ones(np.shape(q)),
        potential=pot.v,
        mass_grad=lambda q: 0.0 if np.isscalar(q) else np.zeros(np.shape(q)),
        potential_grad=pot.dv,
    )


HARMONIC = unit_mass_spec(harmonic(1.0))


def test_criterion_1_classical_limit():
    t0 = time.perf_counter()
    grid = build_grid(-1.4, 1.4, 1401)
    q = grid.nodes
    rho = np.exp(-0.5 * ((q - 1.0) / (3 * grid.h)) ** 2)
    ens = mech.ClassicalEnsemble(grid, mech.normalize_density(grid, rho), np.zeros(grid.n))
    worst = 0.0

    def obs(t, rho):
        nonlocal worst
        worst = max(worst, abs(grid.h * np.sum(rho * q) - np.cos(t)))

    mech.transport_run(ens, HARMONIC, 2 * np.pi, 0.4 * grid.h, support_floor=1e-6, observer=obs)

    flow = mech.hamilton_flow(HARMONIC, mech.PhaseState(1.0, 0.0), 1e-3, 7000)
    period = _flow_period(HARMONIC, flow, 1e-3)
    elapsed = time.perf_counter() - t0

    ok = worst <= 2 * grid.h and abs(period - 2 * np.pi) <= 1e-6 and elapsed < 5.0
    record(
        1,
        "classical-limit",
        ok,
        f"centroid err {worst:.3e} <= {2 * grid.h:.3e}; period err "
        f"{abs(period - 2 * np.pi):.2e} <= 1e-6; {elapsed:.2f}s < 5s",
    )


def _flow_period(spec, flow, dt):
    p, q = flow[:, 1], flow[:, 0]
    down = (p[:-1] > 0) & (p[1:] <= 0) & (q[:-1] > 0)
    k = int(np.flatnonzero(down)[0])
    t_lo, t_hi = k * dt, (k + 1) * dt
    state_lo = mech.PhaseState(*flow[k])
    for _ in range(60):
        half = 0.5 * (t_hi - t_lo)
        if half < 1e-14:
            break
        probe = mech.hamilton_flow(spec, state_lo, half / 8, 8)
        if probe[-1, 1] > 0:
            t_lo += half
            state_lo = mech.PhaseState(*probe[-1])
        else:
            t_hi = t_lo + half
    return 0.5 * (t_lo + t_hi)


def test_criterion_2_schrodinger_solver():
    t0 = time.perf_counter()
    free = unit_mass_spec(harmonic(0.0))
    grid = build_grid(-14, 14, 1401)
    q = grid.nodes
    psi0 = np.exp(-(q**2) / 4.0).astype(complex)
    wf = wv.WaveFunction(grid, wv.normalize_wavefunction(grid, psi0), a=1.0)
    dt, n_steps = 0.002, 1000
    # the loop that writes the Schrodinger report
    steps = CayleyPropagator(wv.schrodinger_operator(free, grid, 1.0), dt, 1.0).run(wf.psi, n_steps)
    psi, _ = next(steps)
    max_step_drift = 0.0
    prev = grid.h * np.sum(np.abs(psi) ** 2)
    for psi, _ in steps:
        norm = grid.h * np.sum(np.abs(psi) ** 2)
        max_step_drift = max(max_step_drift, abs(norm - prev) / prev)
        prev = norm
    var = grid.h * np.sum(np.abs(psi) ** 2 * q**2)
    elapsed = time.perf_counter() - t0

    ok = max_step_drift <= 1e-12 and abs(var - 2.0) / 2.0 <= 0.005 and elapsed < 10.0
    record(
        2,
        "schrodinger-solver",
        ok,
        f"norm drift/step {max_step_drift:.2e} <= 1e-12; variance {var:.5f} "
        f"within 0.5% of 2.0; {elapsed:.2f}s < 10s",
    )


def test_criterion_3_local_global_equivalence():
    grid = build_grid(-8, 8, 1201)
    q = grid.nodes
    dspec = hy.DiffusionSpec(a=1.0)
    rho0 = mech.normalize_density(grid, np.exp(-((q - 0.2) ** 2)))
    state = hy.HydroState(grid, rho0, np.zeros(grid.n))
    wf = wv.WaveFunction(grid, wv.normalize_wavefunction(grid, np.sqrt(rho0).astype(complex)), 1.0)

    dt_m = 0.25 * grid.h**2
    dt_s = 1e-3
    linf = 0.0
    t_prev = 0.0
    for tc in (0.25, 0.5, 0.75, 1.0):
        state = hy.madelung_run(HARMONIC, dspec, state, tc - t_prev, dt_m)
        wf = wv.schrodinger_evolve(HARMONIC, wf, dt_s, int(round((tc - t_prev) / dt_s)))
        linf = max(linf, float(np.max(np.abs(state.rho - wf.rho))))
        t_prev = tc

    grid2 = build_grid(-4, 4, 501)
    rho2 = mech.normalize_density(grid2, np.exp(-grid2.nodes**2))
    lam2 = 0.3 * grid2.nodes
    cstate = hy.HydroState(grid2, rho2, lam2)
    ens = mech.ClassicalEnsemble(grid2, rho2, lam2)
    out_h = hy.madelung_step(HARMONIC, hy.DiffusionSpec(a=1.0, mode="classical"), cstate, 1e-3)
    out_m = mech.transport_density(ens, HARMONIC, 1e-3)
    cdiff = max(
        float(np.max(np.abs(out_h.rho - out_m.rho))),
        float(np.max(np.abs(out_h.lam - out_m.S))),
    )

    ok = linf <= 1e-3 and cdiff <= 1e-12
    record(
        3,
        "local-global-equivalence",
        ok,
        f"Linf(rho) {linf:.3e} <= 1e-3 over t in [0,1]; classical-mode "
        f"delta {cdiff:.2e} <= 1e-12",
    )


def test_criterion_4_canonical_map():
    rng = np.random.default_rng(42)
    a = 1.0
    worst_jac = 0.0
    for _ in range(100):
        u, v = rng.uniform(-3, 3, size=2)
        if u * u + v * v < 0.05:
            u += 1.0
        if u < 0 and abs(v) < 1e-3:
            v += 0.01  # keep the probe off the phase branch cut
        eps = 1e-6 * max(1.0, abs(u), abs(v))
        dP_u = (wv.polar_from_uv(u + eps, v, a)[0] - wv.polar_from_uv(u - eps, v, a)[0]) / (2 * eps)
        dP_v = (wv.polar_from_uv(u, v + eps, a)[0] - wv.polar_from_uv(u, v - eps, a)[0]) / (2 * eps)
        dL_u = (wv.polar_from_uv(u + eps, v, a)[1] - wv.polar_from_uv(u - eps, v, a)[1]) / (2 * eps)
        dL_v = (wv.polar_from_uv(u, v + eps, a)[1] - wv.polar_from_uv(u, v - eps, a)[1]) / (2 * eps)
        worst_jac = max(worst_jac, abs(dP_u * dL_v - dP_v * dL_u - 1.0))

    grid = build_grid(-6, 6, 600)
    worst_rt = 0.0
    for seed in range(10):
        rng2 = np.random.default_rng(seed)
        q = grid.nodes
        rho = np.exp(-(q**2)) * (1.0 + 0.4 * np.sin(1.3 * q + rng2.uniform(0, 6)))
        lam = 0.4 * q + 0.3 * np.cos(q + rng2.uniform(0, 6))
        wf = wv.canonical_map_inverse(grid, mech.normalize_density(grid, rho), lam, a)
        r2, l2, mask = wv.canonical_map_forward(wf)
        back = wv.canonical_map_inverse(grid, r2, l2, a)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.psi[mask] - wf.psi[mask]))))

    ok = worst_jac <= 1e-6 and worst_rt <= 1e-12
    record(
        4,
        "canonical-map",
        ok,
        f"jacobian defect {worst_jac:.2e} <= 1e-6 at 100 points; round trip "
        f"{worst_rt:.2e} <= 1e-12",
    )


def test_criterion_5_discrete_quantization():
    spec = ds.SpinSystemSpec(U=np.array([[0.0, 1.0], [1.0, 0.0]]),
                             theta=np.zeros((2, 2)), a=1.0, b=-1.0)
    st0 = ds.SpinState(np.array([1.0, 0.0], dtype=complex))
    h = ds.build_hamiltonian(spec)
    worst_rabi = 0.0
    for t in np.linspace(0.1, 6.0, 25):
        out = ds.propagate(spec, st0, t)
        oracle = sla.expm(-1j * h * t / spec.a) @ st0.psi
        worst_rabi = max(
            worst_rabi,
            abs(abs(out.psi[1]) ** 2 - np.sin(t) ** 2),
            float(np.max(np.abs(out.psi - oracle))),
        )

    t_start = 0.2
    p, lam = ds.polar_decompose(ds.propagate(spec, st0, t_start), spec.a)
    cross = 0.0
    min_p = np.inf
    sum_dev = 0.0

    def obs(t, p_now, lam_now):
        nonlocal cross, min_p, sum_dev
        ref = ds.propagate(spec, st0, t_start + t)
        cross = max(cross, float(np.max(np.abs(p_now - np.abs(ref.psi) ** 2))))
        min_p = min(min_p, float(np.min(p_now)))
        sum_dev = max(sum_dev, abs(float(np.sum(p_now)) - 1.0))

    ds.local_form_run(spec, p, lam, 1.15, 1e-4, floor=1e-6, observer=obs)

    ok = worst_rabi <= 1e-10 and cross <= 1e-4 and min_p > 1e-6 and sum_dev <= 1e-13
    record(
        5,
        "discrete-quantization",
        ok,
        f"rabi vs matrix-exponential {worst_rabi:.2e} <= 1e-10; local-vs-psi "
        f"{cross:.2e} <= 1e-4 (min p {min_p:.2e}); sum p dev {sum_dev:.1e}",
    )


def test_criterion_6_de_donder_weyl():
    spec = cv.FieldLagrangianSpec(eta=1.0, potential=lambda q: 0.5 * q * q,
                                  potential_grad=lambda q: np.asarray(q, dtype=float))
    grid = cv.PeriodicGrid1D(2 * np.pi, 256)
    x = grid.nodes
    k, amp = 1.0, 0.01
    omega = np.sqrt(2.0)
    state = cv.FieldState1p1(grid, amp * np.cos(k * x), amp * omega * np.sin(k * x))

    dt = 1e-3
    crossings = 10
    n_steps = int(round(crossings * grid.length / dt))
    times, qs, pis, _ = cv.ddw_evolve_series(spec, state, dt, n_steps, store_every=n_steps // 100)
    c = qs @ np.exp(-1j * k * x) * (2.0 / grid.n)
    slope = np.polyfit(times, np.unwrap(np.angle(c)), 1)[0]
    disp_err = abs(abs(slope) - omega) / omega

    energies = np.array([cv.total_energy(spec, cv.FieldState1p1(grid, qs[i], pis[i]))
                         for i in range(len(times))])
    momenta = np.array([cv.total_momentum(spec, cv.FieldState1p1(grid, qs[i], pis[i]))
                        for i in range(len(times))])
    e_drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    p_drift = float(np.max(np.abs(momenta - momenta[0])) / max(np.max(np.abs(momenta)), abs(energies[0])))

    def el_residual(n):
        g = cv.PeriodicGrid1D(2 * np.pi, n)
        st_n = cv.FieldState1p1(g, amp * np.cos(g.nodes), amp * omega * np.sin(g.nodes))
        dt_n = g.dx / 4
        _, qh, _, _ = cv.ddw_evolve_series(spec, st_n, dt_n, 64, store_every=1)
        return cv.extremal_embedding_check(spec, g, qh, dt_n)

    ratio = el_residual(64) / el_residual(128)

    rng = np.random.default_rng(1)
    rnd = cv.FieldState1p1(grid, rng.normal(size=grid.n), rng.normal(size=grid.n))
    em = cv.energy_momentum(spec, rnd)
    d1q = (np.roll(rnd.q, -1) - np.roll(rnd.q, 1)) / (2 * grid.dx)
    hc = cv.canonical_reduction(spec, rnd.pi0, d1q, rnd.q)
    hc_dev = float(np.max(np.abs(hc - em.T[:, 0, 0])))

    ok = (
        disp_err <= 1e-3
        and e_drift <= 1e-6
        and p_drift <= 1e-6
        and 3.0 <= ratio <= 5.0
        and hc_dev <= 1e-12
    )
    record(
        6,
        "de-donder-weyl",
        ok,
        f"dispersion {disp_err:.2e} <= 1e-3; energy drift {e_drift:.2e}, momentum "
        f"drift {p_drift:.2e} <= 1e-6 over 10 crossings; refinement ratio {ratio:.2f} "
        f"in [3,5]; Hc-T00 {hc_dev:.1e} <= 1e-12",
    )


def test_criterion_7_vacuum_spectrum():
    spec = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * np.square(q), f=1.0)
    grid = build_grid(-10, 10, 2000)
    vac = qf.vacuum_spectrum(spec, grid, 3)
    harm_err = float(np.max(np.abs(vac.w - [0.5, 1.5, 2.5])))

    quart = qf.QFieldSpec(eta=1.0, potential=lambda q: np.power(q, 4), f=1.0)
    gq = build_grid(-6, 6, 900)
    vq = qf.vacuum_spectrum(quart, gq, 1)
    from varq.quantum_fields import _operator

    w_dense = np.linalg.eigvalsh(_operator(quart, gq).dense())[0]
    quart_err = abs(vq.w[0] - w_dense)

    tensor = qf.invariant_state_tensor(vac.w[0])
    tensor_exact = np.array_equal(tensor, vac.w[0] * np.eye(2))

    _, var = qf.field_fluctuations(vac)
    var_err = abs(var - 0.5)

    ok = harm_err <= 1e-4 and quart_err <= 1e-6 and tensor_exact and var_err <= 1e-4
    record(
        7,
        "vacuum-spectrum",
        ok,
        f"harmonic levels {harm_err:.2e} <= 1e-4; quartic vs dense {quart_err:.2e} "
        f"<= 1e-6; tensor exact {tensor_exact}; variance err {var_err:.2e} <= 1e-4",
    )


def test_criterion_8_space_independent_sector():
    spec = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * np.square(q), f=1.0)
    grid = build_grid(-10, 10, 1200)
    vac = qf.vacuum_spectrum(spec, grid, 2)
    psi0 = (vac.psi[:, 0] + vac.psi[:, 1]) / np.sqrt(2.0)
    res = qf.space_independent_evolve(spec, grid, psi0.astype(complex), 2e-3, 1500, store_every=50)
    wbar_drift = float(np.max(np.abs(res.mean_energy - res.mean_energy[0])) / abs(res.mean_energy[0]))

    eig = qf.space_independent_evolve(spec, grid, vac.psi[:, 1].astype(complex), 2e-3, 300,
                                      store_every=100)
    eps_dev = max(
        float(np.max(np.abs(eig.energy_density[kk][eig.mask[kk]] - vac.w[1])))
        for kk in range(len(eig.times))
    )

    _, P, mask = qf.random_energy_density(spec, grid, vac.psi[:, 0] ** 2, np.zeros(grid.n),
                                          np.zeros((3, grid.n)))
    p_zero = np.array_equal(P, np.zeros_like(P))

    ok = wbar_drift <= 1e-8 and eps_dev <= 1e-4 and p_zero
    record(
        8,
        "space-independent-sector",
        ok,
        f"mean-energy drift {wbar_drift:.2e} <= 1e-8; eigenstate eps dev "
        f"{eps_dev:.2e} <= 1e-4 (grid tolerance); P identically zero {p_zero}",
    )


def test_criterion_9_confined_solutions():
    t0 = time.perf_counter()
    spec = qf.QFieldSpec(eta=1.0, potential=lambda q: 0.5 * np.square(q), f=1.0)
    grid = build_grid(-8, 8, 801)
    vac = qf.vacuum_spectrum(spec, grid, 8)
    dw = vac.w[1] - vac.w[0]
    tol = 1e-8

    res = qf.confined_solve(spec, vac, [1.0, 0.1], r_min=0.5, r_max=30.0, tol=tol)
    rep = qf.confinement_report(res.pair, vac, spec.f, window=(10.0, 25.0))
    rate_err = abs(rep.fitted_rate - dw / spec.f) / (dw / spec.f)

    A0, _ = res.mode_history[0]
    A1, _ = res.mode_history[1]
    r = res.pair.r
    sel = (r >= 10.0) & (r <= 20.0)
    y = (A1[1] - A0[1])[sel] * np.exp(dw * r[sel] / spec.f)
    X = np.column_stack([r[sel] ** (-kk) for kk in (1, 2, 3)])
    coef = np.linalg.lstsq(X, y, rcond=None)[0][0]
    coef_err = abs(coef - 0.1 * spec.f / dw) / (0.1 * spec.f / dw)

    hist = np.asarray(res.residual_history)
    above = hist[hist > tol]
    monotone = bool(np.all(np.diff(above) <= 0)) if above.size > 1 else True
    final_ok = hist[-1] < tol

    vac_res = qf.confined_solve(spec, vac, [1.0], r_min=0.5, r_max=30.0, tol=tol)
    vac_exact = (
        vac_res.iterations == 0
        and float(np.max(np.abs(vac_res.pair.phi - vac.psi[:, 0][:, None]))) == 0.0
        and float(np.max(np.abs(vac_res.pair.phi_tilde - vac.psi[:, 0][:, None]))) == 0.0
    )
    elapsed = time.perf_counter() - t0

    ok = rate_err <= 0.02 and coef_err <= 0.05 and monotone and final_ok and vac_exact and elapsed < 60.0
    record(
        9,
        "confined-solutions",
        ok,
        f"tail rate err {rate_err:.2e} <= 2%; 1/r coefficient err {coef_err:.2e} "
        f"<= 5%; residual monotone above tol {monotone}, final {hist[-1]:.2e} < 1e-8; "
        f"pure vacuum exact {vac_exact}; {elapsed:.1f}s < 60s",
    )


def test_criterion_10_reversal_symmetries():
    # classical time reversal on stored transport snapshots
    grid = build_grid(-3, 3, 400)
    q = grid.nodes
    rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 0.8) / 0.25) ** 2))
    ens = mech.ClassicalEnsemble(grid, rho, np.zeros(grid.n))
    dt = 0.4 * grid.h
    rhos, lams, times = [ens.rho], [ens.S], [0.0]
    for k in range(6):
        ens = mech.transport_density(ens, HARMONIC, dt)
        rhos.append(ens.rho)
        lams.append(ens.S)
        times.append((k + 1) * dt)
    rhos, lams, times = np.array(rhos), np.array(lams), np.array(times)
    r_fwd = mech.hj_residual_series(grid, HARMONIC, lams, times)
    r_bwd = mech.hj_residual_series(grid, HARMONIC, -lams[::-1], -times[::-1])
    c_fwd = mech.continuity_residual_series(grid, HARMONIC, rhos, lams, times)
    c_bwd = mech.continuity_residual_series(grid, HARMONIC, rhos[::-1], -lams[::-1], -times[::-1])
    classical_dev = max(
        float(np.max(np.abs(np.abs(r_bwd[::-1]) - np.abs(r_fwd)))),
        float(np.max(np.abs(np.abs(c_bwd[::-1]) - np.abs(c_fwd)))),
    )

    # quantum-pole reversal on stored hydrodynamic snapshots
    grid2 = build_grid(-8, 8, 501)
    dspec = hy.DiffusionSpec(a=1.0)
    state = hy.HydroState(
        grid2, mech.normalize_density(grid2, np.exp(-((grid2.nodes - 0.2) ** 2))), np.zeros(grid2.n)
    )
    dtq = 0.2 * grid2.h**2
    rhos2, lams2, times2 = [state.rho], [state.lam], [0.0]
    for k in range(6):
        state = hy.madelung_step(HARMONIC, dspec, state, dtq)
        rhos2.append(state.rho)
        lams2.append(state.lam)
        times2.append((k + 1) * dtq)
    rhos2, lams2, times2 = np.array(rhos2), np.array(lams2), np.array(times2)
    hf, masks_f = hy.multiplier_residual_series(grid2, HARMONIC, dspec, rhos2, lams2, times2)
    hb, masks_b = hy.multiplier_residual_series(
        grid2, HARMONIC, dspec, rhos2[::-1], -lams2[::-1], -times2[::-1]
    )
    sel = masks_f & masks_b[::-1]
    hydro_dev = float(np.max(np.abs(np.abs(hb[::-1][sel]) - np.abs(hf[sel]))))

    # covariant field: reverse x0 and negate pi0, retrace to start
    spec_f = cv.FieldLagrangianSpec(eta=1.0, potential=lambda qq: 0.5 * qq * qq,
                                    potential_grad=lambda qq: np.asarray(qq, dtype=float))
    gf = cv.PeriodicGrid1D(2 * np.pi, 128)
    x = gf.nodes
    st0 = cv.FieldState1p1(gf, 0.02 * np.cos(x), 0.02 * np.sqrt(2) * np.sin(x))
    fwd = cv.ddw_evolve(spec_f, st0, 1e-3, 3000)
    back = cv.ddw_evolve(spec_f, cv.FieldState1p1(gf, fwd.q, -fwd.pi0), 1e-3, 3000)
    ddw_dev = max(float(np.max(np.abs(back.q - st0.q))), float(np.max(np.abs(-back.pi0 - st0.pi0))))

    # quantum field space-time inversion on the space-independent sector
    spec_q = qf.QFieldSpec(eta=1.0, potential=lambda qq: 0.5 * np.square(qq), f=1.0)
    gq = build_grid(-8, 8, 801)
    vac = qf.vacuum_spectrum(spec_q, gq, 2)
    psi0 = (vac.psi[:, 0] + vac.psi[:, 1]) / np.sqrt(2.0)
    resq = qf.space_independent_evolve(spec_q, gq, psi0.astype(complex), 1e-3, 60, store_every=10)
    rho_s, lam_s = [], []
    for snap in resq.psi:
        wfq = wv.WaveFunction(gq, snap, spec_q.f)
        rr, ll, _ = wv.canonical_map_forward(wfq)
        rho_s.append(rr)
        lam_s.append(ll)
    rho_s, lam_s = np.asarray(rho_s), np.asarray(lam_s)
    mspec = mech.NaturalSystemSpec(
        mass=lambda qq: 1.0 if np.isscalar(qq) else np.ones(np.shape(qq)),
        potential=spec_q.potential,
    )
    dspec_q = hy.DiffusionSpec(a=spec_q.f)
    qf_f, mf = hy.multiplier_residual_series(gq, mspec, dspec_q, rho_s, lam_s, resq.times)
    qf_b, mb = hy.multiplier_residual_series(
        gq, mspec, dspec_q, rho_s[::-1], -lam_s[::-1], -resq.times[::-1]
    )
    selq = mf & mb[::-1]
    inversion_dev = float(np.max(np.abs(np.abs(qf_b[::-1][selq]) - np.abs(qf_f[selq]))))

    ok = classical_dev <= 1e-11 and hydro_dev <= 1e-9 and ddw_dev <= 1e-10 and inversion_dev <= 1e-9
    record(
        10,
        "reversal-symmetries",
        ok,
        f"classical {classical_dev:.1e}; quantum-pole {hydro_dev:.1e}; covariant "
        f"retrace {ddw_dev:.1e}; space-time inversion {inversion_dev:.1e}",
    )
