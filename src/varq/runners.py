"""Per-regime scenario runners for the batch CLI.

Every runner builds its system from the validated scenario, executes a
deterministic computation (any random probe state comes from the recorded
seed), evaluates the regime's built-in invariant suite, and returns a
RunReport with scalars and plottable series.
"""

from __future__ import annotations

import time

import numpy as np

from . import covariant as cv
from . import discrete as ds
from . import hydrodynamics as hy
from . import mechanics as mech
from . import potentials
from . import quantum_fields as qf
from . import wavefunction as wv
from .config import Scenario
from .errors import ConfigError
from .numerics import _uniform_steps, build_grid
from .reporting import RunReport, Series

__all__ = ["run_scenario_object"]


def _grid_from(sc: Scenario):
    return build_grid(
        sc.get("grid", "q_min", float),
        sc.get("grid", "q_max", float),
        sc.get("grid", "n", int),
    )


def _potential_from(sc: Scenario) -> potentials.Potential:
    kind = sc.get("potential", "kind", str).strip().lower()
    if kind == "free":
        return potentials.free()
    if kind == "box":
        return potentials.box()
    if kind == "harmonic":
        return potentials.harmonic(sc.get("potential", "k", float, default=1.0))
    if kind == "quartic":
        return potentials.quartic(sc.get("potential", "c", float, default=1.0))
    if kind == "polynomial":
        return potentials.polynomial(sc.get("potential", "coeffs", list))
    raise ConfigError(f"unknown potential kind '{kind}'", key="potential.kind")


def _mech_spec(sc: Scenario):
    pot = _potential_from(sc)
    mass = sc.get("system", "mass", float, default=1.0)
    return mech.NaturalSystemSpec(
        mass=lambda q: mass,
        potential=pot.v,
        mass_grad=lambda q: 0.0 if np.isscalar(q) else np.zeros(np.shape(q)),
        potential_grad=pot.dv,
    )


def run_classical(sc: Scenario, tol_scale: float) -> RunReport:
    """Narrow-Gaussian transport tracked against the characteristic flow."""
    spec = _mech_spec(sc)
    grid = _grid_from(sc)
    q = grid.nodes
    center = sc.get("initial", "center", float, default=1.0)
    width_cells = sc.get("initial", "width_cells", float, default=3.0)
    t_final = sc.get("run", "t_final", float)
    cfl = sc.get("run", "cfl", float, default=0.4)
    support_floor = sc.get("run", "support_floor", float, default=1e-6)

    rho = np.exp(-0.5 * ((q - center) / (width_cells * grid.h)) ** 2)
    ens = mech.ClassicalEnsemble(grid, mech.normalize_density(grid, rho), np.zeros(grid.n))

    flow = mech.hamilton_flow(spec, mech.PhaseState(center, 0.0), 1e-3, _uniform_steps(t_final, 1e-3)[0])

    samples = []

    def obs(t, e):
        cen = grid.h * float(np.sum(e.rho * q))
        k = min(int(round(t / flow.dt)), flow.states.shape[0] - 1)
        samples.append((t, cen, flow.states[k, 0], grid.h * float(np.sum(e.rho))))

    ens = mech.transport_run(ens, spec, t_final, cfl * grid.h, support_floor=support_floor, observer=obs)
    arr = np.asarray(samples)
    centroid_err = float(np.max(np.abs(arr[:, 1] - arr[:, 2])))
    mass_drift = float(np.max(np.abs(arr[:, 3] - 1.0)))

    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections)
    report.scalars["centroid_error_max"] = centroid_err
    report.scalars["centroid_error_over_2h"] = centroid_err / (2 * grid.h)
    report.add_invariant("mass_conservation", mass_drift, 1e-9 * tol_scale)
    report.add_invariant("centroid_tracking", centroid_err, 2 * grid.h * tol_scale)
    report.series["centroid"] = Series(
        ["t", "centroid", "flow_q", "mass"], arr
    )
    return report


def run_madelung(sc: Scenario, tol_scale: float) -> RunReport:
    """Quantum-pole hydrodynamic evolution of a displaced Gaussian."""
    spec = _mech_spec(sc)
    grid = _grid_from(sc)
    q = grid.nodes
    a = sc.get("system", "a", float, default=1.0)
    center = sc.get("initial", "center", float, default=0.2)
    sigma2 = sc.get("initial", "variance", float, default=0.5)
    t_final = sc.get("run", "t_final", float)
    dt = sc.get("run", "dt", float, default=0.2 * grid.h**2)

    dspec = hy.DiffusionSpec(a=a)
    rho = np.exp(-((q - center) ** 2) / (2 * sigma2))
    state = hy.HydroState(grid, mech.normalize_density(grid, rho), np.zeros(grid.n))

    samples = []

    def obs(t, s):
        samples.append((t, grid.h * float(np.sum(s.rho * q)), grid.h * float(np.sum(s.rho))))

    state = hy.madelung_run(spec, dspec, state, t_final, dt, observer=obs)
    arr = np.asarray(samples)
    mass_drift = float(np.max(np.abs(arr[:, 2] - 1.0)))

    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections)
    report.scalars["final_centroid"] = float(arr[-1, 1])
    report.add_invariant("mass_conservation", mass_drift, 1e-9 * tol_scale)
    report.series["centroid"] = Series(["t", "centroid", "mass"], arr)
    return report


def run_schrodinger(sc: Scenario, tol_scale: float) -> RunReport:
    """Linear evolution of a Gaussian packet; dispersion and norm checks."""
    spec = _mech_spec(sc)
    grid = _grid_from(sc)
    q = grid.nodes
    a = sc.get("system", "a", float, default=1.0)
    sigma = sc.get("initial", "sigma", float, default=1.0)
    center = sc.get("initial", "center", float, default=0.0)
    momentum = sc.get("initial", "momentum", float, default=0.0)
    t_final = sc.get("run", "t_final", float)
    dt = sc.get("run", "dt", float)

    psi0 = np.exp(-((q - center) ** 2) / (4 * sigma**2)) * np.exp(1j * momentum * q / a)
    wf = wv.WaveFunction(grid, wv.normalize_wavefunction(grid, psi0), a)
    n_steps, dt = _uniform_steps(t_final, dt)
    evo = wv.SchrodingerEvolution(spec, grid, a, dt)
    psi = wf.psi.copy()
    e0 = evo.energy(psi)
    rows = [(0.0, grid.h * float(np.sum(np.abs(psi) ** 2 * q)), _variance(grid, psi), 0.0, 0.0)]
    norm_drift = 0.0
    energy_drift = 0.0
    for k in range(n_steps):
        psi = evo.step(psi)
        t = (k + 1) * evo.dt
        nrm = grid.h * float(np.sum(np.abs(psi) ** 2))
        norm_drift = max(norm_drift, abs(nrm - 1.0))
        e = evo.energy(psi)
        energy_drift = max(energy_drift, abs(e - e0) / max(abs(e0), 1e-300))
        if (k + 1) % max(1, n_steps // 64) == 0:
            rows.append((t, grid.h * float(np.sum(np.abs(psi) ** 2 * q)), _variance(grid, psi), norm_drift, energy_drift))
    evo.check_boundary(psi, t_final)

    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections)
    report.scalars["final_variance"] = _variance(grid, psi)
    report.add_invariant("norm_drift_per_run", norm_drift, 1e-12 * n_steps * tol_scale)
    report.add_invariant("energy_drift_rel", energy_drift, 1e-8 * tol_scale)
    report.series["moments"] = Series(
        ["t", "centroid", "variance", "norm_drift", "energy_drift"], np.asarray(rows)
    )
    return report


def _variance(grid, psi):
    q = grid.nodes
    dens = np.abs(psi) ** 2
    mean = grid.h * float(np.sum(dens * q))
    return grid.h * float(np.sum(dens * (q - mean) ** 2))


def _spin_spec(sc: Scenario, rng):
    n = sc.get("system", "levels", int, default=2)
    a = sc.get("system", "a", float, default=1.0)
    b = sc.get("system", "b", float, default=-1.0)
    u_kind = sc.get("system", "u_kind", str, default="exchange")
    if u_kind == "exchange":
        U = np.ones((n, n)) - np.eye(n)
    elif u_kind == "random":
        U = rng.normal(size=(n, n))
        U = 0.5 * (U + U.T)
    else:
        raise ConfigError(f"unknown u_kind {u_kind!r}", key="system.u_kind")
    th_kind = sc.get("system", "theta_kind", str, default="zero")
    if th_kind == "zero":
        theta = np.zeros((n, n))
    elif th_kind == "random":
        theta = rng.normal(size=(n, n))
        theta = 0.5 * (theta - theta.T)
        np.fill_diagonal(theta, 0.0)
    else:
        raise ConfigError(f"unknown theta_kind {th_kind!r}", key="system.theta_kind")
    return ds.SpinSystemSpec(U=U, theta=theta, a=a, b=b)


def run_spin(sc: Scenario, tol_scale: float) -> RunReport:
    """Amplitude-form propagation cross-validated against the local form.

    h is diagonalised once per run: one `_propagator` gives the start state
    and the reference state at every step.
    """
    rng = np.random.default_rng(sc.seed)
    spec = _spin_spec(sc, rng)
    n = spec.n
    t_final = sc.get("run", "t_final", float, default=1.0)
    dt = sc.get("run", "dt", float, default=1e-3)
    t_start = sc.get("run", "t_start", float, default=0.1)
    floor = sc.get("run", "p_floor", float, default=1e-6)

    basis = sc.get("initial", "basis_state", int, default=0)
    if not 0 <= basis < n:
        raise ConfigError(f"[initial] basis_state must be in 0..{n - 1}, got {basis}",
                          key="initial.basis_state")
    psi0 = np.zeros(n, dtype=complex)
    psi0[basis] = 1.0
    st0 = ds.SpinState(psi0)

    reference = ds._propagator(spec, st0)
    start = reference(t_start)
    p, lam = ds.polar_decompose(start, spec.a)
    rows = [(t_start, *p)]
    cross_err = 0.0

    def obs(t, p_now, lam_now):
        nonlocal cross_err
        ref = reference(t_start + t)
        cross_err = max(cross_err, float(np.max(np.abs(p_now - np.abs(ref.psi) ** 2))))
        rows.append((t_start + t, *p_now))

    p, lam = ds.local_form_run(spec, p, lam, t_final, dt, floor=floor, observer=obs)
    total_p_err = abs(float(np.sum(p)) - 1.0)

    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections)
    report.scalars["cross_validation_max_err"] = cross_err
    report.add_invariant("total_probability", total_p_err, 1e-12 * tol_scale)
    report.add_invariant("cross_validation", cross_err, 1e-4 * tol_scale)
    report.series["populations"] = Series(
        ["t"] + [f"p_{i+1}" for i in range(n)], np.asarray(rows)
    )
    return report


def run_ddw(sc: Scenario, tol_scale: float) -> RunReport:
    """Covariant field evolution: plane-wave dispersion and conservation."""
    eta = sc.get("system", "eta", float, default=1.0)
    kg_mass = sc.get("system", "kg_mass", float, default=1.0)
    spec = cv.FieldLagrangianSpec(
        eta=eta,
        potential=lambda qq: 0.5 * kg_mass**2 * qq * qq,
        potential_grad=lambda qq: kg_mass**2 * qq,
    )
    length = sc.get("grid", "length", float, default=2 * np.pi)
    n = sc.get("grid", "n", int, default=256)
    g = cv.PeriodicGrid1D(length, n)
    x = g.nodes
    mode = sc.get("initial", "k_mode", int, default=1)
    amp = sc.get("initial", "amplitude", float, default=0.01)
    dt = sc.get("run", "dt", float, default=1e-3)
    n_steps = sc.get("run", "n_steps", int, default=20000)
    store = max(1, n_steps // 200)

    k = 2 * np.pi * mode / length
    omega = np.sqrt(k * k + kg_mass**2)
    q0 = amp * np.cos(k * x)
    pi0 = amp * omega * np.sin(k * x) * eta
    st = cv.FieldState1p1(g, q0, pi0)
    times, qs, pis, final = cv.ddw_evolve_series(spec, st, dt, n_steps, store_every=store)

    c = qs @ np.exp(-1j * k * x) * (2.0 / n)
    slope = np.polyfit(times, np.unwrap(np.angle(c)), 1)[0]
    omega_meas = float(abs(slope))
    # total_energy and total_momentum of each snapshot, from one tensor
    energies = np.empty(len(times))
    momenta = np.empty(len(times))
    for i in range(len(times)):
        T = cv.energy_momentum(spec, cv.FieldState1p1(g, qs[i], pis[i])).T
        energies[i] = g.dx * float(np.sum(T[:, 0, 0]))
        momenta[i] = g.dx * float(np.sum(T[:, 0, 1]))
    e_drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    p_scale = max(float(np.max(np.abs(momenta))), abs(energies[0]))
    p_drift = float(np.max(np.abs(momenta - momenta[0])) / p_scale)

    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections)
    report.scalars["omega_measured"] = omega_meas
    report.scalars["omega_exact"] = omega
    report.scalars["dispersion_rel_err"] = abs(omega_meas - omega) / omega
    report.add_invariant("energy_drift_rel", e_drift, 1e-6 * tol_scale)
    report.add_invariant("momentum_drift_rel", p_drift, 1e-6 * tol_scale)
    report.add_invariant("dispersion", abs(omega_meas - omega) / omega, 1e-3 * tol_scale)
    report.series["conservation"] = Series(
        ["t", "energy", "momentum"], np.column_stack([times, energies, momenta])
    )
    return report


def _qfield_spec(sc: Scenario):
    pot = _potential_from(sc)
    return qf.QFieldSpec(
        eta=sc.get("system", "eta", float, default=1.0),
        potential=pot.v,
        f=sc.get("system", "f", float, default=1.0),
    )


def run_vacuum(sc: Scenario, tol_scale: float) -> RunReport:
    """Invariant-state spectrum of the stationary operator."""
    spec = _qfield_spec(sc)
    grid = _grid_from(sc)
    k = sc.get("run", "k_eigen", int, default=3)
    vac = qf.vacuum_spectrum(spec, grid, k)
    mean, var = qf.field_fluctuations(vac)
    gram = grid.h * vac.psi.T @ vac.psi
    ortho = float(np.max(np.abs(gram - np.eye(k))))

    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections)
    for i, w in enumerate(vac.w):
        report.scalars[f"w_{i}"] = float(w)
    report.scalars["fluctuation_mean"] = mean
    report.scalars["fluctuation_variance"] = var
    report.add_invariant("orthonormality", ortho, 1e-8 * tol_scale)
    report.add_invariant("ordering", float(np.max(np.diff(vac.w) <= 0)), 0.5)
    report.series["eigenvalues"] = Series(
        ["index", "w"], np.column_stack([np.arange(k), vac.w])
    )
    return report


def run_space_independent(sc: Scenario, tol_scale: float) -> RunReport:
    """Superposition evolution in x0: conserved mean energy, zero P."""
    spec = _qfield_spec(sc)
    grid = _grid_from(sc)
    modes = sc.get("initial", "modes", list, default=[0, 1])
    if not modes or not all(v >= 0 and float(v).is_integer() for v in modes) or len(set(modes)) < len(modes):
        raise ConfigError(f"[initial] modes must be distinct integers >= 0, got {modes}", key="initial.modes")
    modes = [int(v) for v in modes]
    k = max(modes) + 1
    vac = qf.vacuum_spectrum(spec, grid, k)
    psi0 = np.sum(vac.psi[:, modes], axis=1) / np.sqrt(len(modes))
    dt = sc.get("run", "dt", float, default=2e-3)
    n_steps = sc.get("run", "n_steps", int, default=1000)
    res = qf.space_independent_evolve(
        spec, grid, psi0.astype(complex), dt, n_steps, store_every=max(1, n_steps // 50)
    )
    wbar_expected = float(np.mean(vac.w[modes]))
    drift = float(np.max(np.abs(res.mean_energy - res.mean_energy[0])) / abs(res.mean_energy[0]))

    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections)
    report.scalars["mean_energy"] = float(res.mean_energy[0])
    report.scalars["mean_energy_expected"] = wbar_expected
    report.add_invariant("mean_energy_drift_rel", drift, 1e-8 * tol_scale)
    report.add_invariant(
        "mean_energy_value",
        abs(res.mean_energy[0] - wbar_expected) / wbar_expected,
        1e-6 * tol_scale,
    )
    report.series["mean_energy"] = Series(
        ["x0", "w_bar"], np.column_stack([res.times, res.mean_energy])
    )
    return report


def run_confined(sc: Scenario, tol_scale: float) -> RunReport:
    """Static spherically symmetric solution and its confinement scales."""
    spec = _qfield_spec(sc)
    grid = _grid_from(sc)
    k = sc.get("run", "k_eigen", int, default=8)
    vac = qf.vacuum_spectrum(spec, grid, k)
    dw = vac.w[1] - vac.w[0]
    c = sc.get("initial", "c", list, default=[1.0, 0.1])
    r_min = sc.get("run", "r_min", float, default=0.5 * spec.f / dw)
    r_max = sc.get("run", "r_max", float, default=30.0 * spec.f / dw)
    tol = sc.get("run", "tol", float, default=1e-8)
    n_r = sc.get("run", "n_r", int, default=1200)
    res = qf.confined_solve(spec, vac, c, r_min, r_max, tol=tol, n_r=n_r)
    fit_lo = sc.get("run", "fit_lo", float, default=10.0 * spec.f / dw)
    fit_hi = sc.get("run", "fit_hi", float, default=25.0 * spec.f / dw)
    rep = qf.confinement_report(res.pair, vac, spec.f, window=(fit_lo, fit_hi))
    tail = qf.tail_integral(res.pair, vac)
    hist = np.asarray(res.residual_history)
    above = hist[hist > tol]
    monotone_violation = float(np.max(np.diff(above))) if above.size > 1 else 0.0

    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections)
    report.scalars["fitted_rate"] = rep.fitted_rate
    report.scalars["expected_rate"] = dw / spec.f
    report.scalars["confinement_radius"] = rep.radius
    report.scalars["iterations"] = res.iterations
    report.scalars["final_residual"] = float(hist[-1])
    report.add_invariant("residual_final", float(hist[-1]), tol * tol_scale)
    report.add_invariant("residual_monotone_above_tol", monotone_violation, 0.0)
    report.add_invariant(
        "rate_match", abs(rep.fitted_rate - dw / spec.f) / (dw / spec.f), 0.02 * tol_scale
    )
    with np.errstate(divide="ignore"):
        log_tail = np.where(tail > 0, np.log(tail), -np.inf)
    report.series["tail"] = Series(
        ["r", "tail_integral", "log_tail"], np.column_stack([res.pair.r, tail, log_tail])
    )
    report.series["residuals"] = Series(
        ["iteration", "residual"],
        np.column_stack([np.arange(hist.size), hist]),
    )
    return report


_RUNNERS = {
    "classical": run_classical,
    "madelung": run_madelung,
    "schrodinger": run_schrodinger,
    "spin": run_spin,
    "ddw": run_ddw,
    "vacuum": run_vacuum,
    "space-independent": run_space_independent,
    "confined": run_confined,
}


def run_scenario_object(sc: Scenario, tol_scale: float = 1.0) -> RunReport:
    runner = _RUNNERS[sc.regime]
    t0 = time.perf_counter()
    report = runner(sc, tol_scale)
    report.wall_time_s = time.perf_counter() - t0
    return report
