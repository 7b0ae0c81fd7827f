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
    return build_grid(sc.params["grid"]["q_min"], sc.params["grid"]["q_max"], sc.params["grid"]["n"])


def _potential_from(sc: Scenario) -> potentials.Potential:
    kind = sc.params["potential"]["kind"]
    if kind == "harmonic":
        return potentials.harmonic(sc.params["potential"]["k"])
    if kind == "quartic":
        return potentials.quartic(sc.params["potential"]["c"])
    if kind == "polynomial":
        if "coeffs" not in sc.params["potential"]:
            raise ConfigError("missing required key [potential] coeffs", key="potential.coeffs")
        return potentials.polynomial(sc.params["potential"]["coeffs"])
    return getattr(potentials, kind)()  # free or box


def _mech_spec(sc: Scenario):
    pot = _potential_from(sc)
    return mech.NaturalSystemSpec(
        mass=lambda q: sc.params["system"]["mass"],
        potential=pot.v,
        mass_grad=lambda q: 0.0 if np.isscalar(q) else np.zeros(np.shape(q)),
        potential_grad=pot.dv,
    )


def run_classical(sc: Scenario, tol_scale: float) -> RunReport:
    """Narrow-Gaussian transport tracked against the characteristic flow."""
    spec = _mech_spec(sc)
    grid = _grid_from(sc)
    q = grid.nodes
    center, t_final = sc.params["initial"]["center"], sc.params["run"]["t_final"]
    rho = np.exp(-0.5 * ((q - center) / (sc.params["initial"]["width_cells"] * grid.h)) ** 2)
    ens = mech.ClassicalEnsemble(grid, mech.normalize_density(grid, rho), np.zeros(grid.n))

    flow = mech.hamilton_flow(spec, mech.PhaseState(center, 0.0), 1e-3, _uniform_steps(t_final, 1e-3)[0])

    samples = []

    def obs(t, e):
        cen = grid.h * float((e.rho * q).sum())
        k = min(int(round(t / flow.dt)), flow.states.shape[0] - 1)
        samples.append((t, cen, flow.states[k, 0], grid.h * float(e.rho.sum())))

    ens = mech.transport_run(ens, spec, t_final, sc.params["run"]["cfl"] * grid.h,
                             support_floor=sc.params["run"]["support_floor"], observer=obs)
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
    dspec = hy.DiffusionSpec(a=sc.params["system"]["a"])
    rho = np.exp(-((q - sc.params["initial"]["center"]) ** 2) / (2 * sc.params["initial"]["variance"]))
    state = hy.HydroState(grid, mech.normalize_density(grid, rho), np.zeros(grid.n))

    samples = []

    def obs(t, s):
        samples.append((t, grid.h * float((s.rho * q).sum()), grid.h * float(s.rho.sum())))

    dt = sc.params["run"].get("dt", 0.2 * grid.h**2)
    state = hy.madelung_run(spec, dspec, state, sc.params["run"]["t_final"], dt, observer=obs)
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
    a, t_final = sc.params["system"]["a"], sc.params["run"]["t_final"]
    psi0 = (np.exp(-((q - sc.params["initial"]["center"]) ** 2) / (4 * sc.params["initial"]["sigma"] ** 2))
            * np.exp(1j * sc.params["initial"]["momentum"] * q / a))
    wf = wv.WaveFunction(grid, wv.normalize_wavefunction(grid, psi0), a)
    n_steps, dt = _uniform_steps(t_final, sc.params["run"]["dt"])
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
    n = sc.params["system"]["levels"]
    if sc.params["system"]["u_kind"] == "exchange":
        U = np.ones((n, n)) - np.eye(n)
    else:
        U = rng.normal(size=(n, n))
        U = 0.5 * (U + U.T)
    if sc.params["system"]["theta_kind"] == "zero":
        theta = np.zeros((n, n))
    else:
        theta = rng.normal(size=(n, n))
        theta = 0.5 * (theta - theta.T)
        np.fill_diagonal(theta, 0.0)
    return ds.SpinSystemSpec(U=U, theta=theta, a=sc.params["system"]["a"], b=sc.params["system"]["b"])


def run_spin(sc: Scenario, tol_scale: float) -> RunReport:
    """Amplitude-form propagation cross-validated against the local form.

    h is diagonalised once per run: one `_propagator` gives the start state
    and the reference state at every step.
    """
    rng = np.random.default_rng(sc.seed)
    spec = _spin_spec(sc, rng)
    n = spec.n
    t_start = sc.params["run"]["t_start"]
    basis = sc.params["initial"]["basis_state"]
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

    p, lam = ds.local_form_run(spec, p, lam, sc.params["run"]["t_final"], sc.params["run"]["dt"],
                               floor=sc.params["run"]["p_floor"], observer=obs)
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
    kg2 = sc.params["system"]["kg_mass"] ** 2
    spec = cv.FieldLagrangianSpec(
        eta=sc.params["system"]["eta"],
        potential=lambda qq: 0.5 * kg2 * qq * qq,
        potential_grad=lambda qq: kg2 * qq,
    )
    g = cv.PeriodicGrid1D(sc.params["grid"]["length"], sc.params["grid"]["n"])
    x = g.nodes
    n_steps = sc.params["run"]["n_steps"]

    k = 2 * np.pi * sc.params["initial"]["k_mode"] / g.length
    omega = np.sqrt(k * k + kg2)
    q0 = sc.params["initial"]["amplitude"] * np.cos(k * x)
    pi0 = sc.params["initial"]["amplitude"] * omega * np.sin(k * x) * spec.eta
    st = cv.FieldState1p1(g, q0, pi0)
    times, qs, pis, final = cv.ddw_evolve_series(spec, st, sc.params["run"]["dt"], n_steps,
                                                 store_every=max(1, n_steps // 200))

    c = qs @ np.exp(-1j * k * x) * (2.0 / g.n)
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
    return qf.QFieldSpec(eta=sc.params["system"]["eta"], potential=pot.v, f=sc.params["system"]["f"])


def run_vacuum(sc: Scenario, tol_scale: float) -> RunReport:
    """Invariant-state spectrum of the stationary operator."""
    spec = _qfield_spec(sc)
    grid = _grid_from(sc)
    vac = qf.vacuum_spectrum(spec, grid, sc.params["run"]["k_eigen"])
    mean, var = qf.field_fluctuations(vac)
    gram = grid.h * vac.psi.T @ vac.psi
    ortho = float(np.max(np.abs(gram - np.eye(vac.w.size))))

    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections)
    for i, w in enumerate(vac.w):
        report.scalars[f"w_{i}"] = float(w)
    report.scalars["fluctuation_mean"] = mean
    report.scalars["fluctuation_variance"] = var
    report.add_invariant("orthonormality", ortho, 1e-8 * tol_scale)
    report.add_invariant("ordering", float(np.max(np.diff(vac.w) <= 0)), 0.5)
    report.series["eigenvalues"] = Series(
        ["index", "w"], np.column_stack([np.arange(vac.w.size), vac.w])
    )
    return report


def run_space_independent(sc: Scenario, tol_scale: float) -> RunReport:
    """Superposition evolution in x0: conserved mean energy, zero P."""
    spec = _qfield_spec(sc)
    grid = _grid_from(sc)
    modes = sc.params["initial"]["modes"]
    if not modes or not all(v >= 0 and float(v).is_integer() for v in modes) or len(set(modes)) < len(modes):
        raise ConfigError(f"[initial] modes must be distinct integers >= 0, got {modes}", key="initial.modes")
    modes = [int(v) for v in modes]
    k = max(modes) + 1
    vac = qf.vacuum_spectrum(spec, grid, k)
    psi0 = np.sum(vac.psi[:, modes], axis=1) / np.sqrt(len(modes))
    n_steps = sc.params["run"]["n_steps"]
    res = qf.space_independent_evolve(
        spec, grid, psi0.astype(complex), sc.params["run"]["dt"], n_steps, store_every=max(1, n_steps // 50)
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
    vac = qf.vacuum_spectrum(spec, grid, sc.params["run"]["k_eigen"])
    dw = vac.w[1] - vac.w[0]
    tol = sc.params["run"]["tol"]
    res = qf.confined_solve(spec, vac, sc.params["initial"]["c"], sc.params["run"].get("r_min", 0.5 * spec.f / dw),
                            sc.params["run"].get("r_max", 30.0 * spec.f / dw), tol, sc.params["run"]["n_r"])
    rep = qf.confinement_report(res.pair, vac, spec.f, window=(sc.params["run"].get("fit_lo", 10.0 * spec.f / dw),
                                                               sc.params["run"].get("fit_hi", 25.0 * spec.f / dw)))
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
