"""Per-regime scenario runners for the batch CLI.

Every runner builds its system from the validated scenario, executes a
deterministic computation (any random probe state comes from the recorded
seed), evaluates the regime's built-in invariant suite, and fills the
RunReport that run_scenario_object made with scalars and plottable series.
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
from .config import POTENTIALS, Scenario
from .errors import ConfigError, DomainEscapeError, InvalidArgumentError
from .numerics import _NORM_TOL, CayleyPropagator, _check_positive, _moments, _quad, _uniform_steps, build_grid
from .reporting import InvariantCheck, RunReport, Series

__all__ = ["run_scenario_object"]


def _grid_from(sc: Scenario):
    return build_grid(sc.params["grid"]["q_min"], sc.params["grid"]["q_max"], sc.params["grid"]["n"])


def _potential_from(sc: Scenario) -> potentials.Potential:
    pot = sc.params["potential"]
    return getattr(potentials, pot["kind"])(*(pot[key] for key in POTENTIALS[pot["kind"]]))


def _mech_spec(sc: Scenario):
    pot = _potential_from(sc)
    return mech.NaturalSystemSpec(mass=sc.params["system"]["mass"], potential=pot.v, potential_grad=pot.dv)


def run_classical(sc: Scenario, report: RunReport) -> None:
    """Narrow-Gaussian transport tracked against the characteristic flow."""
    spec = _mech_spec(sc)
    grid = _grid_from(sc)
    q = grid.nodes
    center, t_final = sc.params["initial"]["center"], sc.params["run"]["t_final"]
    rho = np.exp(-0.5 * ((q - center) / (sc.params["initial"]["width_cells"] * grid.h)) ** 2)
    ens = mech.HydroState(grid, mech.normalize_density(grid, rho), np.zeros(grid.n))

    flow_dt = 1e-3
    flow = mech.hamilton_flow(spec, mech.PhaseState(center, 0.0), flow_dt, _uniform_steps(t_final, flow_dt)[0])

    samples = []

    def obs(t, rho, mass):
        cen = _quad(grid.h, rho * q)
        k = min(int(round(t / flow_dt)), flow.shape[0] - 1)
        samples.append((t, cen, flow[k, 0], mass))

    ens = mech.transport_run(ens, spec, t_final, sc.params["run"]["cfl"] * grid.h,
                             support_floor=sc.params["run"]["support_floor"], observer=obs)
    arr = np.asarray(samples)
    centroid_err = float(np.max(np.abs(arr[:, 1] - arr[:, 2])))
    mass_drift = float(np.max(np.abs(arr[:, 3] - 1.0)))

    report.scalars["centroid_error_max"] = centroid_err
    report.scalars["centroid_error_over_2h"] = centroid_err / (2 * grid.h)
    report.add_invariant("mass_conservation", mass_drift, _NORM_TOL)
    report.add_invariant("centroid_tracking", centroid_err, 2 * grid.h)
    report.series["centroid"] = Series(["t", "centroid", "flow_q", "mass"], arr)


def run_madelung(sc: Scenario, report: RunReport) -> None:
    """Quantum-pole hydrodynamic evolution of a displaced Gaussian."""
    spec = _mech_spec(sc)
    grid = _grid_from(sc)
    q = grid.nodes
    dspec = hy.DiffusionSpec(a=sc.params["system"]["a"])
    rho = np.exp(-((q - sc.params["initial"]["center"]) ** 2) / (2 * sc.params["initial"]["variance"]))
    state = mech.HydroState(grid, mech.normalize_density(grid, rho), np.zeros(grid.n))

    samples = []

    def obs(t, rho, mass):
        samples.append((t, _quad(grid.h, rho * q), mass))

    dt = sc.params["run"].get("dt", 0.2 * grid.h**2)
    state = hy.madelung_run(spec, dspec, state, sc.params["run"]["t_final"], dt, observer=obs)
    arr = np.asarray(samples)
    mass_drift = float(np.max(np.abs(arr[:, 2] - 1.0)))

    report.scalars["final_centroid"] = float(arr[-1, 1])
    report.add_invariant("mass_conservation", mass_drift, _NORM_TOL)
    report.series["centroid"] = Series(["t", "centroid", "mass"], arr)


def run_schrodinger(sc: Scenario, report: RunReport) -> None:
    """Linear evolution of a Gaussian packet; dispersion and norm checks."""
    spec = _mech_spec(sc)
    grid = _grid_from(sc)
    q = grid.nodes
    a, t_final, sigma = sc.params["system"]["a"], sc.params["run"]["t_final"], sc.params["initial"]["sigma"]
    psi0 = (np.exp(-((q - sc.params["initial"]["center"]) ** 2) / (4 * sigma**2))
            * np.exp(1j * sc.params["initial"]["momentum"] * q / a))
    wf = wv.WaveFunction(grid, wv.normalize_wavefunction(grid, psi0), a)
    try:  # a start the leakage guard refuses is the config's fault; a wall reached later is the run's
        wv._check_boundary(grid.h, np.abs(wf.psi) ** 2, 0.0)
    except DomainEscapeError as exc:
        raise ConfigError(f"[initial] sigma = {sigma!r} does not fit the grid: {exc}", key="initial.sigma") from None
    n_steps, dt = _uniform_steps(t_final, sc.params["run"]["dt"])
    prop = CayleyPropagator(wv.schrodinger_operator(spec, grid, a), dt, a)
    rows, norm_drift, energy_drift = [], 0.0, 0.0
    for k, (psi, hpsi) in enumerate(prop.run(wf.psi, n_steps)):
        dens = np.abs(psi) ** 2
        wv._check_boundary(grid.h, dens, k * dt)  # every state: a packet may reach a wall and come back
        e = wv._expected_energy(grid.h, psi, hpsi)
        if k == 0:
            e0 = e
        else:
            norm_drift = max(norm_drift, abs(_quad(grid.h, dens) - 1.0))
            energy_drift = max(energy_drift, abs(e - e0) / max(abs(e0), 1e-300))
        if k % max(1, n_steps // 64) == 0:
            rows.append((k * dt, *_moments(grid.h, q, dens), norm_drift, energy_drift))

    report.scalars["final_variance"] = _moments(grid.h, q, dens)[1]  # dens is |psi|^2 of the final psi
    report.add_invariant("norm_drift_per_run", norm_drift, 1e-12 * n_steps)
    report.add_invariant("energy_drift_rel", energy_drift, 1e-8)
    report.series["moments"] = Series(["t", "centroid", "variance", "norm_drift", "energy_drift"], np.asarray(rows))


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


def run_spin(sc: Scenario, report: RunReport) -> None:
    """Amplitude-form propagation cross-validated against the local form.

    The observer only records each step; after the run one `_propagator`
    call (h diagonalised once) gives the reference |psi|^2 at every recorded
    time.  A run failing at step K checks steps 1..K-1 first: a reference
    failure at an earlier step is the one raised.
    """
    spec = _spin_spec(sc, np.random.default_rng(sc.seed))
    n = spec.n
    t_start = sc.params["run"]["t_start"]
    reference = ds._propagator(spec, ds.SpinState(np.eye(n, dtype=complex)[sc.params["initial"]["basis_state"]]))
    start, _ = reference([t_start])
    p, lam = ds.polar_decompose(ds.SpinState(start[0]), spec.a)
    rows = [(t_start, *p)]

    def obs(t, p_now, lam_now):
        rows.append((t_start + t, *p_now))

    try:
        p, lam = ds.local_form_run(spec, p, lam, sc.params["run"]["t_final"], sc.params["run"]["dt"],
                                   floor=sc.params["run"]["p_floor"], observer=obs)
    finally:  # on a failed run too: an earlier reference failure replaces its error
        table = np.asarray(rows)
        _, ref_p = reference(table[1:, 0])
    errs = np.max(np.abs(table[1:, 1:] - ref_p), axis=1)
    cross_err = float(np.fmax.reduce(errs, initial=0.0))  # skips NaN, as a max(cross_err, v) fold does
    total_p_err = abs(float(np.sum(p)) - 1.0)

    report.scalars["cross_validation_max_err"] = cross_err
    report.add_invariant("total_probability", total_p_err, 1e-12)
    report.add_invariant("cross_validation", cross_err, 1e-4)
    report.series["populations"] = Series(["t"] + [f"p_{i+1}" for i in range(n)], table)


def run_ddw(sc: Scenario, report: RunReport) -> None:
    """Covariant field evolution: plane-wave dispersion and conservation."""
    k_mode, amp = sc.params["initial"]["k_mode"], sc.params["initial"]["amplitude"]
    kg2 = sc.params["system"]["kg_mass"] ** 2
    spec = cv.FieldLagrangianSpec(
        eta=sc.params["system"]["eta"],
        potential=lambda qq: 0.5 * kg2 * qq * qq,
        potential_grad=lambda qq: kg2 * qq,
    )
    g = cv.PeriodicGrid1D(sc.params["grid"]["length"], sc.params["grid"]["n"])
    x = g.nodes
    n_steps = sc.params["run"]["n_steps"]

    k = 2 * np.pi * k_mode / g.length
    omega = np.sqrt(k * k + kg2 / spec.eta)  # eta (q_tt - q_xx) + kg^2 q = 0
    q0 = amp * np.cos(k * x)
    pi0 = amp * omega * np.sin(k * x) * spec.eta
    st = cv.FieldState1p1(g, q0, pi0)
    times, qs, pis, final = cv.ddw_evolve_series(spec, st, sc.params["run"]["dt"], n_steps,
                                                 store_every=max(1, n_steps // 200))

    c = qs @ np.exp(-1j * k * x) * (2.0 / g.n)
    slope = np.polyfit(times, np.unwrap(np.angle(c)), 1)[0]
    omega_meas = float(abs(slope))
    t00, t01 = cv._tensor(spec, qs, pis, g.dx)[:2]  # total_energy and total_momentum per snapshot
    energies, momenta = _quad(g.dx, t00), _quad(g.dx, t01)
    e_drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    p_scale = max(float(np.max(np.abs(momenta))), abs(energies[0]))
    p_drift = float(np.max(np.abs(momenta - momenta[0])) / p_scale)

    report.scalars["omega_measured"] = omega_meas
    report.scalars["omega_exact"] = omega
    report.scalars["dispersion_rel_err"] = abs(omega_meas - omega) / omega
    report.add_invariant("energy_drift_rel", e_drift, 1e-6)
    report.add_invariant("momentum_drift_rel", p_drift, 1e-6)
    report.add_invariant("dispersion", abs(omega_meas - omega) / omega, 1e-3)
    report.series["conservation"] = Series(["t", "energy", "momentum"], np.column_stack([times, energies, momenta]))


def _qfield_spec(sc: Scenario):
    pot = _potential_from(sc)
    return qf.QFieldSpec(eta=sc.params["system"]["eta"], potential=pot.v, f=sc.params["system"]["f"])


def run_vacuum(sc: Scenario, report: RunReport) -> None:
    """Invariant-state spectrum of the stationary operator."""
    spec = _qfield_spec(sc)
    grid = _grid_from(sc)
    vac = qf.vacuum_spectrum(spec, grid, sc.params["run"]["k_eigen"])
    mean, var = qf.field_fluctuations(vac)

    for i, w in enumerate(vac.w):
        report.scalars[f"w_{i}"] = float(w)
    report.scalars["fluctuation_mean"] = mean
    report.scalars["fluctuation_variance"] = var
    report.add_invariant("orthonormality", vac.ortho, 1e-8)
    # a 0/1 flag with threshold 0.5, not a tolerance: scaled, a failed ordering would pass
    report.invariants.append(InvariantCheck("ordering", float(np.any(np.diff(vac.w) <= 0)), 0.5))
    report.series["eigenvalues"] = Series(["index", "w"], np.column_stack([np.arange(vac.w.size), vac.w]))


def run_space_independent(sc: Scenario, report: RunReport) -> None:
    """Superposition evolution in x0: conserved mean energy, zero P."""
    spec = _qfield_spec(sc)
    grid = _grid_from(sc)
    modes = [int(v) for v in sc.params["initial"]["modes"]]
    k = max(modes) + 1
    vac = qf.vacuum_spectrum(spec, grid, k)
    psi0 = np.sum(vac.psi[:, modes], axis=1) / np.sqrt(len(modes))
    n_steps = sc.params["run"]["n_steps"]
    res = qf.space_independent_evolve(
        spec, grid, psi0.astype(complex), sc.params["run"]["dt"], n_steps, store_every=max(1, n_steps // 50)
    )
    wbar_expected = float(np.mean(vac.w[modes]))
    drift = float(np.max(np.abs(res.mean_energy - res.mean_energy[0])) / abs(res.mean_energy[0]))

    report.scalars["mean_energy"] = float(res.mean_energy[0])
    report.scalars["mean_energy_expected"] = wbar_expected
    report.add_invariant("mean_energy_drift_rel", drift, 1e-8)
    report.add_invariant("mean_energy_value", abs(res.mean_energy[0] - wbar_expected) / wbar_expected, 1e-6)
    report.series["mean_energy"] = Series(["x0", "w_bar"], np.column_stack([res.times, res.mean_energy]))


def run_confined(sc: Scenario, report: RunReport) -> None:
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
    hist = np.asarray(res.residual_history)
    above = hist[hist > tol]
    monotone_violation = float(np.max(np.diff(above))) if above.size > 1 else 0.0

    report.scalars["fitted_rate"] = rep.fitted_rate
    report.scalars["expected_rate"] = dw / spec.f
    report.scalars["confinement_radius"] = rep.radius
    report.scalars["iterations"] = res.iterations
    report.scalars["final_residual"] = float(hist[-1])
    report.add_invariant("residual_final", float(hist[-1]), tol)
    report.add_invariant("residual_monotone_above_tol", monotone_violation, 0.0)
    report.add_invariant("rate_match", abs(rep.fitted_rate - dw / spec.f) / (dw / spec.f), 0.02)
    with np.errstate(divide="ignore"):
        log_tail = np.where(rep.tail > 0, np.log(rep.tail), -np.inf)
    report.series["tail"] = Series(
        ["r", "tail_integral", "log_tail"], np.column_stack([res.pair.r, rep.tail, log_tail])
    )
    report.series["residuals"] = Series(["iteration", "residual"], np.column_stack([np.arange(hist.size), hist]))


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
    """One run of ``sc``; every invariant tolerance is scaled by ``tol_scale`` (finite and > 0)."""
    _check_positive("tol_scale", tol_scale, InvalidArgumentError)
    report = RunReport(sc.name, sc.regime, sc.seed, sc.sections, tol_scale)
    t0 = time.perf_counter()
    _RUNNERS[sc.regime](sc, report)
    report.wall_time_s = time.perf_counter() - t0
    return report
