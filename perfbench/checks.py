"""The benchmark's own correctness checks, independent of the invariants
that varq evaluates on itself.

Each check compares a reported value with a closed form computed here from
the scenario's config parameters alone.  A scenario fails if any check
fails.  Tolerances are the benchmark's, fixed per check below; they sit
well above the discretisation error of the grids and steps the workloads
use, so on a correct program they pass with a wide margin.

Every check reads the same three inputs, whether they come from an
in-memory ``RunReport`` or from the files a sweep writes: the config
sections (strings), the scalars and the series (columns, rows).
"""

from __future__ import annotations

import math

import numpy as np

# relative error of harmonic vacuum levels on grids with h <= 0.017
VACUUM_REL_TOL = 1e-4
# relative error of the free / harmonic Gaussian variance and centroid
SCHRODINGER_REL_TOL = 2e-3
# relative error of the fitted confinement rate against sqrt(k / eta)
CONFINED_RATE_REL_TOL = 0.02
# relative error of the leapfrog plane-wave frequency, k dx <= 2 pi / 128
KG_OMEGA_REL_TOL = 5e-4
# absolute error of exchange populations against the closed form
SPIN_POP_ABS_TOL = 1e-8
# classical and Madelung centroid against q0 cos(w t), relative to the whole
# closed-form displacement max |q0 (1 - cos w t)|: a frozen stepper reads 1
CENTROID_DISPLACEMENT_REL_TOL = 0.05


def _f(sections, sec, key, default):
    raw = sections.get(sec, {}).get(key)
    return float(raw) if raw is not None else float(default)


def _col(series, name, col):
    columns, rows = series[name]
    return np.asarray(rows)[:, columns.index(col)]


def _harmonic_k(sections):
    pot = sections.get("potential", {})
    if pot.get("kind", "").strip() != "harmonic":
        return None
    return _f(sections, "potential", "k", 1.0)


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_vacuum(sections, scalars, series):
    k = _harmonic_k(sections)
    if k is None:
        return []
    w = _f(sections, "system", "f", 1) * math.sqrt(k / _f(sections, "system", "eta", 1))
    n_levels = int(_f(sections, "run", "k_eigen", 3))
    err = max(_rel(scalars[f"w_{i}"], w * (i + 0.5)) for i in range(n_levels))
    return [("vacuum_levels_closed_form", err, VACUUM_REL_TOL)]


def check_space_independent(sections, scalars, series):
    k = _harmonic_k(sections)
    if k is None:
        return []
    w = _f(sections, "system", "f", 1) * math.sqrt(k / _f(sections, "system", "eta", 1))
    modes = [int(float(m)) for m in sections.get("initial", {}).get("modes", "0 1").replace(",", " ").split()]
    expected = w * (sum(modes) / len(modes) + 0.5)
    return [("mean_energy_closed_form", _rel(scalars["mean_energy"], expected), VACUUM_REL_TOL)]


def check_confined(sections, scalars, series):
    k = _harmonic_k(sections)
    if k is None:
        return []
    rate = math.sqrt(k / _f(sections, "system", "eta", 1))
    return [("confinement_rate_closed_form", _rel(scalars["fitted_rate"], rate), CONFINED_RATE_REL_TOL)]


def check_schrodinger(sections, scalars, series):
    """Gaussian packet: free-spreading or harmonic breathing variance, and
    the classical centroid path (a momentum kick does not change the
    variance of a Gaussian in a free or quadratic potential)."""
    a = _f(sections, "system", "a", 1)
    m = _f(sections, "system", "mass", 1)
    sigma = _f(sections, "initial", "sigma", 1)
    q0 = _f(sections, "initial", "center", 0)
    p0 = _f(sections, "initial", "momentum", 0)
    t = _col(series, "moments", "t")
    k = _harmonic_k(sections)
    if k is None:
        if sections.get("potential", {}).get("kind", "").strip() != "free":
            return []
        var = sigma**2 * (1.0 + (a * t / (2.0 * m * sigma**2)) ** 2)
        cen = q0 + p0 / m * t
    else:
        w = math.sqrt(k / m)
        var = sigma**2 * np.cos(w * t) ** 2 + (a / (2.0 * m * w * sigma)) ** 2 * np.sin(w * t) ** 2
        cen = q0 * np.cos(w * t) + p0 / (m * w) * np.sin(w * t)
    var_err = float(np.max(np.abs(_col(series, "moments", "variance") - var) / var))
    cen_err = float(np.max(np.abs(_col(series, "moments", "centroid") - cen))) / sigma
    return [
        ("gaussian_variance_closed_form", var_err, SCHRODINGER_REL_TOL),
        ("gaussian_centroid_closed_form", cen_err, SCHRODINGER_REL_TOL),
    ]


def check_ddw(sections, scalars, series):
    """Klein-Gordon plane wave: omega = sqrt(k^2 + m^2) (eta = 1)."""
    if _f(sections, "system", "eta", 1) != 1.0:
        return []
    length = _f(sections, "grid", "length", 2 * math.pi)
    kw = 2 * math.pi * _f(sections, "initial", "k_mode", 1) / length
    omega = math.sqrt(kw**2 + _f(sections, "system", "kg_mass", 1) ** 2)
    return [("klein_gordon_omega_closed_form", _rel(scalars["omega_measured"], omega), KG_OMEGA_REL_TOL)]


def check_spin(sections, scalars, series):
    """Exchange coupling U = 1 - I from basis state 0: p_0(t) =
    ((n-1)^2 + 1 + 2 (n-1) cos(b n t / a)) / n^2, which is cos^2(b t / a)
    for two levels; the other levels share the rest equally.  With random
    phase shifts this holds only for two levels."""
    sys_ = sections.get("system", {})
    n = int(_f(sections, "system", "levels", 2))
    if sys_.get("u_kind", "exchange").strip() != "exchange":
        return []
    if sys_.get("theta_kind", "zero").strip() != "zero" and n != 2:
        return []
    if int(_f(sections, "initial", "basis_state", 0)) != 0:
        return []
    a = _f(sections, "system", "a", 1)
    b = _f(sections, "system", "b", -1)
    t = _col(series, "populations", "t")
    p0 = ((n - 1) ** 2 + 1 + 2 * (n - 1) * np.cos(b * n * t / a)) / n**2
    err = float(np.max(np.abs(_col(series, "populations", "p_1") - p0)))
    for j in range(2, n + 1):
        err = max(err, float(np.max(np.abs(_col(series, "populations", f"p_{j}") - (1 - p0) / (n - 1)))))
    return [("exchange_population_closed_form", err, SPIN_POP_ABS_TOL)]


def _centroid_displacement(sections, series, center_default):
    """Centroid from rest in a quadratic potential against q0 cos(w t): the
    classical path, and for Madelung the exact Ehrenfest mean.  The error
    is scaled by the whole displacement, not by a fixed length, because
    short runs move the centroid by far less than a grid cell."""
    k = _harmonic_k(sections)
    if k is None:
        return None
    w = math.sqrt(k / _f(sections, "system", "mass", 1))
    q0 = _f(sections, "initial", "center", center_default)
    t = _col(series, "centroid", "t")
    err = float(np.max(np.abs(_col(series, "centroid", "centroid") - q0 * np.cos(w * t))))
    return err / float(np.max(np.abs(q0 * (1.0 - np.cos(w * t)))))


def check_classical(sections, scalars, series):
    err = _centroid_displacement(sections, series, 1.0)
    if err is None:
        return []
    return [("classical_centroid_displacement", err, CENTROID_DISPLACEMENT_REL_TOL)]


def check_madelung(sections, scalars, series):
    err = _centroid_displacement(sections, series, 0.2)
    if err is None:
        return []
    return [("madelung_ehrenfest_displacement", err, CENTROID_DISPLACEMENT_REL_TOL)]


CHECKS = {
    "vacuum": check_vacuum,
    "space-independent": check_space_independent,
    "confined": check_confined,
    "schrodinger": check_schrodinger,
    "ddw": check_ddw,
    "spin": check_spin,
    "classical": check_classical,
    "madelung": check_madelung,
}


def closed_form_checks(regime, sections, scalars, series) -> list:
    """[(name, error, tolerance)] for every closed form that applies."""
    return CHECKS[regime](sections, scalars, series)


def tol_use(invariants) -> float:
    """Largest value / tolerance over (value, tol) pairs; a zero tolerance
    counts as 0 when met and infinite when not."""
    worst = 0.0
    for value, tol in invariants:
        if not math.isfinite(value):
            worst = math.inf
        elif tol > 0:
            worst = max(worst, value / tol)
        elif value > 0:
            worst = math.inf
    return worst
