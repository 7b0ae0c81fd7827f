"""Scenario configuration: flat INI-style key-value text with one section
per concern; potentials come from the named catalog.

This module decides, before anything runs, whether a config is valid, so
``varq check`` rejects what ``varq run`` would.  ``SCHEMA`` maps regime ->
section -> key -> entry, one of: a type (the key is required); a default
value (parsed as its type: ``bool`` takes true/yes/on/1 or false/no/off/0
in any case, ``list`` a comma- or space-separated float list); a tuple of
accepted strings, the first the default (``None``: required; a ``Folded``
tuple ignores case); ``Derived(type)``, a key the runner derives from other
inputs when absent; or ``Between(entry, lo, hi)``, one of these whose number
(each entry of a list) must lie strictly between lo and hi.  ``COMMON`` adds
``[scenario]`` and ``[checks]`` to every regime, whose values are the
Scenario's ``regime``, ``seed`` and ``waive_invariants``.  A potential kind
reads the keys ``POTENTIALS`` names, and no other.  ``RULES`` are each
regime's rules across keys.  Whatever breaks one of these raises ConfigError
naming ``section.key``.  What needs V sampled on the grid (a confining
potential grows toward both grid ends) is left to the library's own checks.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass(frozen=True)
class Derived:
    cast: type


class Folded(tuple):
    """Accepted strings, matched after lower-casing."""


@dataclass(frozen=True)
class Between:
    """An entry (``default``) whose number, or each list entry, must lie strictly between ``lo`` and ``hi``."""

    default: object
    lo: float
    hi: float


INF = math.inf
# steps one run may take (numerics._uniform_steps and _check_fixed_steps hold the
# library to it too): the largest shipped run takes 20000, and a spin run holds
# about 300 B per recorded step, so a capped run stays near 0.3 GB
_MAX_STEPS = 10**6
# finite and > 0: required, 1 by default, or derived when absent
_SPAN, _UNIT, _DERIVED = Between(float, 0, INF), Between(1.0, 0, INF), Between(Derived(float), 0, INF)
_GRID = {"q_min": Between(float, -INF, INF), "q_max": Between(float, -INF, INF), "n": Between(int, 2, INF)}
POTENTIALS = {"free": (), "box": (), "harmonic": ("k",), "quartic": ("c",), "polynomial": ("coeffs",)}  # call order
_POTENTIAL = {"kind": Folded((None, *POTENTIALS)), "k": Between(1.0, -INF, INF), "c": Between(1.0, -INF, INF),
              "coeffs": Between(list, -INF, INF)}
_MECH = {"grid": _GRID, "system": {"mass": _UNIT, "a": _UNIT}, "potential": _POTENTIAL}
_QFIELD = {"grid": _GRID, "system": {"eta": _UNIT, "f": _UNIT}, "potential": {**_POTENTIAL, "k": _UNIT, "c": _UNIT}}
COMMON = {"scenario": {"regime": str, "seed": Between(0, -1, INF)}, "checks": {"waive": False}}
SCHEMA = {
    "classical": {**_MECH, "system": {"mass": _UNIT}, "initial": {"center": 1.0, "width_cells": Between(3.0, 0, INF)},
                  "run": {"t_final": _SPAN, "cfl": Between(0.4, 0, INF), "support_floor": Between(1e-6, 0.0, 1.0)}},
    "madelung": {**_MECH, "grid": {**_GRID, "n": int}, "initial": {"center": 0.2, "variance": Between(0.5, 0, INF)},
                 "run": {"t_final": _SPAN, "dt": _DERIVED}},  # dt = 0.2 h^2; RULES check n
    "schrodinger": {**_MECH, "initial": {"sigma": _UNIT, "center": 0.0, "momentum": Between(0.0, -INF, INF)},
                    "run": {"t_final": _SPAN, "dt": _SPAN}},
    "spin": {"system": {"levels": Between(2, 1, INF), "a": _UNIT, "b": Between(-1.0, -INF, INF),
                        "u_kind": ("exchange", "random"), "theta_kind": ("zero", "random")},
             "initial": {"basis_state": 0},
             "run": {"t_final": Between(1.0, 0.0, INF), "dt": Between(1e-3, 0.0, INF),
                     "t_start": Between(0.1, -INF, INF), "p_floor": Between(1e-6, 0, INF)}},
    "ddw": {"grid": {"length": Between(2 * math.pi, 0, INF), "n": Between(256, 2, INF)},
            "system": {"eta": _UNIT, "kg_mass": 1.0}, "initial": {"k_mode": 1, "amplitude": 0.01},
            "run": {"dt": Between(1e-3, 0, INF), "n_steps": Between(20000, 0, _MAX_STEPS + 1)}},
    "vacuum": {**_QFIELD, "run": {"k_eigen": Between(3, 0, INF)}},
    "space-independent": {**_QFIELD, "initial": {"modes": Between([0, 1], -INF, INF)},
                          "run": {"dt": Between(2e-3, 0, INF), "n_steps": Between(1000, 0, _MAX_STEPS + 1)}},
    "confined": {**_QFIELD, "initial": {"c": Between([1.0, 0.1], -INF, INF)},  # radii: multiples of f / (w1 - w0)
                 "run": {"k_eigen": Between(8, 1, INF), "r_min": _DERIVED, "r_max": _DERIVED,
                         "tol": Between(1e-8, 0.0, INF), "n_r": Between(1200, 1, INF), "fit_lo": _DERIVED,
                         "fit_hi": _DERIVED}},
}
# RULES[regime]: (section.key, rule) in order.  A rule takes the typed sections
# as keywords and gives its error message, or a false value when it holds.
_BOUNDS = ("grid.q_max", lambda grid, **_: not grid["q_min"] < grid["q_max"]
           and f"[grid] q_max must be > q_min = {grid['q_min']!r}, got {grid['q_max']!r}")
_CENTER = ("initial.center", lambda grid, initial, **_: not grid["q_min"] < initial["center"] < grid["q_max"]
           and f"[initial] center must lie inside the grid, got {initial['center']!r}")
_CONFINING = ("potential.kind", lambda potential, **_: potential["kind"] in ("free", "box")
              and f"[potential] kind {potential['kind']} does not confine the field")
_AFTER = lambda lo, hi: lambda run, **_: (run.get(lo, 0.0) >= run.get(hi, INF)  # when both are given
                                          and f"[run] {hi} must be > {lo} = {run[lo]!r}, got {run[hi]!r}")
_MODES = lambda m: not m or not all(v >= 0 and float(v).is_integer() for v in m) or len(set(m)) < len(m)
# a run of t_final / dt uniform steps (numerics._uniform_steps) takes at most _MAX_STEPS
_STEPS = lambda key, t_final, dt: (not t_final / dt <= _MAX_STEPS  # an overflow to inf fails too
                                   and f"[run] {key} gives t_final / dt = {t_final / dt:.6g} steps, more than {_MAX_STEPS}")
_DT = ("run.dt", lambda run, **_: "dt" in run and _STEPS("dt", run["t_final"], run["dt"]))
_H = lambda grid: (grid["q_max"] - grid["q_min"]) / (grid["n"] - 1)  # Grid1D.h
# the eigenpairs a run asks vacuum_spectrum for, of the n - 2 the grid's operator has
_EIGEN = lambda key, k: (key, lambda grid, **sec: k(sec) > grid["n"] - 2 and
                         f"[{key.replace('.', '] ', 1)} needs {k(sec)} eigenpairs, more than [grid] n - 2 = {grid['n'] - 2}")
RULES = {
    "classical": [_BOUNDS, _CENTER, ("run.t_final", lambda run, **_: _STEPS("t_final", run["t_final"], 1e-3)),  # the flow
                  ("run.cfl", lambda grid, run, **_: _STEPS("cfl", run["t_final"], run["cfl"] * _H(grid)))],
    "schrodinger": [_BOUNDS, _CENTER, _DT],
    "vacuum": [_BOUNDS, _CONFINING, _EIGEN("run.k_eigen", lambda sec: sec["run"]["k_eigen"])],
    "madelung": [_BOUNDS, _CENTER, ("grid.n", lambda grid, **_: grid["n"] < 7  # 3 bulk, 2 flux and 2 end nodes
                                    and f"[grid] n must be >= 7 for the quantum-pole step, got {grid['n']}"),
                 _DT, ("run.t_final", lambda grid, run, **_: "dt" not in run  # dt = 0.2 h^2
                       and _STEPS("t_final", run["t_final"], 0.2 * _H(grid) ** 2))],
    "spin": [("initial.basis_state", lambda system, initial, **_: not 0 <= initial["basis_state"] < system["levels"]
              and f"[initial] basis_state must be in 0..{system['levels'] - 1}, got {initial['basis_state']}"), _DT],
    "ddw": [("system.kg_mass", lambda system, **_: not math.isfinite(system["kg_mass"] * system["kg_mass"])
             and f"[system] kg_mass and its square must be finite, got {system['kg_mass']!r}"),
            ("initial.k_mode", lambda initial, **_: initial["k_mode"] == 0
             and "[initial] k_mode must be nonzero: a k = 0 field has no wave"),
            ("initial.amplitude", lambda initial, **_: not 0 < abs(initial["amplitude"]) < INF  # NaN fails too
             and f"[initial] amplitude must be finite and nonzero, got {initial['amplitude']!r}")],
    "space-independent": [_BOUNDS, _CONFINING, ("initial.modes", lambda initial, **_: _MODES(initial["modes"])
                          and f"[initial] modes must be distinct integers >= 0, got {initial['modes']}"),
                          _EIGEN("initial.modes", lambda sec: int(max(sec["initial"]["modes"])) + 1)],
    "confined": [_BOUNDS, _CONFINING, ("initial.c", lambda initial, **_: initial["c"][:1] != [1.0]
                                       and f"[initial] c must start with c0 = 1, got {initial['c']}"),
                 ("initial.c", lambda initial, run, **_: len(initial["c"]) > run["k_eigen"]
                  and f"[initial] c has {len(initial['c'])} coefficients, more than [run] k_eigen = {run['k_eigen']}"),
                 _EIGEN("run.k_eigen", lambda sec: sec["run"]["k_eigen"]),
                 ("run.r_max", _AFTER("r_min", "r_max")), ("run.fit_hi", _AFTER("fit_lo", "fit_hi")),
                 ("run.r_max", _AFTER("fit_lo", "r_max")), ("run.fit_hi", _AFTER("r_min", "fit_hi"))],  # windows overlap
}
_BOOLS = {"true": True, "yes": True, "on": True, "1": True, "false": False, "no": False, "off": False, "0": False}


@dataclass
class Scenario:
    """A config checked against ``SCHEMA``: ``sections`` holds the raw strings
    (the report echoes them), ``params`` the typed value of every key in
    ``SCHEMA[regime]``, defaults filled in (a ``Derived`` key only when given,
    a potential's keys only when its kind reads them).
    The ``COMMON`` keys live only in the fields, so ``--seed`` has one value
    to override."""

    regime: str
    seed: int
    sections: dict
    params: dict
    waive_invariants: bool
    name: str


def _typed(section: str, key: str, entry, raw: str):
    """[section] key = ``raw`` parsed as its table ``entry`` says."""
    if isinstance(entry, Between):
        value = _typed(section, key, entry.default, raw)
        if not all(entry.lo < v < entry.hi for v in (value if isinstance(value, list) else [value])):  # NaN fails
            rule = "finite" if entry.lo == -INF else f"finite and > {entry.lo!r}"
            rule = rule if entry.hi == INF else f"> {entry.lo!r} and < {entry.hi!r}"
            raise ConfigError(f"[{section}] {key} must be {rule}, got {value!r}", key=f"{section}.{key}")
        return value
    if isinstance(entry, tuple):
        value = raw.lower() if isinstance(entry, Folded) else raw
        if value not in entry:
            raise ConfigError(f"unknown {section} {key} {value!r}", key=f"{section}.{key}")
        return value
    cast = entry.cast if isinstance(entry, Derived) else entry if isinstance(entry, type) else type(entry)
    try:
        if cast is bool:
            return _BOOLS[raw.lower()]
        return [float(s) for s in raw.replace(",", " ").split()] if cast is list else cast(raw)
    except (KeyError, ValueError) as exc:
        what = "a float list" if cast is list else cast.__name__
        raise ConfigError(f"cannot parse [{section}] {key} = {raw!r} as {what}", key=f"{section}.{key}") from exc


def _section(section: str, table: dict, raw: dict) -> dict:
    """Typed values of one section: each key of ``table``, defaults filled in."""
    suffix = ""
    if section == "potential" and "kind" in raw:  # the keys its kind reads, and no other
        kind = _typed(section, "kind", table["kind"], raw["kind"])
        table, suffix = {key: table[key] for key in ("kind", *POTENTIALS[kind])}, f" for kind {kind}"
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown key [{section}] {key}{suffix}", key=f"{section}.{key}")
    out = {}
    for key, entry in table.items():
        base = entry.default if isinstance(entry, Between) else entry
        if key in raw:
            out[key] = _typed(section, key, entry, raw[key])
        elif isinstance(base, type) or (isinstance(base, tuple) and base[0] is None):
            raise ConfigError(f"missing required key [{section}] {key}", key=f"{section}.{key}")
        elif not isinstance(base, Derived):
            out[key] = base[0] if isinstance(base, tuple) else type(base)(base)  # a list is copied
    return out


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    parser = configparser.ConfigParser(interpolation=None, default_section="")  # [DEFAULT] is no special case
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    sections = {s: dict(parser.items(s)) for s in parser.sections()}
    if "scenario" not in sections:
        raise ConfigError("missing [scenario] section", key="scenario")
    head = _section("scenario", COMMON["scenario"], sections["scenario"])
    regime = head["regime"]
    if regime not in SCHEMA:
        raise ConfigError(f"unknown regime {regime!r}; expected one of {', '.join(SCHEMA)}", key="scenario.regime")
    for section in sections:
        if section not in SCHEMA[regime] and section not in COMMON:
            raise ConfigError(f"unknown section [{section}] for regime {regime}", key=section)
    waive = _section("checks", COMMON["checks"], sections.get("checks", {}))["waive"]
    params = {section: _section(section, keys, sections.get(section, {})) for section, keys in SCHEMA[regime].items()}
    for key, rule in RULES[regime]:
        message = rule(**params)
        if message:
            raise ConfigError(message, key=key)
    return Scenario(regime, head["seed"], sections, params, waive, name)


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_scenario(text, name=p.stem)
