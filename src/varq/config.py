"""Scenario configuration: flat INI-style key-value text with one section
per concern; potentials come from the named catalog.

``SCHEMA`` maps regime -> section -> key -> entry, one of: a type (the key
is required); a default value (parsed as the default's type: ``bool`` takes
true/yes/on/1 or false/no/off/0 in any case, ``list`` a comma- or
space-separated float list); a tuple of accepted strings, the first the
default (``None``: required; a ``Folded`` tuple ignores case); or
``Derived(type)``, a key the runner derives from other inputs when absent.
``COMMON`` adds ``[scenario]`` and ``[checks]`` to every regime; their
values are the Scenario's ``regime``, ``seed`` and ``waive_invariants``.
``parse_scenario`` checks a config against its table before anything runs:
an unknown section or key, a missing required key, an unparsable value or a
bad choice raises ConfigError naming ``section.key``.  Value ranges are
checked by the library's specs and steppers when a run builds them.
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


_GRID = {"q_min": float, "q_max": float, "n": int}
_POTENTIAL = {"kind": Folded((None, "free", "box", "harmonic", "quartic", "polynomial")),
              "k": 1.0, "c": 1.0, "coeffs": Derived(list)}  # coeffs: required for polynomial
_QFIELD = {"grid": _GRID, "system": {"eta": 1.0, "f": 1.0}, "potential": _POTENTIAL}
COMMON = {"scenario": {"regime": str, "seed": 0}, "checks": {"waive": False}}
SCHEMA = {
    "classical": {"grid": _GRID, "system": {"mass": 1.0}, "potential": _POTENTIAL,
                  "initial": {"center": 1.0, "width_cells": 3.0},
                  "run": {"t_final": float, "cfl": 0.4, "support_floor": 1e-6}},
    "madelung": {"grid": _GRID, "system": {"mass": 1.0, "a": 1.0}, "potential": _POTENTIAL,
                 "initial": {"center": 0.2, "variance": 0.5},
                 "run": {"t_final": float, "dt": Derived(float)}},  # dt = 0.2 h^2
    "schrodinger": {"grid": _GRID, "system": {"mass": 1.0, "a": 1.0}, "potential": _POTENTIAL,
                    "initial": {"sigma": 1.0, "center": 0.0, "momentum": 0.0},
                    "run": {"t_final": float, "dt": float}},
    "spin": {"system": {"levels": 2, "a": 1.0, "b": -1.0, "u_kind": ("exchange", "random"),
                        "theta_kind": ("zero", "random")},
             "initial": {"basis_state": 0},
             "run": {"t_final": 1.0, "dt": 1e-3, "t_start": 0.1, "p_floor": 1e-6}},
    "ddw": {"grid": {"length": 2 * math.pi, "n": 256}, "system": {"eta": 1.0, "kg_mass": 1.0},
            "initial": {"k_mode": 1, "amplitude": 0.01}, "run": {"dt": 1e-3, "n_steps": 20000}},
    "vacuum": {**_QFIELD, "run": {"k_eigen": 3}},
    "space-independent": {**_QFIELD, "initial": {"modes": [0, 1]}, "run": {"dt": 2e-3, "n_steps": 1000}},
    "confined": {**_QFIELD, "initial": {"c": [1.0, 0.1]},  # radii: multiples of f / (w1 - w0)
                 "run": {"k_eigen": 8, "r_min": Derived(float), "r_max": Derived(float), "tol": 1e-8,
                         "n_r": 1200, "fit_lo": Derived(float), "fit_hi": Derived(float)}},
}
_BOOLS = {"true": True, "yes": True, "on": True, "1": True, "false": False, "no": False, "off": False, "0": False}


@dataclass
class Scenario:
    """A config checked against ``SCHEMA``: ``sections`` holds the raw strings
    (the report echoes them), ``params`` the typed value of every key in
    ``SCHEMA[regime]``, defaults filled in (a ``Derived`` key only when given).
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
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown key [{section}] {key}", key=f"{section}.{key}")
    out = {}
    for key, entry in table.items():
        if key in raw:
            out[key] = _typed(section, key, entry, raw[key])
        elif isinstance(entry, type) or (isinstance(entry, tuple) and entry[0] is None):
            raise ConfigError(f"missing required key [{section}] {key}", key=f"{section}.{key}")
        elif not isinstance(entry, Derived):
            out[key] = entry[0] if isinstance(entry, tuple) else type(entry)(entry)  # a list is copied
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
    return Scenario(regime, head["seed"], sections, params, waive, name)


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_scenario(text, name=p.stem)
