"""Scenario configuration: flat INI-style key-value text with one section
per concern.  No expression language; potentials come from the named
catalog.  Parsing failures and validation failures raise ConfigError with
the offending section.key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

REGIMES = (
    "classical",
    "madelung",
    "schrodinger",
    "spin",
    "ddw",
    "vacuum",
    "space-independent",
    "confined",
)


@dataclass
class Scenario:
    """Validated scenario: regime plus raw per-section parameter maps."""

    regime: str
    seed: int
    sections: dict
    waive_invariants: bool = False
    name: str = "scenario"

    def get(self, section: str, key: str, cast, default=None):
        sec = self.sections.get(section, {})
        if key not in sec:
            if default is not None:
                return default
            raise ConfigError(f"missing required key [{section}] {key}", key=f"{section}.{key}")
        raw = sec[key]
        try:
            if cast is bool:
                low = raw.strip().lower()
                if low in ("true", "yes", "1", "on"):
                    return True
                if low in ("false", "no", "0", "off"):
                    return False
                raise ValueError(raw)
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"cannot parse [{section}] {key} = {raw!r} as {cast.__name__}",
                key=f"{section}.{key}",
            ) from exc

    def get_floats(self, section: str, key: str, default=None):
        sec = self.sections.get(section, {})
        if key not in sec:
            if default is not None:
                return list(default)
            raise ConfigError(f"missing required key [{section}] {key}", key=f"{section}.{key}")
        raw = sec[key]
        try:
            return [float(s) for s in raw.replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(
                f"cannot parse [{section}] {key} = {raw!r} as a float list",
                key=f"{section}.{key}",
            ) from exc

    def section(self, name: str) -> dict:
        return dict(self.sections.get(name, {}))


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    sections = {s: dict(parser.items(s)) for s in parser.sections()}
    if "scenario" not in sections:
        raise ConfigError("missing [scenario] section", key="scenario")
    if "regime" not in sections["scenario"]:
        raise ConfigError("missing required key [scenario] regime", key="scenario.regime")
    regime = sections["scenario"]["regime"].strip()
    if regime not in REGIMES:
        raise ConfigError(
            f"unknown regime {regime!r}; expected one of {', '.join(REGIMES)}",
            key="scenario.regime",
        )
    try:
        seed = int(sections["scenario"].get("seed", "0"))
    except ValueError as exc:
        raise ConfigError("cannot parse [scenario] seed as int", key="scenario.seed") from exc
    waive = sections.get("checks", {}).get("waive", "false").strip().lower() in (
        "true",
        "yes",
        "1",
        "on",
    )
    return Scenario(regime=regime, seed=seed, sections=sections, waive_invariants=waive, name=name)


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_scenario(text, name=p.stem)
