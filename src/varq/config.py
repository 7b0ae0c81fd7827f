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
        """[section] key parsed by ``cast`` (``bool``: true/yes/on/1 or
        false/no/off/0; ``list``: a comma- or space-separated float list), or
        ``default`` when the key is absent; a key without default is required."""
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
            if cast is list:
                return [float(s) for s in raw.replace(",", " ").split()]
            return cast(raw)
        except (TypeError, ValueError) as exc:
            what = "a float list" if cast is list else cast.__name__
            raise ConfigError(
                f"cannot parse [{section}] {key} = {raw!r} as {what}",
                key=f"{section}.{key}",
            ) from exc


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
    sc = Scenario(regime="", seed=0, sections=sections, name=name)
    sc.regime = sc.get("scenario", "regime", str).strip()
    if sc.regime not in REGIMES:
        raise ConfigError(
            f"unknown regime {sc.regime!r}; expected one of {', '.join(REGIMES)}",
            key="scenario.regime",
        )
    sc.seed = sc.get("scenario", "seed", int, default=0)
    sc.waive_invariants = sc.get("checks", "waive", bool, default=False)
    return sc


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_scenario(text, name=p.stem)
