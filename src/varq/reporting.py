"""Run reports and series files.

Reports are deterministic key=value text with a versioned schema tag;
wall time goes on a dedicated line that consumers are expected to strip
before byte comparisons.  Series are comma-separated tables with a header
row and full-precision decimal floats, one file per observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA = "varq-report/1"


def fmt(x) -> str:
    """Full-precision decimal rendering, stable across runs (a string as itself, a sequence comma-separated)."""
    if isinstance(x, str):
        return x
    if np.ndim(x):
        return ",".join(fmt(v) for v in np.ravel(x))
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


@dataclass
class InvariantCheck:
    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.value)) and self.value <= self.tol


@dataclass
class Series:
    columns: list
    rows: np.ndarray  # (n, len(columns))


@dataclass
class RunReport:
    scenario_name: str
    regime: str
    seed: int
    scenario_echo: dict
    tol_scale: float  # add_invariant multiplies every tolerance by it
    # the runners fill these after construction
    scalars: dict = field(init=False, default_factory=dict)
    invariants: list = field(init=False, default_factory=list)
    series: dict = field(init=False, default_factory=dict)
    wall_time_s: float = field(init=False, default=0.0)
    failure: Exception | None = field(init=False, default=None)  # the NumericalFailureError that ended the run

    def all_passed(self) -> bool:
        return self.failure is None and all(c.passed for c in self.invariants)

    def add_invariant(self, name: str, value: float, tol: float):
        self.invariants.append(InvariantCheck(name, float(value), float(tol) * self.tol_scale))


def render_report(report: RunReport) -> str:
    """Deterministic text body; identical configs give identical bodies
    except for the wall_time_s line."""
    lines = [f"schema={SCHEMA}"]
    lines.append(f"scenario={report.scenario_name}")
    lines.append(f"regime={report.regime}")
    lines.append(f"seed={report.seed}")
    for sec in sorted(report.scenario_echo):
        for key in sorted(report.scenario_echo[sec]):
            lines.append(f"config.{sec}.{key}={report.scenario_echo[sec][key]}")
    if report.failure is not None:
        exc, location = report.failure, getattr(report.failure, "location", None)
        lines += ["status=failed", f"error={type(exc).__name__}", f"message={exc}",
                  f"location={'' if location is None else fmt(location)}"]
        lines += [f"diagnostics.{key}={fmt(val)}" for key, val in sorted(exc.diagnostics.items())]
    for key in sorted(report.scalars):
        lines.append(f"scalar.{key}={fmt(report.scalars[key])}")
    for chk in report.invariants:
        status = "PASS" if chk.passed else "FAIL"
        lines.append(
            f"invariant.{chk.name}={status} value={fmt(chk.value)} tol={fmt(chk.tol)}"
        )
    for name in sorted(report.series):
        lines.append(f"series.{name}.rows={report.series[name].rows.shape[0]}")
    lines.append(f"invariants_passed={fmt(report.all_passed())}")
    lines.append(f"wall_time_s={fmt(report.wall_time_s)}")
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.txt"
    path.write_text(render_report(report))
    return path


def emit_series(report: RunReport, out_dir) -> list:
    """One CSV per observable: header row then full-precision rows, each
    value as ``fmt`` renders a float (every runner's series is float64)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    written = []
    for name in sorted(report.series):
        series = report.series[name]
        path = out / f"{name}.csv"
        lines = [",".join(series.columns)]
        lines += [",".join([format(x, ".17g") for x in row]) for row in np.atleast_2d(series.rows).tolist()]
        try:
            path.write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise OSError(f"cannot write series file {path}: {exc}") from exc
        written.append(path)
    return written
