"""Batch front end: `varq run <config>`, `varq sweep <config-dir>`,
`varq check <config>`.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 invariant failure (unless waived in the config).  A sweep runs its
configs one after another and exits with the largest code among them.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import load_scenario
from .errors import ConfigError, InvariantFailure, NumericalFailureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4
_STATUS = {EXIT_OK: "ok", EXIT_CONFIG: "config error", EXIT_NUMERICAL: "numerical failure",
           EXIT_INVARIANT: "invariant failure"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varq",
        description="Batch scenario runner for variational probabilistic dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single scenario config")
    run_p.add_argument("config", help="path to the scenario config file")

    sweep_p = sub.add_parser("sweep", help="run every config in a directory")
    sweep_p.add_argument("config_dir", help="directory containing scenario configs")

    check_p = sub.add_parser("check", help="validate a config without running it")
    check_p.add_argument("config", help="path to the scenario config file")

    for p in (run_p, sweep_p):
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--tol-scale", type=float, default=1.0, help="multiply invariant tolerances by this factor")
    return parser


def run_scenario_object(sc, tol_scale: float):
    """``runners.run_scenario_object``, imported on the first run, so that ``check`` loads no numpy."""
    from .runners import run_scenario_object as run
    return run(sc, tol_scale=tol_scale)


def _run_one(path, out_root: Path, seed, tol_scale: float) -> int:
    from .reporting import RunReport, emit_series, write_report  # with numpy, on the first run
    sc = load_scenario(path)
    if seed is not None:
        sc.seed = seed
    out_dir, t0 = out_root / sc.name, time.perf_counter()
    try:
        report = run_scenario_object(sc, tol_scale=tol_scale)
    except NumericalFailureError as exc:  # the report of a failed run: header, then the error
        report = RunReport(sc.name, sc.regime, sc.seed, sc.sections, tol_scale)
        report.failure, report.wall_time_s = exc, time.perf_counter() - t0
        write_report(report, out_dir)
        raise
    write_report(report, out_dir)
    emit_series(report, out_dir)
    for chk in report.invariants:
        status = "PASS" if chk.passed else "FAIL"
        print(f"{sc.name}: invariant {chk.name}: {status} (value {chk.value:.3e}, tol {chk.tol:.3e})")
    if not report.all_passed() and not sc.waive_invariants:
        raise InvariantFailure(f"invariant checks failed for {sc.name}")
    print(f"{sc.name}: ok (report in {out_dir})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "seed", None) or 0) < 0:  # numpy's generators take no negative seed
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    try:
        if args.command == "check":
            sc = load_scenario(args.config)
            print(f"{sc.name}: config valid (regime {sc.regime})")
            return EXIT_OK
        out_root = Path(args.out)
        if args.command == "run":
            return _run_one(args.config, out_root, args.seed, args.tol_scale)
        cfg_dir = Path(args.config_dir)  # sweep, the last command
        if not cfg_dir.is_dir():
            raise ConfigError(f"not a directory: {cfg_dir}")
        configs = sorted(cfg_dir.glob("*.cfg"))
        if not configs:
            raise ConfigError(f"no scenario configs (*.cfg) in {cfg_dir}")
        results = []
        for cfg in configs:
            t0 = time.perf_counter()
            try:
                code = _run_one(cfg, out_root, args.seed, args.tol_scale)
            except Exception as exc:  # classified per config; the sweep goes on
                code = _classify(exc)
            results.append((cfg.stem, code, time.perf_counter() - t0))
        for name, code, wall in results:  # the summary, one line per config
            print(f"sweep: {name} {_STATUS[code]} (exit {code}, {wall:.3f} s)")
        return max(code for _, code, _ in results)
    except Exception as exc:
        return _classify(exc)


def _classify(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        key = f" (key: {exc.key})" if exc.key else ""
        print(f"config error: {exc}{key}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(exc, InvariantFailure):
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if isinstance(exc, NumericalFailureError):
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if isinstance(exc, (ValueError, OSError)):  # a library check the config cannot make, such as a confining V
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise exc


if __name__ == "__main__":
    sys.exit(main())
