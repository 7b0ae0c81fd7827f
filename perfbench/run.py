"""varq benchmark: one closed-loop caller runs seeded scenarios to a checked result.

Run from the root of a varq checkout:

    python3 perfbench/run.py --workload transport --seed 1 --seconds 20 --trace 0

Workloads (see README.md): transport, linear, few_mode, sweep.  Each is a
closed loop with one caller in one process: the next scenario starts only
when the previous one has finished.  BLAS threads are pinned to 1.

With ``--trace 0`` the run sets up (imports varq, parses every generated
config, sweeps one small scenario per regime), measures set-up again in
two fresh processes, then runs timed passes over all scenarios until
``--seconds`` have passed, and prints the end-to-end metrics, with times
normalised to a reference host speed (see speed.py).  With
``--trace 1`` it runs two untraced and two traced passes, the kernel
micro-benchmark, and prints the per-layer metrics.  The last line of
standard output is always one JSON object: correct, attempted, failed,
metrics.  Details (environment, per-scenario times, counts, spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (stdlib only: numpy is imported by set-up)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
REFERENCE_DIGESTS = HERE / "reference" / "sweep_digests.json"
SETUP_CHILDREN = 2
TRACED_PASSES = 2
# the span of a batch of calibration slices inside a traced sweep; it is
# not a varq module, so its self time shows in no <module>.self_s
CALIBRATE_SPAN = "perfbench.calibrate"


# the time steppers; a rejected step raises StepRejectedError out of these
STEP_FUNCTIONS = (
    "mechanics.classical_transport_step",
    "hydrodynamics.madelung_step",
    "discrete.local_form_step",
    "covariant.ddw_evolve",
)

# per-layer metrics of the sweep's own outputs and thread pool; 0 elsewhere
SWEEP_ONLY = {
    "reporting.bytes_written": "B",
    "reporting.bodies_changed": "count",
    "cli.sweep_parallel_speedup": "1",
    "cli.sweep_threads2_speedup": "1",
}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# set-up


def _write_configs(configs, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in configs:
        (directory / f"{name}.cfg").write_text(text)


def warm_sweep(work: Path):
    """Sweep the small all-regime configs written by set-up."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = sys.modules["varq.cli"].main(["sweep", str(work / "warmup"), "--out", str(work / "warmup-out")])
    if rc != 0:
        raise RuntimeError(f"warm-up sweep exited {rc}")


def setup(workload: str, configs, work: Path):
    """Import varq, parse and validate every generated config, warm up.

    Returns (seconds, parsed scenarios or the sweep's config directory).
    """
    cfg_dir = work / "configs"
    if workload == "sweep":
        _write_configs(configs, cfg_dir)
    _write_configs(workloads.warmup(), work / "warmup")
    t0 = time.perf_counter()
    config = importlib.import_module("varq.config")
    importlib.import_module("varq.runners")
    importlib.import_module("varq.cli")
    if workload == "sweep":
        for path in sorted(cfg_dir.glob("*.cfg")):
            config.load_scenario(path)
        subject = cfg_dir
    else:
        subject = [config.parse_scenario(text, name=name) for name, text in configs]
    warm_sweep(work)
    return time.perf_counter() - t0, subject


def normalised_setup(workload: str, configs, work: Path):
    """Set-up time at the reference speed (see speed.py), raw time, subject."""
    raw, subject = setup(workload, configs, work)
    from speed import calibrate_after, factor

    return raw * factor(calibrate_after(1.0)), raw, subject


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# one pass


class PassResult:
    """One pass: raw wall time and per-scenario times, the speed factor from
    the calibration slices run during the pass, and the scenario outcomes
    as (name, regime, sections, scalars, series, invariants, error)."""

    def __init__(self, raw_wall, raw_times, slices, outcomes, extra=None):
        from speed import factor

        self.raw_wall = raw_wall
        self.raw_times = raw_times
        self.factor = factor(slices)
        self.outcomes = outcomes
        self.extra = extra or {}

    @property
    def wall(self):
        return self.raw_wall * self.factor

    @property
    def times(self):
        return {k: v * self.factor for k, v in self.raw_times.items()}


def library_pass(scenarios) -> PassResult:
    from speed import calibrate_after

    runners = sys.modules["varq.runners"]
    times, reports, slices = {}, {}, []
    for sc in scenarios:
        t0 = time.perf_counter()
        try:
            reports[sc.name] = runners.run_scenario_object(sc)
        except Exception as exc:  # a failed scenario is counted, not fatal
            reports[sc.name] = exc
        times[sc.name] = time.perf_counter() - t0
        slices += calibrate_after(times[sc.name])
    outcomes = []
    for sc in scenarios:
        rep = reports[sc.name]
        if isinstance(rep, Exception):
            outcomes.append((sc.name, sc.regime, sc.sections, {}, {}, [], f"{type(rep).__name__}: {rep}"))
            continue
        series = {k: (s.columns, s.rows) for k, s in rep.series.items()}
        invariants = [(c.name, c.value, c.tol, c.passed) for c in rep.invariants]
        outcomes.append((sc.name, sc.regime, sc.sections, rep.scalars, series, invariants, None))
    return PassResult(sum(times.values()), times, slices, outcomes)


def _parse_report(text: str):
    sections, scalars, invariants, fields = {}, {}, [], {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        if key.startswith("config."):
            _, sec, k = key.split(".", 2)
            sections.setdefault(sec, {})[k] = val
        elif key.startswith("scalar."):
            scalars[key[7:]] = float(val)
        elif key.startswith("invariant."):
            status, value, tol = val.split(" ")
            invariants.append((key[10:], float(value[6:]), float(tol[4:]), status == "PASS"))
        else:
            fields[key] = val
    return sections, scalars, invariants, fields


def _read_series(path: Path):
    import numpy as np

    lines = path.read_text().splitlines()
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).reshape(len(lines) - 1, -1)
    return lines[0].split(","), rows


def sweep_pass(cfg_dir: Path, out_dir: Path, tracer=None) -> PassResult:
    """The slices run on the sweep's worker threads, inside ``cli.main``.
    Under a tracer each batch is a span of its own, so that its time is not
    booked as ``cli.main`` self time."""
    from speed import calibrate_after

    if tracer is not None:
        calibrate_after = tracer.wrap(CALIBRATE_SPAN, calibrate_after)
    cli = sys.modules["varq.cli"]
    shutil.rmtree(out_dir, ignore_errors=True)
    log = io.StringIO()
    slices = []
    run_one = cli.run_scenario_object

    def run_then_calibrate(sc, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return run_one(sc, *args, **kwargs)
        finally:
            slices.extend(calibrate_after(time.perf_counter() - t0))

    cli.run_scenario_object = run_then_calibrate
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(["sweep", str(cfg_dir), "--out", str(out_dir)])
    finally:
        cli.run_scenario_object = run_one
    wall = time.perf_counter() - t0 - sum(slices)
    times, outcomes, digests = {}, [], {}
    written = 0
    for cfg in sorted(cfg_dir.glob("*.cfg")):
        name = cfg.stem
        report = out_dir / name / "report.txt"
        if not report.is_file():
            outcomes.append((name, "", {}, {}, {}, [], f"no report (sweep exit {rc})"))
            continue
        text = report.read_text()
        sections, scalars, invariants, fields = _parse_report(text)
        body = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("wall_time_s="))
        digests[f"{name}/report.txt"] = hashlib.sha256(body.encode()).hexdigest()
        series = {}
        for csv in sorted((out_dir / name).glob("*.csv")):
            digests[f"{name}/{csv.name}"] = hashlib.sha256(csv.read_bytes()).hexdigest()
            series[csv.stem] = _read_series(csv)
        written += sum(p.stat().st_size for p in (out_dir / name).iterdir())
        times[name] = float(fields["wall_time_s"])
        outcomes.append((name, fields["regime"], sections, scalars, series, invariants, None))
    return PassResult(wall, times, slices, outcomes, {"digests": digests, "bytes_written": written, "exit": rc})


# ---------------------------------------------------------------------------
# correctness


def evaluate(result: PassResult):
    """(failed scenario names with reasons, largest value/tolerance ratio)."""
    from checks import closed_form_checks, tol_use

    failed, worst = {}, 0.0
    for name, regime, sections, scalars, series, invariants, error in result.outcomes:
        reasons = []
        if error:
            reasons.append(error)
        else:
            reasons += [f"invariant {n}: {v:.3g} > {t:.3g}" for n, v, t, ok in invariants if not ok]
            worst = max(worst, tol_use([(v, t) for _n, v, t, _ok in invariants]))
            try:
                for check, err, tol in closed_form_checks(regime, sections, scalars, series):
                    if not err <= tol:
                        reasons.append(f"{check}: {err:.3g} > {tol:.3g}")
            except (KeyError, ValueError) as exc:
                reasons.append(f"closed-form check could not read output: {exc!r}")
        if reasons:
            failed[name] = reasons
    return failed, worst


def sweep_exits(passes) -> list:
    """Exit codes of the sweeps among ``passes``.  A failed scenario fails
    only itself; a non-zero exit with no failed scenario still makes the
    run incorrect."""
    return [p.extra["exit"] for p in passes if "exit" in p.extra]


def bodies_changed(digests: dict) -> int:
    ref = json.loads(REFERENCE_DIGESTS.read_text())
    keys = set(ref) | set(digests)
    return sum(1 for k in keys if ref.get(k) != digests.get(k))


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it,
    and that percentile; below eleven samples, the maximum (percentile 100)."""
    v = sorted(values)
    if len(v) < 11:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


def per_scenario_medians(passes):
    names = passes[0].times.keys()
    return [statistics.median(p.times[n] for p in passes) for n in names]


def environment() -> dict:
    import numpy as np
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VARQ_THREADS")},
    }
    for mod, key in ((np, "numpy_blas"), (scipy, "scipy_blas")):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[key] = f"{blas.get('name')} {blas.get('version')}"
        except (AttributeError, KeyError, TypeError):
            env[key] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (idx / "size").read_text().strip()
        env["caches"] = caches
    except OSError:
        pass
    return env


def _m(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(args, subject, setup_samples, setup_raw, work):
    # passes until about --seconds have gone: stop when one more pass would
    # end further past the mark than stopping now ends before it
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds - 0.5 * passes[-1].raw_wall:
        passes.append(_one_pass(args.workload, subject, work, len(passes)))
    failed, worst = {}, 0.0
    for i, p in enumerate(passes):
        f, w = evaluate(p)
        failed.update({f"pass{i}:{k}": v for k, v in f.items()})
        worst = max(worst, w)
    attempted = sum(len(p.outcomes) for p in passes)
    p50 = statistics.median(per_scenario_medians(passes))
    tail_value, tail_pct = tail(per_scenario_medians(passes))
    metrics = {
        "wall_s": _m(statistics.median(p.wall for p in passes), "s"),
        "scenario_s_p50": _m(p50, "s"),
        "scenario_s_tail": _m(tail_value, "s"),
        "setup_s": _m(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "tol_use_max": _m(worst, "1"),
    }
    info = {
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "pass_raw_walls_s": [p.raw_wall for p in passes],
        "pass_speed_factors": [p.factor for p in passes],
        "scenarios_per_pass": len(passes[0].outcomes),
        "scenario_samples": len(passes[0].times),
        "tail_percentile": tail_pct,
        "setup_samples_s": setup_samples,
        "setup_raw_s": setup_raw,
        "fail_frac": len(failed) / attempted,
        "failures": failed,
        "sweep_exits": sweep_exits(passes),
        "per_scenario_s": dict(zip(passes[0].times, per_scenario_medians(passes))),
    }
    return metrics, attempted, len(failed), info


def _one_pass(workload, subject, work, index, tracer=None):
    if workload == "sweep":
        return sweep_pass(subject, work / f"out-{index}", tracer)
    return library_pass(subject)


def run_traced(args, subject, configs, work):
    from kernels import run_kernels
    from tracer import MODULES, SpanStats, Tracer, write_spans

    untraced, traced, tracers = [], [], []
    for i in range(TRACED_PASSES):
        untraced.append(_one_pass(args.workload, subject, work, 2 * i))
        tr = Tracer()
        with tr:
            warm_sweep(work)
            if args.workload != "sweep":
                config = sys.modules["varq.config"]
                for name, text in configs:
                    config.parse_scenario(text, name=name)
            traced.append(_one_pass(args.workload, subject, work, 2 * i + 1, tr))
        tracers.append(tr)
    failed = {}
    for i, p in enumerate(untraced + traced):
        failed.update({f"pass{i}:{k}": v for k, v in evaluate(p)[0].items()})
    attempted = sum(len(p.outcomes) for p in untraced + traced)

    all_stats = [SpanStats(t.spans) for t in tracers]
    counts = []
    for t, st in zip(tracers, all_stats):
        c = dict(t.counts())
        # the number of calibration batches depends on timing, not on varq
        c.update({f"calls:{k}": v for k, v in st.calls.items() if k != CALIBRATE_SPAN})
        c.update({f"errors:{k[0]}:{k[1]}": v for k, v in st.errors.items()})
        counts.append(c)
    repeat_ok = all(c == counts[0] for c in counts)
    if not repeat_ok:
        failed["counts"] = ["exact counts differ between the traced passes"]

    tr, stats = tracers[0], all_stats[0]
    cnt = tr.counts()
    metrics = {f"{mod}.self_s": _m(stats.module_self_ns[mod] / 1e9, "s") for mod in MODULES}
    spec_calls = lambda prefix: sum(v for k, v in cnt.items() if k.startswith(prefix))  # noqa: E731
    madelung = stats.calls["hydrodynamics.madelung_step"]
    rejected = sum(stats.errors[(name, "StepRejectedError")] for name in STEP_FUNCTIONS)
    ddw_steps = cnt["covariant.ddw_steps"]
    parse_ns = sum(v for (mod, name), v in stats.module_outer_ns.items() if name in ("config.parse_scenario", "config.load_scenario"))
    write_ns = sum(stats.total_ns[n] for n in ("reporting.write_report", "reporting.emit_series"))
    metrics.update({
        "mechanics.classical_transport_step.us_per_call": _m(stats.us_per_call("mechanics.classical_transport_step"), "us"),
        "mechanics.upwind_density_update.us_per_call": _m(stats.us_per_call("mechanics.upwind_density_update"), "us"),
        "mechanics.spec_calls": _m(spec_calls("mechanics.NaturalSystemSpec."), "count"),
        "mechanics.transport_steps": _m(stats.calls["mechanics.classical_transport_step"], "count"),
        "hydrodynamics.madelung_step.us_per_call": _m(stats.us_per_call("hydrodynamics.madelung_step"), "us"),
        "hydrodynamics.madelung_steps": _m(madelung, "count"),
        "hydrodynamics.step_rejected": _m(stats.errors[("hydrodynamics.madelung_step", "StepRejectedError")] / madelung if madelung else 0.0, "1"),
        "numerics.CayleyPropagator.step.us_per_call": _m(stats.us_per_call("numerics.CayleyPropagator.step"), "us"),
        "numerics.CayleyPropagator.steps": _m(stats.calls["numerics.CayleyPropagator.step"], "count"),
        "numerics.CayleyPropagator.inits": _m(stats.calls["numerics.CayleyPropagator.__init__"], "count"),
        "numerics.sturm_liouville_operator.calls": _m(stats.calls["numerics.sturm_liouville_operator"], "count"),
        "numerics.eigensolve_lowest.us_per_call": _m(stats.us_per_call("numerics.eigensolve_lowest"), "us"),
        "numerics.rk4_step.calls": _m(stats.calls["numerics.rk4_step"], "count"),
        "wavefunction.SchrodingerEvolution.step.us_per_call": _m(stats.us_per_call("wavefunction.SchrodingerEvolution.step"), "us"),
        "quantum_fields.vacuum_spectrum.s": _m(stats.seconds("quantum_fields.vacuum_spectrum"), "s"),
        "quantum_fields.space_independent_evolve.s": _m(stats.seconds("quantum_fields.space_independent_evolve"), "s"),
        "quantum_fields.confined_solve.s": _m(stats.seconds("quantum_fields.confined_solve"), "s"),
        "quantum_fields.confined_solve.iterations": _m(cnt["quantum_fields.confined_solve.iterations"], "count"),
        "quantum_fields.spec_calls": _m(spec_calls("quantum_fields.QFieldSpec."), "count"),
        "discrete.propagate.calls": _m(stats.calls["discrete.propagate"], "count"),
        "discrete.propagate.us_per_call": _m(stats.us_per_call("discrete.propagate"), "us"),
        "discrete.local_form_step.us_per_call": _m(stats.us_per_call("discrete.local_form_step"), "us"),
        "discrete.local_form_steps": _m(stats.calls["discrete.local_form_step"], "count"),
        "covariant.ddw_evolve.us_per_step": _m(stats.total_ns["covariant.ddw_evolve"] / ddw_steps / 1e3 if ddw_steps else 0.0, "us"),
        "covariant.ddw_steps": _m(ddw_steps, "count"),
        "covariant.spec_calls": _m(spec_calls("covariant.FieldLagrangianSpec."), "count"),
        "config.parse_s": _m(parse_ns / 1e9, "s"),
        "reporting.write_s": _m(write_ns / 1e9, "s"),
        "steps.rejected": _m(rejected, "count"),
        "counts.repeat_ok": _m(1 if repeat_ok else 0, "1"),
    })
    # normalised walls, as wall_s
    wall_u = statistics.median(p.wall for p in untraced)
    wall_t = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = _m(wall_t - wall_u, "s")

    sweep_info = {}
    if args.workload == "sweep":
        first = untraced[0]
        metrics["reporting.bytes_written"] = _m(first.extra["bytes_written"], "B")
        metrics["reporting.bodies_changed"] = _m(bodies_changed(first.extra["digests"]), "count")
        metrics["cli.sweep_parallel_speedup"] = _m(statistics.median(sum(p.raw_times.values()) / p.raw_wall for p in untraced), "1")
        old = os.environ.get("VARQ_THREADS")
        os.environ["VARQ_THREADS"] = str(min(2, os.cpu_count() or 1))
        try:
            with Tracer() as tr2:
                p2 = sweep_pass(subject, work / "out-threads2", tr2)
        finally:
            if old is None:
                del os.environ["VARQ_THREADS"]
            else:
                os.environ["VARQ_THREADS"] = old
        failed.update({f"threads2:{k}": v for k, v in evaluate(p2)[0].items()})
        attempted += len(p2.outcomes)
        # raw walls, both traced: with two workers the slices compete for
        # the GIL, and per-report wall_time_s would count GIL waits
        raw_t = statistics.median(p.raw_wall for p in traced)
        metrics["cli.sweep_threads2_speedup"] = _m(raw_t / p2.raw_wall, "1")
        sweep_info = {
            "threads2_wall_s": p2.raw_wall,
            "threads2_report_time_over_wall": sum(p2.raw_times.values()) / p2.raw_wall,
            "sweep_exits": sweep_exits(untraced + traced + [p2]),
        }
    else:
        metrics.update({name: _m(0, unit) for name, unit in SWEEP_ONLY.items()})

    kmetrics, kdetails = run_kernels()
    metrics.update({k: _m(v, u) for k, v, u in ((k, *vu) for k, vu in kmetrics.items())})

    write_spans(tr.spans, OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    info = {
        "untraced_walls_s": [p.raw_wall for p in untraced],
        "traced_walls_s": [p.raw_wall for p in traced],
        "spans": len(tr.spans),
        "counts": counts[0],
        "kernels": kdetails,
        "failures": failed,
        **sweep_info,
    }
    return metrics, attempted, len(failed), info


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "varq" / "__init__.py").is_file() or not workloads.SHIPPED_CONFIGS.is_dir():
        return _fail(f"no varq source tree (src/varq, configs/) under {ROOT}; run from a checkout root")
    sys.path.insert(0, str(ROOT / "src"))

    configs = workloads.generate(args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, setup_raw, subject = normalised_setup(args.workload, configs, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, attempted, failed, info = run_traced(args, subject, configs, work)
        else:
            samples = [setup_s] + [setup_in_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
            metrics, attempted, failed, info = run_untraced(args, subject, samples, setup_raw, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            "environment": environment(), **info}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "info": info}, indent=1, default=str) + "\n")
    print("info: " + json.dumps({k: info[k] for k in info if k not in ("per_scenario_s", "counts", "kernels")}, default=str))
    correct = failed == 0 and not any(info.get("sweep_exits", ()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
