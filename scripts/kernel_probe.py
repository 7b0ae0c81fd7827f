#!/usr/bin/env python3
"""Run `varq sweep configs` under forced numpy SIMD and OpenBLAS kernels and
list, per kernel, the output files that differ from the golden digests, and
how each file the kernel writes differently from the default kernel differs.

    python scripts/kernel_probe.py [--json digests.json]

Each sweep runs in a child process with BLAS at one thread, as
tests/test_golden.py runs it, plus the kernel's environment variables; they
are set on the child only.  Files are hashed with that test's
``sweep_digests`` (report bodies without ``wall_time_s``, CSVs as written).
``--json`` writes the digests of every kernel, so two trees can be compared.
Under each kernel's line, one line per file that differs from the default
kernel's says how (``diff_outputs``).
"""

import argparse
import csv
import difflib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import GOLDEN, SWEEP, changed_files, sweep_digests  # noqa: E402

KERNELS = {
    "default": {},
    "OPENBLAS_CORETYPE=Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OPENBLAS_CORETYPE=Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "NPY_DISABLE_CPU_FEATURES=AVX512_SPR AVX512_ICL X86_V4": {
        "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
    "OPENBLAS_CORETYPE=Prescott, X86_V3 also disabled": {
        "OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}


def sweep(kernel_env: dict, out: Path) -> dict:
    """Digests of one `varq sweep configs` run into ``out`` in a child process with ``kernel_env``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", **kernel_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SWEEP, "sweep", str(ROOT / "configs"), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"sweep exited {proc.returncode} under {kernel_env}:\n{proc.stderr[-2000:]}")
    return sweep_digests(ROOT / "configs", out)


def _rel(a: str, b: str):
    """|x - y| / max(|x|, |y|) of two CSV cells (0 when equal, inf when one is
    not finite), or None when either is no number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or math.isnan(x) and math.isnan(y):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x) and math.isfinite(y) else math.inf


def diff_outputs(base: Path, other: Path, names) -> list:
    """Lines saying how each output ``name`` (``<config>/<file>``) under
    ``other`` differs from the one under ``base``: for a CSV the largest
    relative difference over its numeric cells, for a report every changed
    line but ``wall_time_s``, old then new."""
    lines = []
    for name in names:
        a, b = base / name, other / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: written by one sweep only")
        elif name.endswith(".csv"):
            rows_a, rows_b = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
            if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
                lines.append(f"{name}: the tables differ in shape")
                continue
            rels = [r for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb) if (r := _rel(x, y)) is not None]
            lines.append(f"{name}: largest relative difference {max(rels, default=0.0):.3g} "
                         f"over {len(rels)} numeric cells")
        else:
            old, new = ([ln for ln in p.read_text().splitlines() if not ln.startswith("wall_time_s=")] for p in (a, b))
            lines.append(f"{name}:")
            lines.extend(f"  {ln}" for ln in difflib.unified_diff(old, new, lineterm="", n=0)
                         if ln[:1] in "-+" and not ln.startswith(("---", "+++")))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="write the digests of every kernel to this file")
    args = ap.parse_args()

    golden = json.loads(GOLDEN.read_text())["digests"]
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, kernel_env) in enumerate(KERNELS.items()):  # "default" first
            found[label] = sweep(kernel_env, Path(tmp) / str(i))
            changed = changed_files(golden, found[label])
            print(f"{label}: {len(changed)} of {len(golden)} differ{': ' if changed else ''}{', '.join(changed)}",
                  flush=True)
            for line in diff_outputs(Path(tmp) / "0", Path(tmp) / str(i), changed_files(found["default"], found[label])):
                print(f"  {line}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
