#!/usr/bin/env python3
"""Run `varq sweep configs` under forced numpy SIMD and OpenBLAS kernels and
list, per kernel, the output files that differ from the golden digests.

    python scripts/kernel_probe.py [--json digests.json]

Each sweep runs in a child process with BLAS at one thread, as
tests/test_golden.py runs it, plus the kernel's environment variables; they
are set on the child only.  Files are hashed with that test's
``sweep_digests`` (report bodies without ``wall_time_s``, CSVs as written).
``--json`` writes the digests of every kernel, so two trees can be compared.
"""

import argparse
import json
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


def sweep(kernel_env: dict) -> dict:
    """Digests of one `varq sweep configs` run in a child process with ``kernel_env``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", **kernel_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-c", SWEEP, "sweep", str(ROOT / "configs"), "--out", out],
                              env=env, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"sweep exited {proc.returncode} under {kernel_env}:\n{proc.stderr[-2000:]}")
        return sweep_digests(ROOT / "configs", Path(out))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="write the digests of every kernel to this file")
    args = ap.parse_args()

    golden = json.loads(GOLDEN.read_text())["digests"]
    found = {}
    for label, kernel_env in KERNELS.items():
        found[label] = sweep(kernel_env)
        changed = changed_files(golden, found[label])
        print(f"{label}: {len(changed)} of {len(golden)} differ{': ' if changed else ''}{', '.join(changed)}",
              flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
