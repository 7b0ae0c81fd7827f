"""Characterization test: the eight shipped configs give the recorded outputs.

``golden/digests.json`` holds the SHA-256 of every file `varq sweep configs`
writes: each ``report.txt`` without its ``wall_time_s=`` line, and each CSV
as written. A refactor or a speed-up must leave all of them unchanged, so it
never edits that file. Only a change whose stated purpose is a different
output (a new formula, or a new numpy/scipy/BLAS build) may record new
digests, with the acceptance values shown to stay within their tolerances.
A version mismatch is reported on failure but never skips the test.

The sweep runs in a child process with BLAS pinned to one thread, as the
digests were recorded (and as ``perfbench/run.py`` runs it): the confined
solve's matrix products round differently with more BLAS threads.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import varq

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
SWEEP = "import sys; from varq.cli import main; sys.exit(main(sys.argv[1:]))"


def sweep_digests(cfg_dir: Path, out_dir: Path) -> dict:
    """Digests of one sweep's outputs, keyed ``<config>/<file>``."""
    digests = {}
    for cfg in sorted(cfg_dir.glob("*.cfg")):
        name = cfg.stem
        report = out_dir / name / "report.txt"
        if not report.is_file():
            continue
        text = report.read_text()
        body = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("wall_time_s="))
        digests[f"{name}/report.txt"] = hashlib.sha256(body.encode()).hexdigest()
        for csv in sorted((out_dir / name).glob("*.csv")):
            digests[f"{name}/{csv.name}"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return digests


def changed_files(recorded: dict, got: dict) -> list:
    return sorted(k for k in set(recorded) | set(got) if recorded.get(k) != got.get(k))


def test_shipped_configs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(varq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP, "sweep", str(ROOT / "configs"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    got = sweep_digests(ROOT / "configs", tmp_path)
    changed = changed_files(golden["digests"], got)
    here = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    assert proc.returncode == 0 and not changed, (
        f"sweep exit {proc.returncode}; {len(changed)} output file(s) differ from {GOLDEN.name}: "
        f"{', '.join(changed) or 'none'}. Digests recorded with {golden['versions']}, "
        f"this run uses {here}.\n{proc.stderr[-2000:]}"
    )
