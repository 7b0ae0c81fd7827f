#!/usr/bin/env python3
"""Check the contract every change to varq is held to, at a parent revision
and at the working tree, and print the evidence.

    python scripts/pr_contract.py [PARENT]

PARENT (default HEAD) is checked out with ``git worktree add`` into a
temporary directory, which is removed afterwards; the change is the working
tree.  At both trees, each in child processes with BLAS at one thread and
that tree's own ``src`` on the path, it

* runs ``varq sweep configs`` and compares the two sweeps' outputs file by
  file with ``kernel_probe.diff_outputs`` (``wall_time_s`` lines excluded;
  the sweep's own stdout is not compared);
* runs ``pytest tests/test_acceptance.py -s`` and keeps its ACCEPTANCE lines;
* counts ``wc -l src/varq/*.py``, the settable values
  (``tests/test_settable_values.src_values``), the tests pytest collects and
  the lines of ``tests/*.py``;
* runs ``scripts/line_reach.py`` and keeps its unrun count and exit code.

At the working tree it also runs ``scripts/kernel_probe.py`` and keeps each
kernel's count of files that differ from the golden digests.  The last line
printed is one JSON record of all of it.  A whole run takes a few minutes.
"""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("kernel_probe", ROOT / "scripts" / "kernel_probe.py")
kernel_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_probe)

SETTABLE = "from test_settable_values import src_values; print(len(src_values()))"
TIMING = re.compile(r"\d+\.\d+s < ")  # the acceptance lines' own run times


def _body(path: Path):
    """A file's bytes, for a report without its ``wall_time_s`` line; None when absent."""
    if not path.is_file():
        return None
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(ln for ln in lines if not (path.name == "report.txt" and ln.startswith(b"wall_time_s=")))


def compare(base: Path, other: Path) -> list:
    """``diff_outputs``' lines for each file under ``base`` or ``other`` (two
    sweep output directories) that differs between them."""
    names = sorted({str(p.relative_to(d)) for d in (base, other) for p in d.rglob("*") if p.is_file()})
    return kernel_probe.diff_outputs(base, other, [n for n in names if _body(base / n) != _body(other / n)])


def _run(tree: Path, *args, env=None) -> subprocess.CompletedProcess:
    """``python *args`` in ``tree`` with BLAS at one thread and ``tree/src`` first on the path."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True, timeout=900)


def _lines(paths) -> int:
    return sum(p.read_bytes().count(b"\n") for p in paths)


def measure(tree: Path, out: Path) -> dict:
    """The sweep (into ``out``) and the counts at the source tree ``tree``."""
    sweep = _run(tree, "-c", kernel_probe.SWEEP, "sweep", str(tree / "configs"), "--out", str(out))
    acceptance = _run(tree, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "tests/test_acceptance.py")
    settable = _run(tree, "-c", SETTABLE, env={"PYTHONPATH": str(tree / "tests")})
    collected = _run(tree, "-m", "pytest", "-q", "--collect-only", "-p", "no:cacheprovider")
    tests = re.search(r"(\d+) tests? collected", collected.stdout)
    with tempfile.TemporaryDirectory() as tmp:
        reach = _run(tree, "scripts/line_reach.py", "--json", str(Path(tmp) / "unrun.json"))
        unrun = json.loads((Path(tmp) / "unrun.json").read_text())["unrun"] if reach.returncode in (0, 1) else None
    return {
        "sweep_exit": sweep.returncode,
        "acceptance": re.findall(r"ACCEPTANCE .*", acceptance.stdout),  # pytest's progress dots precede all but the first
        "acceptance_exit": acceptance.returncode,
        "src_lines": _lines(sorted((tree / "src" / "varq").glob("*.py"))),
        "settable": int(settable.stdout) if settable.returncode == 0 else None,
        "tests": int(tests.group(1)) if tests else None,
        "test_lines": _lines(sorted((tree / "tests").glob("*.py"))),
        "unrun": None if unrun is None else sum(map(len, unrun.values())),
        "line_reach_exit": reach.returncode,
    }


def kernel_counts() -> dict:
    """Each kernel's count of sweep files that differ from the golden digests, at the working tree."""
    probe = _run(ROOT, "scripts/kernel_probe.py")
    return {m.group(1): int(m.group(2)) for m in re.finditer(r"^(\S.*): (\d+) of \d+ differ", probe.stdout, re.M)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", default="HEAD", help="the parent revision (default: HEAD)")
    args = ap.parse_args()
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(parent), rev], cwd=ROOT, check=True)
        try:
            at = {"parent": measure(parent, Path(tmp) / "out-parent"), "change": measure(ROOT, Path(tmp) / "out-change")}
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent)], cwd=ROOT, check=True)
        diff = compare(Path(tmp) / "out-parent", Path(tmp) / "out-change")
    kernels = kernel_counts()
    differ = sum(not ln.startswith("  ") for ln in diff)  # diff_outputs indents a report's changed lines

    print(f"parent {rev}, change = working tree")
    print(f"sweep output files that differ: {differ}")
    for line in diff:
        print(f"  {line}")
    for side in at:
        print(f"acceptance at the {side} (exit {at[side]['acceptance_exit']}):")
        for line in at[side]["acceptance"]:
            print(f"  {line}")
    same = bool(at["parent"]["acceptance"]) and [TIMING.sub("", ln) for ln in at["parent"]["acceptance"]] == [
        TIMING.sub("", ln) for ln in at["change"]["acceptance"]]
    print(f"acceptance lines the same at both, run times aside: {same}")
    for key in ("sweep_exit", "src_lines", "settable", "tests", "test_lines", "unrun", "line_reach_exit"):
        print(f"{key}: {at['parent'][key]} -> {at['change'][key]}")
    print("kernel_probe at the change: " + ", ".join(f"{k} {n}" for k, n in kernels.items()))
    record = {"parent": rev, "sweep_files_differ": differ,
              "acceptance_same": same, "kernel_probe": kernels,
              **{key: [at["parent"][key], at["change"][key]] for key in at["parent"] if key != "acceptance"}}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
