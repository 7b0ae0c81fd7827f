"""``scripts/kernel_probe.py``'s ``diff_outputs`` on two hand-made output
directories: the comparison alone, with no sweep."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "kernel_probe.py"
_spec = importlib.util.spec_from_file_location("kernel_probe", SCRIPT)
kernel_probe = importlib.util.module_from_spec(_spec)
_path = sys.path[:]  # the script prepends src/ and tests/; the session keeps its own path
try:
    _spec.loader.exec_module(kernel_probe)
finally:
    sys.path[:] = _path


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_diff_outputs(tmp_path):
    base = _write(tmp_path / "base", {
        "a/report.txt": "schema=varq-report/1\nscalar.w_0=0.5\nscalar.w_1=1.5\nwall_time_s=0.1\n",
        "a/s.csv": "t,x,log\n0,1.0,-inf\n1,2.0,0.0\n",
        "b/s.csv": "t,x\n0,1.0\n",
        "b/t.csv": "t\n0\n",
    })
    other = _write(tmp_path / "other", {
        "a/report.txt": "schema=varq-report/1\nscalar.w_0=0.5\nscalar.w_1=1.5000000000000002\nwall_time_s=0.2\n",
        "a/s.csv": "t,x,log\n0,1.0,-inf\n1,2.0000000000000004,0.0\n",
        "b/s.csv": "t,x\n0,1.0\n1,2.0\n",
    })
    names = ["a/report.txt", "a/s.csv", "b/s.csv", "b/t.csv"]
    assert kernel_probe.diff_outputs(base, other, names) == [
        "a/report.txt:",
        "  -scalar.w_1=1.5",
        "  +scalar.w_1=1.5000000000000002",
        "a/s.csv: largest relative difference 2.22e-16 over 6 numeric cells",  # the header row is no number
        "b/s.csv: the tables differ in shape",
        "b/t.csv: written by one sweep only",
    ]
    assert kernel_probe._rel("2.0", "2.0") == 0.0
    assert kernel_probe._rel("nan", "nan") == 0.0
    assert kernel_probe._rel("-inf", "-inf") == 0.0
    assert kernel_probe._rel("1.0", "inf") == float("inf")
    assert kernel_probe._rel("4.0", "-4.0") == 2.0
    assert kernel_probe._rel("x", "1.0") is None
