"""``scripts/pr_contract.py``'s comparison of two sweeps' outputs on
hand-made directories: the comparison alone, with no sweep, test run or git."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pr_contract.py"
_spec = importlib.util.spec_from_file_location("pr_contract", SCRIPT)
pr_contract = importlib.util.module_from_spec(_spec)
_path = sys.path[:]  # kernel_probe, which the script loads, prepends src/ and tests/
try:
    _spec.loader.exec_module(pr_contract)
finally:
    sys.path[:] = _path


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_compare(tmp_path):
    report = "schema=varq-report/1\nscalar.x=0.5\ninvariants_passed=true\nwall_time_s={}\n"
    base = _write(tmp_path / "parent", {
        "a/report.txt": report.format(0.1),
        "a/s.csv": "t,x\n0,1.0\n",
        "b/report.txt": report.format(0.3),
        "b/s.csv": "t,x\n0,1.0\n",
        "c/report.txt": report.format(0.5),
    })
    other = _write(tmp_path / "change", {
        "a/report.txt": report.format(0.2),  # wall time alone differs
        "a/s.csv": "t,x\n0,1.0\n",
        "b/report.txt": report.format(0.3).replace("0.5", "0.50000000000000011"),
        "b/s.csv": "t,x\n0,1.0000000000000002\n",
        "c/report.txt": report.format(0.5),
        "c/s.csv": "t\n0\n",
    })
    assert pr_contract.compare(base, other) == [
        "b/report.txt:",
        "  -scalar.x=0.5",
        "  +scalar.x=0.50000000000000011",
        "b/s.csv: largest relative difference 2.22e-16 over 2 numeric cells",
        "c/s.csv: written by one sweep only",
    ]
    assert pr_contract.compare(base, base) == []


def test_wall_time_is_excluded_from_reports_only(tmp_path):
    (tmp_path / "report.txt").write_text("seed=1\nwall_time_s=0.25\n")
    (tmp_path / "t.csv").write_text("wall_time_s=0.25\n")
    assert pr_contract._body(tmp_path / "report.txt") == b"seed=1\n"
    assert pr_contract._body(tmp_path / "t.csv") == b"wall_time_s=0.25\n"
    assert pr_contract._body(tmp_path / "absent.txt") is None
