"""Guard on what a run imports: numpy and scipy load only where a run needs them.

Each case runs in a child process, so that no other test's imports count:

* a vacuum and a Schrodinger run reach LAPACK through ``numerics._lapack``,
  which loads scipy's compiled wrappers without running the ``scipy`` and
  ``scipy.linalg`` package inits (0.23 s and 28 MB at start-up);
* a classical run calls no LAPACK routine and loads no scipy module;
* ``varq check`` parses a config with the numpy-free ``config`` and loads
  neither numpy nor scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import varq

ROOT = Path(__file__).resolve().parent.parent
RUN = (
    "from pathlib import Path\n"
    "from varq.config import parse_scenario\n"
    "from varq.runners import run_scenario_object\n"
    "for cfg, old, new in {cases!r}:\n"
    "    run_scenario_object(parse_scenario(Path(cfg).read_text().replace(old, new), 'probe'))\n"
)


def loaded_after(code: str) -> list:
    """The numpy and scipy modules in sys.modules after a fresh interpreter runs ``code`` in the repo root."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(varq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))))\n"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_lapack_runs_leave_scipy_linalg_unimported():
    loaded = loaded_after(RUN.format(cases=[
        ("configs/vacuum_harmonic.cfg", "", ""),
        ("configs/schrodinger_free_gaussian.cfg", "t_final = 2.0", "t_final = 0.1"),
    ]))
    assert "scipy.linalg._flapack" in loaded  # the runs did reach LAPACK
    assert "scipy.linalg" not in loaded and "scipy" not in loaded, loaded


def test_classical_run_loads_no_scipy():
    loaded = loaded_after(RUN.format(cases=[
        ("configs/classical_oscillator.cfg", "t_final = 6.283185307179586", "t_final = 0.5"),
    ]))
    assert "numpy" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"], loaded


def test_check_loads_neither_numpy_nor_scipy():
    loaded = loaded_after("from varq.cli import main\nassert main(['check', 'configs/vacuum_harmonic.cfg']) == 0")
    assert loaded == []
