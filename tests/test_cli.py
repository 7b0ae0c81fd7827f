import re
from pathlib import Path

import numpy as np
import pytest

from varq import cli, runners
from varq.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK, main
from varq.config import parse_scenario
from varq.errors import ConfigError
from varq.reporting import RunReport, Series, emit_series

from test_schema import SMALL

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

VACUUM_CFG = """
[scenario]
regime = vacuum
seed = 0

[grid]
q_min = -10.0
q_max = 10.0
n = 1800

[system]
eta = 1.0
f = 1.0

[potential]
kind = harmonic
k = 1.0

[run]
k_eigen = 3
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParse:
    def test_valid_roundtrip(self):
        sc = parse_scenario(VACUUM_CFG, name="vac")
        assert sc.regime == "vacuum"
        assert sc.params["run"]["k_eigen"] == 3
        assert sc.params["grid"] == {"q_min": -10.0, "q_max": 10.0, "n": 1800}
        assert sc.sections["run"] == {"k_eigen": "3"}

    def test_unknown_regime_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario(VACUUM_CFG.replace("vacuum", "warpdrive"), "scenario")
        assert err.value.key == "scenario.regime"

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario(VACUUM_CFG.replace("n = 1800", "n = twelve"), "scenario")
        assert err.value.key == "grid.n"
        assert str(err.value) == "cannot parse [grid] n = 'twelve' as int"

    def test_missing_section(self):
        with pytest.raises(ConfigError):
            parse_scenario("[grid]\nn = 10\n", "scenario")


class TestRunCommand:
    def test_vacuum_run_reports_spectrum(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, VACUUM_CFG)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        body = (tmp_path / "out" / "case" / "report.txt").read_text()
        w = [float(line.split("=")[1]) for line in body.splitlines()
             if line.startswith("scalar.w_")]
        assert np.max(np.abs(np.asarray(w) - [0.5, 1.5, 2.5])) < 1e-4
        csv = (tmp_path / "out" / "case" / "eigenvalues.csv").read_text().splitlines()
        assert csv[0] == "index,w"
        assert len(csv) == 4

    def test_single_level_vacuum_runs(self, tmp_path, capsys):
        # the ordering flag took np.max of an empty np.diff and exited 2
        cfg = write_cfg(tmp_path, VACUUM_CFG.replace("k_eigen = 3", "k_eigen = 1"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        body = (tmp_path / "out" / "case" / "report.txt").read_text().splitlines()
        assert [line.split("=")[0] for line in body if line.startswith("scalar.w_")] == ["scalar.w_0"]
        assert "invariant.ordering=PASS value=0 tol=0.5" in body

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, VACUUM_CFG.replace("regime = vacuum", "regime = nope"))
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "scenario.regime" in capsys.readouterr().err

    def test_missing_key_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, VACUUM_CFG.replace("kind = harmonic", "kindx = harmonic"))
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "potential.kind" in capsys.readouterr().err

    def test_determinism_byte_identical_bodies(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, VACUUM_CFG)
        main(["run", str(cfg), "--out", str(tmp_path / "o1")])
        main(["run", str(cfg), "--out", str(tmp_path / "o2")])

        def strip_walltime(p):
            lines = (p / "case" / "report.txt").read_text().splitlines()
            return "\n".join(l for l in lines if not l.startswith("wall_time_s"))

        assert strip_walltime(tmp_path / "o1") == strip_walltime(tmp_path / "o2")
        s1 = (tmp_path / "o1" / "case" / "eigenvalues.csv").read_bytes()
        s2 = (tmp_path / "o2" / "case" / "eigenvalues.csv").read_bytes()
        assert s1 == s2

    def test_invariant_failure_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, VACUUM_CFG)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--tol-scale", "1e-20"])
        assert code == EXIT_INVARIANT

    def test_waived_invariant_failure_passes(self, tmp_path, capsys):
        waived = VACUUM_CFG + "\n[checks]\nwaive = true\n"
        cfg = write_cfg(tmp_path, waived)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--tol-scale", "1e-20"])
        assert code == EXIT_OK

    def test_check_only_validates(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, VACUUM_CFG)
        assert main(["check", str(cfg)]) == EXIT_OK
        assert not (tmp_path / "out").exists()


class TestRunTimeArguments:
    @pytest.mark.parametrize("cfg_name, old, new", [
        ("madelung_trap.cfg", "t_final = 0.5", "t_final = 0.5\ndt = 0.0"),
        ("madelung_trap.cfg", "t_final = 0.5", "t_final = nan"),
        ("classical_oscillator.cfg", "cfl = 0.4", "cfl = -0.4"),
        ("classical_oscillator.cfg", "t_final = 6.283185307179586", "t_final = nan"),
        ("classical_oscillator.cfg", "t_final = 6.283185307179586", "t_final = -1.0"),
        ("spin_rabi.cfg", "dt = 0.0001", "dt = 0.0"),
        ("spin_rabi.cfg", "dt = 0.0001", "dt = -0.001"),
        ("schrodinger_free_gaussian.cfg", "dt = 0.002", "dt = 0.0"),
        ("schrodinger_free_gaussian.cfg", "dt = 0.002", "dt = -0.002"),
        ("ddw_klein_gordon.cfg", "dt = 0.001", "dt = -0.001"),
        ("ddw_klein_gordon.cfg", "dt = 0.001", "dt = 0.0"),
        ("ddw_klein_gordon.cfg", "dt = 0.001", "dt = nan"),
        ("space_independent_superposition.cfg", "dt = 0.002", "dt = 0.0"),
        ("space_independent_superposition.cfg", "dt = 0.002", "dt = -0.002"),
    ])
    def test_bad_step_or_horizon_is_config_error(self, tmp_path, capsys, cfg_name, old, new):
        text = (CONFIG_DIR / cfg_name).read_text()
        assert old in text
        cfg = write_cfg(tmp_path, text.replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg_name, old", [
        ("ddw_klein_gordon.cfg", "n_steps = 20000"),
        ("space_independent_superposition.cfg", "n_steps = 1000"),
    ])
    def test_zero_step_count_is_config_error(self, tmp_path, capsys, cfg_name, old):
        text = (CONFIG_DIR / cfg_name).read_text()
        assert old in text
        cfg = write_cfg(tmp_path, text.replace(old, "n_steps = 0"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "n_steps" in capsys.readouterr().err

    def test_non_finite_cayley_state_is_numerical_failure(self, tmp_path, capsys):
        # V = 1.7e308 is finite, and so is the Cayley matrix at dt = 0.002,
        # but V * psi overflows where the narrow packet peaks above 1
        text = (CONFIG_DIR / "schrodinger_free_gaussian.cfg").read_text()
        text = text.replace("kind = free", "kind = polynomial\ncoeffs = 1.7e308")
        text = text.replace("sigma = 1.0", "sigma = 0.1")
        cfg = write_cfg(tmp_path, text)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert "non-finite state in Cayley step" in capsys.readouterr().err

    def test_packet_that_hits_a_wall_is_numerical_failure(self, tmp_path, capsys):
        # the packet reaches the grid end mid-run and bounces back: checked on
        # its final state alone, the run passed with a variance below the free one
        text = (CONFIG_DIR / "schrodinger_free_gaussian.cfg").read_text()
        cfg = write_cfg(tmp_path, text.replace("center = 0.0", "center = 0.0\nmomentum = 14.0"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: boundary density \S+ exceeds 1\.0e-08 at t=\S+\n", err), err

    def test_degenerate_double_well_pair_is_named(self, tmp_path, capsys):
        # the barrier action is about 43: the lowest pair of this double well
        # splits below double precision, so the solver returns it equal;
        # check passes it and the run fails naming the pair, not the solver
        text = VACUUM_CFG.replace("q_min = -10.0\nq_max = 10.0\nn = 1800", "q_min = -8.0\nq_max = 8.0\nn = 100")
        text = text.replace("eta = 1.0", "eta = 2.0").replace("k_eigen = 3", "k_eigen = 2")
        text = text.replace("kind = harmonic\nk = 1.0", "kind = polynomial\ncoeffs = 16 0 -2 0 0.0625")
        cfg = write_cfg(tmp_path, text)
        assert main(["check", str(cfg)]) == EXIT_OK
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "numerical failure: eigenvalues 0 and 1 are degenerate to rounding: gap 0, ||H|| <= 167.3\n", err


class TestSpecConstants:
    @pytest.mark.parametrize("cfg_name, key, name", [
        ("spin_rabi.cfg", "a", "a"),
        ("madelung_trap.cfg", "a", "a"),
        ("vacuum_harmonic.cfg", "f", "f"),
        ("vacuum_harmonic.cfg", "eta", "eta"),
        ("ddw_klein_gordon.cfg", "eta", "eta"),
    ])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_constant_is_config_error(self, tmp_path, capsys, cfg_name, key, name, value):
        text = (CONFIG_DIR / cfg_name).read_text()
        assert f"\n{key} = 1.0\n" in text
        cfg = write_cfg(tmp_path, text.replace(f"\n{key} = 1.0\n", f"\n{key} = {value}\n"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"{name} must be finite and > 0, got {value}" in capsys.readouterr().err


class TestMass:
    @pytest.mark.parametrize("cfg_name", [
        "classical_oscillator.cfg", "madelung_trap.cfg", "schrodinger_free_gaussian.cfg",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_mass_is_config_error(self, tmp_path, capsys, cfg_name, value):
        text = (CONFIG_DIR / cfg_name).read_text()
        assert "\nmass = 1.0\n" in text
        cfg = write_cfg(tmp_path, text.replace("\nmass = 1.0\n", f"\nmass = {value}\n"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: [system] mass must be finite and > 0, got {float(value)!r}"
                                           " (key: system.mass)\n")
        assert not (tmp_path / "out").exists()


class TestWaive:
    @pytest.mark.parametrize("command", ["check", "run"])
    def test_misspelt_waive_is_config_error(self, tmp_path, capsys, monkeypatch, command):
        # run from tmp_path so that the default --out of run, and any stray
        # output of check, would land in tmp_path / "out"
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, VACUUM_CFG + "\n[checks]\nwaive = ture\n")
        assert main([command, str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "checks.waive" in err and "'ture'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spelling, waived", [
        ("true", True), ("yes", True), ("on", True), ("1", True), ("TRUE", True), ("Yes", True),
        ("false", False), ("no", False), ("off", False), ("0", False), ("False", False), ("OFF", False),
    ])
    def test_accepted_spellings(self, spelling, waived):
        sc = parse_scenario(VACUUM_CFG + f"\n[checks]\nwaive = {spelling}\n", "scenario")
        assert sc.waive_invariants is waived

    def test_absent_waive_is_false(self):
        assert parse_scenario(VACUUM_CFG, "scenario").waive_invariants is False


BAD_INDICES = [
    ("spin_rabi.cfg", "basis_state = 0", "basis_state = 5", "initial.basis_state"),
    ("spin_rabi.cfg", "basis_state = 0", "basis_state = -1", "initial.basis_state"),
    ("space_independent_superposition.cfg", "modes = 0 1", "modes = 1, -2", "initial.modes"),
    ("space_independent_superposition.cfg", "modes = 0 1", "modes = 0, 0", "initial.modes"),
    ("space_independent_superposition.cfg", "modes = 0 1", "modes = 0 1.7", "initial.modes"),
    ("space_independent_superposition.cfg", "modes = 0 1", "modes = 0 nan", "initial.modes"),
]


class TestConfigIndices:
    @pytest.mark.parametrize("cfg_name, old, new, key", BAD_INDICES)
    def test_out_of_range_index_is_config_error(self, tmp_path, capsys, cfg_name, old, new, key):
        text = (CONFIG_DIR / cfg_name).read_text()
        assert old in text
        cfg = write_cfg(tmp_path, text.replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"(key: {key})" in err
        assert main(["check", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("cfg_name, old, new, key", BAD_INDICES)
    def test_bad_index_does_not_stop_sweep(self, tmp_path, capsys, cfg_name, old, new, key):
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "a.cfg").write_text((CONFIG_DIR / cfg_name).read_text().replace(old, new))
        (d / "b.cfg").write_text(VACUUM_CFG)
        assert main(["sweep", str(d), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert (tmp_path / "out" / "b" / "report.txt").exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("config error")]
        assert len(errors) == 1 and f"(key: {key})" in errors[0]


# the shipped config of each regime whose run checks cells at the grid ends, and its n
END_CHECKED = [("madelung_trap.cfg", 801), ("schrodinger_free_gaussian.cfg", 1401), ("vacuum_harmonic.cfg", 2000),
               ("space_independent_superposition.cfg", 1200), ("confined_harmonic.cfg", 801)]
BAD_RANGES = [
    ("spin_rabi.cfg", "p_floor = 1e-6", f"p_floor = {v}", "run.p_floor", f"[run] p_floor must be finite and > 0, got {g}")
    for v, g in [("nan", "nan"), ("-1.0", "-1.0"), ("0", "0.0"), ("inf", "inf")]
] + [
    (cfg_name, f"n = {old}", f"n = {n}", "grid.n", f"[grid] n must be >= 7 for the checks at the grid ends, got {n}")
    for cfg_name, old in END_CHECKED for n in (3, 4, 5, 6)
] + [
    ("madelung_trap.cfg", "n = 801", "n = 2", "grid.n", "[grid] n must be finite and > 2, got 2")  # as every grid
] + [
    ("classical_oscillator.cfg", "support_floor = 1e-6", f"support_floor = {v}", "run.support_floor",
     f"[run] support_floor must be > 0.0 and < 1.0, got {float(v)!r}")
    for v in ("1.0", "2.0", "nan", "0.0", "-1.0")
] + [
    # a zero or NaN sigma failed in the Cayley step, a negative variance at a
    # density node, a zero or NaN variance or width exited 2 naming no key,
    # and a negative or infinite width ran
    (cfg_name, f"{key} = {old}", f"{key} = {v}", f"initial.{key}",
     f"[initial] {key} must be finite and > 0, got {float(v)!r}")
    for cfg_name, key, old in [("schrodinger_free_gaussian.cfg", "sigma", "1.0"),
                               ("madelung_trap.cfg", "variance", "0.5"),
                               ("classical_oscillator.cfg", "width_cells", "3.0")]
    for v in ("0", "-1.0", "nan", "inf")
]


class TestConfigRanges:
    """A spin population floor or an initial width that is not finite and
    > 0, a grid of fewer than 7 nodes for a run that checks cells at the
    grid ends, and a classical support floor outside (0, 1): check and run
    both exit 2 with the same line, naming the key, before anything runs."""

    @pytest.mark.parametrize("cfg_name, old, new, key, message", BAD_RANGES)
    def test_bad_value_is_config_error(self, tmp_path, capsys, cfg_name, old, new, key, message):
        text = (CONFIG_DIR / cfg_name).read_text()
        assert f"\n{old}\n" in text
        cfg = write_cfg(tmp_path, text.replace(f"\n{old}\n", f"\n{new}\n"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message} (key: {key})\n"
        assert not (tmp_path / "out" / "case" / "report.txt").exists()
        assert main(["check", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message} (key: {key})\n"

    @pytest.mark.parametrize("cfg_name, n", END_CHECKED)
    def test_seven_nodes_pass_check(self, tmp_path, capsys, cfg_name, n):
        text = (CONFIG_DIR / cfg_name).read_text().replace(f"\nn = {n}\n", "\nn = 7\n")
        cfg = write_cfg(tmp_path, text.replace("k_eigen = 8", "k_eigen = 5"))  # 8 eigenpairs need n >= 10
        assert main(["check", str(cfg)]) == EXIT_OK

    def test_smallest_madelung_grid_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (CONFIG_DIR / "madelung_trap.cfg").read_text().replace("\nn = 801\n", "\nn = 7\n"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK


BAD_POTENTIALS = [
    ("k = 1.0", "k = abc", "potential.k", "cannot parse [potential] k = 'abc' as float"),
    ("kind = harmonic\nk = 1.0", "kind = quartic\nc = abc", "potential.c",
     "cannot parse [potential] c = 'abc' as float"),
    ("kind = harmonic\nk = 1.0", "kind = polynomial\ncoeffs = 0 x", "potential.coeffs",
     "cannot parse [potential] coeffs = '0 x' as a float list"),
    ("kind = harmonic\nk = 1.0", "kind = polynomial", "potential.coeffs",
     "missing required key [potential] coeffs"),
    ("kind = harmonic", "kind = cubic", "potential.kind", "unknown potential kind 'cubic'"),
]
BAD_POTENTIAL_IDS = ["k", "c", "coeffs", "coeffs-missing", "kind"]


class TestPotentialValues:
    @pytest.mark.parametrize("old, new, key, message", BAD_POTENTIALS, ids=BAD_POTENTIAL_IDS)
    def test_bad_value_is_config_error(self, tmp_path, capsys, old, new, key, message):
        cfg = write_cfg(tmp_path, VACUUM_CFG.replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {message} (key: {key})\n"
        assert main(["check", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("old, new, key, message", BAD_POTENTIALS, ids=BAD_POTENTIAL_IDS)
    def test_bad_value_does_not_stop_sweep(self, tmp_path, capsys, old, new, key, message):
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "a.cfg").write_text(VACUUM_CFG.replace(old, new))
        (d / "b.cfg").write_text(VACUUM_CFG)
        assert main(["sweep", str(d), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert (tmp_path / "out" / "b" / "report.txt").exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("config error")]
        assert errors == [f"config error: {message} (key: {key})"]


class TestCommandFlags:
    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--out", "o"], ["--tol-scale", "2"]])
    def test_check_takes_no_run_flags(self, tmp_path, capsys, flag):
        cfg = write_cfg(tmp_path, VACUUM_CFG)
        with pytest.raises(SystemExit) as err:
            main(["check", str(cfg), *flag])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_run_and_sweep_take_run_flags(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, VACUUM_CFG)
        target = str(cfg) if command == "run" else str(tmp_path)
        argv = [command, target, "--out", str(tmp_path / "out"), "--seed", "3", "--tol-scale", "2"]
        assert main(argv) == EXIT_OK
        assert "seed=3" in (tmp_path / "out" / "case" / "report.txt").read_text()


class TestSweep:
    def test_sweep_directory(self, tmp_path, capsys):
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "a.cfg").write_text(VACUUM_CFG)
        (d / "b.cfg").write_text(VACUUM_CFG.replace("k = 1.0", "k = 4.0"))
        code = main(["sweep", str(d), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "a" / "report.txt").exists()
        assert (tmp_path / "out" / "b" / "report.txt").exists()
        body_b = (tmp_path / "out" / "b" / "report.txt").read_text()
        w0 = [l for l in body_b.splitlines() if l.startswith("scalar.w_0")][0]
        assert float(w0.split("=")[1]) == pytest.approx(1.0, abs=1e-3)

    def test_bad_config_does_not_stop_sweep(self, tmp_path, capsys):
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "a.cfg").write_text("[scenario\nregime = vacuum\n")
        (d / "b.cfg").write_text(VACUUM_CFG)
        code = main(["sweep", str(d), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert (tmp_path / "out" / "b" / "report.txt").exists()
        err = capsys.readouterr().err
        assert len([l for l in err.splitlines() if l.startswith("config error")]) == 1

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["sweep", str(d), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_sweep_reads_cfg_only(self, tmp_path, capsys):
        d = tmp_path / "ini"
        d.mkdir()
        (d / "x.ini").write_text(VACUUM_CFG)
        assert main(["sweep", str(d), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: no scenario configs (*.cfg) in {d}\n"
        assert not (tmp_path / "out").exists()


class TestTolScale:
    @pytest.mark.parametrize("regime", sorted(SMALL))
    def test_every_tolerance_scaled_once(self, regime):
        sc = parse_scenario(f"[scenario]\nregime = {regime}\n" + SMALL[regime], "scenario")
        base, scaled = runners.run_scenario_object(sc), runners.run_scenario_object(sc, tol_scale=3.0)
        assert base.invariants
        assert [(c.name, c.value) for c in scaled.invariants] == [(c.name, c.value) for c in base.invariants]
        for b, s in zip(base.invariants, scaled.invariants):
            if b.name == "ordering":  # a 0/1 flag with threshold 0.5, which no scale may move
                assert b.tol == s.tol == 0.5
            else:
                assert s.tol == 3.0 * b.tol, b.name

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_bad_tol_scale_is_config_error(self, tmp_path, capsys, command, value):
        cfg = write_cfg(tmp_path, VACUUM_CFG)
        target = str(cfg) if command == "run" else str(tmp_path)
        assert main([command, target, "--out", str(tmp_path / "out"), "--tol-scale", value]) == EXIT_CONFIG
        assert f"tol_scale must be finite and > 0, got {float(value)!r}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "case" / "report.txt").exists()


class TestSeriesFiles:
    def test_empty_series_header_only(self, tmp_path):
        report = RunReport("case", "vacuum", 0, {}, 1.0)
        report.series["nothing"] = Series(["a", "b"], np.zeros((0, 2)))
        emit_series(report, tmp_path)
        assert (tmp_path / "nothing.csv").read_text() == "a,b\n"

    def test_full_precision_floats(self, tmp_path):
        report = RunReport("case", "vacuum", 0, {}, 1.0)
        x = 1.0 / 3.0
        report.series["vals"] = Series(["x"], np.array([[x]]))
        emit_series(report, tmp_path)
        text = (tmp_path / "vals.csv").read_text().splitlines()[1]
        assert float(text) == x


SPIN_CFG = """
[scenario]
regime = spin
seed = 0

[system]
levels = 3
a = 1.0
b = -0.8
u_kind = exchange

[initial]
basis_state = 0

[run]
t_start = 0.15
t_final = 0.3
dt = 0.001
p_floor = 1e-9
"""

CONFINED_CFG = """
[scenario]
regime = confined
seed = 0

[grid]
q_min = -8.0
q_max = 8.0
n = 601

[system]
eta = 1.0
f = 1.0

[potential]
kind = harmonic
k = 1.0

[initial]
c = 1.0 0.1

[run]
k_eigen = 6
r_min = 0.5
r_max = 30.0
tol = 1e-8
n_r = 800
fit_lo = 10.0
fit_hi = 25.0
"""


class TestSeedOverride:
    def test_seed_flag_controls_random_probes(self, tmp_path, capsys):
        cfg_text = SPIN_CFG.replace("u_kind = exchange", "u_kind = random")
        cfg = write_cfg(tmp_path, cfg_text)
        for seed, tag in ((7, "s7"), (7, "s7b"), (8, "s8")):
            assert main(["run", str(cfg), "--out", str(tmp_path / tag), "--seed", str(seed),
                         "--tol-scale", "1e6"]) == EXIT_OK

        def populations(tag):
            return (tmp_path / tag / "case" / "populations.csv").read_text()

        assert populations("s7") == populations("s7b")
        assert populations("s7") != populations("s8")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys, command):
        # a spin run exited 2 with numpy's message, and other regimes ran green
        cfg = write_cfg(tmp_path, SPIN_CFG)
        target = str(cfg) if command == "run" else str(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, target, "--seed", "-5", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2  # argparse's usage error
        assert "argument --seed: must be >= 0, got -5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_copy_keeps_the_config_seed(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = cli.run_scenario_object
        monkeypatch.setattr(cli, "run_scenario_object", lambda sc, **kw: seen.append(sc) or real(sc, **kw))
        cfg = write_cfg(tmp_path, VACUUM_CFG.replace("seed = 0", "seed = 5") + "\n[checks]\nwaive = yes\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--seed", "7"]) == EXIT_OK
        (sc,) = seen
        assert sc.seed == 7 and sc.waive_invariants is True
        # the typed values hold each [scenario]/[checks] value once, in the fields
        assert {key for keys in sc.params.values() for key in keys}.isdisjoint({"regime", "seed", "waive"})
        assert "seed=7" in (tmp_path / "out" / "case" / "report.txt").read_text().splitlines()


class TestSeriesColumns:
    def test_spin_population_columns(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SPIN_CFG)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        header = (tmp_path / "out" / "case" / "populations.csv").read_text().splitlines()[0]
        assert header == "t,p_1,p_2,p_3"

    def test_confined_tail_columns(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONFINED_CFG)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        lines = (tmp_path / "out" / "case" / "tail.csv").read_text().splitlines()
        assert lines[0] == "r,tail_integral,log_tail"
        r, tail, log_tail = (float(x) for x in lines[1].split(","))
        assert tail > 0 and log_tail == pytest.approx(np.log(tail), rel=1e-12)


CLASSICAL_FAST = """
[scenario]
regime = classical
seed = 0

[grid]
q_min = -1.5
q_max = 1.5
n = 601

[system]
mass = 1.0

[potential]
kind = harmonic
k = 1.0

[initial]
center = 1.0
width_cells = 3.0

[run]
t_final = 0.5
cfl = 0.4
support_floor = 1e-6
"""

MADELUNG_FAST = """
[scenario]
regime = madelung
seed = 0

[grid]
q_min = -7.0
q_max = 7.0
n = 401

[system]
mass = 1.0
a = 1.0

[potential]
kind = harmonic
k = 1.0

[initial]
center = 0.2
variance = 0.5

[run]
t_final = 0.05
"""

DDW_FAST = """
[scenario]
regime = ddw
seed = 0

[grid]
length = 6.283185307179586
n = 128

[system]
eta = 1.0
kg_mass = 1.0

[initial]
k_mode = 1
amplitude = 0.01

[run]
dt = 0.002
n_steps = 4000
"""

SPACE_INDEP_FAST = """
[scenario]
regime = space-independent
seed = 0

[grid]
q_min = -9.0
q_max = 9.0
n = 700

[system]
eta = 1.0
f = 1.0

[potential]
kind = harmonic
k = 1.0

[initial]
modes = 0 1

[run]
dt = 0.002
n_steps = 300
"""


class TestRegimeIntegration:
    @pytest.mark.parametrize(
        "text,series_file",
        [
            (CLASSICAL_FAST, "centroid.csv"),
            (MADELUNG_FAST, "centroid.csv"),
            (DDW_FAST, "conservation.csv"),
            (SPACE_INDEP_FAST, "mean_energy.csv"),
        ],
        ids=["classical", "madelung", "ddw", "space-independent"],
    )
    def test_regime_runs_green(self, tmp_path, capsys, text, series_file):
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        body = (tmp_path / "out" / "case" / "report.txt").read_text()
        assert "invariants_passed=true" in body
        assert (tmp_path / "out" / "case" / series_file).exists()


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_shipped_config_validates(self, name):
        assert main(["check", str(CONFIG_DIR / name)]) == EXIT_OK
