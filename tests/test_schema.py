"""``config.SCHEMA`` is the one table of what each regime accepts.

``varq check`` and ``varq run`` must give the same answer on a bad key
before anything runs, and the table must not drift from the runners: every
entry is read by its regime's runner, and the runners read nothing else.
"""

import configparser
import importlib.util
from pathlib import Path

import pytest

from varq import runners
from varq.cli import EXIT_CONFIG, EXIT_OK, main
from varq.config import COMMON, POTENTIALS, SCHEMA, Between, parse_scenario
from varq.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.cfg"))
CHOICES = {("potential", "kind"): "cubic", ("system", "u_kind"): "exchang", ("system", "theta_kind"): "zeroo"}


def read_sections(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def render(sections: dict) -> str:
    return "\n".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for s, keys in sections.items())


def _required(entry) -> bool:
    base = entry.default if isinstance(entry, Between) else entry
    return isinstance(base, type) or (isinstance(base, tuple) and base[0] is None)


def bad_variants(path: Path) -> list:
    """Bad copies of one config as pytest params (config text, the
    ``section.key`` its error must name): an unknown key in each section, an
    unknown section, each required key deleted, and each choice key of its
    regime given a bad value."""
    sections = read_sections(path.read_text())
    table = {**COMMON, **SCHEMA[sections["scenario"]["regime"]]}
    out = []

    def variant(tag, key, edit):
        changed = {s: dict(keys) for s, keys in sections.items()}
        edit(changed)
        out.append(pytest.param(render(changed), key, id=f"{path.stem}-{tag}"))

    for sec in sections:
        variant(f"unknown-key-{sec}", f"{sec}.bogus", lambda c, sec=sec: c[sec].update(bogus="1"))
    variant("unknown-section", "bogus", lambda c: c.update(bogus={"x": "1"}))
    kind = sections.get("potential", {}).get("kind", "").lower()
    for sec, keys in table.items():
        for key, entry in keys.items():
            if _required(entry) and (sec != "potential" or key in ("kind", *POTENTIALS[kind])):
                assert key in sections[sec], f"{path.name} lacks required {sec}.{key}"
                variant(f"missing-{sec}.{key}", f"{sec}.{key}", lambda c, sec=sec, key=key: c[sec].pop(key))
    for (sec, key), bad in CHOICES.items():
        if key in table.get(sec, {}):
            variant(f"choice-{sec}.{key}", f"{sec}.{key}",
                    lambda c, sec=sec, key=key, bad=bad: c.setdefault(sec, {}).update({key: bad}))
    return out


def _both_commands_reject(tmp_path, monkeypatch, capsys, text, key) -> list:
    """Run check and run on ``text``; each must exit 2 naming ``key`` and
    write nothing.  Returns the two stderr texts."""
    monkeypatch.chdir(tmp_path)  # a stray default --out would land here
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    cfg = cfg_dir / "case.cfg"
    cfg.write_text(text)
    errors = []
    for argv in (["check", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "out")]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"(key: {key})" in err
        errors.append(err)
    assert sorted(tmp_path.iterdir()) == [cfg_dir]
    return errors


class TestShippedConfigVariants:
    @pytest.mark.parametrize("text, key", [v for p in SHIPPED for v in bad_variants(p)])
    def test_check_and_run_reject(self, tmp_path, monkeypatch, capsys, text, key):
        check_err, run_err = _both_commands_reject(tmp_path, monkeypatch, capsys, text, key)
        assert check_err == run_err

    def test_every_regime_has_a_shipped_config(self):
        assert {read_sections(p.read_text())["scenario"]["regime"] for p in SHIPPED} == set(SCHEMA)


PROBES = [
    ("schrodinger_free_gaussian.cfg", "sigma = 1.0", "sigma = 1.0\nsigmaa = 1.0", "initial.sigmaa",
     "unknown key [initial] sigmaa"),
    ("vacuum_harmonic.cfg", "[run]", "[runn]", "runn", "unknown section [runn] for regime vacuum"),
    ("madelung_trap.cfg", "n = 801", "n = twelve", "grid.n", "cannot parse [grid] n = 'twelve' as int"),
    ("spin_rabi.cfg", "theta_kind = zero", "theta_kind = zeroo", "system.theta_kind",
     "unknown system theta_kind 'zeroo'"),
]


class TestProbes:
    """A misspelt key, an unknown section, an unparsable value and a bad
    choice: check and run both exit 2 with the same line, naming the key,
    where run once rejected them naming no key or ran on defaults."""

    @pytest.mark.parametrize("cfg_name, old, new, key, message", PROBES, ids=[p[3] for p in PROBES])
    def test_rejected_before_running(self, tmp_path, monkeypatch, capsys, cfg_name, old, new, key, message):
        text = (CONFIG_DIR / cfg_name).read_text()
        assert old in text
        for err in _both_commands_reject(tmp_path, monkeypatch, capsys, text.replace(old, new), key):
            assert err == f"config error: {message} (key: {key})\n"


VACUUM = (CONFIG_DIR / "vacuum_harmonic.cfg").read_text()
SPIN = (CONFIG_DIR / "spin_rabi.cfg").read_text()


FLOOR = "support_floor = 1e-6\n"


class TestRanges:
    """A ``Between`` entry takes only values strictly inside its range; a
    classical support floor of 1 or more, or NaN, crashed the run, and one of
    0 or below ran on the whole grid."""

    @pytest.mark.parametrize("value", ["1.0", "2.0", "nan", "0.0", "-1.0", "inf", "1e-400"])
    def test_support_floor_outside_unit_interval(self, tmp_path, monkeypatch, capsys, value):
        text = (CONFIG_DIR / "classical_oscillator.cfg").read_text()
        assert FLOOR in text
        bad = text.replace(FLOOR, f"support_floor = {value}\n")
        for err in _both_commands_reject(tmp_path, monkeypatch, capsys, bad, "run.support_floor"):
            assert err == (f"config error: [run] support_floor must be > 0.0 and < 1.0, got {float(value)!r}"
                           " (key: run.support_floor)\n")

    @pytest.mark.parametrize("value", ["0.5", "1e-300", "0.999"])
    def test_support_floor_inside_unit_interval(self, value):
        text = (CONFIG_DIR / "classical_oscillator.cfg").read_text().replace(FLOOR, f"support_floor = {value}\n")
        assert parse_scenario(text, "scenario").params["run"]["support_floor"] == float(value)

    def test_support_floor_default(self):
        text = (CONFIG_DIR / "classical_oscillator.cfg").read_text().replace(FLOOR, "")
        assert parse_scenario(text, "scenario").params["run"]["support_floor"] == 1e-6

    def test_unparsable_support_floor(self):
        text = (CONFIG_DIR / "classical_oscillator.cfg").read_text().replace(FLOOR, "support_floor = tiny\n")
        with pytest.raises(ConfigError, match=r"cannot parse \[run\] support_floor = 'tiny' as float") as err:
            parse_scenario(text, "scenario")
        assert err.value.key == "run.support_floor"

    @pytest.mark.parametrize("key, old", [("dt", "dt = 0.0001\n"), ("t_final", "t_final = 1.15\n")])
    @pytest.mark.parametrize("value", ["0.0", "-0.0", "-1e-3", "nan", "inf", "-inf", "1e-400"])
    def test_spin_step_and_span_must_be_positive_and_finite(self, tmp_path, monkeypatch, capsys, key, old, value):
        # check passed these, and run rejected them naming no key
        assert old in SPIN
        bad = SPIN.replace(old, f"{key} = {value}\n")
        for err in _both_commands_reject(tmp_path, monkeypatch, capsys, bad, f"run.{key}"):
            assert err == f"config error: [run] {key} must be finite and > 0.0, got {float(value)!r} (key: run.{key})\n"

    def test_spin_step_and_span_defaults(self):
        text = SPIN.replace("dt = 0.0001\n", "").replace("t_final = 1.15\n", "")
        run = parse_scenario(text, "scenario").params["run"]
        assert (run["dt"], run["t_final"]) == (1e-3, 1.0)

    def test_negative_seed(self, tmp_path, monkeypatch, capsys):
        # check passed it; a spin run then exited 2 with numpy's message, naming no key
        assert "\nseed = 0\n" in SPIN
        bad = SPIN.replace("\nseed = 0\n", "\nseed = -1\n")
        for err in _both_commands_reject(tmp_path, monkeypatch, capsys, bad, "scenario.seed"):
            assert err == "config error: [scenario] seed must be finite and > -1, got -1 (key: scenario.seed)\n"

    def test_every_default_inside_its_range(self):
        # a required or derived key (a type or Derived entry) has no default
        defaults = [(e, v) for regime in [*SCHEMA.values(), COMMON] for keys in regime.values() for e in keys.values()
                    if isinstance(e, Between) and isinstance(e.default, (int, float, list))
                    for v in (e.default if isinstance(e.default, list) else [e.default])]
        assert defaults and all(e.lo < v < e.hi for e, v in defaults)


CONFINED = (CONFIG_DIR / "confined_harmonic.cfg").read_text()
QFIELD_RANGES = ([("confined", "tol", "1e-8", v, "0.0") for v in ("0", "-1e-8", "nan", "inf")]
                 + [("confined", "k_eigen", "8", v, "1") for v in ("1", "0", "-3")]
                 + [("confined", "n_r", "1200", v, "1") for v in ("1", "0")]
                 + [("vacuum", "k_eigen", "3", v, "0") for v in ("0", "-3")])


class TestQFieldRanges:
    """A confined tol of 0, below 0 or NaN ran all 60 sweeps and exited 3;
    k_eigen = 1 stopped on an IndexError, and an n_r of 0 or 1 exited 2 with
    numpy's empty-reduction message; a vacuum k_eigen of 0 or below passed
    check and exited 2 from the eigensolver; none of them named its key."""

    @pytest.mark.parametrize("regime, key, old, value, lo", QFIELD_RANGES)
    def test_check_and_run_reject(self, tmp_path, monkeypatch, capsys, regime, key, old, value, lo):
        text = {"confined": CONFINED, "vacuum": VACUUM}[regime]
        assert f"\n{key} = {old}\n" in text
        bad = text.replace(f"\n{key} = {old}\n", f"\n{key} = {value}\n")
        got = repr(float(value)) if key == "tol" else value
        for err in _both_commands_reject(tmp_path, monkeypatch, capsys, bad, f"run.{key}"):
            assert err == f"config error: [run] {key} must be finite and > {lo}, got {got} (key: run.{key})\n"

    def test_more_coefficients_than_modes(self, tmp_path, monkeypatch, capsys):
        # check passed it, and run did the whole eigensolve and then exited 2
        # naming no key
        bad = CONFINED.replace("\nc = 1.0 0.1\n", "\nc = 1.0" + " 0.01" * 8 + "\n")

        def no_eigensolve(*args):
            raise AssertionError("vacuum_spectrum called")

        monkeypatch.setattr(runners.qf, "vacuum_spectrum", no_eigensolve)
        for err in _both_commands_reject(tmp_path, monkeypatch, capsys, bad, "initial.c"):
            assert err == "config error: [initial] c has 9 coefficients, more than [run] k_eigen = 8 (key: initial.c)\n"

    def test_as_many_coefficients_as_modes_run(self):
        sc = parse_scenario(CONFINED.replace("k_eigen = 8\n", "k_eigen = 2\n").replace("n = 801\n", "n = 201\n")
                            .replace("n_r = 1200\n", "n_r = 300\n"), "scenario")
        assert sc.params["initial"]["c"] == [1.0, 0.1]
        assert runners.run_scenario_object(sc).all_passed()

    def test_int_defaults_parse_as_int(self):
        text = CONFINED.replace("k_eigen = 8\n", "").replace("n_r = 1200\n", "")
        run = parse_scenario(text, "scenario").params["run"]
        assert (run["k_eigen"], run["n_r"]) == (8, 1200)
        assert type(run["k_eigen"]) is int and type(run["n_r"]) is int
        run = parse_scenario(VACUUM.replace("k_eigen = 3\n", ""), "scenario").params["run"]
        assert run["k_eigen"] == 3 and type(run["k_eigen"]) is int


SPACE_INDEPENDENT = (CONFIG_DIR / "space_independent_superposition.cfg").read_text()
CLASSICAL = (CONFIG_DIR / "classical_oscillator.cfg").read_text()
MADELUNG = (CONFIG_DIR / "madelung_trap.cfg").read_text()
SCHRODINGER = (CONFIG_DIR / "schrodinger_free_gaussian.cfg").read_text()
DDW = (CONFIG_DIR / "ddw_klein_gordon.cfg").read_text()
RULE_CASES = [
    *[(text, "kind = harmonic\nk = 1.0\n", f"kind = {kind}\n", "potential.kind",
       f"[potential] kind {kind} does not confine the field")
      for text in (VACUUM, SPACE_INDEPENDENT, CONFINED) for kind in ("free", "box")],
    (CONFINED, "r_min = 0.5\n", "r_min = 40.0\n", "run.r_max", "[run] r_max must be > r_min = 40.0, got 30.0"),
    (CONFINED, "fit_hi = 25.0\n", "fit_hi = 10.0\n", "run.fit_hi", "[run] fit_hi must be > fit_lo = 10.0, got 10.0"),
    (CONFINED, "c = 1.0 0.1\n", "c = 1.0 nan\n", "initial.c", "[initial] c must be finite, got [1.0, nan]"),
    (CONFINED, "c = 1.0 0.1\n", "c = 0.5 0.1\n", "initial.c", "[initial] c must start with c0 = 1, got [0.5, 0.1]"),
    (VACUUM, "k = 1.0\n", "k = 1.0\nc = 2.0\n", "potential.c", "unknown key [potential] c for kind harmonic"),
    (SPACE_INDEPENDENT, "modes = 0 1\n", "modes = 0 1e400\n", "initial.modes",
     "[initial] modes must be finite, got [0.0, inf]"),
    # more eigenpairs than the n - 2 interior nodes give
    (VACUUM, "k_eigen = 3\n", "k_eigen = 2001\n", "run.k_eigen",
     "[run] k_eigen needs 2001 eigenpairs, more than [grid] n - 2 = 1998"),
    (CONFINED, "k_eigen = 8\n", "k_eigen = 800\n", "run.k_eigen",
     "[run] k_eigen needs 800 eigenpairs, more than [grid] n - 2 = 799"),
    (SPACE_INDEPENDENT, "modes = 0 1\n", "modes = 0 1198\n", "initial.modes",
     "[initial] modes needs 1199 eigenpairs, more than [grid] n - 2 = 1198"),
    # a fit window outside the radial range
    (CONFINED, "r_max = 30.0\n", "r_max = 9.0\n", "run.r_max", "[run] r_max must be > fit_lo = 10.0, got 9.0"),
    (CONFINED, "r_min = 0.5\n", "r_min = 26.0\n", "run.fit_hi", "[run] fit_hi must be > r_min = 26.0, got 25.0"),
    # more than config._MAX_STEPS = 10^6 steps
    (SPIN, "dt = 0.0001\n", "dt = 1e-300\n", "run.dt",
     "[run] dt gives t_final / dt = 1.15e+300 steps, more than 1000000"),
    (SCHRODINGER, "dt = 0.002\n", "dt = 1e-300\n", "run.dt",
     "[run] dt gives t_final / dt = 2e+300 steps, more than 1000000"),
    (MADELUNG, "t_final = 0.5\n", "t_final = 0.5\ndt = 1e-300\n", "run.dt",
     "[run] dt gives t_final / dt = 5e+299 steps, more than 1000000"),
    (MADELUNG, "t_final = 0.5\n", "t_final = 81.0\n", "run.t_final",  # dt = 0.2 h^2 = 8e-5
     "[run] t_final gives t_final / dt = 1.0125e+06 steps, more than 1000000"),
    (CLASSICAL, "t_final = 6.283185307179586\n", "t_final = 1000.5\n", "run.t_final",  # the flow's dt = 1e-3
     "[run] t_final gives t_final / dt = 1.0005e+06 steps, more than 1000000"),
    (CLASSICAL, "cfl = 0.4\n", "cfl = 1e-300\n", "run.cfl",
     "[run] cfl gives t_final / dt = 3.14159e+303 steps, more than 1000000"),
    (DDW, "n_steps = 20000\n", "n_steps = 1000001\n", "run.n_steps",
     "[run] n_steps must be > 0 and < 1000001, got 1000001"),
    (SPACE_INDEPENDENT, "n_steps = 1000\n", "n_steps = 1000001\n", "run.n_steps",
     "[run] n_steps must be > 0 and < 1000001, got 1000001"),
    # a leapfrog step above the CFL bound dx = length / n
    (DDW, "dt = 0.001\n", "dt = 0.03\n", "run.dt",
     "[run] dt must be <= [grid] length / n = 0.02454369260617026, got 0.03"),
]


class TestRules:
    """Rules the fuzz values cannot reach from the SMALL bases: a potential
    that cannot confine a quantum field, a radial range or fit window given
    in the wrong order, a list entry or a first coefficient out of range, and
    a key the chosen potential kind does not read.  check passed each of
    them; run exited 2 naming no key (free, box, the radii, c0), exited 3
    after the whole solve (the fit window, a NaN in c), ran green (c under
    harmonic), or exited 2 naming the key only at run time (modes).  So did
    more eigenpairs than the grid has (exit 2 from the eigensolver, naming no
    key) and a fit window outside the radii (exit 3 after the solve); a run
    of more than 10^6 steps passed both and ran on, its memory growing with
    its steps.  A ddw step above dx passed check and exited 3 from run."""

    @pytest.mark.parametrize("text, old, new, key, message", RULE_CASES,
                             ids=[f"{read_sections(c[0])['scenario']['regime']}-{c[2].splitlines()[-1]}"
                                  for c in RULE_CASES])
    def test_check_and_run_reject(self, tmp_path, monkeypatch, capsys, text, old, new, key, message):
        assert old in text
        for err in _both_commands_reject(tmp_path, monkeypatch, capsys, text.replace(old, new), key):
            assert err == f"config error: {message} (key: {key})\n"

    def test_ddw_step_at_the_cfl_bound_runs(self, tmp_path):
        sections = read_sections(DDW)
        grid = sections["grid"]
        sections["run"].update(dt=repr(float(grid["length"]) / int(grid["n"])), n_steps="20")  # the bits of dx
        cfg = tmp_path / "case.cfg"
        cfg.write_text(render(sections))
        assert main(["check", str(cfg)]) == EXIT_OK
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK


class TestSpellings:
    @pytest.mark.parametrize("spelling", ["harmonic", "Harmonic", "HARMONIC"])
    def test_potential_kind_ignores_case(self, spelling):
        sc = parse_scenario(VACUUM.replace("kind = harmonic", f"kind = {spelling}"), "scenario")
        assert sc.params["potential"]["kind"] == "harmonic"
        assert sc.sections["potential"]["kind"] == spelling

    @pytest.mark.parametrize("old, new", [
        ("u_kind = exchange", "u_kind = Exchange"),
        ("theta_kind = zero", "theta_kind = ZERO"),
    ])
    def test_spin_kinds_are_exact(self, old, new):
        with pytest.raises(ConfigError) as err:
            parse_scenario(SPIN.replace(old, new), "scenario")
        assert err.value.key == "system." + old.split(" = ")[0]

    def test_choice_defaults_to_first(self):
        text = SPIN.replace("u_kind = exchange\n", "").replace("theta_kind = zero\n", "")
        sc = parse_scenario(text, "scenario")
        assert (sc.params["system"]["u_kind"], sc.params["system"]["theta_kind"]) == ("exchange", "zero")

    def test_default_section_is_an_unknown_section(self):
        # configparser would copy [DEFAULT] keys into every section
        with pytest.raises(ConfigError) as err:
            parse_scenario("[DEFAULT]\nk_eigen = 5\n" + VACUUM, "scenario")
        assert err.value.key == "DEFAULT"

    def test_list_default_is_a_fresh_copy(self):
        text = (CONFIG_DIR / "space_independent_superposition.cfg").read_text().replace("modes = 0 1\n", "")
        parse_scenario(text, "scenario").params["initial"]["modes"].append(5)
        assert parse_scenario(text, "scenario").params["initial"]["modes"] == [0, 1]

    def test_derived_key_absent_unless_given(self):
        cfg = (CONFIG_DIR / "confined_harmonic.cfg").read_text()
        assert parse_scenario(cfg, "scenario").params["run"]["r_min"] == 0.5
        assert "r_min" not in parse_scenario(cfg.replace("r_min = 0.5\n", ""), "scenario").params["run"]


# ---------------------------------------------------------------------------
# the table cannot drift from the runners

SMALL = {
    "classical": "[grid]\nq_min = -1.4\nq_max = 1.4\nn = 141\n[potential]\nkind = harmonic\n"
                 "[run]\nt_final = 0.05\n",
    "madelung": "[grid]\nq_min = -8.0\nq_max = 8.0\nn = 161\n[potential]\nkind = harmonic\n"
                "[run]\nt_final = 0.005\n",
    "schrodinger": "[grid]\nq_min = -14.0\nq_max = 14.0\nn = 281\n[potential]\nkind = harmonic\n"
                   "[run]\nt_final = 0.02\ndt = 0.002\n",
    "spin": "[run]\nt_start = 0.2\nt_final = 0.02\n",
    "ddw": "[grid]\nn = 64\n[run]\nn_steps = 20\n",
    "vacuum": "[grid]\nq_min = -10.0\nq_max = 10.0\nn = 400\n[potential]\nkind = harmonic\n",
    "space-independent": "[grid]\nq_min = -10.0\nq_max = 10.0\nn = 240\n[potential]\nkind = harmonic\n"
                         "[run]\nn_steps = 10\n",
    "confined": "[grid]\nq_min = -8.0\nq_max = 8.0\nn = 161\n[potential]\nkind = harmonic\n[run]\nn_r = 240\n",
}
KINDS = {"free": "", "box": "", "harmonic": "", "quartic": "", "polynomial": "coeffs = 0 0 0.5\n"}


class _Recording(dict):
    """One section of ``Scenario.params`` that notes each key looked up."""

    def __init__(self, section, values, seen):
        super().__init__(values)
        self.section, self.seen = section, seen

    def __getitem__(self, key):
        self.seen.add((self.section, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add((self.section, key))
        return super().get(key, default)

    def __contains__(self, key):
        self.seen.add((self.section, key))
        return super().__contains__(key)


def _recorded(text: str):
    sc = parse_scenario(text, "scenario")
    seen = set()
    sc.params = {s: _Recording(s, values, seen) for s, values in sc.params.items() if s in SCHEMA[sc.regime]}
    return sc, seen


def _reads(regime: str) -> set:
    """(section, key) pairs the runner of ``regime`` reads from params, with
    the potential read once per catalogue kind."""
    sc, seen = _recorded(f"[scenario]\nregime = {regime}\n" + SMALL[regime])
    runners.run_scenario_object(sc)
    if "potential" in SCHEMA[regime]:
        for kind, extra in KINDS.items():
            if not POTENTIALS[kind]:  # free and box read only the kind, and do not confine a quantum field
                continue
            pot_sc, pot_seen = _recorded(f"[scenario]\nregime = {regime}\n"
                                         + SMALL[regime].replace("kind = harmonic\n", f"kind = {kind}\n{extra}"))
            runners._potential_from(pot_sc)
            seen |= pot_seen
    return seen


def test_schema_covers_the_runners():
    assert set(SCHEMA) == set(runners._RUNNERS)


@pytest.mark.parametrize("regime", sorted(SCHEMA))
def test_every_entry_is_read(regime):
    entries = {(s, k) for s, keys in SCHEMA[regime].items() for k in keys}
    assert _reads(regime) == entries


def test_drift_check_covers_every_potential_kind():
    kinds = [k for k in SCHEMA["vacuum"]["potential"]["kind"] if k is not None]
    assert kinds == list(KINDS)


# ---------------------------------------------------------------------------
# check rejects what run rejects: each SCHEMA key of each SMALL base set to
# each of FUZZ_VALUES, one at a time, through both commands

FUZZ_VALUES = ("0", "-1", "nan", "inf")
GROWTH = "config error: potential must grow toward the grid ends\n"
# A quantum-field potential must grow toward both grid ends, which only V
# sampled on the grid shows: config leaves it to QFieldSpec.validate_on, and
# these cases pass check and exit 2 from run with GROWTH, naming no key.
GRID_SAMPLED = {(regime, f"grid.{key}", value) for regime in ("confined", "space-independent", "vacuum")
                for key in ("q_min", "q_max") for value in ("0", "-1")}
# A Schrodinger packet that leaves more than the leakage guard allows in the
# edge cells at t = 0 is refused by the runner before it steps, naming
# initial.sigma; config has no rule for it (that needs the runner's
# normalisation sum), so this case passes check and exits 2 from run.
PACKET_OUTSIDE = {("schrodinger", "grid.q_min", "-1")}
# a rule's key -> the other keys it reads; an edit of one of them may name the rule's key
GRID = {"grid.q_min", "grid.q_max", "grid.n"}
RULE_KEYS = {"grid.q_max": {"grid.q_min"}, "initial.center": {"grid.q_min", "grid.q_max"},
             "initial.basis_state": {"system.levels"}, "initial.c": {"run.k_eigen"},
             "run.r_max": {"run.r_min", "run.fit_lo"}, "run.fit_hi": {"run.fit_lo", "run.r_min"},
             "run.k_eigen": {"grid.n"}, "initial.modes": {"grid.n"}, "run.dt": {"run.t_final"},
             "run.t_final": GRID, "run.cfl": {"run.t_final", *GRID}}
# Keys that exit 2 at every fuzz value.  Before the rules, these ran to
# max-iterations, to an empty fit window or to a green report; the SMALL
# bases use kind = harmonic, which reads neither c nor coeffs.
ALWAYS_REJECTED = {"run.r_min", "run.r_max", "run.fit_lo", "run.fit_hi", "initial.c", "potential.c", "potential.coeffs"}


def _outcome(argv, capsys) -> tuple:
    code = main(argv)  # raises, as the console script would exit 1, on an unclassified error
    return code, capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("regime", sorted(SCHEMA))
def test_check_rejects_what_run_rejects(tmp_path, capsys, regime):
    """check exits 2 exactly when run does, but for GRID_SAMPLED and
    PACKET_OUTSIDE; both then print the same line, which names the edited
    key or a rule that reads it."""
    base = read_sections(f"[scenario]\nregime = {regime}\n" + SMALL[regime])
    assert base.get("potential", {"kind": "harmonic"})["kind"] == "harmonic"
    cfg, out = tmp_path / "case.cfg", str(tmp_path / "out")
    wrong, grid_sampled, packet_outside = [], set(), set()
    for sec, keys in SCHEMA[regime].items():
        for key, value in ((key, value) for key in keys for value in FUZZ_VALUES):
            edited = f"{sec}.{key}"
            sections = {s: dict(k) for s, k in base.items()}
            sections.setdefault(sec, {})[key] = value
            cfg.write_text(render(sections))
            check, check_err = _outcome(["check", str(cfg)], capsys)
            run, run_err = _outcome(["run", str(cfg), "--out", out], capsys)
            named = check_err.rpartition("(key: ")[2].rstrip(")\n")
            if (check, run, run_err) == (EXIT_OK, EXIT_CONFIG, GROWTH):
                grid_sampled.add((regime, edited, value))
            elif (check, run) == (EXIT_OK, EXIT_CONFIG) and run_err.endswith(" (key: initial.sigma)\n"):
                packet_outside.add((regime, edited, value))
            elif EXIT_CONFIG in (check, run) or edited in ALWAYS_REJECTED:
                if not (check_err == run_err and (named == edited or edited in RULE_KEYS.get(named, ()))):
                    wrong.append((edited, value, check, run, run_err))
    assert not wrong
    assert grid_sampled == {case for case in GRID_SAMPLED if case[0] == regime}
    assert packet_outside == {case for case in PACKET_OUTSIDE if case[0] == regime}


def test_benchmark_configs_parse(monkeypatch):
    """Every config the benchmark generates passes the schema and its rules:
    one that a rule rejected would count as a failed operation."""
    root = CONFIG_DIR.parent
    monkeypatch.chdir(root)  # the sweep workload reads configs/ from the root of the checkout
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for seed in range(10):
            configs = workloads.generate(workload, seed)
            assert len(configs) == (len(SHIPPED) if workload == "sweep" else 40)
            for name, text in configs:
                parse_scenario(text, name=name)
    assert [parse_scenario(text, "scenario").regime for _, text in workloads.warmup()] == list(workloads._WARMUP)
