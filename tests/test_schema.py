"""``config.SCHEMA`` is the one table of what each regime accepts.

``varq check`` and ``varq run`` must give the same answer on a bad key
before anything runs, and the table must not drift from the runners: every
entry is read by its regime's runner, and the runners read nothing else.
"""

import configparser
from pathlib import Path

import pytest

from varq import runners
from varq.cli import EXIT_CONFIG, EXIT_OK, main
from varq.config import COMMON, SCHEMA, Between, parse_scenario
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
    return isinstance(entry, type) or (isinstance(entry, tuple) and entry[0] is None)


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
    for sec, keys in table.items():
        for key, entry in keys.items():
            if _required(entry):
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
    """Inputs that `varq check` passed and `varq run` either rejected or ran
    on defaults, reporting ok."""

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
        assert parse_scenario(text).params["run"]["support_floor"] == float(value)

    def test_support_floor_default(self):
        text = (CONFIG_DIR / "classical_oscillator.cfg").read_text().replace(FLOOR, "")
        assert parse_scenario(text).params["run"]["support_floor"] == 1e-6

    def test_unparsable_support_floor(self):
        text = (CONFIG_DIR / "classical_oscillator.cfg").read_text().replace(FLOOR, "support_floor = tiny\n")
        with pytest.raises(ConfigError, match=r"cannot parse \[run\] support_floor = 'tiny' as float") as err:
            parse_scenario(text)
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
        run = parse_scenario(SPIN.replace("dt = 0.0001\n", "").replace("t_final = 1.15\n", "")).params["run"]
        assert (run["dt"], run["t_final"]) == (1e-3, 1.0)

    def test_every_default_inside_its_range(self):
        entries = [e for regime in SCHEMA.values() for keys in regime.values() for e in keys.values()
                   if isinstance(e, Between)]
        assert entries and all(e.lo < e.default < e.hi for e in entries)


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
        # check cannot compare two keys and passes; run used to do the whole
        # eigensolve and then exit 2 naming no key
        bad = CONFINED.replace("\nc = 1.0 0.1\n", "\nc = 1.0" + " 0.01" * 8 + "\n")
        cfg = tmp_path / "case.cfg"
        cfg.write_text(bad)
        assert main(["check", str(cfg)]) == EXIT_OK
        capsys.readouterr()

        def no_eigensolve(*args):
            raise AssertionError("vacuum_spectrum called")

        monkeypatch.setattr(runners.qf, "vacuum_spectrum", no_eigensolve)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: [initial] c has 9 coefficients, more than [run] k_eigen = 8"
                                           " (key: initial.c)\n")
        assert not (tmp_path / "out").exists()

    def test_as_many_coefficients_as_modes_run(self):
        sc = parse_scenario(CONFINED.replace("k_eigen = 8\n", "k_eigen = 2\n").replace("n = 801\n", "n = 201\n")
                            .replace("n_r = 1200\n", "n_r = 300\n"))
        assert sc.params["initial"]["c"] == [1.0, 0.1]
        assert runners.run_scenario_object(sc).all_passed()

    def test_int_defaults_parse_as_int(self):
        run = parse_scenario(CONFINED.replace("k_eigen = 8\n", "").replace("n_r = 1200\n", "")).params["run"]
        assert (run["k_eigen"], run["n_r"]) == (8, 1200)
        assert type(run["k_eigen"]) is int and type(run["n_r"]) is int
        run = parse_scenario(VACUUM.replace("k_eigen = 3\n", "")).params["run"]
        assert run["k_eigen"] == 3 and type(run["k_eigen"]) is int


class TestSpellings:
    @pytest.mark.parametrize("spelling", ["harmonic", "Harmonic", "HARMONIC"])
    def test_potential_kind_ignores_case(self, spelling):
        sc = parse_scenario(VACUUM.replace("kind = harmonic", f"kind = {spelling}"))
        assert sc.params["potential"]["kind"] == "harmonic"
        assert sc.sections["potential"]["kind"] == spelling

    @pytest.mark.parametrize("old, new", [
        ("u_kind = exchange", "u_kind = Exchange"),
        ("theta_kind = zero", "theta_kind = ZERO"),
    ])
    def test_spin_kinds_are_exact(self, old, new):
        with pytest.raises(ConfigError) as err:
            parse_scenario(SPIN.replace(old, new))
        assert err.value.key == "system." + old.split(" = ")[0]

    def test_choice_defaults_to_first(self):
        text = SPIN.replace("u_kind = exchange\n", "").replace("theta_kind = zero\n", "")
        sc = parse_scenario(text)
        assert (sc.params["system"]["u_kind"], sc.params["system"]["theta_kind"]) == ("exchange", "zero")

    def test_default_section_is_an_unknown_section(self):
        # configparser would copy [DEFAULT] keys into every section
        with pytest.raises(ConfigError) as err:
            parse_scenario("[DEFAULT]\nk_eigen = 5\n" + VACUUM)
        assert err.value.key == "DEFAULT"

    def test_list_default_is_a_fresh_copy(self):
        text = (CONFIG_DIR / "space_independent_superposition.cfg").read_text().replace("modes = 0 1\n", "")
        parse_scenario(text).params["initial"]["modes"].append(5)
        assert parse_scenario(text).params["initial"]["modes"] == [0, 1]

    def test_derived_key_absent_unless_given(self):
        cfg = (CONFIG_DIR / "confined_harmonic.cfg").read_text()
        assert parse_scenario(cfg).params["run"]["r_min"] == 0.5
        assert "r_min" not in parse_scenario(cfg.replace("r_min = 0.5\n", "")).params["run"]


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
    sc = parse_scenario(text)
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
