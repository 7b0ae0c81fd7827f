"""``scripts/line_reach.py``'s line bookkeeping on a hand-written two-function
module: executable lines, tracing, the unrun set and its check against an
allowlist, with none of its roots."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_reach.py"
_spec = importlib.util.spec_from_file_location("line_reach", SCRIPT)
line_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_reach)

MODULE = '''\
import os

LIMIT = 10


def first(x):
    """Calls second, then the standard library."""
    y = second(x)
    z = os.path.join("a",
                     "b")
    if y > LIMIT:
        return -1
    return y + len(z)


class Holder:
    size = 3

    @staticmethod
    def second(x):
        try:
            return x + 1
        except TypeError:
            raise ValueError("not a number")


second = Holder.second
'''


def _module(tmp_path, source=MODULE):
    path = tmp_path / "two_functions.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("two_functions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path.resolve(), module


def test_executable_lines(tmp_path):
    path, _ = _module(tmp_path)
    # no import, constant, def, decorator, docstring or class-body line; the
    # continuation line of a call counts, and so do the try and except lines
    assert line_reach.executable_lines(path) == {8, 9, 10, 11, 12, 13, 21, 22, 23, 24}


def test_unrun_lines(tmp_path):
    path, module = _module(tmp_path)
    before = sys.gettrace()
    ran = line_reach.trace([lambda: module.first(1)], [path])
    assert sys.gettrace() is before
    # the lines of first after its call into second and into os.path stay first's
    assert ran[str(path)] == {8, 9, 10, 11, 13, 21, 22}
    assert line_reach.unrun([path], ran) == {str(path): [12, 23, 24]}
    ran = line_reach.trace([lambda: module.first(1), lambda: module.first(20)], [path])
    assert line_reach.unrun([path], ran) == {str(path): [23, 24]}


def _entry(qualname, text, **extra):
    return {"module": "two_functions.py", "qualname": qualname, "text": text, **extra}


ALLOWED = [  # the lines first(1) leaves unrun, each with its class
    _entry("first", "return -1", reason="only a large x takes it"),
    _entry("Holder.second", "except TypeError:", **{"class": "except handler"}),
    _entry("Holder.second", 'raise ValueError("not a number")', **{"class": "raise"}),
]


def _check(tmp_path, entries, source=MODULE):
    path, module = _module(tmp_path, source)
    allow = tmp_path / "allow.json"
    allow.write_text(json.dumps(entries))
    ran = line_reach.trace([lambda: module.first(1)], [path])
    return line_reach.check(line_reach.unrun([path], ran), line_reach.load_allowlist(allow))


def test_allowlist_covers_every_unrun_line(tmp_path):
    assert _check(tmp_path, ALLOWED) == ([], Counter())


def test_unlisted_unrun_line_fails(tmp_path):
    unlisted, stale = _check(tmp_path, ALLOWED[1:])
    assert unlisted == [("two_functions.py", 12, "first", "return -1")] and not stale


def test_stale_entry_fails(tmp_path):
    entries = ALLOWED + [_entry("first", "y = second(x)", reason="it runs"), _entry("gone", "pass", reason="no such line")]
    unlisted, stale = _check(tmp_path, entries)
    assert not unlisted
    assert stale == Counter({("two_functions.py", "first", "y = second(x)"): 1, ("two_functions.py", "gone", "pass"): 1})


def test_entries_match_after_lines_inserted_above(tmp_path):
    # a new function above moves every line down and holds a "return -1" of its own
    source = MODULE.replace("LIMIT = 10\n", 'LIMIT = 10\n\n\ndef third(x):\n    """Not called."""\n    return -1\n')
    unlisted, stale = _check(tmp_path, ALLOWED, source)
    assert unlisted == [("two_functions.py", 8, "third", "return -1")] and not stale
    assert _check(tmp_path, ALLOWED + [_entry("third", "return -1", reason="never called")], source) == ([], Counter())


def test_count_covers_repeated_lines(tmp_path):
    source = MODULE.replace("        return -1\n", "        if y > 2 * LIMIT:\n            return -1\n        return -1\n")
    entries = [_entry("first", "if y > 2 * LIMIT:", reason="only a large x takes it"), *ALLOWED[1:]]
    unlisted, stale = _check(tmp_path, entries + [ALLOWED[0]], source)
    assert unlisted == [("two_functions.py", 14, "first", "return -1")] and not stale
    counted = entries + [dict(ALLOWED[0], count=2)]
    assert _check(tmp_path, counted, source) == ([], Counter())
    assert _check(tmp_path, entries + [dict(ALLOWED[0], count=3)], source)[1] == Counter(
        {("two_functions.py", "first", "return -1"): 1})


@pytest.mark.parametrize("bad", [
    _entry("first", "return -1"),  # neither class nor reason
    _entry("first", "return -1", reason="a", **{"class": "raise"}),  # both
    _entry("first", "return -1", **{"class": "unreached"}),  # no such class
    _entry("first", "return -1", reason="two\nlines"),
    _entry("first", "return -1", reason="x", count=0),
    _entry("first", "return -1", reason="x", line=12),  # no line numbers
])
def test_malformed_entry_rejected(tmp_path, bad):
    allow = tmp_path / "allow.json"
    allow.write_text(json.dumps([bad]))
    with pytest.raises(SystemExit):
        line_reach.load_allowlist(allow)
    allow.write_text(json.dumps(ALLOWED + ALLOWED[:1]))  # a repeated key
    with pytest.raises(SystemExit):
        line_reach.load_allowlist(allow)


def test_committed_allowlist_is_well_formed():
    assert line_reach.load_allowlist(line_reach.ALLOWLIST)
