"""``scripts/line_reach.py``'s line bookkeeping on a hand-written two-function
module: executable lines, tracing and the unrun set, with none of its roots."""

import importlib.util
import sys
from pathlib import Path

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


def _module(tmp_path):
    path = tmp_path / "two_functions.py"
    path.write_text(MODULE)
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
