"""Guard: the grid quadrature and the unit-norm tolerance each have one home
in ``numerics``.

* Every sum in src/varq (``np.sum``, the ``.sum`` method or the builtin
  ``sum``) sits in ``numerics._quad``, the quadrature h * sum(.), or in a
  function of ``SUM_OK``, each with the reason its sum does not go through
  ``_quad``.  A function's nested functions count as the function.  An entry
  whose function no longer sums must leave the list.
* The float 1e-9 appears once in src/varq, as ``numerics._NORM_TOL``.

The scan reads the source, it imports nothing.
"""

import ast

import pytest

from test_reachability import FUNCS, MODULES, parse_modules

HOME = "numerics._quad"
SUM_OK = {
    "wavefunction._check_boundary": "adds its two edge sums before it multiplies by h: _quad would regroup the sum",
    "discrete._check_normalised": "the total probability of a spin state has no grid spacing",
    "runners.run_spin": "the total probability of a spin state has no grid spacing",
    "runners.run_space_independent": "sums eigenmodes into a superposition, not a field over the grid",
}


def _sums(node) -> int:
    """The sum calls under ``node``."""
    return sum(isinstance(n, ast.Call) and (isinstance(n.func, ast.Attribute) and n.func.attr == "sum"
                                            or isinstance(n.func, ast.Name) and n.func.id == "sum")
               for n in ast.walk(node))


def sum_sites(trees: dict) -> dict:
    """module.qualname -> number of sum calls, for every top-level function,
    method or class body (``module.<module>`` for module code) that makes one."""
    found = {}
    for mod, tree in trees.items():
        units = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                units += [(f"{mod}.{node.name}.{s.name}", s) for s in node.body if isinstance(s, FUNCS)]
                units += [(f"{mod}.{node.name}", s) for s in node.body if not isinstance(s, FUNCS)]
            else:
                units.append((f"{mod}.{node.name}" if isinstance(node, FUNCS) else f"{mod}.<module>", node))
        for key, node in units:
            n = _sums(node)
            if n:
                found[key] = found.get(key, 0) + n
    return found


def norm_tolerances(trees: dict) -> list:
    """module:line of every float constant 1e-9."""
    return [f"{mod}:{n.lineno}" for mod, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and type(n.value) is float and n.value == 1e-9]


def test_every_sum_is_the_quadrature_or_allowed():
    stray = [f"{k} ({n})" for k, n in sum_sites(parse_modules()).items() if k != HOME and k not in SUM_OK]
    assert not stray, ("sums outside numerics._quad: route each grid quadrature through _quad, "
                       "or allow it in SUM_OK: " + ", ".join(stray))


def test_allowed_sums_still_sum():
    sites = sum_sites(parse_modules())
    assert HOME in sites
    gone = sorted(set(SUM_OK) - set(sites))
    assert not gone, "an allowed function no longer sums or is gone: drop it from SUM_OK: " + ", ".join(gone)


def test_norm_tolerance_has_one_home():
    trees = parse_modules()
    home = [n for n in trees["numerics"].body if isinstance(n, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_NORM_TOL" for t in n.targets)]
    assert len(home) == 1 and norm_tolerances(trees) == [f"numerics:{home[0].lineno}"], (
        "1e-9 outside numerics._NORM_TOL: " + ", ".join(norm_tolerances(trees)))


@pytest.mark.parametrize("mod", MODULES)
def test_scan_flags_a_planted_quadrature(mod):
    # a hand-written h * sum(.) added to any module, bare or as a method, must be named
    trees = parse_modules()
    before = len(norm_tolerances(trees))
    trees[mod].body += ast.parse(
        "def _probe_norm(h, f): return h * float(np.sum(f))\n"
        "class _Probe:\n    def mass(self, h, f): return h * f.sum()\n"
        "_PROBE = sum(x for x in ())\n"
        "_PROBE_TOL = 1e-9\n"
    ).body
    sites = sum_sites(trees)
    assert {f"{mod}._probe_norm", f"{mod}._Probe.mass", f"{mod}.<module>"} <= set(sites)
    assert len(norm_tolerances(trees)) == before + 1
