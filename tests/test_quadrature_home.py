"""Guard: the grid quadrature and the unit-norm tolerance each have one home
in ``numerics``, and every matrix product in src/varq is named.

* Every sum in src/varq (``np.sum``, the ``.sum`` method, the builtin
  ``sum``, ``mean``/``average``, and a fold with ``add``: ``np.add.reduce``
  or ``reduce(add, ...)``) sits in ``numerics._quad``, the quadrature
  h * sum(.), or in a function of ``SUM_OK``, each with the reason its sum
  does not go through ``_quad``.  A function's nested functions count as the
  function.  An entry whose function no longer sums must leave the list.
* Every matrix product (``@``, ``matmul``, ``dot`` as function or method,
  ``vdot``, ``inner``, ``einsum``, ``tensordot``) sits in a function of
  ``PRODUCT_OK``, which holds how many the function makes and why.  These are
  the products whose bits may follow the host's BLAS kernel; a new one, a
  changed count or a listed function that no longer makes one fails.
* The float 1e-9 appears once in src/varq, as ``numerics._NORM_TOL``.

The scan reads the source, it imports nothing.
"""

import ast

import pytest

from test_reachability import FUNCS, MODULES, parse_modules

HOME = "numerics._quad"
SUM_OK = {
    "wavefunction._check_boundary": "six edge cells as Python floats added left to right, numpy's grouping: "
                                    "fixed-order float adds, so kernel-independent; _quad would regroup them",
    "discrete._check_normalised": "the total probability of a spin state has no grid spacing",
    "runners.run_spin": "the total probability of a spin state has no grid spacing",
    "runners.run_space_independent": "sums eigenmodes into a superposition, not a field over the grid, "
                                     "and takes the mean of their eigenvalues",
}
PRODUCT_OK = {
    "quantum_fields.confined_solve": (4, "the pair's fields, their log-source projection, the residual and the "
                                         "returned pair, each over one (2, nq, n_r) stack"),
    "quantum_fields.VacuumSpectrum.__post_init__": (1, "the orthonormality check's Gram matrix, whose error "
                                                       "run_vacuum reports"),
    "runners.run_ddw": (1, "the projection of the stored fields on the plane wave's mode"),
    "discrete._propagator": (2, "the eigenbasis coefficients of the state and the evolved superposition"),
    "wavefunction._expected_energy": (1, "vdot of the interior state with H psi"),
}
SUM_NAMES = ("sum", "mean", "average")
PRODUCT_NAMES = ("matmul", "dot", "vdot", "inner", "einsum", "tensordot")


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""


def _is_sum(n) -> bool:
    """A sum call: one of ``SUM_NAMES``, or a ``reduce`` of ``add`` (``np.add.reduce``, ``reduce(add, x)``)."""
    if not isinstance(n, ast.Call):
        return False
    if _name(n.func) in SUM_NAMES:
        return True
    owner = n.func.value if isinstance(n.func, ast.Attribute) else None
    return _name(n.func) == "reduce" and (_name(owner) == "add" or bool(n.args) and _name(n.args[0]) == "add")


def _is_product(n) -> bool:
    """A matrix product: ``@``, ``@=`` or a call of one of ``PRODUCT_NAMES``."""
    return (isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)
            or isinstance(n, ast.Call) and _name(n.func) in PRODUCT_NAMES)


def sites(trees: dict, kind) -> dict:
    """module.qualname -> number of nodes under it that ``kind`` accepts, for
    every top-level function, method or class body (``module.<module>`` for
    module code) that holds one."""
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
            n = sum(map(kind, ast.walk(node)))
            if n:
                found[key] = found.get(key, 0) + n
    return found


def norm_tolerances(trees: dict) -> list:
    """module:line of every float constant 1e-9."""
    return [f"{mod}:{n.lineno}" for mod, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and type(n.value) is float and n.value == 1e-9]


def test_every_sum_is_the_quadrature_or_allowed():
    stray = [f"{k} ({n})" for k, n in sites(parse_modules(), _is_sum).items() if k != HOME and k not in SUM_OK]
    assert not stray, ("sums outside numerics._quad: route each grid quadrature through _quad, "
                       "or allow it in SUM_OK: " + ", ".join(stray))


def test_allowed_sums_still_sum():
    found = sites(parse_modules(), _is_sum)
    assert HOME in found
    gone = sorted(set(SUM_OK) - set(found))
    assert not gone, "an allowed function no longer sums or is gone: drop it from SUM_OK: " + ", ".join(gone)


def test_every_product_is_listed():
    found = sites(parse_modules(), _is_product)
    listed = {k: n for k, (n, _) in PRODUCT_OK.items()}
    assert found == listed, ("matrix products differ from PRODUCT_OK (function: found, listed): " + ", ".join(
        f"{k}: {found.get(k, 0)}, {listed.get(k, 0)}" for k in sorted(set(found) | set(listed))
        if found.get(k) != listed.get(k)))


def test_norm_tolerance_has_one_home():
    trees = parse_modules()
    home = [n for n in trees["numerics"].body if isinstance(n, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_NORM_TOL" for t in n.targets)]
    assert len(home) == 1 and norm_tolerances(trees) == [f"numerics:{home[0].lineno}"], (
        "1e-9 outside numerics._NORM_TOL: " + ", ".join(norm_tolerances(trees)))


@pytest.mark.parametrize("mod", MODULES)
def test_scan_flags_a_planted_quadrature(mod):
    # a hand-written h * sum(.), a mean, an add fold or a matrix product added to
    # any module, bare or as a method, must be named
    trees = parse_modules()
    before = len(norm_tolerances(trees))
    trees[mod].body += ast.parse(
        "def _probe_norm(h, f): return h * float(np.sum(f))\n"
        "class _Probe:\n    def mass(self, h, f): return h * f.sum()\n    def dot(self, a, b): return a.dot(b)\n"
        "_PROBE = sum(x for x in ())\n"
        "_PROBE_TOL = 1e-9\n"
        "def _probe_mean(f): return np.mean(f)\n"
        "def _probe_fold(f): return reduce(add, f) + np.add.reduce(f)\n"
        "def _probe_gram(a): return a.T @ a\n"
        "def _probe_matmul(a, b): return np.matmul(a, b)\n"
        "def _probe_vdot(a, b): return np.vdot(a, b)\n"
    ).body
    sums, products = sites(trees, _is_sum), sites(trees, _is_product)
    for probe in ("_probe_norm", "_Probe.mass", "<module>", "_probe_mean"):
        assert sums[f"{mod}.{probe}"] >= 1
    assert sums[f"{mod}._probe_fold"] == 2
    for probe in ("_Probe.dot", "_probe_gram", "_probe_matmul", "_probe_vdot"):
        assert products[f"{mod}.{probe}"] == 1
    assert len(norm_tolerances(trees)) == before + 1
