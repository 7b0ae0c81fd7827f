"""Guards on the values a caller can set in src/varq.

A settable value is a function or lambda parameter with a default, a
dataclass field with a default that ``__init__`` takes (a
``field(init=False)`` is no option), or a read of
``os.environ``/``os.getenv``.

* Ratchet: a change that adds one raises ``LIMIT`` in the same diff and says
  in CHANGES.md why the option is needed; a change that removes some lowers it.
* Setter rule: every settable value is set by a call outside the unit tests,
  in src/varq or in a root file of the reachability scan
  (``test_reachability.ROOT_FILES``: the scripts, the benchmark and the two
  end-to-end test files).  A call sets a value when it names the function
  (or the class, for a dataclass field or an ``__init__`` parameter), bare or
  as an attribute, and passes its keyword, a positional argument at its
  index, or ``*``/``**``.  ``SETTER_OK`` holds the exceptions, each with its
  reason; an entry that gains a setter or goes must leave the list.
"""

import ast

from test_reachability import SRC, outside_trees

LIMIT = 38

SETTER_OK = {
    ("DiffusionSpec", "g"): "the paper's regular term g(rho) of the quantum-pole closure, "
                            "rho d^2(rho) = (a/2)^2/rho + g(rho), which the README documents",
    ("DiffusionSpec", "g_grad"): "the analytic gradient of that regular term g(rho)",
    # the call is fn(*args) and names no function (ROADMAP item 8)
    ("madelung_step", "floor_frac"): "perfbench/kernels.py passes it by position from an args tuple",
    ("madelung_step", "support_floor"): "perfbench/kernels.py passes it by position from an args tuple",
}

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _callee(func) -> str:
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else ""


def _in_init(st) -> bool:
    """Whether a dataclass body statement is a field that ``__init__`` takes."""
    if not (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)):
        return False
    value = st.value
    return not (isinstance(value, ast.Call) and _callee(value.func) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                        for k in value.keywords))


def settable_values(source: str) -> list:
    """(owner, name, index) of every settable value in one module's source:
    ``owner`` is the name a call uses (the class, for a dataclass field or
    an ``__init__`` parameter), ``index`` the position a call passes it at
    (None for a keyword-only parameter or an environment read)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCS):
                method = isinstance(node, ast.ClassDef)  # its first parameter is the instance
                owner = node.name if method and child.name == "__init__" else getattr(child, "name", "lambda")
                args = child.args
                positional = (args.posonlyargs + args.args)[int(method):]
                first = len(positional) - len(args.defaults)
                found.extend((owner, a.arg, i) for i, a in enumerate(positional) if i >= first)
                found.extend((owner, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            elif isinstance(child, ast.ClassDef) and _is_dataclass(child):
                fields = [st for st in child.body if _in_init(st)]
                found.extend((child.name, st.target.id, i) for i, st in enumerate(fields) if st.value is not None)
            elif (isinstance(child, ast.Attribute) and child.attr in ("environ", "getenv")
                  and isinstance(child.value, ast.Name) and child.value.id == "os"):
                found.append(("os", child.attr, None))
            visit(child)

    visit(ast.parse(source))
    return found


def calls(trees) -> dict:
    """callee name -> [(positional count, keywords, starred)] of every call under ``trees``."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                n_pos = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
                starred = n_pos < len(node.args) or any(k.arg is None for k in node.keywords)
                out.setdefault(_callee(node.func), []).append((n_pos, {k.arg for k in node.keywords}, starred))
    return out


def unset(values, trees) -> list:
    """The (owner, name) of ``values`` that no call under ``trees`` sets."""
    seen = calls(trees)
    return [(owner, name) for owner, name, index in values
            if not any(starred or name in keywords or (index is not None and index < n_pos)
                       for n_pos, keywords, starred in seen.get(owner, []))]


def src_values() -> list:
    return [(p.name, *v) for p in sorted(SRC.glob("*.py")) for v in settable_values(p.read_text())]


def test_counter_sees_each_kind():
    source = (
        "import os\nfrom dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda q, _m=3: q\n"
        "@dataclass\nclass S:\n    x: int\n    y: int = 0\n    h: float = field(init=False, default=0.0)\n"
        "class Plain:\n    z: int = 0\n"
        "    def __init__(self, u, w=1): pass\n"
        "    def step(self, v=2): pass\n"
        "n = os.environ.get('N')\nm = os.getenv('M')\n"
    )
    assert sorted(settable_values(source)) == sorted(
        [("f", "b", 1), ("f", "c", None), ("lambda", "_m", 1), ("S", "y", 1), ("Plain", "w", 1),
         ("step", "v", 0), ("os", "environ", None), ("os", "getenv", None)]
    )


def test_settable_values_at_most_limit():
    found = src_values()
    listing = "\n".join(f"  {module}: {owner}.{name}" for module, owner, name, _ in found)
    assert len(found) <= LIMIT, f"{len(found)} settable values in src/varq, limit {LIMIT}:\n{listing}"


def test_every_settable_value_has_a_setter():
    missing = [v for v in unset([v[1:] for v in src_values()], outside_trees()) if v not in SETTER_OK]
    assert not missing, "set by no call outside the unit tests: " + ", ".join(f"{o}.{n}" for o, n in missing)


def test_allowed_unset_is_still_unset():
    flagged = set(unset([v[1:] for v in src_values()], outside_trees()))
    stale = sorted(set(SETTER_OK) - flagged)
    assert not stale, "allowed without a setter but now set or gone, drop from SETTER_OK: " + ", ".join(
        f"{o}.{n}" for o, n in stale)


def test_setter_rule_on_a_small_module():
    # a defaulted parameter with no setter is flagged; a keyword, an argument
    # at its index or a *args call sets one
    lib = (
        "from dataclasses import dataclass\n"
        "def run(x, tol=1.0, n=2, *, floor=None, probe=0): pass\n"
        "def kernel(x, floor=0.0): pass\n"
        "@dataclass\nclass Spec:\n    a: float\n    b: float = 1.0\n    c: float = 2.0\n"
    )
    caller = ast.parse(
        "run(1, 0.5)\nrun(1, floor=3)\n"
        "args = (1, 2.0)\nkernel(*args)\n"
        "Spec(1.0, c=3.0)\n"
    )
    assert unset(settable_values(lib), [caller]) == [("run", "n"), ("run", "probe"), ("Spec", "b")]
