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
  index, or ``*``/``**``.  The benchmark's kernel table counts as calls too:
  each ``return fn, (args...)`` in ``perfbench/kernels.py`` is a positional
  call of ``fn``.  ``SETTER_OK`` holds the exceptions, each with its reason;
  an entry that gains a setter or goes must leave the list.
* Default rule: some call outside the unit tests relies on every default, by
  leaving the value out (a ``*``/``**`` call may leave it out).  A default
  that every such call overrides is a required parameter in disguise.
  ``DEFAULT_OK`` holds the exceptions, each with its reason; an entry that
  gains a call relying on it or goes must leave the list.
* No private parameter: a public function, or a public method (``__init__``
  included) of a public class, takes no ``_``-prefixed parameter; a run
  keeps its step state in its own objects, not in a hidden argument of a
  public step.  ``PRIVATE_PARAM_OK`` holds the exceptions, each with its reason.
"""

import ast
from functools import lru_cache

from test_reachability import ROOT, SRC, outside_trees

LIMIT = 17

SETTER_OK = {}

DEFAULT_OK = {}

PRIVATE_PARAM_OK = {
    ("hydrodynamics.py", "madelung_step", "_op"): "perfbench/kernels.py passes it by position (ROADMAP item 8)",
}

KERNELS = ROOT / "perfbench" / "kernels.py"

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


def private_params(source: str) -> list:
    """(owner, name) of every ``_``-prefixed parameter of a public function,
    or of a public method or ``__init__`` of a public class (owner
    ``Class.method``), in one module's source."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            funcs = [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, FUNCS[:2])
                     and (not f.name.startswith("_") or f.name == "__init__")]
        elif isinstance(node, FUNCS[:2]) and not node.name.startswith("_"):
            funcs = [(node.name, node)]
        else:
            continue
        for owner, f in funcs:
            a = f.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p is not None]
            found.extend((owner, p.arg) for p in params if p.arg.startswith("_"))
    return found


def _call(args, keywords) -> tuple:
    n_pos = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)), len(args))
    return n_pos, {k.arg for k in keywords}, n_pos < len(args) or any(k.arg is None for k in keywords)


def calls(trees, tables=()) -> dict:
    """callee name -> [(positional count, keywords, starred)] of every call
    under ``trees``, and of every ``return fn, (args...)`` under ``tables``
    (a kernel table, whose runner calls ``fn(*args)``) as a positional call
    of ``fn``; an unbound ``Class.method`` takes the instance first, so its
    first argument is no parameter's."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                out.setdefault(_callee(node.func), []).append(_call(node.args, node.keywords))
    for tree in tables:
        for node in ast.walk(tree):
            entry = node.value if isinstance(node, ast.Return) else None
            if isinstance(entry, ast.Tuple) and len(entry.elts) == 2 and isinstance(entry.elts[1], ast.Tuple):
                fn, args = entry.elts
                unbound = isinstance(fn, ast.Attribute) and _callee(fn.value)[:1].isupper()
                out.setdefault(_callee(fn), []).append(_call(args.elts[unbound:], []))
    return out


def _sets(name, index, call) -> bool:
    """Whether ``call`` surely passes the value ``name`` at ``index``."""
    n_pos, keywords, _ = call
    return name in keywords or (index is not None and index < n_pos)


def unset(values, seen) -> list:
    """The (owner, name) of ``values`` that no call in ``seen`` (from ``calls``) sets."""
    return [(owner, name) for owner, name, index in values
            if not any(call[2] or _sets(name, index, call) for call in seen.get(owner, []))]


def overridden(values, seen) -> list:
    """The (owner, name) of ``values`` that some call in ``seen`` names and
    every such call sets: no call relies on the default."""
    return [(owner, name) for owner, name, index in values
            if seen.get(owner) and all(_sets(name, index, call) for call in seen[owner])]


def src_values() -> list:
    return [(p.name, *v) for p in sorted(SRC.glob("*.py")) for v in settable_values(p.read_text())]


@lru_cache(maxsize=None)
def outside_calls() -> dict:
    """The calls outside the unit tests, the benchmark's kernel table included."""
    return calls(outside_trees(), [ast.parse(KERNELS.read_text(), str(KERNELS))])


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
    missing = [v for v in unset([v[1:] for v in src_values()], outside_calls()) if v not in SETTER_OK]
    assert not missing, "set by no call outside the unit tests: " + ", ".join(f"{o}.{n}" for o, n in missing)


def test_allowed_unset_is_still_unset():
    flagged = set(unset([v[1:] for v in src_values()], outside_calls()))
    stale = sorted(set(SETTER_OK) - flagged)
    assert not stale, "allowed without a setter but now set or gone, drop from SETTER_OK: " + ", ".join(
        f"{o}.{n}" for o, n in stale)


def test_every_default_is_relied_on():
    needless = [v for v in overridden([v[1:] for v in src_values()], outside_calls()) if v not in DEFAULT_OK]
    assert not needless, "a default that every call outside the unit tests overrides, make it required: " + \
        ", ".join(f"{o}.{n}" for o, n in needless)


def test_allowed_overridden_is_still_overridden():
    flagged = set(overridden([v[1:] for v in src_values()], outside_calls()))
    stale = sorted(set(DEFAULT_OK) - flagged)
    assert not stale, "allowed default now relied on or gone, drop from DEFAULT_OK: " + ", ".join(
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
    assert unset(settable_values(lib), calls([caller])) == [("run", "n"), ("run", "probe"), ("Spec", "b")]



def test_default_rule_on_a_small_module():
    # a default is relied on when some call leaves it out or may (*args);
    # one that every call passes, by keyword or at its index, is flagged,
    # and one that no call names is left to the setter rule
    lib = (
        "def run(x, tol=1.0, n=2, *, floor=None): pass\n"
        "def fit(x, w=1.0): pass\n"
        "def spare(x, z=0): pass\n"
    )
    caller = ast.parse("run(1, 0.5, floor=2)\nrun(1, tol=0.1, n=3, floor=4)\nfit(*args)\n")
    assert overridden(settable_values(lib), calls([caller])) == [("run", "tol"), ("run", "floor")]


def test_kernel_table_on_a_small_module():
    # each `return fn, (args...)` of a kernel table is a positional call of
    # fn; an unbound Class.method's first argument is the instance.  Read
    # as plain code, the table calls nothing.
    lib = (
        "def kernel(x, floor=0.0, _run=None): pass\n"
        "class Prop:\n    def step(self, psi, _hpsi=None): pass\n"
    )
    table = ast.parse(
        "def _kernel(n):\n    return lib.kernel, (n, 1e-6)\n"
        "def _step(n):\n    prop = lib.Prop()\n    return lib.Prop.step, (prop, n)\n"
    )
    values = settable_values(lib)
    assert unset(values, calls([], [table])) == [("kernel", "_run"), ("step", "_hpsi")]
    assert overridden(values, calls([], [table])) == [("kernel", "floor")]
    assert unset(values, calls([table])) == [("kernel", "floor"), ("kernel", "_run"), ("step", "_hpsi")]


def _src_private_params() -> set:
    return {(p.name, *v) for p in sorted(SRC.glob("*.py")) for v in private_params(p.read_text())}


def test_no_private_parameter_in_a_public_signature():
    found = sorted(_src_private_params() - set(PRIVATE_PARAM_OK))
    assert not found, "private parameter of a public function: " + ", ".join(f"{m}: {o}({n})" for m, o, n in found)


def test_allowed_private_parameter_is_still_there():
    stale = sorted(set(PRIVATE_PARAM_OK) - _src_private_params())
    assert not stale, "allowed but gone, drop from PRIVATE_PARAM_OK: " + ", ".join(
        f"{m}: {o}({n})" for m, o, n in stale)


def test_private_parameter_rule_on_a_small_module():
    # public functions and the public methods and __init__ of public classes
    # are held to it; private functions, classes and methods, and nested
    # functions are not
    lib = (
        "def kernel(x, floor=0.0, _run=None):\n    def inner(_y): pass\n"
        "def _helper(_x): pass\n"
        "class Prop:\n    def __init__(self, op, _z): pass\n"
        "    def step(self, psi, *_rest, _hpsi=None): pass\n    def _solve(self, _psi): pass\n"
        "class _Run:\n    def step(self, _y): pass\n"
    )
    assert private_params(lib) == [("kernel", "_run"), ("Prop.__init__", "_z"), ("Prop.step", "_hpsi"),
                                   ("Prop.step", "_rest")]
