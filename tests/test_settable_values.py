"""Ratchet on the number of values a caller can set in src/varq.

A settable value is a function or lambda parameter with a default, a
dataclass field with a default, or a read of ``os.environ``/``os.getenv``.
A change that adds one raises ``LIMIT`` in the same diff and says in
CHANGES.md why the option is needed; a change that removes some lowers it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "varq"
LIMIT = 50


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(source: str) -> list:
    """(owner, name) of every settable value in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "lambda")
            args = node.args
            positional = args.posonlyargs + args.args
            found += [(owner, a.arg) for a in positional[len(positional) - len(args.defaults):]]
            found += [(owner, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [(node.name, st.target.id) for st in node.body
                      if isinstance(st, ast.AnnAssign) and st.value is not None]
        elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(("os", node.attr))
    return found


def test_counter_sees_each_kind():
    source = (
        "import os\nfrom dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda q, _m=3: q\n"
        "@dataclass\nclass S:\n    x: int\n    y: int = 0\n"
        "class Plain:\n    z: int = 0\n"
        "n = os.environ.get('N')\nm = os.getenv('M')\n"
    )
    assert sorted(settable_values(source)) == sorted(
        [("f", "b"), ("f", "c"), ("lambda", "_m"), ("S", "y"), ("os", "environ"), ("os", "getenv")]
    )


def test_settable_values_at_most_limit():
    found = [(p.name, *v) for p in sorted(SRC.glob("*.py")) for v in settable_values(p.read_text())]
    listing = "\n".join(f"  {module}: {owner}.{name}" for module, owner, name in found)
    assert len(found) <= LIMIT, f"{len(found)} settable values in src/varq, limit {LIMIT}:\n{listing}"
