"""Guard: src/varq holds only what a run, a criterion, a script or the
benchmark calls, and every module, tests/*.py included, uses what it imports.

The scan reads the source, it imports nothing.  It starts from ``cli.main``
and the module-level code of every src/varq module (``__all__`` aside), and
from the whole of ``scripts/*.py``, ``perfbench/*.py``,
``tests/test_acceptance.py`` and ``tests/test_golden.py`` (``ROOT_FILES``:
with src/varq, the code outside the unit tests, which
``test_settable_values`` scans for setters too).  From there it follows
names to a fixed point:

* a name that is read, bare or as an attribute (``cv.ddw_evolve``), reaches
  every top-level function or class of that name, in any module;
* a string constant reaches the same, taking each dotted part as a name, so
  a lookup such as ``getattr(potentials, kind)`` with ``kind = "box"`` from
  the config schema counts;
* a method is reached when its class is and an attribute of its name is
  read somewhere reached; dunder methods come with their class.  A string
  never reaches a method, so a column label "energy" does not keep a method
  ``energy`` alive.

Names are matched without resolving modules, so the scan can miss dead code
that shares a name with live code; it flags only definitions whose name no
reached code reads or spells out.  A definition it flags goes, with the unit
tests whose subject it is; a test that reached live code through it calls
the live code instead.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varq"
ROOT_FILES = [
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "test_golden.py",
]
# ROADMAP item 2 wires it into the Madelung report (effective-energy drift).
UNREACHED_OK = {"hydrodynamics.effective_hamiltonian_density"}

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse_modules(src: Path = SRC) -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def definitions(trees: dict) -> dict:
    """module.qualname -> (node, class qualname or None) for every top-level
    function and class and every method."""
    defs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*FUNCS, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = (node, None)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, FUNCS):
                        defs[f"{mod}.{node.name}.{sub.name}"] = (sub, f"{mod}.{node.name}")
    return defs


def _own_code(node) -> list:
    """What reaching a definition runs: a function whole, a class without its methods."""
    if isinstance(node, FUNCS):
        return [node]
    return [*node.decorator_list, *node.bases, *node.keywords, *(s for s in node.body if not isinstance(s, FUNCS))]


def references(nodes, names: set, attrs: set) -> None:
    """Add the names read (and string parts) and the attributes read under ``nodes``."""
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(p for p in node.value.split(".") if p.isidentifier())


def unreached(trees: dict, roots: list) -> list:
    """module.qualname of every definition in ``trees`` that ``roots`` do not reach."""
    defs = definitions(trees)
    reached, names, attrs = set(), set(), set()
    frontier = roots
    while frontier:
        references(frontier, names, attrs)
        frontier = []
        for key, (node, cls) in defs.items():
            if key in reached:
                continue
            if cls is None:
                hit = node.name in names or node.name in attrs
            else:
                dunder = node.name.startswith("__") and node.name.endswith("__")
                hit = cls in reached and (dunder or node.name in attrs)
            if hit:
                reached.add(key)
                frontier.extend(_own_code(node))
    return sorted(set(defs) - reached)


def module_code(tree) -> list:
    """The statements a module runs on import other than definitions and ``__all__``."""
    return [s for s in tree.body if not isinstance(s, (*FUNCS, ast.ClassDef)) and not _is_all(s)]


def library_roots(trees: dict) -> list:
    """``cli.main`` and the module-level code of every module."""
    roots = [n for n in trees["cli"].body if isinstance(n, FUNCS) and n.name == "main"]
    for tree in trees.values():
        roots += module_code(tree)
    return roots


def unused_imports(trees: dict) -> list:
    """module: name for every name an import binds that its module never reads or exports."""
    found = []
    for mod, tree in trees.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if _is_all(stmt):
                used.update(e.value for e in stmt.value.elts)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        source = f"from {'.' * node.level}{node.module or ''} " if isinstance(node, ast.ImportFrom) else ""
                        found.append(f"{mod}: {source}import {alias.name}")
    return found


MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@lru_cache(maxsize=None)
def root_trees() -> tuple:
    return tuple(ast.parse(p.read_text(), str(p)) for p in ROOT_FILES)


@lru_cache(maxsize=None)
def outside_trees() -> tuple:
    """The code outside the unit tests: every src/varq module and every root file."""
    return (*parse_modules().values(), *root_trees())


@lru_cache(maxsize=None)
def scan() -> tuple:
    """(unreached definitions, unused imports) of the tree as it stands."""
    trees = parse_modules()
    roots = library_roots(trees) + list(root_trees())
    return tuple(unreached(trees, roots)), tuple(unused_imports(trees))


@pytest.mark.parametrize("mod", MODULES)
def test_every_definition_is_reached(mod):
    dead = [d for d in scan()[0] if d.split(".")[0] == mod and d not in UNREACHED_OK]
    assert not dead, "reached by no run, criterion, script or benchmark: " + ", ".join(dead)


def test_allowed_unreached_is_still_unreached():
    assert UNREACHED_OK <= set(scan()[0]), "an allowed-unreached definition is now reached or gone: drop it from UNREACHED_OK"


@pytest.mark.parametrize("mod", MODULES)
def test_every_import_is_used(mod):
    unused = [u for u in scan()[1] if u.startswith(f"{mod}: ")]
    assert not unused, "imported but never used: " + ", ".join(unused)


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.stem)
def test_every_test_import_is_used(path):
    unused = unused_imports({path.stem: ast.parse(path.read_text(), str(path))})
    assert not unused, "imported but never used: " + ", ".join(unused)


@pytest.mark.parametrize("mod", MODULES)
def test_scan_flags_a_planted_orphan(mod):
    # a definition no one calls and an import no one reads, added to this
    # module, must be named: the scan covers every module
    trees = parse_modules()
    trees[mod].body += ast.parse("import json as _probe_json\ndef _probe_orphan(): return None\n").body
    roots = library_roots(trees) + list(root_trees())
    assert f"{mod}._probe_orphan" in unreached(trees, roots)
    assert f"{mod}: import json" in unused_imports(trees)


def test_scan_rules_on_a_small_module():
    lib = ast.parse(
        "import os\n"
        "from typing import Optional\n"
        "__all__ = ['dead']\n"
        "KINDS = ('box',)\n"
        "def box(): return Run()\n"
        "def dead(): return os.sep\n"
        "class Run:\n"
        "    def __init__(self): self.n = 0\n"
        "    def step(self): return self.energy_of()\n"
        "    def energy_of(self): return 0.0\n"
        "    def energy(self): return 1.0\n"
    )
    caller = ast.parse("import lib\nr = getattr(lib, 'box')()\nr.step()\ncolumns = ['energy']\n")
    trees = {"lib": lib}
    assert unreached(trees, module_code(lib) + [caller]) == ["lib.Run.energy", "lib.dead"]
    assert unused_imports(trees) == ["lib: from typing import Optional"]
