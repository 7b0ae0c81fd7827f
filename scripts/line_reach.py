#!/usr/bin/env python3
"""Check that every executable line of src/varq that no real caller runs is
on the allowlist scripts/line_reach_ok.json, and that every entry still is
such a line.

    python scripts/line_reach.py [--json unrun.json]

The roots are what uses the library outside its unit tests: `varq sweep
configs`, every criterion of tests/test_acceptance.py, the three science
scripts at their default arguments (their CSVs go to a temporary
directory), one pass of each benchmark workload of perfbench/workloads.py
at seed 1 plus its warm-up scenarios, and one call of each entry of the
kernel table in perfbench/kernels.py.  Both perfbench files are imported,
never written.  The roots run under ``sys.settrace`` with BLAS at one
thread; their own output is discarded.  It takes about 25 s on a 2-vCPU
Xeon virtual machine.

A line is executable when it starts a line-table entry of a function,
method, lambda or comprehension (module and class bodies run at import and
are left out; so is the def or decorator line a call starts on).  A line
that holds several of them counts as run when any of them ran.  ``--json``
writes the unrun line numbers per module and each module's count of
executable lines.

An allowlist entry names a line by its module, the qualname of the
innermost def or class around it and its stripped text, never by number,
so an edit elsewhere in the file leaves it matching; ``count`` (default 1)
covers that many identical lines.  Each entry gives either a ``class``
(one of ``CLASSES``) or a one-line ``reason``.  The classes: "raise", a
line of a raise statement, of a branch that only builds what it raises, or
of a varq error's constructor; "except handler", an ``except`` line;
"config or CLI error path", a config check's message or the CLI's error
reporting; "catalogue kind no shipped config uses", the body of such a
kind in potentials.py.  Every other entry needs a reason.  The script prints every
module's unrun lines, then the unrun lines no entry covers and the entries
that match fewer unrun lines than they count (the line runs now, or is
gone), and exits 1 if either list is not empty: the allowlist can only
shrink.
"""

import argparse
import ast
import contextlib
import dis
import importlib.util
import inspect
import io
import json
import os
import runpy
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varq"
SCIENCE = ("confinement_scan.py", "dispersion_check.py", "equivalence_demo.py")
WORKLOAD_SEED = 1
ALLOWLIST = Path(__file__).resolve().with_name("line_reach_ok.json")
CLASSES = ("raise", "except handler", "config or CLI error path", "catalogue kind no shipped config uses")
FIELDS = {"module", "qualname", "text", "count", "class", "reason"}


def executable_lines(path: Path) -> set:
    """The lines that start a line-table entry of any function-like code
    object in the source file ``path``, after the entry (its first RESUME)."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            entry = next((i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), 0)
            lines.update(line for offset, line in dis.findlinestarts(code) if offset > entry and line is not None)
    return lines


def trace(roots, paths) -> dict:
    """Run each callable of ``roots`` under ``sys.settrace``; returns the
    lines that ran, per file of ``paths`` (each as ``str(Path.resolve())``)."""
    ran = {str(p): set() for p in paths}

    def recorder(hits):
        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    local = {name: recorder(hits) for name, hits in ran.items()}  # one tracer per file

    def global_(frame, event, arg):
        return local.get(frame.f_code.co_filename)

    previous = sys.gettrace()
    for root in roots:
        sys.settrace(global_)
        try:
            root()
        finally:
            sys.settrace(previous)
    return ran


def unrun(paths, ran) -> dict:
    """The executable lines of each file of ``paths`` missing from ``ran``, ascending."""
    return {str(p): sorted(executable_lines(p) - ran[str(p)]) for p in paths}


def enclosing(path: Path) -> dict:
    """Line -> dotted qualname of the innermost def or class spanning it in
    the source file ``path`` (lines at module level are left out)."""
    names = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), prefix + child.name))
                visit(child, f"{prefix}{child.name}.")  # inner defs overwrite their lines
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return names


def load_allowlist(path: Path) -> Counter:
    """The entries of the allowlist file ``path`` as counts keyed (module,
    qualname, text); raises SystemExit on a malformed or repeated entry."""
    allowed = Counter()
    for entry in json.loads(path.read_text()):
        key = (entry.get("module"), entry.get("qualname"), entry.get("text"))
        count, cls, reason = entry.get("count", 1), entry.get("class"), entry.get("reason")
        justified = (cls in CLASSES if reason is None else
                     cls is None and isinstance(reason, str) and reason.strip() != "" and "\n" not in reason)
        if (key in allowed or not all(isinstance(k, str) for k in key) or not justified
                or type(count) is not int or count < 1 or set(entry) - FIELDS):
            raise SystemExit(f"{path.name}: malformed or repeated entry {entry}")
        allowed[key] = count
    return allowed


def check(missing: dict, allowed: Counter) -> tuple:
    """Match the unrun lines ``missing`` (``unrun``'s result) against the
    ``allowed`` counts.  Returns (unlisted, stale): the unrun lines past
    their key's count, as (module, line, qualname, text), and the counts
    by which entries exceed the unrun lines they match."""
    unlisted, found = [], Counter()
    for name, lines in missing.items():
        path = Path(name)
        source, names = path.read_text().splitlines(), enclosing(path)
        for line in lines:
            key = (path.name, names.get(line, ""), source[line - 1].strip())
            found[key] += 1
            if found[key] > allowed[key]:
                unlisted.append((key[0], line, *key[1:]))
    return unlisted, allowed - found


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _roots(tmp: Path) -> list:
    """The callables that stand for the library's real callers, in the order the docstring gives."""
    from varq import cli, config, runners

    def sweep():
        if cli.main(["sweep", str(ROOT / "configs"), "--out", str(tmp / "sweep")]) != 0:
            raise SystemExit("the shipped sweep failed")

    def acceptance():
        tests = _load(ROOT / "tests" / "test_acceptance.py")
        for name, fn in vars(tests).items():
            if name.startswith("test_") and callable(fn):
                fn()

    def science(name):
        def run():
            argv = sys.argv
            sys.argv = [name, "--out", str(tmp / f"{name}.csv")]
            try:
                runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    raise
            finally:
                sys.argv = argv
        return run

    def workloads():
        bench = _load(ROOT / "perfbench" / "workloads.py")
        cwd = os.getcwd()
        os.chdir(ROOT)  # the sweep workload reads configs/ relative to the checkout
        try:
            scenarios = [s for w in bench.WORKLOADS for s in bench.generate(w, WORKLOAD_SEED)] + bench.warmup()
        finally:
            os.chdir(cwd)
        for name, text in scenarios:
            runners.run_scenario_object(config.parse_scenario(text, name=name))

    def kernels():
        table = _load(ROOT / "perfbench" / "kernels.py").KERNELS
        for sizes, build in table.values():
            for n in sizes:
                fn, args = build(n)
                fn(*args)

    return [sweep, acceptance, *(science(name) for name in SCIENCE), workloads, kernels]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="write the unrun lines and the executable-line counts to this file")
    args = ap.parse_args()
    allowed = load_allowlist(ALLOWLIST)  # a malformed file fails before the trace
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(p.resolve() for p in SRC.glob("*.py"))
    with tempfile.TemporaryDirectory() as tmp:
        roots = _roots(Path(tmp))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            ran = trace(roots, paths)
    missing, counts = unrun(paths, ran), {p.name: len(executable_lines(p)) for p in paths}
    for path in paths:
        lines, source = missing[str(path)], path.read_text().splitlines()
        print(f"{path.name}: {len(lines)} of {counts[path.name]} executable lines unrun")
        for line in lines:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    if args.json:
        unrun_lines = {Path(p).name: lines for p, lines in missing.items()}
        Path(args.json).write_text(json.dumps({"unrun": unrun_lines, "executable": counts}, indent=1) + "\n")
    unlisted, stale = check(missing, allowed)
    print(f"{len(unlisted)} unrun lines not on {ALLOWLIST.name} (give each a class or a reason there, or run it):")
    for module, line, qualname, text in unlisted:
        print(f"  {module}:{line} {qualname}: {text}")
    print(f"{sum(stale.values())} entries of {ALLOWLIST.name} match no unrun line (the line runs now or is gone; "
          "remove them):")
    for (module, qualname, text), n in sorted(stale.items()):
        print(f"  {module} {qualname}: {text}" + (f" (x{n})" if n > 1 else ""))
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
