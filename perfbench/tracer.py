"""Outside-in tracer for varq.

``Tracer.install()`` replaces every public function and every public method
(plus ``__init__``) of the traced varq modules with a wrapper that records a
span: name, start, end, parent span, scenario id and the exception type if
the call raised.  A function bound by ``from ... import`` in several modules
is replaced in every namespace that binds it, so calls through any of those
names are seen.  Spec callbacks (``*_at`` methods of ``*Spec`` classes) get
count-only wrappers: they run tens of thousands of times per scenario.
``uninstall()`` puts every original back.

Spans stay in memory; ``write_spans`` writes them out at the end of a run.
A span's self time is its duration minus the union of the intervals covered
by its child spans.  Spans opened on a worker thread with nothing open on
that thread take the innermost open span of the main thread as parent (the
call that is waiting for them, e.g. ``cli.main`` in a sweep).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

MODULES = (
    "numerics",
    "potentials",
    "mechanics",
    "hydrodynamics",
    "wavefunction",
    "discrete",
    "covariant",
    "quantum_fields",
    "config",
    "reporting",
    "runners",
    "cli",
)

# extra exact counts taken from a call's arguments or result
_EXTRAS = {
    "covariant.ddw_evolve": lambda args, kwargs, res: ("covariant.ddw_steps", int(kwargs.get("n_steps", args[3] if len(args) > 3 else 0))),
    "quantum_fields.confined_solve": lambda args, kwargs, res: ("quantum_fields.confined_solve.iterations", int(res.iterations)),
}

_SCENARIO_ENTRY = "runners.run_scenario_object"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, scenario, parent, start_ns, end_ns, error)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._counters = []  # one Counter per thread
        self._counters_lock = threading.Lock()
        self._restore = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            loc.scenario = None
            loc.counts = Counter()
            with self._counters_lock:
                self._counters.append(loc.counts)
        return loc

    def set_scenario(self, name):
        self._state().scenario = name

    def counts(self) -> Counter:
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        extra = _EXTRAS.get(name)
        is_entry = name == _SCENARIO_ENTRY
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif tracer._main_stack and stack is not tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            prev_scenario = st.scenario
            if is_entry:
                st.scenario = getattr(args[0], "name", None)
            stack.append(sid)
            error = None
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, name, st.scenario, parent, t0, t1, error))
                if is_entry:
                    st.scenario = prev_scenario
            if extra is not None:
                key, val = extra(args, kwargs, res)
                st.counts[key] += val
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def wrap(self, name, fn):
        """A span wrapper for the benchmark's own code that runs inside a
        traced call: its time is then child time, not the caller's self
        time.  Only names of MODULES are reported as module self time."""
        return self._span_wrapper(name, fn)

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._state().counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"varq.{m}") for m in MODULES}
        replaced = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._span_wrapper(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        self._state()  # the installing thread owns the main stack
        return self

    def _wrap_class(self, short, cls):
        spec_class = cls.__name__.endswith("Spec")
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue  # properties, static/class methods, data
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if spec_class and attr.endswith("_at"):
                wrapper = self._count_wrapper(name, obj)
            else:
                wrapper = self._span_wrapper(name, obj)
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> dict:
    """Span id -> self time in ns (duration minus union of child intervals)."""
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[4], s[5]))
    out = {}
    for sid, _name, _sc, _parent, t0, t1, _err in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (t1 - t0) - covered
    return out


class SpanStats:
    """Per-name call counts, inclusive time and errors, plus module self time."""

    def __init__(self, spans):
        self.calls = Counter()
        self.total_ns = Counter()
        self.errors = Counter()
        self.module_self_ns = Counter()
        selfs = self_times(spans)
        for sid, name, _sc, _parent, t0, t1, err in spans:
            self.calls[name] += 1
            self.total_ns[name] += t1 - t0
            if err is not None:
                self.errors[(name, err)] += 1
            self.module_self_ns[name.split(".", 1)[0]] += selfs[sid]
        # inclusive time of outermost spans of each module
        by_id = {s[0]: s for s in spans}
        self.module_outer_ns = Counter()
        for sid, name, _sc, parent, t0, t1, _err in spans:
            mod = name.split(".", 1)[0]
            if parent is None or by_id.get(parent, (None, ""))[1].split(".", 1)[0] != mod:
                self.module_outer_ns[(mod, name)] += t1 - t0

    def us_per_call(self, name) -> float:
        n = self.calls[name]
        return self.total_ns[name] / n / 1e3 if n else 0.0

    def seconds(self, name) -> float:
        return self.total_ns[name] / 1e9


def write_spans(spans, path):
    """Write spans as gzip'd CSV: id,name,scenario,parent,start_ns,end_ns,error."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id,name,scenario,parent,start_ns,end_ns,error\n")
        for sid, name, sc, parent, t0, t1, err in spans:
            fh.write(f"{sid},{name},{sc or ''},{parent or ''},{t0},{t1},{err or ''}\n")
