"""Kernel micro-benchmark: per-call time of the hot kernels at two sizes each.

Each kernel is called on fixed inputs built here, first once to warm up,
then in batches; the reported time is the median batch mean.  Bytes moved
per call are *computed*, not measured: the sum of the sizes of every array
the call reads as an argument (including arrays held by argument objects,
such as an operator's diagonals) plus every array it returns.  That is the
compulsory traffic; temporaries and cache misses are ignored.  The largest
single array is reported too, to compare against the L2 and last-level
cache sizes.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

import numpy as np

from varq import covariant as cv
from varq import discrete as ds
from varq import hydrodynamics as hy
from varq import mechanics as mech
from varq import numerics as nm
from varq import quantum_fields as qf
from varq import wavefunction as wv
from varq.potentials import harmonic


def _unit_mass_harmonic():
    pot = harmonic(1.0)
    return mech.NaturalSystemSpec(
        mass=lambda q: 1.0 if np.isscalar(q) else np.ones(np.shape(q)),
        potential=pot.v,
        mass_grad=lambda q: 0.0 if np.isscalar(q) else np.zeros(np.shape(q)),
        potential_grad=pot.dv,
    )


def _arrays(obj, depth=3, seen=None):
    """Every ndarray reachable from obj through tuples, lists, dataclass
    fields and instance attributes, to the given depth; each counted once."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) not in seen:
            seen.add(id(obj))
            yield obj
        return
    if depth == 0:
        return
    if isinstance(obj, (tuple, list)):
        children = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__dict__") and not callable(obj):
        children = list(vars(obj).values())
    else:
        return
    for child in children:
        yield from _arrays(child, depth - 1, seen)


# ---------------------------------------------------------------------------
# kernels: name -> (sizes, build(n) -> (callable, args))


def _upwind(n):
    grid = nm.build_grid(-1.4, 1.4, n)
    q = grid.nodes
    rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 1.0) / (3 * grid.h)) ** 2))
    v_face = -np.sin(grid.midpoints)
    return mech.upwind_density_update, (grid, rho, v_face, 0.4 * grid.h)


def _transport(n):
    grid = nm.build_grid(-1.4, 1.4, n)
    q = grid.nodes
    rho = mech.normalize_density(grid, np.exp(-0.5 * ((q - 1.0) / (3 * grid.h)) ** 2))
    S = -0.3 * q
    return mech.classical_transport_step, (grid, rho, S, _unit_mass_harmonic(), 0.4 * grid.h, 1e-6)


def _madelung(n):
    grid = nm.build_grid(-8.0, 8.0, n)
    spec = _unit_mass_harmonic()
    dspec = hy.DiffusionSpec(a=1.0)
    q = grid.nodes
    state = hy.HydroState(grid, mech.normalize_density(grid, np.exp(-((q - 0.2) ** 2))), np.zeros(n))
    op = wv.schrodinger_operator(spec, grid, 1.0)
    return hy.madelung_step, (spec, dspec, state, 0.2 * grid.h**2, hy.RHO_FLOOR_FRAC, None, op)


def _cayley(n):
    grid = nm.build_grid(-14.0, 14.0, n)
    prop = nm.CayleyPropagator(wv.schrodinger_operator(_unit_mass_harmonic(), grid, 1.0), 0.002, 1.0)
    psi = wv.normalize_wavefunction(grid, np.exp(-grid.nodes**2 / 4))[1:-1]
    return nm.CayleyPropagator.step, (prop, psi)


def _eigensolve(n):
    grid = nm.build_grid(-10.0, 10.0, n)
    op = nm.sturm_liouville_operator(grid, 1.0, harmonic(1.0).v)
    return nm.eigensolve_lowest, (op, 5, grid.h)


def _local_form(levels):
    spec = ds.SpinSystemSpec(U=np.ones((levels, levels)) - np.eye(levels), theta=np.zeros((levels, levels)), b=-1.0)
    psi0 = np.zeros(levels, dtype=complex)
    psi0[0] = 1.0
    p, lam = ds.polar_decompose(ds.propagate(spec, ds.SpinState(psi0), 0.2), 1.0)
    return ds.local_form_step, (spec, p, lam, 1e-3)


def _ddw_step(n):
    spec = cv.FieldLagrangianSpec(eta=1.0, potential=lambda q: 0.5 * q * q, potential_grad=lambda q: q)
    g = cv.PeriodicGrid1D(2 * math.pi, n)
    st = cv.FieldState1p1(g, 0.01 * np.cos(g.nodes), 0.01 * math.sqrt(2) * np.sin(g.nodes))
    return cv.ddw_evolve, (spec, st, 1e-3, 1)


def _confined(n):
    grid = nm.build_grid(-8.0, 8.0, n)
    spec = qf.QFieldSpec(eta=1.0, potential=harmonic(1.0).v, f=1.0)
    vac = qf.vacuum_spectrum(spec, grid, 8)
    return qf.confined_solve, (spec, vac, [1.0, 0.1], 0.5, 30.0, 1e-8, 1200)


KERNELS = {
    "mechanics.upwind_density_update": ((1401, 2801), _upwind),
    "mechanics.classical_transport_step": ((1401, 2801), _transport),
    "hydrodynamics.madelung_step": ((801, 1601), _madelung),
    "numerics.CayleyPropagator.step": ((1401, 2801), _cayley),
    "numerics.eigensolve_lowest": ((2000, 4000), _eigensolve),
    "discrete.local_form_step": ((2, 4), _local_form),
    "covariant.ddw_evolve": ((256, 512), _ddw_step),
    "quantum_fields.confined_solve": ((801, 1601), _confined),
}


def _time_per_call(fn, args, budget_s):
    """Median over five batches of the mean call time; a kernel slower than
    the whole budget is timed once after its warm-up call."""
    t0 = time.perf_counter()
    out = fn(*args)  # warm-up
    one = time.perf_counter() - t0
    if one >= budget_s:
        t0 = time.perf_counter()
        out = fn(*args)
        return time.perf_counter() - t0, out
    per_batch = max(1, int(budget_s / 5 / max(one, 1e-7)))
    batches = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            out = fn(*args)
        batches.append((time.perf_counter() - t0) / per_batch)
    return statistics.median(batches), out


def run_kernels(budget_s: float = 0.2) -> tuple:
    """Return (metrics, details): metrics maps metric name -> (value, unit)."""
    metrics, details = {}, {}
    for name, (sizes, build) in KERNELS.items():
        for n in sizes:
            fn, args = build(n)
            per_call, out = _time_per_call(fn, args, budget_s)
            seen = set()
            arrays = list(_arrays(args, seen=seen)) + list(_arrays(out, seen=seen))
            moved = sum(a.nbytes for a in arrays)
            largest = max((a.nbytes for a in arrays), default=0)
            metrics[f"{name}.us_per_call.n{n}"] = (per_call * 1e6, "us")
            metrics[f"{name}.bytes_per_call.n{n}"] = (float(moved), "B")
            details[f"{name}.n{n}"] = {"us_per_call": per_call * 1e6, "bytes_computed": moved, "largest_array_bytes": largest}
    return metrics, details
