"""Seeded scenario generators for the benchmark workloads.

Every generator returns a list of ``(name, config_text)`` pairs; the program
under test only ever sees the config text.  The structure of a workload
(how many scenarios of each regime, grid size and variant, and their step
counts) is fixed, so the cost of a pass does not depend on the seed.  The
seed draws the continuous physical parameters, inside ranges on which each
regime is valid, and the order in which the scenarios run.

Step counts are scaled down from the shipped configs so that one pass of
forty scenarios takes two to three seconds and a run holds several passes;
the per-step work is unchanged.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("transport", "linear", "few_mode", "sweep")

# The benchmark runs from the root of a checkout; shipped configs live here.
SHIPPED_CONFIGS = Path("configs")


def _cfg(regime: str, seed: int, sections: dict) -> str:
    lines = ["[scenario]", f"regime = {regime}", f"seed = {seed}", ""]
    for sec, items in sections.items():
        lines.append(f"[{sec}]")
        for key, val in items.items():
            if isinstance(val, float):
                val = repr(val)
            elif isinstance(val, (list, tuple)):
                val = " ".join(repr(float(v)) for v in val)
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


class _Strata:
    """Latin-hypercube draws for one group of ``count`` scenarios built by
    the same function: the k-th ``uniform`` call of every scenario takes its
    value from a different one of ``count`` equal slices of the range, in
    an order drawn from the seed.  Every seed then covers every range
    evenly, so a maximum over the group (such as ``tol_use_max``) does not
    hinge on whether one seed happens to draw a corner of the range."""

    def __init__(self, rng: random.Random, count: int):
        self.rng = rng
        self.count = count
        self.perms = []


class _Draws:
    def __init__(self, strata: _Strata, index: int):
        self._s = strata
        self._i = index
        self._k = 0

    def uniform(self, lo: float, hi: float) -> float:
        s = self._s
        if self._k == len(s.perms):
            perm = list(range(s.count))
            s.rng.shuffle(perm)
            s.perms.append(perm)
        slot = s.perms[self._k][self._i]
        self._k += 1
        return lo + (hi - lo) * (slot + s.rng.random()) / s.count

    def randrange(self, n: int) -> int:
        return self._s.rng.randrange(n)


def _group(rng, count: int, build) -> list:
    """``count`` (name, config) pairs from ``build(draws, index)``."""
    strata = _Strata(rng, count)
    return [build(_Draws(strata, i), i) for i in range(count)]


# ---------------------------------------------------------------------------
# transport: classical and quantum-pole (Madelung) transport


def _classical(d, n: int, t_final: float) -> str:
    # drawn as (m, w^2) with k = m w^2: the tracking error grows with w^2,
    # so stratifying w^2 keeps the group's largest error steady
    mass = d.uniform(0.8, 1.25)
    return _cfg("classical", 0, {
        "grid": {"q_min": -1.4, "q_max": 1.4, "n": n},
        "system": {"mass": mass},
        "potential": {"kind": "harmonic", "k": mass * d.uniform(0.6, 1.4)},
        "initial": {"center": d.uniform(0.8, 1.0), "width_cells": d.uniform(2.5, 3.5)},
        "run": {"t_final": t_final, "cfl": 0.4, "support_floor": 1e-6},
    })


def _madelung(d, n: int, t_final: float) -> str:
    return _cfg("madelung", 0, {
        "grid": {"q_min": -8.0, "q_max": 8.0, "n": n},
        "system": {"mass": d.uniform(0.9, 1.1), "a": 1.0},
        "potential": {"kind": "harmonic", "k": d.uniform(0.6, 1.4)},
        "initial": {"center": d.uniform(0.0, 0.4), "variance": d.uniform(0.35, 0.7)},
        # dt defaults to 0.2 h^2, so the cost per unit time grows as n^3
        "run": {"t_final": t_final},
    })


def transport(rng) -> list:
    # All four groups cost about the same per scenario (the larger grids
    # take proportionally shorter runs), so the median and the tail sample
    # sit inside one broad cluster of classical runs.
    out = []
    for n, count, t_final in ((1401, 12, 0.125), (2801, 8, 0.0625)):
        out += _group(rng, count, lambda d, i: (f"classical_n{n}_{i}", _classical(d, n, t_final)))
    for n, count, t_final in ((801, 12, 0.00625), (1601, 8, 0.00625 / 4)):
        out += _group(rng, count, lambda d, i: (f"madelung_n{n}_{i}", _madelung(d, n, t_final)))
    return out


# ---------------------------------------------------------------------------
# linear: Cayley evolution, eigensolves and the quantum-field matmuls

_SCHRODINGER_VARIANTS = (("free", False), ("free", True), ("harmonic", False), ("harmonic", True))


def _schrodinger(d, n: int, i: int) -> tuple:
    potential, kick = _SCHRODINGER_VARIANTS[i % 4]
    k = d.uniform(0.6, 1.4)
    name = f"schrodinger_{potential}{'_kick' if kick else ''}_n{n}_{i}"
    return name, _cfg("schrodinger", 0, {
        "grid": {"q_min": -14.0, "q_max": 14.0, "n": n},
        "system": {"mass": d.uniform(0.8, 1.25), "a": d.uniform(0.8, 1.25)},
        "potential": {"kind": "free"} if potential == "free" else {"kind": "harmonic", "k": k},
        "initial": {
            "sigma": d.uniform(0.8, 1.2),
            "center": d.uniform(-1.0, 1.0),
            "momentum": d.uniform(0.5, 2.0) if kick else 0.0,
        },
        "run": {"t_final": 0.5, "dt": 0.002},
    })


def _qfield(d, regime: str, n: int, extra: dict) -> str:
    return _cfg(regime, 0, {
        "grid": {"q_min": -10.0, "q_max": 10.0, "n": n},
        "system": {"eta": d.uniform(0.8, 1.25), "f": d.uniform(0.8, 1.25)},
        "potential": {"kind": "harmonic", "k": d.uniform(0.6, 1.4)},
        **extra,
    })


_MODE_SETS = ("0 1", "0 2", "1 2", "0 1 2")


def _confined(d, n: int) -> str:
    # radii default to multiples of f/(w1 - w0), so they follow the drawn
    # parameters; n_r = 1200 keeps the shipped radial resolution
    return _cfg("confined", 0, {
        "grid": {"q_min": -8.0, "q_max": 8.0, "n": n},
        "system": {"eta": 1.0, "f": 1.0},
        "potential": {"kind": "harmonic", "k": d.uniform(0.9, 1.1)},
        "initial": {"c": [1.0, 0.1]},
        "run": {"k_eigen": 8, "tol": 1e-8, "n_r": 1200},
    })


def linear(rng) -> list:
    # Sorted by cost, a pass is: 8 vacuum solves, a cluster of 19 cheap
    # evolutions (small-grid Schrodinger and every space-independent run,
    # whose step count shrinks on the larger grid), 12 large-grid
    # Schrodinger runs, then the confined solve.  The median falls inside
    # the cheap cluster and the tail sample (10 beyond it) inside the
    # large-grid Schrodinger runs, away from any jump in cost.
    out = []
    for n, count in ((1401, 9), (2801, 12)):
        out += _group(rng, count, lambda d, i: _schrodinger(d, n, i))
    for n, count, n_steps in ((1200, 6, 250), (2400, 4, 150)):
        out += _group(rng, count, lambda d, i: (f"space_independent_n{n}_{i}", _qfield(d, "space-independent", n, {
            "initial": {"modes": _MODE_SETS[i % 4]},
            "run": {"dt": 0.002, "n_steps": n_steps},
        })))
    for n in (2000, 4000):
        out += _group(rng, 4, lambda d, i: (f"vacuum_n{n}_{i}", _qfield(d, "vacuum", n, {
            "run": {"k_eigen": 3 + i % 3},
        })))
    # one confined solve: its 801 x 1200 radial arrays are the only working
    # set larger than L2; the kernel micro-benchmark also times n = 1601
    out += _group(rng, 1, lambda d, i: ("confined_n801", _confined(d, 801)))
    return out


# ---------------------------------------------------------------------------
# few_mode: spin systems and De Donder-Weyl plane waves

def _spin(d, levels: int, i: int) -> tuple:
    # Exchange coupling with zero or seeded random phase shifts (the runner
    # draws theta from the scenario seed).  Random U is left out: a drawn
    # U_0j near zero leaves a population below the floor at t_start, so
    # about 1 in 200 draws fails, and no config range excludes it.
    theta_kind = ("zero", "random")[i % 2]
    return f"spin_l{levels}_{theta_kind}_{i}", _cfg("spin", d.randrange(2**31 - 1), {
        "system": {
            "levels": levels,
            "a": 1.0,
            "b": -d.uniform(0.8, 1.25),
            "u_kind": "exchange",
            "theta_kind": theta_kind,
        },
        "initial": {"basis_state": 0},
        "run": {"t_start": 0.2, "t_final": 0.25, "dt": 0.001, "p_floor": 1e-6},
    })


def _ddw(d, n: int, i: int) -> tuple:
    # k_mode <= n / 128 keeps k dx <= 2 pi / 128; coarser plane waves break
    # the energy-drift invariant (under-resolved, not a valid input)
    k_mode = 1 + i % (n // 128)
    return f"ddw_n{n}_k{k_mode}_{i}", _cfg("ddw", 0, {
        "grid": {"length": 2 * math.pi, "n": n},
        # eta stays 1: the runner's dispersion invariant assumes it
        "system": {"eta": 1.0, "kg_mass": d.uniform(0.9, 1.2)},
        "initial": {"k_mode": k_mode, "amplitude": d.uniform(0.005, 0.02)},
        "run": {"dt": 0.001, "n_steps": 1000},
    })


def few_mode(rng) -> list:
    # 24 spin runs are cheaper than the 16 field runs: the median falls
    # among the spin runs, the tail sample among the field runs.
    out = []
    for levels in (2, 3, 4):
        out += _group(rng, 8, lambda d, i: _spin(d, levels, i))
    for n, count in ((128, 5), (256, 5), (512, 6)):
        out += _group(rng, count, lambda d, i: _ddw(d, n, i))
    return out


# ---------------------------------------------------------------------------


def sweep(rng) -> list:
    """The eight shipped configs, unchanged: the seed does not alter them."""
    return [(p.stem, p.read_text()) for p in sorted(SHIPPED_CONFIGS.glob("*.cfg"))]


_WARMUP = {
    "classical": {
        "grid": {"q_min": -1.4, "q_max": 1.4, "n": 141},
        "potential": {"kind": "harmonic", "k": 1.0},
        "run": {"t_final": 0.05},
    },
    "madelung": {
        "grid": {"q_min": -8.0, "q_max": 8.0, "n": 161},
        "potential": {"kind": "harmonic", "k": 1.0},
        "run": {"t_final": 0.005},
    },
    "schrodinger": {
        "grid": {"q_min": -14.0, "q_max": 14.0, "n": 281},
        "potential": {"kind": "harmonic", "k": 1.0},
        "initial": {"momentum": 1.0},
        "run": {"t_final": 0.02, "dt": 0.002},
    },
    "space-independent": {
        "grid": {"q_min": -10.0, "q_max": 10.0, "n": 240},
        "potential": {"kind": "harmonic", "k": 1.0},
        "run": {"dt": 0.002, "n_steps": 10},
    },
    "vacuum": {
        "grid": {"q_min": -10.0, "q_max": 10.0, "n": 400},
        "potential": {"kind": "harmonic", "k": 1.0},
    },
    "confined": {
        "grid": {"q_min": -8.0, "q_max": 8.0, "n": 161},
        "potential": {"kind": "harmonic", "k": 1.0},
        "run": {"n_r": 240},
    },
    "spin": {
        "system": {"levels": 3, "u_kind": "random", "theta_kind": "random"},
        "run": {"t_start": 0.2, "t_final": 0.02, "dt": 0.001},
    },
    "ddw": {"grid": {"n": 64}, "run": {"n_steps": 20}},
}

def warmup() -> list:
    """One small scenario per regime: set-up runs them as a sweep, which
    warms every module and lazy import before anything is timed, and a
    traced run traces them too, so every layer shows on every workload's
    trace."""
    return [(f"warmup_{r}", _cfg(r, 0, params)) for r, params in _WARMUP.items()]


def generate(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    scenarios = {"transport": transport, "linear": linear, "few_mode": few_mode, "sweep": sweep}[workload](rng)
    if workload != "sweep":
        rng.shuffle(scenarios)
    return scenarios
