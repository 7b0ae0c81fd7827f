"""Named potential catalog shared by the library specs and the scenario CLI.

Every entry carries the potential and its analytic derivative so the
characteristic integrators do not have to fall back on finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["Potential", "free", "harmonic", "quartic", "box", "polynomial"]


@dataclass(frozen=True)
class Potential:
    name: str
    v: Callable
    dv: Callable


def free() -> Potential:
    return Potential("free", lambda q: np.zeros_like(np.asarray(q, dtype=float)),
                     lambda q: np.zeros_like(np.asarray(q, dtype=float)))


def box() -> Potential:
    # hard walls come from the Dirichlet grid ends, the interior is flat
    p = free()
    return Potential("box", p.v, p.dv)


def harmonic(k: float) -> Potential:
    return Potential("harmonic", lambda q: 0.5 * k * np.square(q), lambda q: k * np.asarray(q, dtype=float))


def quartic(c: float) -> Potential:
    return Potential("quartic", lambda q: c * np.asarray(q, dtype=float) ** 4,
                     lambda q: 4.0 * c * np.asarray(q, dtype=float) ** 3)


def polynomial(coeffs: Sequence[float]) -> Potential:
    """V(q) = sum_j coeffs[j] * q**j."""
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, c.size)

    def v(q):
        return np.polyval(c[::-1], np.asarray(q, dtype=float))

    def dv(q):
        if dc.size == 0:
            return np.zeros_like(np.asarray(q, dtype=float))
        return np.polyval(dc[::-1], np.asarray(q, dtype=float))

    return Potential("polynomial", v, dv)
