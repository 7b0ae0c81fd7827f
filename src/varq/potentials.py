"""Named potential catalog shared by the library specs and the scenario CLI,
with the one sampler of the specs' callbacks (``_sample``).

Every entry carries the potential and its analytic derivative, which the
characteristic integrators require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidSpecError

__all__ = ["Potential", "free", "harmonic", "quartic", "box", "polynomial"]


def _sample(fn, q, what: str, positive: bool):
    """fn(q) as floats of q's shape, a constant broadcast.  A number fn, a
    constant mass checked when its spec was built, is not checked again; a
    callback's value raises InvalidSpecError if it is NaN or inf at a finite
    q (at a non-finite q a flow has blown up) or, with ``positive``, <= 0."""
    out = np.asarray(fn(q) if callable(fn) else fn, dtype=float)
    if out.shape != np.shape(q):
        if not np.shape(q):
            out = float(out)
        else:
            full = np.empty(np.shape(q))  # not np.full, a Python-level wrapper
            full[...] = out
            out = full
    a = np.asarray(out)
    if callable(fn) and not (0.0 < a.min() <= a.max() < np.inf if positive else np.isfinite(a).all()):
        bad = np.isfinite(q) & ~np.isfinite(a)
        if positive:
            bad |= a <= 0.0
        if bad.any():
            raise InvalidSpecError(f"{what} must be finite" + (" and > 0" if positive else ""))
    return out


@dataclass(frozen=True)
class Potential:
    v: Callable
    dv: Callable


def free() -> Potential:
    return Potential(lambda q: np.zeros_like(np.asarray(q, dtype=float)),
                     lambda q: np.zeros_like(np.asarray(q, dtype=float)))


def box() -> Potential:
    return free()  # hard walls come from the Dirichlet grid ends, the interior is flat


def harmonic(k: float) -> Potential:
    return Potential(lambda q: 0.5 * k * np.square(q), lambda q: k * np.asarray(q, dtype=float))


def quartic(c: float) -> Potential:
    return Potential(lambda q: c * np.asarray(q, dtype=float) ** 4,
                     lambda q: 4.0 * c * np.asarray(q, dtype=float) ** 3)


def polynomial(coeffs: Sequence[float]) -> Potential:
    """V(q) = sum_j coeffs[j] * q**j."""
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, c.size)  # polyval of no coefficients is zeros_like(q)
    return Potential(lambda q: np.polyval(c[::-1], np.asarray(q, dtype=float)),
                     lambda q: np.polyval(dc[::-1], np.asarray(q, dtype=float)))
