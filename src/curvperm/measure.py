"""Finite atomic measures in the plane.

A measure is a finite list of weighted atoms at pairwise-distinct complex
positions.  Every integral downstream is a weighted sum over atoms, and
``scale`` (the discretization scale) marks the resolution below which
geometric queries stop being meaningful.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Ball",
    "DiscreteMeasure",
    "generate",
    "pushforward",
    "load_json",
    "save_json",
]


def _check_real(name: str, v) -> float:
    """``float(v)`` for a finite real ``v``; NaN, an infinity, a string and a
    bool, which is a numbers.Real that would pass as 0 or 1, are rejected."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v)):
        raise ValueError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def _check_length(name: str, v, zero: bool = False) -> float:
    """``_check_real`` for a length: also > 0, or >= 0 where ``zero``."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v)
                                   and (v >= 0 if zero else v > 0)):
        raise ValueError(f"{name} must be a finite number {'>=' if zero else '>'} 0, got {v!r}")
    return float(v)


def _check_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer >= ``least``: a fraction, NaN
    or a bool, which is a numbers.Integral that would pass as 0 or 1."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class Ball:
    """Open disc ``{z : |z - center| < radius}``."""

    center: complex
    radius: float

    def __post_init__(self):
        _check_length("radius", self.radius)

    def scaled(self, factor: float) -> "Ball":
        """Concentric ball with radius multiplied by ``factor``."""
        return Ball(self.center, factor * self.radius)

    def contains(self, z) -> np.ndarray:
        return np.abs(np.asarray(z) - self.center) < self.radius


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms: complex positions, positive weights, one scale.

    ``spacing``, when given, is the smallest and largest distance between
    two of the points, already computed by the caller; validation then
    reads it instead of scanning the points again."""

    points: np.ndarray
    weights: np.ndarray
    scale: float
    spacing: InitVar[tuple[float, float] | None] = None

    def __post_init__(self, spacing):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=complex).ravel())
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float).ravel())
        if pts.shape != w.shape:
            raise ValueError("points and weights must have the same length")
        if pts.size and not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if pts.size and not np.all(np.isfinite(pts.view(float))):
            raise ValueError("positions must be finite")
        if np.any(w <= 0):
            raise ValueError("all weights must be positive")
        _check_length("scale", self.scale)
        if pts.size > 1:
            dmin, dmax = _distance_range(pts) if spacing is None else spacing
            if dmin == 0.0:
                raise ValueError("atom positions must be pairwise distinct")
            if self.scale > dmin * (1 + 1e-12):
                raise ValueError(
                    f"scale {self.scale} exceeds minimal atom spacing {dmin}"
                )
            # where cached_property looks first
            self.__dict__["diameter"], self.__dict__["min_spacing"] = dmax, dmin
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.points.size

    @cached_property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def diameter(self) -> float:
        if len(self) < 2:
            return 0.0
        return _distance_range(self.points)[1]

    @cached_property
    def min_spacing(self) -> float:
        """A lower bound on the distance between two atoms: the smallest
        spacing, which validation finds, or the parent's for a sub-measure;
        inf for fewer than two atoms."""
        if len(self) < 2:
            return math.inf
        return _distance_range(self.points)[0]

    def distances_from(self, z: complex) -> np.ndarray:
        return np.abs(self.points - z)

    def restrict(self, ball: Ball) -> "DiscreteMeasure":
        """Atoms strictly inside the open ball; weights and scale kept."""
        return self._view(self.distances_from(ball.center) < ball.radius)

    def _view(self, keep) -> "DiscreteMeasure":
        """The atoms picked by a mask or by distinct indices, in order.

        A sub-measure of a valid measure is valid (its atoms are distinct
        and no closer than the parent's), so it is not checked again.
        """
        pts, w = self.points[keep], self.weights[keep]
        pts.flags.writeable = False
        w.flags.writeable = False
        sub = object.__new__(DiscreteMeasure)
        object.__setattr__(sub, "points", pts)
        object.__setattr__(sub, "weights", w)
        object.__setattr__(sub, "scale", self.scale)
        sub.__dict__["min_spacing"] = self.min_spacing
        return sub

    def mass_in(self, ball: Ball) -> float:
        """Mass of the open ball."""
        return float(self.weights[ball.contains(self.points)].sum())

    def subset(self, indices) -> "DiscreteMeasure":
        idx = np.asarray(indices)
        return DiscreteMeasure(self.points[idx], self.weights[idx], self.scale)

    def linear_growth_constant(self) -> float:
        """Smallest C with ``mass(B(z, r)) <= C r`` over the support.

        The supremum of mass/r over r >= scale is attained at closed balls:
        the one through the k-th nearest atom of a centre holds at least
        the first k+1 sorted weights, so their sum over the larger of that
        distance and the scale is a candidate, and the largest is exact.
        """
        if len(self) == 0:
            raise ValueError("growth constant of the empty measure")
        best = 0.0
        for _, d in _distance_rows(self.points):
            cum = np.cumsum(self.weights[np.argsort(d, axis=1, kind="stable")], axis=1)
            d.sort(axis=1)
            best = max(best, float(np.max(cum / np.maximum(d, self.scale))))
        return best

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "atoms": [
                {"x": float(z.real), "y": float(z.imag), "w": float(w)}
                for z, w in zip(self.points, self.weights)
            ],
        }


_ROWS = 256  # rows per block of the distance matrix


def _distance_rows(pts: np.ndarray):
    """``(start, |pts[start:start + _ROWS, None] - pts|)``: the distance
    matrix ``_ROWS`` rows at a time, which every pairwise scan reads."""
    for start in range(0, pts.size, _ROWS):
        yield start, np.abs(pts[start:start + _ROWS, None] - pts[None, :])


def _distance_range(pts: np.ndarray) -> tuple[float, float]:
    """Smallest and largest distance between two of at least two atoms."""
    lo, hi = np.inf, 0.0
    for start, d in _distance_rows(pts):
        hi = max(hi, float(d.max()))
        np.fill_diagonal(d[:, start:], np.inf)
        lo = min(lo, float(d.min()))
    return lo, hi


def pushforward(
    mu: DiscreteMeasure, mapping: Callable[[np.ndarray], np.ndarray], lipschitz: float
) -> DiscreteMeasure:
    """Image measure under a bi-Lipschitz plane map with declared constant.

    Weights are preserved; the discretization scale is divided by the
    declared constant since distances shrink at most by that factor.  A
    mapping that collides atoms fails the image measure's own check.
    """
    _check_length("lipschitz", lipschitz)
    if lipschitz < 1:
        raise ValueError("bi-Lipschitz constant must be >= 1")
    new_pts = np.asarray(mapping(mu.points), dtype=complex)
    if new_pts.shape != mu.points.shape:
        raise ValueError("mapping must preserve the number of atoms")
    return DiscreteMeasure(new_pts, mu.weights.copy(), mu.scale / lipschitz)


def _arclength_weights(pts: np.ndarray) -> np.ndarray:
    seg = np.abs(np.diff(pts))
    w = np.zeros(pts.size)
    w[:-1] += seg / 2
    w[1:] += seg / 2
    return w


def _triangle_wave(x: np.ndarray, teeth: int) -> np.ndarray:
    # sawtooth with |slope| = 1 and `teeth` full teeth on [0, 1]
    p = 1.0 / teeth
    u = np.mod(x, p)
    return np.minimum(u, p - u)


# the keys of each recipe; ``perturbed`` takes base and amplitude, and its
# base recipe checks the other keys
_RECIPE_KEYS = {"segment": ("n", "start", "end"), "lipschitz_graph": ("n", "slope", "teeth"),
                "circle": ("n", "radius", "center"), "cantor4": ("level",), "perturbed": None}


def generate(kind: str, seed: int = 0, **params) -> DiscreteMeasure:
    """Deterministic test-measure generators.

    kinds:
      segment(n, start, end)          evenly spaced atoms, total mass = length
      lipschitz_graph(n, slope, teeth) graph of a triangle-wave profile,
                                       arclength weights
      circle(n, radius, center)       equally spaced atoms, mass = circumference
      cantor4(level)                  4^n atoms of weight 4^-n at the level-n
                                       quarter-corner Cantor square centers
      perturbed(base, amplitude, ...) seeded jitter applied to a base kind,
                                       which takes the other keys
    """
    return DiscreteMeasure(*_recipe(kind, seed, params))


def _count(params: dict, key: str, default: int) -> int:
    """The whole number ``params[key]``; a bool or a fraction is rejected
    by name rather than truncated."""
    value = params.get(key, default)
    # bool is a numbers.Real, so True would pass as 1
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and float(value).is_integer()):
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _recipe(
    kind: str, seed: int, params: dict
) -> tuple[np.ndarray, np.ndarray, float, tuple[float, float] | None]:
    """Unchecked points, weights and scale, so ``perturbed`` checks only its
    own, and the spacing of the points where the recipe had to compute it."""
    for key in params:
        if key not in (_RECIPE_KEYS.get(kind) or (key,)):
            raise ValueError(f"{kind} takes no key {key!r}; it takes "
                             f"{', '.join(_RECIPE_KEYS[kind])}")
    if kind == "segment":
        n = _count(params, "n", 100)
        start = complex(params.get("start", 0.0))
        end = complex(params.get("end", 1.0))
        if n < 1:
            raise ValueError("segment needs n >= 1")
        if n == 1:
            return np.array([start]), np.array([abs(end - start) or 1.0]), 1.0, None
        t = np.linspace(0.0, 1.0, n)
        pts = start + t * (end - start)
        length = abs(end - start)
        w = np.full(n, length / n)
        return pts, w, length / (2 * (n - 1)), None
    if kind == "lipschitz_graph":
        n = _count(params, "n", 128)
        slope = _check_length("slope", params.get("slope", 0.2), zero=True)
        teeth = _count(params, "teeth", 2)
        if n < 2 or teeth < 1:
            raise ValueError("invalid lipschitz_graph parameters")
        x = np.linspace(0.0, 1.0, n)
        y = slope * _triangle_wave(x, teeth)
        pts = x + 1j * y
        w = _arclength_weights(pts)
        return pts, w, float(np.min(np.abs(np.diff(pts)))) / 2, None
    if kind == "circle":
        n = _count(params, "n", 128)
        radius = _check_length("radius", params.get("radius", 1.0))
        center = complex(params.get("center", 0.0))
        if n < 3:
            raise ValueError("invalid circle parameters")
        ang = 2 * np.pi * np.arange(n) / n
        pts = center + radius * np.exp(1j * ang)
        w = np.full(n, 2 * np.pi * radius / n)
        spacing = 2 * radius * np.sin(np.pi / n)
        return pts, w, spacing / 2, None
    if kind == "cantor4":
        level = _count(params, "level", 1)
        if level < 0:
            raise ValueError("cantor4 level must be >= 0")
        corners = np.array([0.0])
        for k in range(1, level + 1):
            step = 3.0 * 4.0 ** (-k)
            corners = (corners[:, None] + np.array([0.0, step])[None, :]).ravel()
        cx, cy = np.meshgrid(corners, corners, indexing="ij")
        half = 4.0 ** (-level) / 2
        pts = (cx + half) + 1j * (cy + half)
        pts = pts.ravel()
        w = np.full(pts.size, 4.0 ** (-level))
        # nearest sibling centers sit 3 * 4^-level apart
        return pts, w, (4.0 ** (-level) if level else 1.0), None
    if kind == "perturbed":
        base = dict(params)
        base_kind = base.pop("base", "segment")
        amplitude = _check_length("amplitude", base.pop("amplitude", 1e-3), zero=True)
        pts, w, scale, _ = _recipe(base_kind, seed, base)
        rng = np.random.default_rng(seed)
        pts = pts + amplitude * (rng.uniform(-1, 1, pts.size)
                                 + 1j * rng.uniform(-1, 1, pts.size))
        if pts.size < 2:
            return pts, w, scale, None
        spacing = _distance_range(pts)
        if spacing[0] == 0.0:
            raise ValueError("perturbation collided atoms; lower the amplitude")
        return pts, w, min(scale, spacing[0]), spacing
    raise ValueError(f"unknown measure kind {kind!r}")


def save_json(mu: DiscreteMeasure, path) -> None:
    with open(path, "w") as fh:
        json.dump(mu.to_dict(), fh)


def _number(record: dict, key: str) -> float:
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"measure JSON key {key!r} must be a number, got {value!r}")
    return float(value)


def load_json(path) -> DiscreteMeasure:
    with open(path) as fh:
        data = json.load(fh)
    try:
        pts = np.array([complex(_number(a, "x"), _number(a, "y")) for a in data["atoms"]])
        w = np.array([_number(a, "w") for a in data["atoms"]], dtype=float)
        scale = _number(data, "scale")
    except KeyError as err:
        raise ValueError(f"measure JSON lacks the key {err.args[0]!r}") from None
    except TypeError:
        raise ValueError('measure JSON must be {"scale": s, "atoms": [{"x", "y", "w"}]}') from None
    return DiscreteMeasure(pts, w, scale)
