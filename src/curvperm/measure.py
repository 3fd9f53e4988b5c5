"""Finite atomic measures in the plane.

A measure is a finite list of weighted atoms at pairwise-distinct complex
positions.  Every integral downstream is a weighted sum over atoms, and
``scale`` (the discretization scale) marks the resolution below which
geometric queries stop being meaningful.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Ball",
    "DiscreteMeasure",
    "ResolutionWarning",
    "generate",
    "pushforward",
    "load_json",
    "save_json",
]


class ResolutionWarning(UserWarning):
    """A query probed a scale below the discretization scale."""


@dataclass(frozen=True)
class Ball:
    """Open disc ``{z : |z - center| < radius}``."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    def scaled(self, factor: float) -> "Ball":
        """Concentric ball with radius multiplied by ``factor``."""
        return Ball(self.center, factor * self.radius)

    def contains(self, z) -> np.ndarray:
        return np.abs(np.asarray(z) - self.center) < self.radius


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms: complex positions, positive weights, one scale."""

    points: np.ndarray
    weights: np.ndarray
    scale: float

    def __post_init__(self):
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
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError("discretization scale must be positive")
        if pts.size > 1:
            dmin = _min_pairwise_distance(pts)
            if dmin == 0.0:
                raise ValueError("atom positions must be pairwise distinct")
            if self.scale > dmin * (1 + 1e-12):
                raise ValueError(
                    f"scale {self.scale} exceeds minimal atom spacing {dmin}"
                )
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
        return float(np.max(_pairwise_distances(self.points)))

    def distances_from(self, z: complex) -> np.ndarray:
        return np.abs(self.points - z)

    def restrict(self, ball: Ball) -> "DiscreteMeasure":
        """Atoms strictly inside the open ball; weights and scale kept."""
        keep = self.distances_from(ball.center) < ball.radius
        return DiscreteMeasure(self.points[keep], self.weights[keep], self.scale)

    def mass_in(self, ball: Ball) -> float:
        """Mass of the open ball."""
        return float(self.weights[ball.contains(self.points)].sum())

    def density(self, ball: Ball) -> float:
        """Mass of the open ball divided by its radius."""
        if ball.radius < self.scale:
            warnings.warn(
                f"density queried at radius {ball.radius} below the "
                f"discretization scale {self.scale}",
                ResolutionWarning,
                stacklevel=2,
            )
        return self.mass_in(ball) / ball.radius

    def subset(self, indices) -> "DiscreteMeasure":
        idx = np.asarray(indices)
        return DiscreteMeasure(self.points[idx], self.weights[idx], self.scale)

    def linear_growth_constant(self) -> float:
        """Smallest C with ``mass(B(z, r)) <= C r`` over the support.

        The supremum of mass/r over r >= scale is attained in the limit at
        jump radii, i.e. at closed balls with radius in the pairwise
        distance set, so scanning closed balls over {scale} + the per
        center distance sets is exact.
        """
        if len(self) == 0:
            raise ValueError("growth constant of the empty measure")
        best = 0.0
        for i in range(len(self)):
            d = self.distances_from(self.points[i])
            order = np.argsort(d, kind="stable")
            d_sorted = d[order]
            cum = np.cumsum(self.weights[order])
            radii = np.unique(np.concatenate([[self.scale], d_sorted[d_sorted >= self.scale]]))
            mass_at = cum[np.searchsorted(d_sorted, radii, side="right") - 1]
            best = max(best, float(np.max(mass_at / radii)))
        return best

    def ad_regularity_bounds(self, r_min: float, r_max: float) -> tuple[float, float]:
        """Tightest (lower, upper) constants for ``C^-1 r <= mass <= C r``.

        Scans atom-centered candidate balls with radii in the pairwise
        distance set clipped to [r_min, r_max]; open balls give the exact
        infimum of mass/r, closed balls the exact supremum.
        """
        if len(self) == 0:
            raise ValueError("regularity bounds of the empty measure")
        if not (r_min <= r_max):
            raise ValueError("empty scale range")
        c_lower = 0.0
        c_upper = 0.0
        seen = False
        for i in range(len(self)):
            d = self.distances_from(self.points[i])
            order = np.argsort(d, kind="stable")
            d_sorted = d[order]
            cum = np.cumsum(self.weights[order])
            radii = np.unique(np.concatenate([[r_min, r_max], d_sorted]))
            radii = radii[(radii >= r_min) & (radii <= r_max)]
            if radii.size == 0:
                continue
            seen = True
            hi = cum[np.searchsorted(d_sorted, radii, side="right") - 1]
            pos = np.searchsorted(d_sorted, radii, side="left") - 1
            lo = np.where(pos >= 0, cum[np.maximum(pos, 0)], 0.0)
            c_upper = max(c_upper, float(np.max(hi / radii)))
            with np.errstate(divide="ignore"):
                c_lower = max(c_lower, float(np.max(radii / lo)))
        if not seen:
            raise ValueError("no candidate balls inside the scale range")
        return c_lower, c_upper

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "atoms": [
                {"x": float(z.real), "y": float(z.imag), "w": float(w)}
                for z, w in zip(self.points, self.weights)
            ],
        }


def _pairwise_distances(pts: np.ndarray) -> np.ndarray:
    return np.abs(pts[:, None] - pts[None, :])


def _min_pairwise_distance(pts: np.ndarray) -> float:
    d = _pairwise_distances(pts)
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def pushforward(
    mu: DiscreteMeasure, mapping: Callable[[np.ndarray], np.ndarray], lipschitz: float
) -> DiscreteMeasure:
    """Image measure under a bi-Lipschitz plane map with declared constant.

    Weights are preserved; the discretization scale is divided by the
    declared constant since distances shrink at most by that factor.
    """
    if lipschitz < 1:
        raise ValueError("bi-Lipschitz constant must be >= 1")
    new_pts = np.asarray(mapping(mu.points), dtype=complex)
    if new_pts.shape != mu.points.shape:
        raise ValueError("mapping must preserve the number of atoms")
    if new_pts.size > 1 and _min_pairwise_distance(new_pts) == 0.0:
        raise ValueError("mapping collides atom positions")
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


def generate(kind: str, seed: int = 0, **params) -> DiscreteMeasure:
    """Deterministic test-measure generators.

    kinds:
      segment(n, start, end)          evenly spaced atoms, total mass = length
      lipschitz_graph(n, slope, teeth) graph of a triangle-wave profile,
                                       arclength weights
      circle(n, radius, center)       equally spaced atoms, mass = circumference
      cantor4(level)                  4^n atoms of weight 4^-n at the level-n
                                       quarter-corner Cantor square centers
      perturbed(base, amplitude, ...) seeded jitter applied to a base kind
    """
    rng = np.random.default_rng(seed)
    if kind == "segment":
        n = int(params.get("n", 100))
        start = complex(params.get("start", 0.0))
        end = complex(params.get("end", 1.0))
        if n < 1:
            raise ValueError("segment needs n >= 1")
        if n == 1:
            return DiscreteMeasure([start], [abs(end - start) or 1.0], 1.0)
        t = np.linspace(0.0, 1.0, n)
        pts = start + t * (end - start)
        length = abs(end - start)
        w = np.full(n, length / n)
        return DiscreteMeasure(pts, w, length / (2 * (n - 1)))
    if kind == "lipschitz_graph":
        n = int(params.get("n", 128))
        slope = float(params.get("slope", 0.2))
        teeth = int(params.get("teeth", 2))
        if n < 2 or teeth < 1 or slope < 0:
            raise ValueError("invalid lipschitz_graph parameters")
        x = np.linspace(0.0, 1.0, n)
        y = slope * _triangle_wave(x, teeth)
        pts = x + 1j * y
        w = _arclength_weights(pts)
        return DiscreteMeasure(pts, w, float(np.min(np.abs(np.diff(pts)))) / 2)
    if kind == "circle":
        n = int(params.get("n", 128))
        radius = float(params.get("radius", 1.0))
        center = complex(params.get("center", 0.0))
        if n < 3 or radius <= 0:
            raise ValueError("invalid circle parameters")
        ang = 2 * np.pi * np.arange(n) / n
        pts = center + radius * np.exp(1j * ang)
        w = np.full(n, 2 * np.pi * radius / n)
        spacing = 2 * radius * np.sin(np.pi / n)
        return DiscreteMeasure(pts, w, spacing / 2)
    if kind == "cantor4":
        level = int(params.get("level", 1))
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
        return DiscreteMeasure(pts, w, 4.0 ** (-level)) if level else DiscreteMeasure(
            pts, w, 1.0
        )
    if kind == "perturbed":
        base = dict(params)
        base_kind = base.pop("base", "segment")
        amplitude = float(base.pop("amplitude", 1e-3))
        mu = generate(base_kind, seed=seed, **base)
        jitter = amplitude * (
            rng.uniform(-1, 1, len(mu)) + 1j * rng.uniform(-1, 1, len(mu))
        )
        pts = mu.points + jitter
        dmin = _min_pairwise_distance(pts) if pts.size > 1 else np.inf
        if dmin == 0.0:
            raise ValueError("perturbation collided atoms; lower the amplitude")
        return DiscreteMeasure(pts, mu.weights.copy(), min(mu.scale, dmin))
    raise ValueError(f"unknown measure kind {kind!r}")


def save_json(mu: DiscreteMeasure, path) -> None:
    with open(path, "w") as fh:
        json.dump(mu.to_dict(), fh)


def load_json(path) -> DiscreteMeasure:
    with open(path) as fh:
        data = json.load(fh)
    try:
        pts = np.array([a["x"] + 1j * a["y"] for a in data["atoms"]], dtype=complex)
        w = np.array([a["w"] for a in data["atoms"]], dtype=float)
        scale = float(data["scale"])
    except KeyError as err:
        raise ValueError(f"measure JSON lacks the key {err.args[0]!r}") from None
    return DiscreteMeasure(pts, w, scale)
