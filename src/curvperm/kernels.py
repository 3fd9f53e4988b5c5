"""The parametric odd kernel family, the Cauchy kernel, and planar lines.

``KernelParam`` selects a finite parameter value or the distinguished
reciprocal-modulus kernel; the latter is a separate kernel, never a large
float standing in for a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelParam",
    "K_INF",
    "K_ZERO",
    "kt",
    "kernel_eval",
    "kernel_values",
    "cauchy_kernel",
    "zero_lines",
    "Line",
    "line_through",
    "line_from_angle",
    "theta_vertical",
    "angle_between",
    "v_far",
]


@dataclass(frozen=True)
class KernelParam:
    """Finite parameter ``t`` or ``None`` for the limiting kernel."""

    t: float | None

    def __post_init__(self):
        if self.t is not None and not math.isfinite(self.t):
            raise ValueError("finite kernel parameter required; use K_INF instead")

    @property
    def is_infinite(self) -> bool:
        return self.t is None

    def __str__(self) -> str:
        return "k_inf" if self.t is None else f"k_{self.t:g}"


K_INF = KernelParam(None)
K_ZERO = KernelParam(0.0)


def kt(t: float) -> KernelParam:
    return KernelParam(float(t))


def kernel_values(k: KernelParam, dz: np.ndarray) -> np.ndarray:
    """Vectorized kernel on an array of differences; zeros map to 0."""
    dz = np.asarray(dz, dtype=complex)
    x = dz.real
    r2 = x * x + dz.imag * dz.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        if k.is_infinite:
            out = x / r2
        else:
            out = (x * x * x) / (r2 * r2) + k.t * (x / r2)
    return np.where(r2 == 0.0, 0.0, out)


def kernel_eval(k: KernelParam, z: complex) -> float:
    """Kernel at a single nonzero point."""
    z = complex(z)
    if z == 0:
        raise ValueError("kernel is singular at the origin")
    return float(kernel_values(k, z))


def cauchy_kernel(z: complex) -> complex:
    """Complex reciprocal."""
    z = complex(z)
    if z == 0:
        raise ValueError("Cauchy kernel is singular at the origin")
    return 1.0 / z


def zero_lines(t: float) -> list[float]:
    """Angles in [0, pi) of the lines through 0 on which the kernel vanishes.

    On the line of angle ``a`` the kernel reduces to cos(a)(cos^2(a) + t)/r,
    so the vertical line is always a zero line and the others solve
    cos^2(a) = -t.
    """
    t = float(t)
    angles = [math.pi / 2]
    if -1.0 <= t < 0.0:
        c = math.sqrt(-t)
        a = math.acos(c)
        angles.append(a)
        if a != 0.0:
            angles.append(math.pi - a)
    return sorted(set(angles))


@dataclass(frozen=True)
class Line:
    """Affine line: anchor point plus unit direction."""

    anchor: complex
    direction: complex

    def __post_init__(self):
        n = abs(self.direction)
        if not (abs(n - 1.0) < 1e-12):
            raise ValueError("direction must be a unit vector")

    def canonical(self) -> "Line":
        """Same line with direction angle in [0, pi) and the anchor at the
        foot of the perpendicular from the origin."""
        d = self.direction
        if d.imag < 0 or (d.imag == 0 and d.real < 0):
            d = -d
        a = self.anchor
        foot = a - (a.real * d.real + a.imag * d.imag) * d
        return Line(foot, d)

    def distance(self, z) -> np.ndarray:
        """Unsigned distance from point(s) to the line."""
        rel = np.asarray(z, dtype=complex) - self.anchor
        return np.abs((rel * np.conj(self.direction)).imag)

    def project(self, z) -> np.ndarray:
        """Signed on-line coordinate of the orthogonal projection."""
        rel = np.asarray(z, dtype=complex) - self.anchor
        return (rel * np.conj(self.direction)).real

    def offset(self, z) -> np.ndarray:
        """Signed perpendicular coordinate."""
        rel = np.asarray(z, dtype=complex) - self.anchor
        return (rel * np.conj(self.direction)).imag

    def embed(self, u, v=0.0) -> np.ndarray:
        """Map (on-line, perpendicular) coordinates back to the plane."""
        u = np.asarray(u, dtype=float)
        return self.anchor + (u + 1j * np.asarray(v, dtype=float)) * self.direction


def line_through(p: complex, q: complex) -> Line:
    p, q = complex(p), complex(q)
    if p == q:
        raise ValueError("two distinct points are needed to define a line")
    d = (q - p) / abs(q - p)
    return Line(p, d).canonical()


def line_from_angle(anchor: complex, theta: float) -> Line:
    return Line(complex(anchor), complex(math.cos(theta), math.sin(theta)))


def theta_vertical(line: Line) -> float:
    """Smallest angle between the line and the vertical axis, in [0, pi/2]."""
    return math.acos(min(1.0, abs(line.direction.imag)))


def angle_between(l1: Line, l2: Line) -> float:
    """Smallest angle between two lines, in [0, pi/2]."""
    dot = (l1.direction * np.conj(l2.direction)).real
    return math.acos(min(1.0, abs(dot)))


def v_far(z1: complex, z2: complex, z3: complex, theta: float) -> bool:
    """Whether the three connecting lines are jointly far from vertical:
    the sum of their vertical angles is at least ``theta``."""
    total = 0.0
    for p, q in ((z1, z2), (z1, z3), (z2, z3)):
        total += theta_vertical(line_through(p, q))
    return total >= theta
