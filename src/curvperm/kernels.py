"""The parametric odd kernel family and planar lines.

``KernelParam`` selects a finite parameter value or the distinguished
reciprocal-modulus kernel; the latter is a separate kernel, never a large
float standing in for a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import _check_length, _check_real

__all__ = [
    "KernelParam",
    "K_INF",
    "K_ZERO",
    "kt",
    "kernel_values",
    "zero_lines",
    "Line",
    "theta_vertical",
    "angle_between",
    "v_far",
]


@dataclass(frozen=True)
class KernelParam:
    """Finite parameter ``t``, stored as a Python float, or ``None`` for the
    limiting kernel."""

    t: float | None

    def __post_init__(self):
        if self.t is not None:
            # a numpy float32 t would round the scalar path to single precision
            object.__setattr__(self, "t", _check_real("t", self.t))

    @property
    def is_infinite(self) -> bool:
        return self.t is None

    def __str__(self) -> str:
        return "k_inf" if self.t is None else f"k_{self.t:g}"


K_INF = KernelParam(None)
K_ZERO = KernelParam(0.0)


def kt(t: float) -> KernelParam:
    return KernelParam(t)


# |z|^4 = r2 * r2 is a normal double exactly when r2 lies in [2^-511, 2^512)
_R2_LO = 2.0**-511
_R2_HI = 2.0**512


def _kernel_formula(k: KernelParam, x, r2):
    if k.is_infinite:
        return x / r2
    return (x * x * x) / (r2 * r2) + k.t * (x / r2)


def kernel_values(k: KernelParam, dz: np.ndarray) -> np.ndarray:
    """Vectorized kernel on an array of differences; zeros map to 0.

    Where ``|z|^4`` is not a normal double the formula would underflow or
    overflow, so those entries are scaled by a power of two first: the
    kernel is homogeneous of degree -1, and scaling back is exact.  Every
    other entry is the plain formula.
    """
    dz = np.asarray(dz, dtype=complex)
    x = dz.real
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r2 = x * x + dz.imag * dz.imag
        out = np.asarray(_kernel_formula(k, x, r2))
        abnormal = r2 < _R2_LO
        abnormal |= r2 >= _R2_HI
        odd = np.flatnonzero(abnormal)
        if odd.size:
            z = dz.reshape(-1)[odd]
            _, e = np.frexp(np.maximum(np.abs(z.real), np.abs(z.imag)))
            xs, ys = np.ldexp(z.real, -e), np.ldexp(z.imag, -e)
            vals = np.ldexp(_kernel_formula(k, xs, xs * xs + ys * ys), -e)
            out.reshape(-1)[odd] = np.where(z == 0, 0.0, vals)
    return out


def _kernel_scalar(k: KernelParam, dz: complex) -> float:
    """``kernel_values`` at one difference, on Python floats: each ``*``,
    ``/`` and ``+`` rounds as numpy's elementwise operations do, so the bits
    are the same.  An abnormal ``r2`` takes the array path."""
    x = dz.real
    r2 = x * x + dz.imag * dz.imag
    if _R2_LO <= r2 < _R2_HI:
        return _kernel_formula(k, x, r2)
    return float(kernel_values(k, dz))


def zero_lines(t: float) -> list[float]:
    """Angles in [0, pi) of the lines through 0 on which the kernel vanishes.

    On the line of angle ``a`` the kernel reduces to cos(a)(cos^2(a) + t)/r,
    so the vertical line is always a zero line and the others solve
    cos^2(a) = -t.
    """
    t = _check_real("t", t)
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


def theta_vertical(line: Line) -> float:
    """Smallest angle between the line and the vertical axis, in [0, pi/2]."""
    return math.acos(min(1.0, abs(line.direction.imag)))


def angle_between(l1: Line, l2: Line) -> float:
    """Smallest angle between two lines, in [0, pi/2]."""
    dot = (l1.direction * np.conj(l2.direction)).real
    return math.acos(min(1.0, abs(dot)))


def v_far(z1, z2, z3, theta: float):
    """Whether the three connecting lines are jointly far from vertical:
    the sum of their vertical angles is at least ``theta``.

    Arrays of triples broadcast like ``z1 - z2``; scalars give a bool."""
    _check_length("theta", theta)
    z1, z2, z3 = (np.asarray(z, dtype=complex) for z in (z1, z2, z3))
    d12, d13, d23 = z1 - z2, z1 - z3, z2 - z3
    if np.any((d12 == 0) | (d13 == 0) | (d23 == 0)):
        raise ValueError("v_far needs pairwise distinct points")

    def vertical_angle(d):
        return np.arccos(np.clip(np.abs(d.imag) / np.abs(d), 0.0, 1.0))

    far = vertical_angle(d12) + vertical_angle(d13) + vertical_angle(d23) >= theta
    return bool(far) if far.ndim == 0 else far
