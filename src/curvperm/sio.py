"""Truncated singular integral operators on discrete measures.

The truncated operator at a point sums kernel values against atoms at
distance at least the cutoff; the complement of the open exclusion ball
is kept, so the comparison with truncated triple integrals uses one and
the same convention on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import K_INF, K_ZERO, KernelParam, kernel_values
from .measure import _ROWS, DiscreteMeasure
from .permutations import _check_count, perm_measure

__all__ = [
    "TruncationGrid",
    "MvReport",
    "Theorem1Ratios",
    "default_grid",
    "t1_values",
    "l2_norm_T1",
    "sup_l2_norm",
    "mv_identity_report",
    "theorem1_ratios",
    "cauchy_l2_norm",
]


@dataclass(frozen=True)
class TruncationGrid:
    epsilons: tuple[float, ...]

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) == 0:
            raise ValueError("empty truncation grid")
        if not all(e > 0 for e in eps):
            raise ValueError("truncation lengths must be positive")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("truncation grid must be strictly increasing")
        object.__setattr__(self, "epsilons", eps)


def default_grid(mu: DiscreteMeasure, n: int = 16) -> TruncationGrid:
    """Geometric grid from the discretization scale to the diameter.

    The discrete norm is piecewise constant in the cutoff between pairwise
    distances, and its sup typically lives at small cutoffs, where the
    geometric grid is densest.
    """
    _check_count("n", n)
    lo = mu.scale
    hi = max(mu.diameter, lo * 2)
    return TruncationGrid(tuple(np.geomspace(lo, hi, n)))


def _truncated_sums(values, targets, mu: DiscreteMeasure, epsilons):
    """The sums of ``values(z - x) * w_x`` over the atoms ``x`` of ``mu`` at
    distance at least each cutoff from each target ``z``, one row per
    cutoff.  Targets are taken ``_ROWS`` at a time and each row is reduced
    on its own, so a target's sum depends neither on the other targets nor
    on its block."""
    if not all(e > 0 for e in epsilons):
        raise ValueError("truncation length must be positive")
    blocks = []
    for start in range(0, targets.size, _ROWS):
        dz = targets[start:start + _ROWS, None] - mu.points[None, :]
        v, d = values(dz) * mu.weights, np.abs(dz)
        blocks.append([np.where(d >= e, v, 0.0).sum(axis=1) for e in epsilons])
    return np.concatenate(blocks, axis=1) if blocks else np.zeros((len(epsilons), 0))


def _inverse(dz: np.ndarray) -> np.ndarray:
    """The Cauchy kernel ``1/z``; a zero difference, which no cutoff keeps, gives 1."""
    return 1.0 / np.where(dz == 0, 1.0, dz)


def _l2(sums: np.ndarray, w: np.ndarray) -> float:
    """Weighted l2 norm of one row of truncated sums, real or complex."""
    return math.sqrt(math.fsum((sums.real**2 + sums.imag**2) * w))


def t1_values(k: KernelParam, mu: DiscreteMeasure, eps: float) -> np.ndarray:
    """The truncated transform of the constant 1 at every atom."""
    return _truncated_sums(lambda dz: kernel_values(k, dz), mu.points, mu, [eps])[0]


def l2_norm_T1(k: KernelParam, mu: DiscreteMeasure, eps: float) -> float:
    """Weighted l2 norm of the truncated transform of 1."""
    return _l2(t1_values(k, mu, eps), mu.weights)


def sup_l2_norm(
    k: KernelParam, mu: DiscreteMeasure, grid: TruncationGrid
) -> tuple[float, float]:
    """Max of the truncated norm over the grid and the attaining cutoff."""
    sums = _truncated_sums(lambda dz: kernel_values(k, dz), mu.points, mu,
                           grid.epsilons)
    norms = [_l2(t1, mu.weights) for t1 in sums]
    best = int(np.argmax(norms))
    return norms[best], grid.epsilons[best]


def cauchy_l2_norm(mu: DiscreteMeasure, eps: float) -> float:
    """Weighted l2 norm of the truncated complex Cauchy transform of 1."""
    return _l2(_truncated_sums(_inverse, mu.points, mu, [eps])[0], mu.weights)


@dataclass(frozen=True)
class MvReport:
    lhs: float
    p_third: float
    remainder: float
    normalized_remainder: float
    eps: float
    growth: float
    mass: float


def mv_identity_report(k: KernelParam, mu: DiscreteMeasure, eps: float) -> MvReport:
    """Both sides of the squared-norm / third-of-permutation identity with
    matching truncations, plus the remainder normalized by the growth term."""
    lhs = l2_norm_T1(k, mu, eps) ** 2
    p = perm_measure(k, mu, eps=eps).value
    growth = mu.linear_growth_constant() if len(mu) else 0.0
    mass = mu.total_mass
    remainder = lhs - p / 3.0
    denom = growth * growth * mass
    normalized = remainder / denom if denom > 0 else 0.0
    return MvReport(lhs, p / 3.0, remainder, normalized, float(eps), growth, mass)


@dataclass(frozen=True)
class Theorem1Ratios:
    sup_inf: float
    sup_0: float
    eps_inf: float
    eps_0: float
    mass: float
    growth: float
    ratio_fwd: float
    ratio_bwd: float


def theorem1_ratios(mu: DiscreteMeasure, grid: TruncationGrid) -> Theorem1Ratios:
    """The two dimensionless ratios comparing the sup norms of the two
    endpoint operators, normalized by the growth term."""
    if len(mu) == 0:
        raise ValueError("empty measure")
    sup_inf, eps_inf = sup_l2_norm(K_INF, mu, grid)
    sup_0, eps_0 = sup_l2_norm(K_ZERO, mu, grid)
    mass = mu.total_mass
    growth = mu.linear_growth_constant()
    reg = growth * math.sqrt(mass)
    return Theorem1Ratios(
        sup_inf,
        sup_0,
        eps_inf,
        eps_0,
        mass,
        growth,
        sup_inf / (sup_0 + reg),
        sup_0 / (sup_inf + reg),
    )
