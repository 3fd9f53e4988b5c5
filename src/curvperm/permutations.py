"""Pointwise permutations, Menger curvature, and triple integrals.

The permutation of an odd kernel over a point triple is the symmetric
three-term product sum; integrated against one or three measures it is a
weighted sum over admissible atom triples.  Truncations remove the
diagonal: a pair is admissible when its distance clears the cutoff, and
coincident positions are always excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .kernels import K_INF, K_ZERO, KernelParam, kernel_values
from .measure import Ball, DiscreteMeasure
from .reduction import deterministic_sum, parallel_map_chunks

__all__ = [
    "TripleIntegralResult",
    "SignScanResult",
    "C1Estimate",
    "perm_values",
    "perm_pointwise",
    "menger_curvature",
    "perm_measure",
    "curvature_squared",
    "perm_truncated_window",
    "perm_at_point",
    "sign_scan",
    "estimate_c1",
]

DEGENERACY_FACTOR = 1e-14


def perm_values(k: KernelParam, z1, z2, z3) -> np.ndarray:
    """Pointwise permutation over arrays of triples (broadcast like
    ``z1 - z2``); a coincident pair contributes through the kernel's 0 fill."""
    return (
        kernel_values(k, z1 - z2) * kernel_values(k, z1 - z3)
        + kernel_values(k, z2 - z1) * kernel_values(k, z2 - z3)
        + kernel_values(k, z3 - z1) * kernel_values(k, z3 - z2)
    )


def perm_pointwise(k: KernelParam, z1: complex, z2: complex, z3: complex) -> float:
    """Symmetric kernel-product sum over one triple."""
    z1, z2, z3 = complex(z1), complex(z2), complex(z3)
    if z1 == z2 or z1 == z3 or z2 == z3:
        raise ValueError("permutation needs pairwise distinct points")
    return float(perm_values(k, z1, z2, z3))


def menger_curvature(z1: complex, z2: complex, z3: complex) -> float:
    """Reciprocal circumradius, 0 for (numerically) collinear triples."""
    z1, z2, z3 = complex(z1), complex(z2), complex(z3)
    a = z2 - z1
    b = z3 - z1
    c = z3 - z2
    la, lb, lc = abs(a), abs(b), abs(c)
    if la == 0.0 or lb == 0.0 or lc == 0.0:
        raise ValueError("curvature needs pairwise distinct points")
    area2 = abs(a.real * b.imag - a.imag * b.real)  # twice the triangle area
    scale = max(la, lb, lc)
    if area2 <= DEGENERACY_FACTOR * scale * scale:
        return 0.0
    return 2.0 * area2 / (la * lb * lc)


@dataclass(frozen=True)
class TripleIntegralResult:
    value: float
    triples_counted: int
    truncation: dict

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("triple integral overflowed")


_TINY = np.finfo(float).tiny
_DISTINCT = (_TINY, math.inf)


def _row_sums(
    k: KernelParam,
    p1: np.ndarray,
    mu2: DiscreteMeasure,
    mu3: DiscreteMeasure,
    ranges: tuple,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per first-slot point, the double sum of the permutation against
    ``mu2 x mu3`` and the number of admissible pairs.

    ``ranges`` holds the closed admissible distance interval ``(lo, hi)`` of
    the pairs (1, 2), (1, 3) and (2, 3); a triple counts when all three
    pairs are admissible.
    """
    p2, w2 = mu2.points, mu2.weights
    p3, w3 = mu3.points, mu3.weights
    diffs = (p1[:, None] - p2[None, :], p1[:, None] - p3[None, :],
             p2[:, None] - p3[None, :])
    k12, k13, k23 = (kernel_values(k, d) for d in diffs)
    m12, m13, m23 = (
        (a >= lo) & (a <= hi) for a, (lo, hi) in zip(map(np.abs, diffs), ranges)
    )
    m23 = m23.astype(float)
    counts = np.zeros(len(p1), dtype=np.int64)

    def chunk_values(a: int, b: int) -> np.ndarray:
        out = np.empty(b - a)
        for i in range(a, b):
            row2 = np.where(m12[i], w2, 0.0)
            row3 = np.where(m13[i], w3, 0.0)
            t1 = np.outer(k12[i] * row2, k13[i] * row3)
            t2 = (-k12[i] * row2)[:, None] * (k23 * row3[None, :])
            t3 = (k13[i] * row3)[None, :] * (k23 * row2[:, None])
            out[i - a] = float(((t1 + t2 + t3) * m23).sum())
            counts[i] = np.count_nonzero(m23[np.ix_(m12[i], m13[i])])
        return out

    return parallel_map_chunks(chunk_values, len(p1), workers=workers), counts


def perm_measure(
    k: KernelParam,
    mu1: DiscreteMeasure,
    mu2: DiscreteMeasure | None = None,
    mu3: DiscreteMeasure | None = None,
    eps: float = 0.0,
    workers: int = 1,
    method: str = "fast",
) -> TripleIntegralResult:
    """Triple integral of the permutation over three measures.

    ``eps = 0`` keeps every triple of pairwise-distinct positions; for
    ``eps > 0`` each of the three pairwise distances must be >= eps.
    ``method="ordered"`` is the reference path: a plain lexicographic
    triple loop with sequential accumulation.
    """
    if not (eps >= 0):
        raise ValueError("truncation length must be >= 0")
    mu2 = mu1 if mu2 is None else mu2
    mu3 = mu1 if mu3 is None else mu3
    trunc = {"kind": "eps", "eps": float(eps)}
    if method == "ordered":
        return _perm_measure_ordered(k, mu1, mu2, mu3, eps, trunc)
    if method != "fast":
        raise ValueError(f"unknown method {method!r}")
    pair = (max(eps, _TINY), math.inf)
    sums, counts = _row_sums(k, mu1.points, mu2, mu3, (pair, pair, pair), workers)
    return TripleIntegralResult(
        deterministic_sum(mu1.weights * sums), int(counts.sum()), trunc
    )


def _perm_measure_ordered(k, mu1, mu2, mu3, eps, trunc) -> TripleIntegralResult:
    lo = max(eps, _TINY)
    total = 0.0
    count = 0
    p1, w1 = mu1.points, mu1.weights
    p2, w2 = mu2.points, mu2.weights
    p3, w3 = mu3.points, mu3.weights
    for i in range(len(mu1)):
        for j in range(len(mu2)):
            if abs(p1[i] - p2[j]) < lo:
                continue
            # the terms of one (i, j) row at once; the sum stays sequential
            terms = perm_values(k, p1[i], p2[j], p3)
            for l in range(len(mu3)):
                if abs(p1[i] - p3[l]) < lo or abs(p2[j] - p3[l]) < lo:
                    continue
                total = total + w1[i] * w2[j] * w3[l] * terms[l]
                count += 1
    return TripleIntegralResult(total, count, trunc)


def curvature_squared(
    mu: DiscreteMeasure, eps: float = 0.0, workers: int = 1
) -> float:
    """Curvature of the measure: four times the limiting-kernel permutation."""
    return 4.0 * perm_measure(K_INF, mu, eps=eps, workers=workers).value


def _window_ranges(delta: float, q_radius: float) -> tuple:
    """Pair ranges of the windowed sums: the first pair within
    ``[delta * q_radius, q_radius / delta]``, the other pairs distinct."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if not (q_radius > 0):
        raise ValueError("q_radius must be positive")
    return ((delta * q_radius, q_radius / delta), _DISTINCT, _DISTINCT)


def perm_truncated_window(
    mu1: DiscreteMeasure,
    mu2: DiscreteMeasure,
    mu3: DiscreteMeasure,
    delta: float,
    q_radius: float,
    kernel: KernelParam = K_ZERO,
    workers: int = 1,
) -> TripleIntegralResult:
    """Triple integral with the first pair windowed to
    ``delta * q_radius <= |z1 - z2| <= q_radius / delta``; the other pairs
    are only required to be distinct."""
    ranges = _window_ranges(delta, q_radius)
    trunc = {"kind": "window", "delta": float(delta), "q_radius": float(q_radius)}
    sums, counts = _row_sums(kernel, mu1.points, mu2, mu3, ranges, workers)
    return TripleIntegralResult(
        deterministic_sum(mu1.weights * sums), int(counts.sum()), trunc
    )


def perm_at_point(
    x: complex,
    mu2: DiscreteMeasure,
    mu3: DiscreteMeasure,
    delta: float,
    q_radius: float,
    kernel: KernelParam = K_ZERO,
) -> float:
    """Double integral of the permutation with the first point frozen at
    ``x`` and the pair (x, y) windowed as in the triple version."""
    ranges = _window_ranges(delta, q_radius)
    sums, _ = _row_sums(kernel, np.array([complex(x)]), mu2, mu3, ranges)
    return float(sums[0])


@dataclass(frozen=True)
class SignScanResult:
    min_value: float
    argmin_triple: tuple[complex, complex, complex]
    samples: int


def sign_scan(
    t: float,
    domain: Ball = Ball(0j, 1.0),
    n_samples: int = 100_000,
    seed: int = 0,
    refine: bool = True,
) -> SignScanResult:
    """Minimum of the pointwise permutation over sampled triples.

    Random triples in the ball are mixed with near-collinear families
    (where sign changes concentrate), and the best candidate is polished
    with a derivative-free local search.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    r = domain.radius
    c = domain.center

    def sample_disc(n):
        rho = r * np.sqrt(rng.uniform(0, 1, n))
        ang = rng.uniform(0, 2 * np.pi, n)
        return c + rho * np.exp(1j * ang)

    n_free = n_samples // 2
    n_thin = n_samples - n_free
    z1 = sample_disc(n_free)
    z2 = sample_disc(n_free)
    z3 = sample_disc(n_free)
    # thin triangles: two points on a random chord, the third slightly off
    base = sample_disc(n_thin)
    direc = np.exp(1j * rng.uniform(0, 2 * np.pi, n_thin))
    span = r * rng.uniform(0.05, 1.0, n_thin)
    frac = rng.uniform(0.1, 0.9, n_thin)
    height = span * 10.0 ** rng.uniform(-4, -0.3, n_thin)
    t1 = base
    t2 = base + span * direc
    t3 = base + frac * span * direc + 1j * height * direc
    z1 = np.concatenate([z1, t1])
    z2 = np.concatenate([z2, t2])
    z3 = np.concatenate([z3, t3])
    good = (
        (np.abs(z1 - z2) > 1e-12 * r)
        & (np.abs(z1 - z3) > 1e-12 * r)
        & (np.abs(z2 - z3) > 1e-12 * r)
    )
    vals = np.where(good, perm_values(KernelParam(t), z1, z2, z3), np.inf)
    best = int(np.argmin(vals))
    best_val = float(vals[best])
    triple = (complex(z1[best]), complex(z2[best]), complex(z3[best]))

    if refine:

        def objective(v):
            a = complex(v[0], v[1])
            b = complex(v[2], v[3])
            d = complex(v[4], v[5])
            m = min(abs(a - b), abs(a - d), abs(b - d))
            if m < 1e-12 * r:
                return np.inf
            return perm_pointwise(KernelParam(t), a, b, d)

        v0 = np.array(
            [triple[0].real, triple[0].imag, triple[1].real, triple[1].imag,
             triple[2].real, triple[2].imag]
        )
        res = minimize(objective, v0, method="Nelder-Mead",
                       options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-14})
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val = float(res.fun)
            triple = (
                complex(res.x[0], res.x[1]),
                complex(res.x[2], res.x[3]),
                complex(res.x[4], res.x[5]),
            )
    return SignScanResult(best_val, triple, n_samples)


@dataclass(frozen=True)
class C1Estimate:
    value: float
    witness: tuple[complex, complex, complex]
    admissible: int


def estimate_c1(
    theta: float, n_samples: int = 20_000, seed: int = 0, p_inf_floor: float = 1e-9
) -> C1Estimate:
    """Empirical infimum of p_0 / p_inf over sampled far-from-vertical
    triples.  A scan can only certify an upper bound on the true constant;
    the reported value is that upper bound."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    rng = np.random.default_rng(seed)
    n_free = n_samples // 2
    n_flat = n_samples - n_free

    def sample(n):
        return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)

    z1 = sample(n_free)
    z2 = sample(n_free)
    z3 = sample(n_free)
    # near-horizontal, near-collinear triples push the ratio toward its cap
    x1 = rng.uniform(-1, 1, n_flat)
    x2 = rng.uniform(-1, 1, n_flat)
    x3 = rng.uniform(-1, 1, n_flat)
    tilt = 10.0 ** rng.uniform(-4, -1, n_flat)
    f1 = x1 + 1j * tilt * rng.standard_normal(n_flat)
    f2 = x2 + 1j * tilt * rng.standard_normal(n_flat)
    f3 = x3 + 1j * tilt * rng.standard_normal(n_flat)
    z1 = np.concatenate([z1, f1])
    z2 = np.concatenate([z2, f2])
    z3 = np.concatenate([z3, f3])

    d12, d13, d23 = z1 - z2, z1 - z3, z2 - z3
    ok = (np.abs(d12) > 1e-12) & (np.abs(d13) > 1e-12) & (np.abs(d23) > 1e-12)

    def vert_angle(d):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.arccos(np.clip(np.abs(d.imag) / np.abs(d), 0.0, 1.0))

    far = vert_angle(d12) + vert_angle(d13) + vert_angle(d23) >= theta
    p0 = perm_values(K_ZERO, z1, z2, z3)
    pinf = perm_values(K_INF, z1, z2, z3)
    sel = ok & far & (pinf > p_inf_floor)
    if not np.any(sel):
        raise ValueError("no admissible far-from-vertical samples found")
    ratio = np.where(sel, p0 / pinf, np.inf)
    best = int(np.argmin(ratio))
    return C1Estimate(
        float(ratio[best]),
        (complex(z1[best]), complex(z2[best]), complex(z3[best])),
        int(np.count_nonzero(sel)),
    )
