"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: plain loops, textbook formulas, and
dense scans.  The per-term kernel arithmetic mirrors the library's scalar
formula step for step so that order-matched summations can be compared
bit for bit; the looping, truncation, and minimization logic is written
from scratch.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def kernel_t(t, z: complex) -> float:
    """t is a float or None for the reciprocal-modulus kernel."""
    x = z.real
    r2 = x * x + z.imag * z.imag
    if t is None:
        return x / r2
    return (x * x * x) / (r2 * r2) + t * (x / r2)


def perm_term(t, a: complex, b: complex, c: complex) -> float:
    return (
        kernel_t(t, a - b) * kernel_t(t, a - c)
        + kernel_t(t, b - a) * kernel_t(t, b - c)
        + kernel_t(t, c - a) * kernel_t(t, c - b)
    )


def circumradius(a: complex, b: complex, c: complex) -> float:
    la, lb, lc = abs(b - c), abs(a - c), abs(a - b)
    s = (la + lb + lc) / 2
    area = math.sqrt(max(s * (s - la) * (s - lb) * (s - lc), 0.0))
    if area == 0.0:
        return math.inf
    return la * lb * lc / (4 * area)


def naive_perm_triple(t, points, weights, eps: float = 0.0) -> float:
    """Plain lexicographic triple loop with sequential accumulation."""
    n = len(points)
    total = 0.0
    lo = max(eps, np.finfo(float).tiny)
    for i in range(n):
        for j in range(n):
            if abs(points[i] - points[j]) < lo:
                continue
            for l in range(n):
                if abs(points[i] - points[l]) < lo or abs(points[j] - points[l]) < lo:
                    continue
                term = perm_term(t, points[i], points[j], points[l])
                total = total + weights[i] * weights[j] * weights[l] * term
    return total


def exact_perm_triple(t, points, weights, eps=0):
    """Triple sum of the permutation over one measure in exact rationals.

    ``t`` is a rational parameter or None for the reciprocal-modulus
    kernel; points, weights and ``eps`` are converted exactly.  A triple
    counts when its three pairwise distances are >= eps and nonzero.
    Returns the sum, its total variation (the three products summed in
    absolute value) and the number of triples.
    """
    xy = [(Fraction(z.real), Fraction(z.imag)) for z in map(complex, points)]
    w = [Fraction(float(v)) for v in weights]
    t = None if t is None else Fraction(t)
    eps2 = Fraction(eps) ** 2
    n = len(xy)
    kern = [[None] * n for _ in range(n)]  # None marks an inadmissible pair
    for i, (xi, yi) in enumerate(xy):
        for j, (xj, yj) in enumerate(xy):
            dx, dy = xi - xj, yi - yj
            r2 = dx * dx + dy * dy
            if r2 == 0 or r2 < eps2:
                continue
            kern[i][j] = dx / r2 if t is None else dx**3 / r2**2 + t * dx / r2
    value = total = Fraction(0)
    count = 0
    for i in range(n):
        for j in range(n):
            if kern[i][j] is None:
                continue
            for l in range(n):
                if kern[i][l] is None or kern[j][l] is None:
                    continue
                terms = (kern[i][j] * kern[i][l], kern[j][i] * kern[j][l],
                         kern[l][i] * kern[l][j])
                wt = w[i] * w[j] * w[l]
                value += wt * sum(terms)
                total += wt * sum(abs(a) for a in terms)
                count += 1
    return value, total, count


def naive_perm_window(t, pts1, w1, pts2, w2, pts3, w3, delta, q_radius) -> float:
    """Triple loop with the first pair windowed, other pairs distinct."""
    lo, hi = delta * q_radius, q_radius / delta
    total = 0.0
    for i in range(len(pts1)):
        for j in range(len(pts2)):
            d = abs(pts1[i] - pts2[j])
            if d < lo or d > hi:
                continue
            for l in range(len(pts3)):
                if pts3[l] == pts1[i] or pts3[l] == pts2[j]:
                    continue
                total += (
                    w1[i] * w2[j] * w3[l]
                    * perm_term(t, pts1[i], pts2[j], pts3[l])
                )
    return total


def naive_t1_norm(t, points, weights, eps: float) -> float:
    acc = 0.0
    for i in range(len(points)):
        v = 0.0
        for j in range(len(points)):
            dz = points[i] - points[j]
            if abs(dz) >= eps:
                v += kernel_t(t, dz) * weights[j]
        acc += v * v * weights[i]
    return math.sqrt(acc)


def growth_constant_scan(points, weights, scale, n_radii: int = 4000) -> float:
    """Dense radius sweep of open-ball mass over radius, atom centers."""
    pts = np.asarray(points)
    w = np.asarray(weights)
    dmax = float(np.max(np.abs(pts[:, None] - pts[None, :]))) if len(pts) > 1 else scale
    radii = np.geomspace(scale, max(dmax * 1.5, scale * 2), n_radii)
    best = 0.0
    for z in pts:
        d = np.abs(pts - z)
        for r in radii:
            best = max(best, float(w[d < r].sum()) / r)
    return best


def best_line_scan(points, weights, radius, n_angles: int = 20000) -> float:
    """Least weighted squared distance over lines through the weighted
    centroid, by dense angle scan; returns the squared beta value."""
    pts = np.asarray(points)
    w = np.asarray(weights)
    cx = float((w * pts.real).sum() / w.sum())
    cy = float((w * pts.imag).sum() / w.sum())
    dx = pts.real - cx
    dy = pts.imag - cy
    best = math.inf
    for phi in np.linspace(0, math.pi, n_angles, endpoint=False):
        nx, ny = -math.sin(phi), math.cos(phi)
        dist2 = (nx * dx + ny * dy) ** 2
        best = min(best, float((w * dist2).sum()))
    return best / radius**3


def golden_section_line(points, weights, radius, tol: float = 1e-14) -> float:
    """Golden-section refinement of the best line angle (nested from a
    coarse grid); returns the squared beta value."""
    pts = np.asarray(points)
    w = np.asarray(weights)
    cx = float((w * pts.real).sum() / w.sum())
    cy = float((w * pts.imag).sum() / w.sum())
    dx = pts.real - cx
    dy = pts.imag - cy

    def cost(phi):
        nx, ny = -math.sin(phi), math.cos(phi)
        return float((w * (nx * dx + ny * dy) ** 2).sum())

    grid = np.linspace(0, math.pi, 181, endpoint=False)
    vals = [cost(p) for p in grid]
    k = int(np.argmin(vals))
    step = math.pi / 181
    a = grid[k] - step  # the cost is pi-periodic, so the bracket may wrap
    b = grid[k] + step
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while abs(b - a) > tol:
        if cost(c) < cost(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return cost((a + b) / 2) / radius**3


def greedy_net_1d(coords, sep):
    """Independent farthest-point net on sorted 1-d coordinates."""
    order = np.argsort(coords, kind="stable")
    xs = np.asarray(coords)[order]
    chosen = [0]
    dist = np.abs(xs - xs[0])
    while True:
        far = int(np.argmax(dist))
        if dist[far] < sep:
            break
        chosen.append(far)
        dist = np.minimum(dist, np.abs(xs - xs[far]))
    return len(chosen)


def finite_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)
