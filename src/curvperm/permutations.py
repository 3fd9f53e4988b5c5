"""Pointwise permutations, Menger curvature, and triple integrals.

The permutation of an odd kernel over a point triple is the symmetric
three-term product sum; integrated against one measure, or against three
in a window, it is a weighted sum over admissible atom triples.
Truncations remove the diagonal: a pair is admissible when its distance
clears the cutoff, and coincident positions are always excluded.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
# scipy.sparse is imported inside _near_pairs, which only a cutoff above
# the atom spacing calls, so that importing curvperm loads numpy alone

from .kernels import K_INF, K_ZERO, KernelParam, kernel_values, v_far
from .measure import DiscreteMeasure, _distance_rows

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
    "sign_scan",
    "estimate_c1",
]

DEGENERACY_FACTOR = 1e-14


def perm_values(k: KernelParam, z1, z2, z3) -> np.ndarray:
    """Pointwise permutation over arrays of triples (broadcast like
    ``z1 - z2``); a coincident pair contributes through the kernel's 0 fill.

    The kernel is exactly odd, ``K(-z) == -K(z)``, so the six products of
    the symmetric sum are ``a b - a c + b c`` over the three legs, which
    one ``kernel_values`` call evaluates."""
    a, b, c = kernel_values(k, np.stack(np.broadcast_arrays(z1 - z2, z1 - z3, z2 - z3)))
    return a * b - a * c + b * c


def perm_pointwise(k: KernelParam, z1: complex, z2: complex, z3: complex) -> float:
    """Symmetric kernel-product sum over one triple."""
    z1, z2, z3 = complex(z1), complex(z2), complex(z3)
    if z1 == z2 or z1 == z3 or z2 == z3:
        raise ValueError("permutation needs pairwise distinct points")
    return float(perm_values(k, z1, z2, z3))


def menger_curvature(z1, z2, z3):
    """Reciprocal circumradius, 0 for (numerically) collinear triples.

    Arrays of triples broadcast like ``perm_values``; scalars give a float."""
    z1, z2, z3 = (np.asarray(z, dtype=complex) for z in (z1, z2, z3))
    a = z2 - z1
    b = z3 - z1
    c = z3 - z2
    la, lb, lc = np.abs(a), np.abs(b), np.abs(c)
    if np.any((la == 0.0) | (lb == 0.0) | (lc == 0.0)):
        raise ValueError("curvature needs pairwise distinct points")
    area2 = np.abs(a.real * b.imag - a.imag * b.real)  # twice the triangle area
    scale = np.maximum(np.maximum(la, lb), lc)
    curv = np.where(area2 <= DEGENERACY_FACTOR * scale * scale, 0.0,
                    2.0 * area2 / (la * lb * lc))
    return float(curv) if curv.ndim == 0 else curv


@dataclass(frozen=True)
class TripleIntegralResult:
    value: float
    triples_counted: int
    truncation: dict

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("triple integral overflowed")


_TINY = np.finfo(float).tiny
_SMALLEST = float(np.nextafter(0.0, 1.0))

# indices per chunk of the per-index values: the grid is fixed, so every
# worker count assembles the same array
_CHUNK = 256


def _check_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer >= ``least``: a fraction, NaN
    or a bool, which is a numbers.Integral that would pass as 0 or 1."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _parallel_map_chunks(
    fn: Callable[[int, int], np.ndarray], n: int, workers: int
) -> np.ndarray:
    """``fn(lo, hi)``, the values of the indices ``lo:hi``, over the
    ``_CHUNK``-index grid of ``range(n)``, assembled in one array."""
    out = np.empty(n, dtype=float)
    bounds = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    if workers <= 1 or len(bounds) <= 1:
        for lo, hi in bounds:
            out[lo:hi] = fn(lo, hi)
        return out
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [(lo, hi, pool.submit(fn, lo, hi)) for lo, hi in bounds]
        for lo, hi, fut in futures:
            out[lo:hi] = fut.result()
    return out


def _near_pairs(p: np.ndarray, lo: float):
    """The pairs ``i < j`` of the points ``p`` closer than ``lo``,
    coincident ones included, as the strict upper triangle of a sparse 0/1
    ``csr_array``.

    The pairs come from the blocks of the distance matrix with the
    admissibility predicate itself, so ties at the cutoff fall on the same
    side as in the dense core.  Cost O(n^2), which ``_vertex_sums`` pays
    anyway; memory O(n * _ROWS + P) for P pairs."""
    from scipy.sparse import csr_array

    counts, cols = [np.zeros(1, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for start, d in _distance_rows(p):
        # j > i: the block's diagonal starts at column start
        near = np.triu(d < lo, k=start + 1)
        counts.append(np.count_nonzero(near, axis=1))
        cols.append(np.nonzero(near)[1])
    cols = np.concatenate(cols)
    return csr_array((np.ones(cols.size), cols, np.concatenate(counts).cumsum()),
                     shape=(len(p), len(p)))


# a vertex whose leg products over every pair admissible to it, near ones
# included, exceed those over its admissible pairs by more than this factor
# sums the admissible pairs directly: A^2 - N would lose too many digits
_CANCELLATION = 16.0


def _vertex_sums(
    k: KernelParam, mu: DiscreteMeasure, lo: float, workers: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per atom x of ``mu``, ``sum K(x - a) K(x - b) w_a w_b`` over the
    legs (a, b) of ``mu x mu`` with all three pairs of (x, a, b) at
    distance >= ``lo``, and the number of such triples.

    With ``A_x = sum_a K~(x - a) w_a`` (``K~`` is the kernel zeroed on
    inadmissible pairs) the sum is ``A_x^2 - N_x``, where ``N_x`` sums the
    same products over the near leg pairs (``|a - b| < lo``): twice a
    sparse product with their strict upper triangle, plus the diagonal.
    The counts come from the same product on the 0/1 masks; each entry of
    that product is an integer below 2**24 and each later sum one below
    2**53, so they are exact.  An atom without admissible triples gets
    exactly 0.

    The difference rounds relative to the absolute products over every leg
    pair admissible to x; the same product on ``|K~ w|`` measures them.
    Where they exceed the admissible ones by more than ``_CANCELLATION``
    (heavy near pairs, light admissible ones), the atom's admissible pairs
    are summed directly, so every atom's error stays relative to its own
    admissible products.

    When ``lo`` is at most ``mu.min_spacing``, which always holds at
    eps = 0, there are no near leg pairs: ``N_x`` is the diagonal alone and
    the sparse products are skipped, so such a call loads no scipy.

    Cost: O(n^2 + n P) for P near leg pairs, plus O(n^2) per atom summed
    directly; memory O(n * _CHUNK + P).
    """
    p, w = mu.points, mu.weights
    if mu.min_spacing >= lo:
        pairs = pairs32 = None
    else:
        pairs = _near_pairs(p, lo)
        pairs32 = pairs.astype(np.float32)
    counts = np.zeros(len(p), dtype=np.int64)

    def direct(ka: np.ndarray) -> np.ndarray:
        # sum over the admissible leg pairs, in blocks of first legs
        out = np.zeros(len(ka))
        for s in range(0, len(p), _CHUNK):
            adm = np.abs(p[s : s + _CHUNK, None] - p[None, :]) >= lo
            out += (ka[:, s : s + _CHUNK] * (ka @ adm.T)).sum(axis=1)
        return out

    def chunk_values(a: int, b: int) -> np.ndarray:
        d = p[a:b, None] - p[None, :]
        ma = np.abs(d) >= lo
        ka = kernel_values(k, d) * np.where(ma, w, 0.0)
        ma = ma.astype(float)
        # twice the upper triangle, plus the diagonal, which is near
        diag = (ka * ka).sum(axis=1)
        n_adm = ma.sum(axis=1)
        if pairs is None:
            near = near_abs = diag
            cnt = n_adm ** 2 - n_adm
        else:
            m = b - a
            # the counts and the absolute products, which only decide the
            # cancellation, in single precision at half the cost; rows are
            # scaled into [0, 1] first so that none overflows
            scale = np.abs(ka).max(axis=1, initial=0.0)
            unit = np.abs(ka) / np.where(scale > 0, scale, 1.0)[:, None]
            paired = np.vstack([unit, ma]).astype(np.float32) @ pairs32
            near = 2.0 * ((ka @ pairs) * ka).sum(axis=1) + diag
            near_abs = 2.0 * (scale * (paired[:m] * np.abs(ka)).sum(axis=1)) + diag
            cnt = n_adm ** 2 - (2.0 * (paired[m:] * ma).sum(axis=1) + n_adm)
        sums = ka.sum(axis=1) ** 2 - near
        full = np.abs(ka).sum(axis=1) ** 2
        lossy = np.flatnonzero((cnt > 0) & (_CANCELLATION * (full - near_abs) < full))
        if len(lossy):
            sums[lossy] = direct(ka[lossy])
        counts[a:b] = cnt
        return np.where(cnt > 0, sums, 0.0)

    return _parallel_map_chunks(chunk_values, len(p), workers=workers), counts


def perm_measure(
    k: KernelParam, mu: DiscreteMeasure, eps: float = 0.0, workers: int = 1
) -> TripleIntegralResult:
    """Triple integral of the permutation over ``mu x mu x mu``.

    ``eps = 0`` keeps every triple of pairwise-distinct positions; for
    ``eps > 0`` each of the three pairwise distances must be >= eps.  The
    three permutation terms are equal, so one is summed at its vertex by
    ``_vertex_sums``, in O(n^2 + n P) time for P near pairs, and tripled.
    An ``eps`` at most the atom spacing ``mu.min_spacing``, eps = 0
    included, has no near pairs: the call is O(n^2) and loads no scipy;
    a larger one builds the near pairs as a ``scipy.sparse`` matrix.
    """
    if not (0 <= eps < math.inf):
        raise ValueError(f"truncation length must be >= 0 and finite, got {eps!r}")
    _check_count("workers", workers)
    rows, counts = _vertex_sums(k, mu, max(eps, _TINY), workers)
    return TripleIntegralResult(3.0 * math.fsum(mu.weights * rows), int(counts.sum()),
                                {"kind": "eps", "eps": float(eps)})


def curvature_squared(
    mu: DiscreteMeasure, eps: float = 0.0, workers: int = 1
) -> float:
    """Curvature of the measure: four times the limiting-kernel permutation."""
    return 4.0 * perm_measure(K_INF, mu, eps=eps, workers=workers).value


def _window(delta: float, q_radius: float) -> tuple[float, float]:
    """The window ``[delta * q_radius, q_radius / delta]`` of the first pair,
    its lower end raised to the smallest positive distance so that the pair
    is distinct too."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if not (0 < q_radius < math.inf):
        raise ValueError("q_radius must be positive and finite")
    return max(delta * q_radius, _SMALLEST), q_radius / delta


# rows per block of a kernel matrix and of the windowed sums: bounds the
# temporaries to _ROW_BLOCK x m values for m atoms
_ROW_BLOCK = 64


def _kernel_matrix(k: KernelParam, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """``K(a - b)`` over ``pa x pb``, _ROW_BLOCK rows at a time.  Each entry
    is evaluated on its own, so a block of the matrix equals the matrix of
    the block's points bit for bit."""
    out = np.empty((pa.size, pb.size))
    for start in range(0, pa.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        out[rows] = kernel_values(k, pa[rows, None] - pb[None, :])
    return out


class _WindowEngine:
    """Per atom x of ``mu``, the sum of ``p(x, y, z) w_y w_z`` over atoms y
    with ``|x - y|`` in the window and atoms z distinct from x and y.

    With ``C = K(x - y)`` over the atoms, which ``kmat`` may pass in, and
    ``alpha = w_y C[x, y]`` on the window, the three terms are
    ``sum_y alpha_y (sum_z w_z C[x, z] - C[x, y] w_y)``, then
    ``-sum_y alpha_y ((C w)[y] + C[x, y] w_x)`` (K is odd; this drops
    z = x), and ``-sum_y w_y (C W C)[y, x]`` on the window.

    A row whose window holds every atom but x needs no ``C W C``: as K is
    odd, ``wᵀC = -C w``, and its sum is the whole-row total
    ``(C w)² - (C∘C)(w∘w) - 2 C(w∘Cw) - 2 w∘(C∘C)w``, the discrete
    symmetrization of Melnikov and Verdera.  Set-up is ``C w`` and one pass
    over the 64-row blocks of ``C``, which gives every row's total, its
    ``|C| w`` and its largest atom share.  It also bounds in O(m) each row's
    nearest other atom from below, by the spacing ``mu.min_spacing``, and
    its farthest from above, by the circle about the bounding box.  A row
    these bounds certify whole reads its total; every other row is summed on
    its window, and the first such row forms the O(m^3) product ``C W C``.

    Only coincident terms are subtracted.  When one atom may carry more
    than ``1 - 1 / _CANCELLATION`` of a row of ``|K| w``, no row reads its
    total, and a row whose subtracted products exceed its kept ones
    ``_CANCELLATION``-fold is summed directly.  Otherwise the self term of a
    total is at most that share of the products ``|C|(w (wᵀ|C|))`` it is
    taken from: per z, it is x's share of row z of ``|K| w``.
    """

    def __init__(self, k: KernelParam, mu: DiscreteMeasure, kmat: np.ndarray | None = None):
        p, w = mu.points, mu.weights
        self.p, self.w = p, w
        c = self.c = _kernel_matrix(k, p, p) if kmat is None else kmat
        cw = self.cw = c @ w
        dabs, share = np.empty(w.size), 0.0
        self.totals = np.empty(w.size)
        on_a, on_aa = w * cw, np.column_stack([w * w, w])
        # one block buffer holds |a| w, then a∘a
        buf = np.empty((min(_ROW_BLOCK, w.size), w.size))
        for start in range(0, w.size, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            a = c[rows]
            b = np.abs(a, out=buf[:a.shape[0]])
            b *= w
            dabs[rows] = b.sum(axis=1)
            share = max(share, float((b.max(axis=1) / np.maximum(dabs[rows], _TINY)).max()))
            aa_ww, aa_w = (np.multiply(a, a, out=b) @ on_aa).T
            self.totals[rows] = cw[rows] ** 2 - aa_ww - 2.0 * (a @ on_a) - 2.0 * w[rows] * aa_w
        self.dabs = dabs if share > 1 - 1 / _CANCELLATION else None
        # a lower bound on every row's nearest other atom and, per row, an
        # upper bound on its farthest: the spacing of the measure's atoms,
        # shrunk so that |x - y| rounded by another code path stays above
        # it, and |x - o| + max |y - o| about the bounding-box centre o,
        # grown likewise
        self.near_lb = mu.min_spacing * (1 - 2e-12)
        self.far_ub = np.zeros(p.size)
        if p.size:
            re, im = p.real, p.imag
            o = complex((re.min() + re.max()) / 2, (im.min() + im.max()) / 2)
            self.far_ub = (np.abs(p - o) + np.abs(p - o).max()) * (1 + 1e-12)
        # C W C, formed on first use
        self._g_t: np.ndarray | None = None

    def point_sums(self, rows: np.ndarray, q_radius: float, delta: float) -> np.ndarray:
        """The sums of the atoms ``rows`` with the window
        ``[delta q_radius, q_radius / delta]``."""
        lo, hi = _window(delta, q_radius)
        whole = (self.dabs is None) & (self.near_lb >= lo) & (self.far_ub[rows] <= hi)
        sums = self.totals[rows]
        left = np.flatnonzero(~whole)
        for start in range(0, left.size, _ROW_BLOCK):
            i = left[start:start + _ROW_BLOCK]
            j = rows[i]
            d12 = np.abs(self.p[j, None] - self.p[None, :])
            sums[i] = self._window_sums(j, (d12 >= lo) & (d12 <= hi))
        return sums

    def _product(self) -> np.ndarray:
        """``(C W C)^T``, the one O(m^3) product: ``C W K(z - x)``, where
        ``K(z - x) = C[z, x]``."""
        wc = self.w[:, None] * self.c
        g = self.c @ wc
        del wc  # freed before the transposed copy, g after it
        return np.ascontiguousarray(g.T)

    def _window_sums(self, j: np.ndarray, win: np.ndarray) -> np.ndarray:
        """The sums of at most ``_ROW_BLOCK`` atoms ``j`` summed on their
        windows ``win``."""
        w = self.w
        if self._g_t is None:
            self._g_t = self._product()
        c_row = self.c[j]
        u = self.cw + c_row * w[j, None]
        wc = w * c_row
        alpha = np.where(win, wc, 0.0)
        # K(0) = 0, so the z = x term is zero; the z = y term is wc
        t1 = alpha.sum(axis=1) * wc.sum(axis=1) - (alpha * wc).sum(axis=1)
        t2 = -(alpha * u).sum(axis=1)
        t3 = -(np.where(win, w, 0.0) * self._g_t[j]).sum(axis=1)
        out = t1 + t2 + t3
        if self.dabs is not None:
            aa = np.abs(alpha)
            full = aa.sum(axis=1) * np.abs(wc).sum(axis=1) + aa @ self.dabs
            cut = (aa * np.abs(c_row) * (w + w[j, None])).sum(axis=1)
            for i in np.flatnonzero(_CANCELLATION * (full - cut) < full):
                out[i] = self._direct(j[i], alpha[i], wc[i]) + t3[i]
        return out

    def _direct(self, x: int, alpha: np.ndarray, wc: np.ndarray) -> float:
        """Terms 1 and 2 of row x summed triple by triple."""
        ys = np.flatnonzero(alpha)
        keep = (self.p[ys, None] != self.p) & (self.p[x] != self.p)
        terms = np.where(keep, wc - self.c[ys] * self.w, 0.0)
        return float(alpha[ys] @ terms.sum(axis=1))


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


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
    are only required to be distinct.

    Summed directly, in row chunks of ``mu1``: with ``K12 = K(x - y)``,
    ``K13 = K(x - z)``, ``K23 = K(y - z)`` and ``alpha = w_y K12`` on the
    window, each of the terms ``K12 K13 - K12 K23 + K13 K23`` is a matrix
    product over the atoms z of ``mu3``.  The coincidence z = x is masked in
    the second term and z = y in the first; K(0) = 0 removes every other
    coincident term.  No coincident term is subtracted, so no cancellation
    guard is needed.  Cost O(n1 n2 n3) time and O(n2 n3) memory, the two n2 x n3
    arrays ``K23 w3`` and ``w3`` off the coincidences; sizes whose arrays
    would not fit in physical memory are rejected before anything is
    allocated.
    """
    lo, hi = _window(delta, q_radius)
    _check_count("workers", workers)
    p1, p2, p3 = mu1.points, mu2.points, mu3.points
    w2, w3 = mu2.weights, mu3.weights
    need, have = 2 * 8 * p2.size * p3.size, _physical_memory()
    if need > have:
        raise ValueError(f"perm_truncated_window on {p2.size} x {p3.size} atoms needs about "
                         f"{need} bytes (two n2 x n3 arrays of doubles); physical memory "
                         f"is {have} bytes")
    trunc = {"kind": "window", "delta": float(delta), "q_radius": float(q_radius)}
    k23 = _kernel_matrix(kernel, p2, p3)
    k23 *= w3
    apart = np.where(p2[:, None] != p3, w3, 0.0)
    y_in3, x_in3 = np.isin(p2, p3), np.isin(p1, p3)
    counts = np.zeros(len(mu1), dtype=np.int64)

    def chunk_values(a: int, b: int) -> np.ndarray:
        d12 = np.abs(p1[a:b, None] - p2)
        win = (d12 >= lo) & (d12 <= hi)
        n_in = win.sum(axis=1)
        counts[a:b] = n_in * (p3.size - x_in3[a:b]) - (win & y_in3).sum(axis=1)
        alpha = np.where(win, w2 * _kernel_matrix(kernel, p1[a:b], p2), 0.0)
        k13 = _kernel_matrix(kernel, p1[a:b], p3)
        t1 = ((alpha @ apart) * k13).sum(axis=1)
        t2 = ((alpha @ k23) * (p1[a:b, None] != p3)).sum(axis=1)
        t3 = ((np.where(win, w2, 0.0) @ k23) * k13).sum(axis=1)
        return t1 - t2 + t3

    sums = _parallel_map_chunks(chunk_values, len(mu1), workers=workers)
    return TripleIntegralResult(
        math.fsum(mu1.weights * sums), int(counts.sum()), trunc
    )


def _nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray, maxiter: int,
                 xatol: float, fatol: float) -> tuple[np.ndarray, float]:
    """The point and value found by the non-adaptive Nelder-Mead simplex
    search from ``x0``: the steps of
    ``scipy.optimize.minimize(f, x0, method="Nelder-Mead")``, in its order,
    with the same initial simplex and stopping test, so both return the same
    bits.  Stops when every vertex lies within ``xatol`` of the best in each
    coordinate and every value within ``fatol`` of its value, or after
    ``maxiter`` iterations.

    The steps are scipy's: the initial vertices move one coordinate of
    ``x0`` by 5 %, or to 0.00025 from 0, and the reflection, expansion,
    contraction and shrink coefficients are 1, 2, 1/2 and 1/2, written out
    below as the weights of the centroid and the worst vertex."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(v) for v in sim])

    def order() -> tuple[np.ndarray, np.ndarray]:
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # sorted twice, as scipy does: an unstable sort may reorder ties again
    sim, fsim = order()
    sim, fsim = order()
    iterations = 1
    while iterations < maxiter:
        if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol:
            with np.errstate(invalid="ignore"):  # inf - inf is nan, which fails the test
                if np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                    break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # contract outside, towards the reflection
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # contract inside
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = order()
    return sim[0], np.min(fsim)


@dataclass(frozen=True)
class SignScanResult:
    min_value: float
    argmin_triple: tuple[complex, complex, complex]
    samples: int


def sign_scan(t: float, n_samples: int = 100_000, seed: int = 0) -> SignScanResult:
    """Minimum of the pointwise permutation over sampled triples.

    Random triples in the unit disc are mixed with near-collinear families
    (where sign changes concentrate), and the best candidate is polished
    with at most 400 iterations of the Nelder-Mead simplex search
    (``_nelder_mead``), which needs no scipy.
    """
    k = KernelParam(t)
    _check_count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    r, c = 1.0, 0j

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
    vals = np.where(good, perm_values(k, z1, z2, z3), np.inf)
    best = int(np.argmin(vals))
    best_val = float(vals[best])
    triple = (complex(z1[best]), complex(z2[best]), complex(z3[best]))

    def objective(v):
        a = complex(v[0], v[1])
        b = complex(v[2], v[3])
        d = complex(v[4], v[5])
        m = min(abs(a - b), abs(a - d), abs(b - d))
        if m < 1e-12 * r:
            return np.inf
        return float(perm_values(k, a, b, d))

    v0 = np.array(
        [triple[0].real, triple[0].imag, triple[1].real, triple[1].imag,
         triple[2].real, triple[2].imag]
    )
    x, fun = _nelder_mead(objective, v0, maxiter=400, xatol=1e-10, fatol=1e-14)
    if np.isfinite(fun) and fun < best_val:
        best_val = float(fun)
        triple = (complex(x[0], x[1]), complex(x[2], x[3]), complex(x[4], x[5]))
    return SignScanResult(best_val, triple, n_samples)


# samples whose limiting-kernel permutation is at most this are left out of
# the ratio p_0 / p_inf
_P_INF_FLOOR = 1e-9


@dataclass(frozen=True)
class C1Estimate:
    value: float
    witness: tuple[complex, complex, complex]
    admissible: int


def estimate_c1(
    theta: float, n_samples: int = 20_000, seed: int = 0
) -> C1Estimate:
    """Empirical infimum of p_0 / p_inf over sampled far-from-vertical
    triples.  A scan can only certify an upper bound on the true constant;
    the reported value is that upper bound."""
    if not (theta > 0):
        raise ValueError("theta must be positive")
    _check_count("n_samples", n_samples)
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

    ok = (np.abs(z1 - z2) > 1e-12) & (np.abs(z1 - z3) > 1e-12) & (np.abs(z2 - z3) > 1e-12)
    far = v_far(z1, z2, z3, theta)
    p0 = perm_values(K_ZERO, z1, z2, z3)
    pinf = perm_values(K_INF, z1, z2, z3)
    sel = ok & far & (pinf > _P_INF_FLOOR)
    if not np.any(sel):
        raise ValueError("no admissible far-from-vertical samples found")
    ratio = np.divide(p0, pinf, out=np.full_like(p0, np.inf), where=sel)
    best = int(np.argmin(ratio))
    return C1Estimate(
        float(ratio[best]),
        (complex(z1[best]), complex(z2[best]), complex(z3[best])),
        int(np.count_nonzero(sel)),
    )
