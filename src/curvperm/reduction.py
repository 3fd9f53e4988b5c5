"""Deterministic compensated reduction for long floating-point sums.

Triple integrals and operator norms are sums of up to ~1e9 terms whose
value must not depend on how the work was split across workers.  The
contract here: values are produced per outer index, grouped into chunks
of a fixed size, each chunk is summed with exact compensated summation,
and the chunk totals are combined in chunk order.  Worker count affects
only who computes a chunk, never the reduction order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

DEFAULT_CHUNK = 256


def deterministic_sum(values, chunk: int = DEFAULT_CHUNK) -> float:
    """Fixed-chunk compensated sum, independent of any parallel split.

    Each chunk is reduced with exact (Shewchuk) summation, then the chunk
    totals are reduced the same way in chunk order.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        return 0.0
    partials = [math.fsum(arr[i : i + chunk]) for i in range(0, arr.size, chunk)]
    return math.fsum(partials)


def parallel_map_chunks(
    fn: Callable[[int, int], np.ndarray],
    n: int,
    workers: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """Evaluate ``fn(lo, hi)`` over fixed chunks of ``range(n)``.

    ``fn`` must return the per-index values for the slice ``lo:hi``.  The
    chunk grid is fixed by ``chunk`` alone, so the assembled array is
    identical for every worker count.
    """
    out = np.empty(n, dtype=float)
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if workers <= 1 or len(bounds) <= 1:
        for lo, hi in bounds:
            out[lo:hi] = fn(lo, hi)
        return out
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [(lo, hi, pool.submit(fn, lo, hi)) for lo, hi in bounds]
        for lo, hi, fut in futures:
            out[lo:hi] = fut.result()
    return out
