"""Totals and per-index values that do not depend on how the work is split.

A library total is the correctly rounded sum of its terms (``math.fsum``),
so the order of the terms and the worker count cannot change it.  The
cases below are ones where rounding 256-term chunks first and then their
totals gives a different double.
"""

from fractions import Fraction

import numpy as np

from curvperm.corona import Params, _flat_engine, _TreeBuilder
from curvperm.kernels import kt
from curvperm.lattice import build
from curvperm.measure import generate
from curvperm.permutations import _parallel_map_chunks, _WindowEngine, perm_truncated_window


def exact_sum(terms: np.ndarray) -> float:
    """The sum of the doubles ``terms``, rounded once."""
    return float(sum(map(Fraction, terms.tolist()), Fraction(0)))


class TestCorrectlyRoundedTotals:
    def test_window_total(self):
        mu1 = generate("perturbed", base="circle", n=600, amplitude=1e-3, seed=8)
        mu2, mu3 = generate("cantor4", level=2), generate("lipschitz_graph", n=40)
        k, delta, r = kt(-0.5), 0.2, 0.5
        sums = _WindowEngine(k, mu1.points, mu2, mu3).point_sums(np.arange(len(mu1)), r, delta)
        for workers in (1, 2):
            res = perm_truncated_window(mu1, mu2, mu3, delta, r, kernel=k, workers=workers)
            assert res.value == exact_sum(mu1.weights * sums)

    def test_corona_perm_sq_numerator(self):
        mu = generate("lipschitz_graph", n=600, slope=0.2, teeth=2)
        par = Params()
        lat = build(mu, c0=par.c0, a0=par.a0, separation=par.separation,
                    doubling_constant=par.doubling_constant)
        builder = _TreeBuilder(lat, mu, lat.root.id, par)
        tree = builder.build(lambda sub: _flat_engine(mu, sub))
        slot1, sums = builder.sums[lat.root.id]
        assert slot1.size > 256
        numerator = max(exact_sum(mu.weights[slot1] * sums), 0.0)
        denom = builder.theta_density**2 * lat.mass(lat.root.id)
        assert tree.perm_sq[lat.root.id] == numerator / denom


class TestParallelChunks:
    def test_worker_invariance_bit_for_bit(self):
        def fn(lo, hi):
            idx = np.arange(lo, hi, dtype=float)
            return np.sin(idx) / (idx + 1.0)

        base = _parallel_map_chunks(fn, 5000, workers=1)
        for w in (2, 3, 8):
            got = _parallel_map_chunks(fn, 5000, workers=w)
            assert np.array_equal(got, base)

    def test_covers_every_index(self):
        def fn(lo, hi):
            return np.arange(lo, hi, dtype=float)

        out = _parallel_map_chunks(fn, 1003, workers=4)
        assert np.array_equal(out, np.arange(1003, dtype=float))
