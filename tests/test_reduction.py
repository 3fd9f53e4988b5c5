import math

import numpy as np
import pytest

from curvperm.reduction import (
    deterministic_sum,
    parallel_map_chunks,
)


class TestSums:
    def test_empty(self):
        assert deterministic_sum([]) == 0.0

    def test_exactness_on_adversarial_input(self):
        # large cancellations that defeat plain accumulation
        vals = np.array([1e16, 1.0, -1e16, 1.0] * 500)
        assert deterministic_sum(vals) == 1000.0
        assert float(vals.sum()) != 1000.0  # plain reduction loses the ones

    def test_compensated_sum_beats_plain_accumulation(self):
        # classic pattern: a big head followed by many tiny increments
        vals = np.concatenate([[1.0], np.full(1_000_000, 1e-16)])
        plain = 0.0
        for v in vals:
            plain += float(v)
        assert plain == 1.0  # every increment lost
        assert deterministic_sum(vals) == pytest.approx(1.0 + 1e-10, abs=1e-16)

    def test_fixed_chunking_is_reproducible(self):
        # chunk totals are rounded doubles, so different chunk sizes may
        # differ in the last ulp; a fixed chunk size is bit-stable
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(10_000) * 10.0 ** rng.integers(-8, 8, 10_000)
        ref = math.fsum(vals)
        for chunk in (7, 64, 256, 4096):
            a = deterministic_sum(vals, chunk=chunk)
            assert a == deterministic_sum(vals, chunk=chunk)
            assert a == pytest.approx(ref, rel=1e-15)

    def test_matches_fsum(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(5000)
        assert deterministic_sum(vals) == math.fsum(vals)


class TestParallelChunks:
    def test_worker_invariance_bit_for_bit(self):
        def fn(lo, hi):
            idx = np.arange(lo, hi, dtype=float)
            return np.sin(idx) / (idx + 1.0)

        base = parallel_map_chunks(fn, 5000, workers=1)
        for w in (2, 3, 8):
            got = parallel_map_chunks(fn, 5000, workers=w)
            assert np.array_equal(got, base)

    def test_covers_every_index(self):
        def fn(lo, hi):
            return np.arange(lo, hi, dtype=float)

        out = parallel_map_chunks(fn, 1003, workers=4, chunk=17)
        assert np.array_equal(out, np.arange(1003, dtype=float))
