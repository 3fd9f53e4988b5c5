import copy
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvperm import kernels, permutations
from curvperm.corona import Params, _TreeBuilder
from curvperm.experiments import _perm_reference, corpus
from curvperm.kernels import K_INF, K_ZERO, KernelParam, kernel_values, kt
from curvperm.lattice import build
from curvperm.measure import DiscreteMeasure, generate
from curvperm.permutations import (
    _near_pairs,
    _nelder_mead,
    _parallel_map_chunks,
    _WindowEngine,
    curvature_squared,
    estimate_c1,
    menger_curvature,
    perm_measure,
    perm_pointwise,
    perm_truncated_window,
    perm_values,
    sign_scan,
)
from oracles import (
    circumradius,
    exact_perm_triple,
    kernel_t,
    naive_perm_triple,
    naive_perm_window,
    near_pairs_two_trees,
    perm_term,
    row_sums,
    sign_scan_scipy,
)


def _term_magnitude(t, a, b, c):
    return (
        abs(kernel_t(t, a - b) * kernel_t(t, a - c))
        + abs(kernel_t(t, b - a) * kernel_t(t, b - c))
        + abs(kernel_t(t, c - a) * kernel_t(t, c - b))
    )


class TestPointwise:
    def test_anchor_k_inf(self):
        # circumradius oracle: R = sqrt(2)/2, p = c^2/4
        r = circumradius(0j, 1 + 0j, 1j)
        assert perm_pointwise(K_INF, 0, 1, 1j) == pytest.approx(
            (1 / r) ** 2 / 4, abs=1e-14
        )
        assert perm_pointwise(K_INF, 0, 1, 1j) == pytest.approx(0.5, abs=1e-15)

    def test_anchor_k_zero(self):
        # term-by-term hand evaluation gives 1/4
        assert perm_pointwise(K_ZERO, 0, 1, 1j) == pytest.approx(0.25, abs=1e-15)

    def test_collinear_real_axis(self):
        for t in (None, 0.0, -1.0, 2.0):
            k = K_INF if t is None else kt(t)
            assert perm_pointwise(k, 0, 1, 2) == pytest.approx(0.0, abs=1e-15)

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            perm_pointwise(K_ZERO, 1j, 1j, 0)

    # a numpy float32 t is stored as a Python float, so the scalar path
    # does not round in single precision
    @pytest.mark.parametrize("k", [K_INF, K_ZERO, kt(-0.75), kt(-0.5), kt(1.5),
                                   KernelParam(np.float32(-0.3))], ids=str)
    def test_scalar_path_has_the_bits_of_perm_values(self, k):
        rng = np.random.default_rng(29)
        z = rng.uniform(-1, 1, (3, 2000)) + 1j * rng.uniform(-1, 1, (3, 2000))
        # some near-collinear triples, where the three terms cancel
        z[2, :500] = z[0, :500] + 0.4 * (z[1, :500] - z[0, :500]) + 1e-7j
        for i in range(z.shape[1]):
            got = perm_pointwise(k, *z[:, i])
            assert isinstance(got, float)
            assert got.hex() == float(perm_values(k, *z[:, i])).hex()

    @pytest.mark.parametrize("k", [K_INF, K_ZERO, kt(-0.5)], ids=str)
    def test_scalar_path_at_the_ends_of_the_normal_range(self, k, monkeypatch):
        # r2 of each leg against [2^-511, 2^512): outside it the array path
        # rescales, so each such leg is one kernel_values call
        lo, hi = 2.0**-256, 2.0**256
        legs = {
            complex(lo, lo): True,  # r2 = 2^-511
            complex(lo, 0.0): False,  # r2 = 2^-512
            complex(np.nextafter(lo, 0.0), lo): False,
            complex(np.nextafter(hi, 0.0), 0.0): True,
            complex(hi, 0.0): False,  # r2 = 2^512
            complex(1e-160, 0.0): False,
            complex(1e-160, -1e-160): False,
            complex(1e160, 0.0): False,
            complex(-1e160, 1e160): False,
        }
        calls = []
        vectorized = kernels.kernel_values
        monkeypatch.setattr(kernels, "kernel_values",
                            lambda *a: calls.append(1) or vectorized(*a))
        for dz, normal in legs.items():
            calls.clear()
            assert kernels._kernel_scalar(k, dz).hex() == float(vectorized(k, dz)).hex()
            assert len(calls) == (not normal)
            # a triple with this leg and two legs of the same size
            for z3 in (dz * (0.5 + 0.5j), dz * (0.3 - 0.9j)):
                with np.errstate(all="ignore"):  # products beyond the double range
                    want = float(perm_values(k, 0j, dz, z3))
                assert perm_pointwise(k, 0j, dz, z3).hex() == want.hex()

    def test_full_symmetry(self):
        # reassociation noise scales with the term magnitudes, not the
        # (possibly cancelled) value
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(300):
            z = rng.uniform(-1, 1, 6)
            a, b, c = complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5])
            base = perm_pointwise(K_ZERO, a, b, c)
            scale = max(abs(base), _term_magnitude(0.0, a, b, c))
            for order in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
                v = perm_pointwise(K_ZERO, *order)
                worst = max(worst, abs(v - base) / scale)
        assert worst <= 1e-13

    def test_curvature_identity_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            z = rng.uniform(-2, 2, 6)
            a, b, c = complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5])
            curv = menger_curvature(a, b, c)
            if curv < 1e-3:
                continue
            assert perm_pointwise(K_INF, a, b, c) == pytest.approx(
                curv**2 / 4, rel=1e-10
            )

    def test_p0_le_2pinf_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            z = rng.uniform(-2, 2, 6)
            a, b, c = complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5])
            if min(abs(a - b), abs(a - c), abs(b - c)) < 1e-9:
                continue
            p0 = perm_pointwise(K_ZERO, a, b, c)
            pinf = perm_pointwise(K_INF, a, b, c)
            assert p0 <= 2 * pinf + 1e-12 * max(1.0, abs(pinf))


class TestMenger:
    def test_collinear(self):
        assert menger_curvature(0, 0.5, 1) == 0.0

    def test_unit_circle(self):
        z = [np.exp(1j * a) for a in (0.1, 2.0, 4.0)]
        assert menger_curvature(*z) == pytest.approx(1.0, rel=1e-12)

    def test_anchor(self):
        assert menger_curvature(0, 1, 1j) == pytest.approx(np.sqrt(2), rel=1e-14)

    def test_against_circumradius_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            z = rng.uniform(-3, 3, 6)
            a, b, c = complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5])
            r = circumradius(a, b, c)
            if not math.isfinite(r) or r > 1e6:
                continue
            assert menger_curvature(a, b, c) == pytest.approx(1 / r, rel=1e-6)

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            menger_curvature(0, 0, 1)

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(6)
        z1, z2, z3 = (rng.uniform(-2, 2, 200) + 1j * rng.uniform(-2, 2, 200)
                      for _ in range(3))
        # collinear and nearly collinear triples take the degenerate branch
        along = np.linspace(0.3, 2.0, 60) + np.where(np.arange(60) < 30, 0.0, 1e-15j)
        z3[:60] = z1[:60] + along * (z2[:60] - z1[:60])
        got = menger_curvature(z1, z2, z3)
        assert got.shape == (200,) and np.all(got[:60] == 0.0) and np.all(got[60:] > 0)
        for i in range(200):
            scalar = menger_curvature(complex(z1[i]), complex(z2[i]), complex(z3[i]))
            assert type(scalar) is float and got[i] == scalar
        # one point against many broadcasts like perm_values
        assert np.array_equal(menger_curvature(0j, z2, z3),
                              [menger_curvature(0j, b, c) for b, c in zip(z2, z3)])
        with pytest.raises(ValueError):
            menger_curvature(z1, z2, np.where(np.arange(200) == 7, z1, z3))


class TestPermMeasure:
    def test_line_supported_zero(self):
        mu = generate("segment", n=12)
        res = perm_measure(K_INF, mu)
        assert abs(res.value) < 1e-14
        assert res.triples_counted == 12 * 11 * 10

    def test_two_atoms_empty(self):
        mu = DiscreteMeasure([0, 1 + 0j], [1, 1], 0.5)
        res = perm_measure(K_INF, mu)
        assert res.value == 0.0 and res.triples_counted == 0

    def test_cantor_positive_vs_bruteforce(self):
        mu = generate("cantor4", level=2)
        res = perm_measure(K_INF, mu)
        ref = naive_perm_triple(None, list(mu.points), list(mu.weights))
        assert res.value > 0
        assert res.value == pytest.approx(ref, rel=1e-12)

    def test_fast_matches_ordered(self):
        mu = generate("perturbed", base="segment", n=25, amplitude=5e-3, seed=4)
        for t in (None, 0.0, -0.8):
            k = K_INF if t is None else kt(t)
            fast = perm_measure(k, mu).value
            slow = naive_perm_triple(t, [complex(z) for z in mu.points],
                                     [float(w) for w in mu.weights])
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_worker_count_invariance(self):
        mu = generate("cantor4", level=2)
        base = perm_measure(K_ZERO, mu, workers=1).value
        for w in (2, 3, 7):
            assert perm_measure(K_ZERO, mu, workers=w).value == base

    @pytest.mark.parametrize("workers", [0, -1, 1.0, 2.5, "2", None, True, math.nan])
    def test_bad_worker_count_rejected(self, workers):
        mu = generate("cantor4", level=1)
        with pytest.raises(ValueError, match="workers"):
            perm_measure(K_INF, mu, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            perm_truncated_window(mu, mu, mu, 0.25, 0.5, workers=workers)

    def test_numpy_integer_worker_count(self):
        mu = generate("cantor4", level=2)
        assert (perm_measure(K_INF, mu, workers=np.int64(2)).value
                == perm_measure(K_INF, mu).value)

    @pytest.mark.parametrize("eps_frac", [0.0, 0.05, 0.4])
    def test_worker_invariance_across_chunks(self, eps_frac):
        # 640 atoms span three 256-row chunks; at 0.4 diam the vertices near
        # the graph's ends sum their admissible leg pairs directly
        mu = generate("perturbed", base="lipschitz_graph", n=640, amplitude=1e-4, seed=5)
        eps = eps_frac * mu.diameter
        base = perm_measure(K_ZERO, mu, eps=eps, workers=1)
        for w in (2, 4):
            res = perm_measure(K_ZERO, mu, eps=eps, workers=w)
            assert res.value == base.value
            assert res.triples_counted == base.triples_counted

    def test_truncation_monotonicity(self):
        mu = generate("cantor4", level=2)
        eps = [0.0, 0.05, 0.2, 0.5, 1.0]
        counts = [perm_measure(K_INF, mu, eps=e).triples_counted for e in eps]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_eps_boundary_is_closed(self):
        # pairs at exactly the cutoff distance are kept
        mu = DiscreteMeasure([0, 1 + 0j, 2 + 0j], [1.0] * 3, 0.5)
        assert perm_measure(K_INF, mu, eps=1.0).triples_counted == 6
        assert perm_measure(K_INF, mu, eps=1.0000001).triples_counted == 0
        # the distance-2 pair alone cannot form a triple
        assert perm_measure(K_INF, mu, eps=2.0).triples_counted == 0

    def test_nan_eps_rejected(self):
        mu = generate("cantor4", level=1)
        with pytest.raises(ValueError):
            perm_measure(K_INF, mu, eps=math.nan)

    def test_infinite_eps_rejected(self):
        # an infinite cutoff admits no triple, but would collect every pair
        # as a near pair first
        mu = generate("cantor4", level=1)
        with pytest.raises(ValueError, match="^eps must be a finite number >= 0, got inf$"):
            perm_measure(K_INF, mu, eps=math.inf)

    def test_eps_truncation_against_naive(self):
        mu = generate("cantor4", level=2)
        for e in (0.1, 0.3):
            got = perm_measure(K_INF, mu, eps=e).value
            ref = naive_perm_triple(None, list(mu.points), list(mu.weights), eps=e)
            assert got == pytest.approx(ref, rel=1e-11)

    def test_curvature_of_measure(self):
        mu = generate("cantor4", level=2)
        assert curvature_squared(mu) == pytest.approx(
            4 * perm_measure(K_INF, mu).value
        )


# a 5 x 4 grid of spacing 1/4 with dyadic weights: many distances tie with
# the cutoffs 1/4 and 1/2
_GRID = DiscreteMeasure(
    [complex(i, j) / 4 for i in range(5) for j in range(4)],
    [(1 + (i + 2 * j) % 3) / 8 for i in range(5) for j in range(4)],
    0.25,
)
# cantor4 atoms and weights are dyadic; 3/16 and 3/4 are distances of level 2
_EXACT_CASES = [
    ("cantor1", generate("cantor4", level=1), 0.0),
    ("cantor1", generate("cantor4", level=1), 0.75),
    ("cantor2", generate("cantor4", level=2), 0.0),
    ("cantor2", generate("cantor4", level=2), 0.1875),
    ("cantor2", generate("cantor4", level=2), 0.75),
    ("grid", _GRID, 0.25),
    ("grid", _GRID, 0.5),
]


class TestExactOracle:
    @pytest.mark.parametrize("t", [None, 0, Fraction(-1, 2)])
    @pytest.mark.parametrize(
        "mu, eps", [c[1:] for c in _EXACT_CASES], ids=[f"{c[0]}-{c[2]}" for c in _EXACT_CASES]
    )
    def test_forward_error(self, mu, eps, t):
        exact, total, count = exact_perm_triple(t, mu.points, mu.weights, eps)
        res = perm_measure(K_INF if t is None else kt(float(t)), mu, eps=eps)
        assert res.triples_counted == count
        assert abs(Fraction(res.value) - exact) <= Fraction(1e-13) * total

    @pytest.mark.parametrize("t", [None, 0, Fraction(-1, 2)])
    @pytest.mark.parametrize(
        "mu, eps", [c[1:] for c in _EXACT_CASES], ids=[f"{c[0]}-{c[2]}" for c in _EXACT_CASES]
    )
    def test_dense_reference_forward_error(self, mu, eps, t):
        # the reference criterion 7 checks the fast cores against
        exact, total, _ = exact_perm_triple(t, mu.points, mu.weights, eps)
        ref = _perm_reference(K_INF if t is None else kt(float(t)), mu, eps=eps)
        assert abs(Fraction(ref) - exact) <= Fraction(1e-13) * total


def _total_variation(k, mus, lo, window=(0.0, math.inf)):
    """Sum over the admissible triples of the three permutation products in
    absolute value; the pair (1, 2) must also lie in the closed window."""
    (p1, w1), (p2, w2), (p3, w3) = ((m.points, m.weights) for m in mus)
    d12 = p1[:, None, None] - p2[None, :, None]
    d13 = p1[:, None, None] - p3[None, None, :]
    d23 = p2[None, :, None] - p3[None, None, :]
    k12, k13, k23 = (np.abs(kernel_values(k, d)) for d in (d12, d13, d23))
    adm = (np.abs(d12) >= lo) & (np.abs(d13) >= lo) & (np.abs(d23) >= lo)
    adm &= (np.abs(d12) >= window[0]) & (np.abs(d12) <= window[1])
    w = w1[:, None, None] * w2[None, :, None] * w3[None, None, :]
    return float((adm * w * (k12 * k13 + k12 * k23 + k13 * k23)).sum())


@st.composite
def _shared_measures(draw):
    """Three measures on one dyadic grid that share atoms, and a cutoff
    drawn from the pairwise distances of their atoms (0 included), so ties
    occur.  Weights span eight decades, so heavy near leg pairs can outweigh
    light admissible ones."""
    n = draw(st.integers(4, 9))
    cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=n, max_size=n, unique=True))
    pts = np.array([complex(x, y) / 4 for x, y in cells])
    mus = []
    for _ in range(3):
        idx = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=n, unique=True))
        w = draw(st.lists(st.tuples(st.floats(0.1, 2.0), st.sampled_from([1.0, 1e-4, 1e-8])),
                          min_size=len(idx), max_size=len(idx)))
        mus.append(DiscreteMeasure(pts[idx], [a * b for a, b in w], 0.25))
    # the lower half of the distances: larger cutoffs mostly leave no triple
    dists = sorted(set(np.abs(pts[:, None] - pts[None, :]).ravel()))
    eps = draw(st.sampled_from(dists[: len(dists) // 2 + 1]))
    return mus, float(eps)


class TestFactorizedCore:
    @pytest.mark.parametrize("inside", [False, True])
    def test_pair_at_the_cutoff(self, inside):
        # a pair exactly at the cutoff is admissible, one ulp closer it is near
        mu = generate("perturbed", base="circle", n=24, amplitude=1e-3, seed=3)
        d = float(np.abs(mu.points[0] - mu.points[1]))
        eps = float(np.nextafter(d, np.inf)) if inside else d
        _, counts = row_sums(K_ZERO, mu.points, mu, mu, ((eps, math.inf),) * 3)
        assert perm_measure(K_ZERO, mu, eps=eps).triples_counted == int(counts.sum())

    def test_empty_slot(self):
        empty = DiscreteMeasure([], [], 0.1)
        for eps in (0.0, 0.5):
            res = perm_measure(K_ZERO, empty, eps=eps)
            assert res.value == 0.0 and res.triples_counted == 0

    def test_vertex_without_triples_is_zero(self):
        # two clusters 10 apart at eps 1: every leg pair admissible to a
        # vertex lies in the other cluster and is near, so A^2 and N agree
        # in exact arithmetic but round apart, and no triple is admissible
        far = [10 + 0j, 10.1 + 0.03j, 10.05 - 0.07j]
        near = [0j, 0.1j, 0.07 + 0.02j, 0.03 + 0.01j, -0.02 + 0.05j]
        w = [0.11, 0.23, 0.37, 0.41, 0.53, 0.67, 0.3, 0.7]
        mu = DiscreteMeasure(far + near, w, 0.01)
        for k in (K_INF, K_ZERO, kt(-0.5)):
            res = perm_measure(k, mu, eps=1.0)
            assert res.value == 0.0 and res.triples_counted == 0

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(_shared_measures(), st.sampled_from([None, 0.0, -0.5, 1.5]))
    def test_matches_dense_core(self, case, t):
        (mu, *_), eps = case
        k = K_INF if t is None else kt(t)
        lo = max(eps, np.finfo(float).tiny)
        sums, counts = row_sums(k, mu.points, mu, mu, ((lo, math.inf),) * 3)
        res = perm_measure(k, mu, eps=eps)
        assert res.triples_counted == int(counts.sum())
        dense = math.fsum(mu.weights * sums)
        assert abs(res.value - dense) <= 1e-12 * _total_variation(k, (mu,) * 3, lo)

    @pytest.mark.parametrize("light", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("k", [K_INF, K_ZERO, kt(-0.5)], ids=["inf", "0", "-0.5"])
    @pytest.mark.parametrize("in_order", [True, False])
    def test_light_atoms_beside_a_heavy_cluster(self, light, k, in_order):
        # ten heavy atoms closer together than eps and thirty light ones on a
        # circle: at a light vertex the near heavy leg pairs outweigh the
        # admissible ones by about 1 / light, so A^2 - N cancels that much.
        # Out of order, the directly summed light vertices interleave the
        # heavy ones
        rng = np.random.default_rng(0)
        heavy = 0.02 * (rng.random(10) + 1j * rng.random(10))
        ring = np.exp(2j * np.pi * (np.arange(30) + 0.5) / 30)
        w = np.concatenate([np.ones(10), light * (1 + rng.random(30))])
        order = np.arange(40) if in_order else rng.permutation(40)
        mu = DiscreteMeasure(np.concatenate([heavy, ring])[order], w[order], 1e-4)
        eps = 0.1
        sums, counts = row_sums(k, mu.points, mu, mu, ((eps, math.inf),) * 3)
        res = perm_measure(k, mu, eps=eps)
        assert res.triples_counted == int(counts.sum())
        dense = math.fsum(mu.weights * sums)
        assert abs(res.value - dense) <= 1e-12 * _total_variation(k, (mu,) * 3, eps)


def _same_csr(got, ref):
    return (got.dtype == ref.dtype and got.shape == ref.shape
            and np.array_equal(got.indptr, ref.indptr)
            and np.array_equal(got.indices, ref.indices)
            and np.array_equal(got.data, ref.data))


def _triple_dense_measures(seed):
    """The graph and the Cantor dust of the ``triple-dense`` benchmark."""
    slope = float(np.random.default_rng(seed).uniform(0.15, 0.3))
    return (generate("lipschitz_graph", n=512, slope=slope, teeth=2),
            generate("cantor4", level=4))


class TestNearPairs:
    """The pairs read from the distance-matrix blocks give the same matrix
    as the strict upper triangle of a KD-tree queried against itself."""

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(_shared_measures())
    def test_grid_ties(self, case):
        mus, eps = case
        for mu in mus:
            lo = max(eps, _TINY)
            assert _same_csr(_near_pairs(mu.points, lo), near_pairs_two_trees(mu.points, lo))

    @pytest.mark.parametrize("seed", [1, 5])
    def test_triple_dense_inputs(self, seed):
        for mu in _triple_dense_measures(seed):
            p, n = mu.points, len(mu)
            # an exact pair distance, which the pair itself does not clear,
            # one below the spacing and one above the diameter
            cuts = (_TINY, 0.01 * mu.diameter, 0.05 * mu.diameter,
                    float(np.abs(p[0] - p[n // 8])), 0.5 * mu.min_spacing,
                    2.0 * mu.diameter)
            for lo in cuts:
                got = _near_pairs(p, lo)
                assert _same_csr(got, near_pairs_two_trees(p, lo))
                assert (got.nnz > 0) == (lo > mu.min_spacing)
            assert got.nnz == n * (n - 1) // 2

    def test_too_many_pairs_for_memory_are_rejected(self, monkeypatch):
        # above the diameter every pair of 1000 atoms is near: the call
        # stops after the first 256-row block, which holds 223,104 of them
        monkeypatch.setattr(permutations, "_physical_memory", lambda: 10**6)
        with pytest.raises(ValueError, match=r"^perm_measure on 1000 atoms at eps 2\.0 has "
                                             r"at least 223104 near pairs"):
            perm_measure(K_ZERO, generate("segment", n=1000), eps=2.0)
        # the 44,850 pairs of 300 atoms run exactly when they fit
        small = generate("segment", n=300)
        fits = 300 * 299 // 2 * permutations._PAIR_BYTES
        monkeypatch.setattr(permutations, "_physical_memory", lambda: fits - 1)
        with pytest.raises(ValueError, match="at least 44850 near pairs"):
            perm_measure(K_ZERO, small, eps=2.0)
        monkeypatch.setattr(permutations, "_physical_memory", lambda: fits)
        assert perm_measure(K_ZERO, small, eps=2.0).triples_counted == 0

    @pytest.mark.parametrize("points", [[], [0.5j]], ids=["empty", "one"])
    def test_fewer_than_two_atoms(self, points):
        p = np.array(points, dtype=complex)
        for lo in (_TINY, 1.0):
            got = _near_pairs(p, lo)
            assert _same_csr(got, near_pairs_two_trees(p, lo)) and got.nnz == 0


class TestSpacingSkip:
    """A cutoff at most the atom spacing has no near pairs: the sparse
    products are skipped, and the result is the one they would give."""

    @pytest.mark.parametrize("k", [K_INF, K_ZERO, kt(-0.5)], ids=str)
    def test_corpus_equals_the_near_pair_pass(self, k):
        for name, mu in corpus().items():
            forced = copy.copy(mu)
            # a spacing of 0 sends the call through _near_pairs
            forced.__dict__["min_spacing"] = 0.0
            for workers in (1, 2):
                got = perm_measure(k, mu, workers=workers)
                ref = perm_measure(k, forced, workers=workers)
                assert (got.value, got.triples_counted) == (ref.value, ref.triples_counted), name

    def test_skip_reads_no_pairs(self, monkeypatch):
        mu = generate("lipschitz_graph", n=200, slope=0.2)

        def fail(p, lo):
            raise AssertionError("near pairs built below the spacing")

        monkeypatch.setattr(permutations, "_near_pairs", fail)
        perm_measure(K_INF, mu)
        perm_measure(K_INF, mu, eps=mu.min_spacing)
        with pytest.raises(AssertionError):
            perm_measure(K_INF, mu, eps=np.nextafter(mu.min_spacing, 1.0))


_TINY = np.finfo(float).tiny
# windows [delta r, r / delta] with dyadic ends that tie with distances;
# ("grid", 0.25, 1.0) holds every distinct pair, and the engine sums its rows
# on their windows; the last two hold every distinct pair with room to
# spare, so the engine's bounds certify every row and it reads the whole-row
# totals
_EXACT_WINDOWS = [
    ("cantor1", generate("cantor4", level=1), 0.5, 1.5),
    ("cantor2", generate("cantor4", level=2), 0.5, 0.375),
    ("cantor2", generate("cantor4", level=2), 0.25, 0.75),
    ("grid", _GRID, 0.5, 0.5),
    ("grid", _GRID, 0.25, 0.25),
    ("grid", _GRID, 0.25, 1.0),
    ("grid", _GRID, 0.01, 1.0),
    ("cantor2", generate("cantor4", level=2), 0.01, 1.0),
]


def _row_variation(k, mus, window):
    """Per slot-one atom, its triples' products in absolute value."""
    return np.array([_total_variation(k, (DiscreteMeasure([z], [1.0], mus[0].scale),)
                                      + tuple(mus[1:]), _TINY, window)
                     for z in mus[0].points])


class TestWindowEngine:
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(_shared_measures(), st.sampled_from([None, 0.0, -0.5, 1.5]),
           st.sampled_from([(0, 1, 2), (0, 0, 0), (0, 1, 1), (0, 1, 0)]),
           st.one_of(st.sampled_from([0.5, 0.25]), st.floats(0.01, 0.99)), st.data())
    def test_matches_dense_rows(self, case, t, slots, delta, data):
        mus = [case[0][s] for s in slots]
        pts = np.concatenate([m.points for m in mus])
        r = data.draw(st.sampled_from(sorted(set(np.abs(pts[:, None] - pts).ravel()) - {0.0})))
        k = K_INF if t is None else kt(t)
        window = (delta * r, r / delta)
        sums, counts = row_sums(k, mus[0].points, mus[1], mus[2],
                                (window, (_TINY, math.inf), (_TINY, math.inf)))
        res = perm_truncated_window(*mus, delta, r, kernel=k)
        assert res.triples_counted == int(counts.sum())
        dense = math.fsum(mus[0].weights * sums)
        assert abs(res.value - dense) <= 1e-12 * _total_variation(k, mus, _TINY, window)

    @pytest.mark.parametrize("light", [1e-8, 1e-12])
    @pytest.mark.parametrize("k", [K_INF, K_ZERO, kt(-0.5)], ids=["inf", "0", "-0.5"])
    @pytest.mark.parametrize("one_measure", [True, False])
    def test_one_heavy_atom(self, light, k, one_measure):
        # one atom of weight 1 among light ones: the terms the engine
        # subtracts for coincident atoms carry almost all of a row's products
        rng = np.random.default_rng(1)
        pts = np.concatenate([[0.1 + 0.05j], np.exp(2j * np.pi * (np.arange(39) + 0.5) / 39)])
        w = light * (1 + rng.random(40))
        w[0] = 1.0
        mu = DiscreteMeasure(pts, w, 1e-3)
        mus = (mu,) * 3 if one_measure else (mu, DiscreteMeasure(pts, w, 1e-3), mu)
        # the second window holds every distinct pair, but the heavy atom
        # keeps every row from its whole-row total
        for delta, r in ((0.1, 0.3), (0.01, 0.3)):
            window = (delta * r, r / delta)
            sums, counts = row_sums(k, mu.points, mus[1], mus[2],
                                    (window, (_TINY, math.inf), (_TINY, math.inf)))
            res = perm_truncated_window(*mus, delta, r, kernel=k)
            assert res.triples_counted == int(counts.sum())
            dense = math.fsum(mu.weights * sums)
            assert abs(res.value - dense) <= 1e-12 * _total_variation(k, mus, _TINY, window)

    @pytest.mark.parametrize("light", [1e-8, 1e-12])
    @pytest.mark.parametrize("k", [K_INF, K_ZERO, kt(-0.5)], ids=["inf", "0", "-0.5"])
    def test_self_term_guard(self, light, k, engine_calls):
        # one heavy atom among light ones: at the heavy atom the self term a
        # whole-row total subtracts carries all but about `light` of the
        # row's products, and the heavy atom carries almost all of every
        # other row of |K| w.  The engine reads no total: every row, though
        # its window holds every other atom, is summed on its window
        rng = np.random.default_rng(1)
        pts = np.concatenate([[0.1 + 0.05j], np.exp(2j * np.pi * (np.arange(39) + 0.5) / 39)])
        w = light * (1 + rng.random(40))
        w[0] = 1.0
        delta, r = 0.01, 0.3
        window = (delta * r, r / delta)
        rows = np.arange(40)
        # with flat weights no atom dominates, and the rows read their totals
        for mu, summed in ((DiscreteMeasure(pts, w, 1e-3), 40),
                           (DiscreteMeasure(pts, 1 + rng.random(40), 1e-3), 0)):
            windowed = engine_calls("_window_sums")
            got = _WindowEngine(k, mu).point_sums(rows, r, delta)
            assert sum(windowed) == summed
            sums, _ = row_sums(k, pts, mu, mu, (window, (_TINY, math.inf), (_TINY, math.inf)))
            assert np.all(np.abs(got - sums) <= 1e-12 * _row_variation(k, (mu,) * 3, window))

    def test_whole_window_forms_no_product(self, engine_calls):
        # at (0.01, 1.0) the bounds certify every row whole
        products = engine_calls("_product")
        for delta, r, formed in ((0.01, 1.0, []), (0.25, 0.25, [0])):
            sums = _WindowEngine(K_ZERO, _GRID).point_sums(np.arange(len(_GRID)), r, delta)
            assert np.any(sums != 0) and products == formed

    def test_worker_count_invariant(self):
        # three row chunks, summed by one, two and four threads
        mu1 = generate("perturbed", base="circle", n=600, amplitude=1e-3, seed=4)
        mu2, mu3 = generate("cantor4", level=2), generate("lipschitz_graph", n=40)
        res = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for w in (1, 2, 4):
                res.append(perm_truncated_window(mu1, mu2, mu3, 0.2, 0.5,
                                                 kernel=kt(-0.5), workers=w))
        finally:
            sys.setswitchinterval(interval)
        assert res[0].triples_counted > 0
        assert res[1] == res[0] and res[2] == res[0]

    @pytest.mark.parametrize("t", [None, 0, Fraction(-1, 2)])
    @pytest.mark.parametrize(
        "mu, delta, r", [c[1:] for c in _EXACT_WINDOWS],
        ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in _EXACT_WINDOWS],
    )
    def test_forward_error(self, mu, delta, r, t):
        exact, total, count = exact_perm_triple(
            t, mu.points, mu.weights, window=(delta * r, r / delta))
        res = perm_truncated_window(mu, mu, mu, delta, r,
                                    kernel=K_INF if t is None else kt(float(t)))
        assert count > 0 and res.triples_counted == count
        assert abs(Fraction(res.value) - exact) <= Fraction(1e-13) * total

    @pytest.mark.parametrize("t", [None, 0, Fraction(-1, 2)])
    @pytest.mark.parametrize(
        "mu, delta, r", [c[1:] for c in _EXACT_WINDOWS],
        ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in _EXACT_WINDOWS],
    )
    def test_engine_forward_error(self, mu, delta, r, t):
        # the engine's rows, summed as the corona and beta_perm_comparison
        # sum them, against the same exact oracle
        exact, total, _ = exact_perm_triple(
            t, mu.points, mu.weights, window=(delta * r, r / delta))
        engine = _WindowEngine(K_INF if t is None else kt(float(t)), mu)
        value = math.fsum(mu.weights * engine.point_sums(np.arange(len(mu)), r, delta))
        assert abs(Fraction(value) - exact) <= Fraction(1e-13) * total

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slots_share_atoms_pairwise(self, workers):
        # each pair of slots shares some atoms and not others, so z = x and
        # z = y each coincide for some triples but not all; mu1 and mu2
        # share atoms too, which the window never pairs
        grid = np.array([complex(i, j) / 4 for i in range(6) for j in range(5)])
        rng = np.random.default_rng(3)
        mus = [DiscreteMeasure(grid[idx], 0.5 + rng.random(idx.size), 0.25)
               for idx in (np.arange(0, 20), np.arange(10, 30), np.r_[0:5, 15:25])]
        (p1, w1), (p2, w2), (p3, w3) = ((m.points, m.weights) for m in mus)
        assert all(np.isin(a, b).any() and not np.isin(a, b).all()
                   for a, b in ((p1, p2), (p1, p3), (p2, p3)))
        delta, r = 0.25, 0.5
        res = perm_truncated_window(*mus, delta, r, workers=workers)
        ref = naive_perm_window(0.0, list(p1), list(w1), list(p2), list(w2),
                                list(p3), list(w3), delta, r)
        assert abs(res.value - ref) <= 1e-12 * _total_variation(
            K_ZERO, mus, _TINY, (delta * r, r / delta))
        d12 = np.abs(p1[:, None, None] - p2[None, :, None])
        distinct = (p1[:, None, None] != p3) & (p2[None, :, None] != p3)
        count = np.count_nonzero((d12 >= delta * r) & (d12 <= r / delta) & distinct)
        assert res.triples_counted == count > 0

    def test_spacing_bound_stays_below_the_spacing(self, monkeypatch):
        # the nearest pair sits at the smallest spacing a measure of this
        # scale may have; a window that starts just above it must send every
        # row with that pair to its window
        dmin = 0.3  # scale * (1 - 1e-12) rounds one ulp above it
        mu = DiscreteMeasure(dmin * np.array([0, 1, 3, 1 + 2j, 4 + 3j]), [1.0] * 5,
                             dmin * (1 + 1e-12))
        engine = _WindowEngine(K_ZERO, mu)
        rows = np.arange(len(mu))
        d = np.abs(mu.points[:, None] - mu.points[None, :])
        real, masked = _WindowEngine._window_sums, []
        monkeypatch.setattr(_WindowEngine, "_window_sums",
                            lambda e, j, *a: masked.append(j) or real(e, j, *a))
        delta, certified = 0.125, 0
        for lo in (dmin / 2, *dmin + np.arange(4) * np.spacing(dmin), dmin * (1 + 1e-12)):
            masked.clear()
            engine.point_sums(rows, lo / delta, delta)
            sure = np.setdiff1d(rows, np.concatenate(masked or [rows[:0]]))
            # a certified row's window holds every other atom
            near = np.where(d[sure] > 0, d[sure], np.inf)
            assert np.all(near.min(axis=1) >= lo)
            certified += sure.size
        assert certified > 0

    @pytest.mark.parametrize("k", [K_INF, K_ZERO, kt(-0.5)], ids=["inf", "0", "-0.5"])
    @pytest.mark.parametrize("given_kmat", [False, True])
    def test_product_evaluates_no_kernel(self, k, given_kmat, monkeypatch):
        # K(z - x) is C[z, x] itself: K is odd bit for bit; an engine given
        # its kernel matrix evaluates no kernel at all
        mu = generate("perturbed", base="circle", n=70, amplitude=1e-3, seed=4)
        c = permutations._kernel_matrix(k, mu.points, mu.points)
        calls = []
        monkeypatch.setattr(permutations, "kernel_values",
                            lambda *a: calls.append(a) or kernel_values(*a))
        engine = _WindowEngine(k, mu, c.copy() if given_kmat else None)
        assert (calls == []) == given_kmat
        calls.clear()
        g_t = engine._product()
        assert calls == []
        monkeypatch.undo()
        assert np.array_equal(engine.c, c)
        assert np.array_equal(g_t, np.ascontiguousarray((c @ (mu.weights[:, None] * c)).T))


def one_atom_window(z, mu2, mu3, delta, q_radius):
    """The windowed triple integral whose first measure is one unit atom at z."""
    at_z = DiscreteMeasure([complex(z)], [1.0], mu2.scale)
    return perm_truncated_window(at_z, mu2, mu3, delta, q_radius).value


class TestWindowed:
    def test_window_excluding_everything(self):
        mu = generate("cantor4", level=1)
        res = perm_truncated_window(mu, mu, mu, delta=0.5, q_radius=1e-6)
        assert res.value == 0.0 and res.triples_counted == 0

    def test_tiny_delta_recovers_full_sum(self):
        mu = generate("cantor4", level=1)
        full = perm_measure(K_ZERO, mu).value
        windowed = perm_truncated_window(mu, mu, mu, delta=1e-9, q_radius=1.0).value
        assert windowed == pytest.approx(full, rel=1e-12)

    def test_against_window_oracle(self):
        mu = generate("perturbed", base="lipschitz_graph", n=12, slope=0.3,
                      amplitude=1e-3, seed=8)
        got = perm_truncated_window(mu, mu, mu, delta=0.1, q_radius=0.5)
        ref = naive_perm_window(
            0.0, list(mu.points), list(mu.weights), list(mu.points),
            list(mu.weights), list(mu.points), list(mu.weights), 0.1, 0.5
        )
        assert got.value == pytest.approx(ref, rel=1e-11)

    def test_point_sum_far_outside(self):
        mu = generate("cantor4", level=1)
        assert one_atom_window(100 + 100j, mu, mu, 0.4, 1e-3) == 0.0

    def test_fubini_consistency(self):
        mu = generate("cantor4", level=1)
        delta, r = 0.05, 0.7
        total = perm_truncated_window(mu, mu, mu, delta, r).value
        split = sum(
            w * one_atom_window(z, mu, mu, delta, r)
            for z, w in zip(mu.points, mu.weights)
        )
        assert split == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("q_radius", [-1.0, math.nan, math.inf])
    def test_point_sum_rejects_bad_radius(self, q_radius):
        mu = generate("cantor4", level=1)
        with pytest.raises(ValueError):
            one_atom_window(0j, mu, mu, 0.5, q_radius)

    def test_window_rejects_nan_radius(self):
        mu = generate("cantor4", level=1)
        for q_radius in (math.nan, math.inf):
            with pytest.raises(ValueError):
                perm_truncated_window(mu, mu, mu, 0.5, q_radius)

    def test_too_large_for_memory_is_rejected(self, monkeypatch):
        # the two n2 x n3 arrays of 400 x 300 atoms need 1.92 MB; slot one
        # does not count
        one, mu2, mu3 = (generate("segment", n=n) for n in (1, 400, 300))
        monkeypatch.setattr(permutations, "_physical_memory", lambda: 1_919_999)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^perm_truncated_window on 400 x 300 atoms "
                                                 r"needs about 1920000 bytes"):
                perm_truncated_window(one, mu2, mu3, 0.5, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5
        monkeypatch.setattr(permutations, "_physical_memory", lambda: 1_920_000)
        assert perm_truncated_window(one, mu2, mu3, 0.5, 0.1).triples_counted > 0

    def test_single_admissible_pair(self):
        pts = [0j, 1 + 0j, 0.5 + 1j]
        mu2 = DiscreteMeasure([1 + 0j], [0.7], 0.5)
        mu3 = DiscreteMeasure([0.5 + 1j], [0.3], 0.5)
        x = 0j
        got = one_atom_window(x, mu2, mu3, delta=0.9, q_radius=1.0)
        expect = 0.7 * 0.3 * perm_term(0.0, 0j, 1 + 0j, 0.5 + 1j)
        assert got == pytest.approx(expect, rel=1e-14)


class TestSignScan:
    @pytest.mark.parametrize("t", [-3.0, -2.0, 0.0, 1.0])
    def test_nonnegative_outside_range(self, t):
        r = sign_scan(t, n_samples=20000, seed=1)
        assert r.min_value >= -1e-10

    @pytest.mark.parametrize("t", [-1.0, -0.75, -0.5])
    def test_negative_witness_inside_range(self, t):
        r = sign_scan(t, n_samples=20000, seed=1)
        assert r.min_value < 0
        # the witness is recomputable
        assert perm_pointwise(kt(t), *r.argmin_triple) == pytest.approx(
            r.min_value, rel=1e-9
        )

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            sign_scan(0.0, n_samples=0)

    @pytest.mark.parametrize("n", [2.5, math.nan, 1000.0, True, 0, -3, "100", None])
    def test_sample_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            sign_scan(-0.5, n)
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            estimate_c1(0.5, n)

    def test_numpy_integer_sample_count(self):
        assert sign_scan(-0.5, np.int64(1000), seed=2) == sign_scan(-0.5, 1000, seed=2)
        assert estimate_c1(0.5, np.int64(1000), seed=2) == estimate_c1(0.5, 1000, seed=2)

    def test_polish_calls_no_array_kernel(self, monkeypatch):
        # the sampled batch is one kernel_values call; the polish evaluates
        # its triples on Python floats
        calls = []
        vectorized = kernels.kernel_values

        def counted(k, dz):
            calls.append(np.shape(dz))
            return vectorized(k, dz)

        want = sign_scan(-0.5, 2000, seed=3)
        monkeypatch.setattr(kernels, "kernel_values", counted)
        monkeypatch.setattr(permutations, "kernel_values", counted)
        assert sign_scan(-0.5, 2000, seed=3) == want
        assert calls == [(3, 2000)]

    @pytest.mark.parametrize("n", [1000, 20000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("t", [-3.0, -1.0, -0.75, -0.5, -0.25, 0.0, 1.0])
    def test_equals_the_scipy_polish(self, t, seed, n):
        got, ref = sign_scan(t, n, seed), sign_scan_scipy(t, n, seed)
        assert got.min_value.hex() == ref.min_value.hex()
        assert got.argmin_triple == ref.argmin_triple and got.samples == ref.samples


def _shrinks(res, n: int) -> bool:
    """Whether a scipy Nelder-Mead run shrank its simplex: every other
    iteration evaluates one or two points, a shrink n more."""
    return res.nfev > (n + 1) + 2 * (res.nit - 1)


# (objective, start, whether the search shrinks)
_NM_CASES = {
    "rosenbrock": (lambda x: float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2)),
                   [-1.2, 1.0, 0.5], False),
    "l1": (lambda x: float(np.abs(x).sum()), [0.3, -0.7, 0.0, 1.1], False),
    "steps": (lambda x: float(np.floor(4 * x).sum()), [0.3, 0.2], True),
    "inf-wall": (lambda x: math.inf if x.max() > 1 else float(((x - 2) ** 2).sum()),
                 [1.0, 1.0, 0.5], True),
    # every vertex but the start is infinite, and so is every later point
    "inf-ties": (lambda x: math.inf if x[0] >= 1 else float((x ** 2).sum()),
                 [1.0, 0.0, 0.0], True),
}


class TestNelderMead:
    """``_nelder_mead`` takes scipy's non-adaptive steps in scipy's order."""

    @pytest.mark.parametrize("case", sorted(_NM_CASES))
    def test_equals_scipy(self, case):
        from scipy.optimize import minimize

        f, x0, shrinks = _NM_CASES[case]
        opts = {"maxiter": 400, "xatol": 1e-10, "fatol": 1e-14}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy's inf - inf
            res = minimize(f, np.array(x0), method="Nelder-Mead", options=opts)
        x, fun = _nelder_mead(f, np.array(x0), **opts)
        assert _shrinks(res, len(x0)) == shrinks
        assert np.array_equal(x, res.x) and x.dtype == res.x.dtype
        assert fun == res.fun

    def test_iteration_cap(self):
        from scipy.optimize import minimize

        calls = []

        def f(x):
            calls.append(x)
            return float(np.abs(x).sum())

        for maxiter in (1, 2, 17):
            calls.clear()
            x, fun = _nelder_mead(f, np.array([0.3, -0.7]), maxiter, 0.0, 0.0)
            mine = len(calls)
            res = minimize(f, np.array([0.3, -0.7]), method="Nelder-Mead",
                           options={"maxiter": maxiter, "xatol": 0.0, "fatol": 0.0})
            assert res.nit == maxiter and mine == res.nfev
            assert np.array_equal(x, res.x) and fun == res.fun


class TestC1Estimate:
    def test_upper_bound_two(self):
        for theta in (0.1, 0.5, 1.5):
            est = estimate_c1(theta, n_samples=5000, seed=2)
            assert 0 < est.value <= 2.0

    def test_near_two_for_forced_horizontal(self):
        est = estimate_c1(3 * (np.pi / 2) - 0.2, n_samples=40000, seed=3)
        assert est.value > 1.5

    def test_witness_recorded(self):
        est = estimate_c1(0.1, n_samples=5000, seed=2)
        p0 = perm_pointwise(K_ZERO, *est.witness)
        pinf = perm_pointwise(K_INF, *est.witness)
        assert p0 / pinf == pytest.approx(est.value, rel=1e-9)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            estimate_c1(0.0)

    def test_zero_pinf_samples_do_not_warn(self):
        # some of these samples have pinf == 0; they are never selected, so
        # the ratio must not be formed for them
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = estimate_c1(0.1, 100_000, seed=0)
        assert 0 < est.value <= 2.0
        p0 = perm_pointwise(K_ZERO, *est.witness)
        pinf = perm_pointwise(K_INF, *est.witness)
        assert p0 / pinf == pytest.approx(est.value, rel=1e-9)


@st.composite
def _jittered_measures(draw):
    """Three jittered circles of 12 to 40 atoms, off any dyadic grid, and a
    cutoff of a twentieth to a fifth of the first one's diameter."""
    seed = draw(st.integers(0, 2**31))
    mus = [generate("perturbed", base="circle", n=draw(st.integers(12, 40)),
                    amplitude=2e-2, seed=seed + i) for i in range(3)]
    return mus, draw(st.floats(0.05, 0.2)) * mus[0].diameter


def _dilated(mu: DiscreteMeasure, factor: float) -> DiscreteMeasure:
    return DiscreteMeasure(factor * mu.points, mu.weights, factor * mu.scale)


class TestProperties:
    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(st.one_of(_shared_measures(), _jittered_measures()),
           st.sampled_from([None, 0.0, -0.5, 1.5]), st.integers(-30, 30))
    def test_dilation_scales_exactly(self, case, t, j):
        # distances scale by 2^j and kernels by 2^-j, exactly
        mus, eps = case
        k = K_INF if t is None else kt(t)
        factor = 2.0**j
        mu, big = mus[0], _dilated(mus[0], factor)
        res, res_big = perm_measure(k, mu, eps=eps), perm_measure(k, big, eps=factor * eps)
        assert res_big.value == res.value / factor**2
        assert res_big.triples_counted == res.triples_counted
        assert (curvature_squared(big, eps=factor * eps)
                == curvature_squared(mu, eps=eps) / factor**2)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=3, max_size=3),
           st.floats(-5, 5))
    def test_pointwise_t_quadratic(self, xy, t):
        # k_t = k_0 + t k_inf, so p_t = p_0 + t m + t^2 p_inf, with m the
        # cross products of the two kernels' legs
        z1, z2, z3 = (complex(x, y) for x, y in xy)
        assume(min(abs(z1 - z2), abs(z1 - z3), abs(z2 - z3)) >= 1e-6)
        (a0, b0, c0), (ai, bi, ci) = (
            [float(kernel_values(k, d)) for d in (z1 - z2, z1 - z3, z2 - z3)]
            for k in (K_ZERO, K_INF))
        m = a0 * bi + ai * b0 - a0 * ci - ai * c0 + b0 * ci + bi * c0
        quad = perm_values(K_ZERO, z1, z2, z3) + t * m + t * t * perm_values(K_INF, z1, z2, z3)
        # each side rounds relative to the legs' pre-cancellation magnitudes
        la, lb, lc = (abs(x) + abs(t) * abs(y) for x, y in ((a0, ai), (b0, bi), (c0, ci)))
        mag = la * lb + la * lc + lb * lc
        assert abs(perm_values(kt(t), z1, z2, z3) - quad) <= 16 * 2.0**-52 * mag

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(st.one_of(_shared_measures(), _jittered_measures()), st.floats(0, 2 * math.pi))
    def test_curvature_rotation_invariant(self, case, angle):
        mu = case[0][0]
        turned = DiscreteMeasure(np.exp(1j * angle) * mu.points, mu.weights, mu.scale)
        tol = 4e-12 * _total_variation(K_INF, [mu] * 3, np.finfo(float).tiny)
        assert abs(curvature_squared(turned) - curvature_squared(mu)) <= tol


# Totals and per-index values that do not depend on how the work is split.
#
# A library total is the correctly rounded sum of its terms (``math.fsum``),
# so the order of the terms and the worker count cannot change it.  The
# cases below are ones where rounding 256-term chunks first and then their
# totals gives a different double.


def exact_sum(terms: np.ndarray) -> float:
    """The sum of the doubles ``terms``, rounded once."""
    return float(sum(map(Fraction, terms.tolist()), Fraction(0)))


class TestCorrectlyRoundedTotals:
    def test_window_total(self, monkeypatch):
        mu1 = generate("perturbed", base="circle", n=600, amplitude=1e-3, seed=8)
        mu2, mu3 = generate("cantor4", level=2), generate("lipschitz_graph", n=40)
        k, delta, r = kt(-0.5), 0.2, 0.5
        rows, real = [], permutations._parallel_map_chunks
        monkeypatch.setattr(permutations, "_parallel_map_chunks",
                            lambda *a, **kw: rows.append(real(*a, **kw)) or rows[-1])
        for workers in (1, 2):
            res = perm_truncated_window(mu1, mu2, mu3, delta, r, kernel=k, workers=workers)
            assert res.value == exact_sum(mu1.weights * rows[-1])
        assert np.array_equal(rows[0], rows[1])

    def test_corona_perm_sq_numerator(self):
        mu = generate("lipschitz_graph", n=600, slope=0.2, teeth=2)
        par = Params()
        lat = build(mu, c0=par.c0, a0=par.a0, separation=par.separation,
                    doubling_constant=par.doubling_constant)
        builder = _TreeBuilder(lat, lat.root.id, par)
        tree = builder.build(lambda sub: _WindowEngine(K_ZERO, mu._view(sub)))
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
