import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvperm.kernels import K_INF, K_ZERO, kernel_values, kt
from curvperm.measure import Ball, DiscreteMeasure, generate
from curvperm.permutations import (
    _row_sums,
    curvature_squared,
    estimate_c1,
    menger_curvature,
    perm_at_point,
    perm_measure,
    perm_pointwise,
    perm_truncated_window,
    sign_scan,
)
from curvperm.reduction import deterministic_sum
from oracles import (
    circumradius,
    exact_perm_triple,
    kernel_t,
    naive_perm_triple,
    naive_perm_window,
    perm_term,
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

    def test_ordered_matches_naive_bit_for_bit(self):
        # identical summation order and per-term arithmetic; the loop and
        # truncation logic of the oracle are coded independently
        mu = generate("cantor4", level=1)
        mu2 = generate("perturbed", base="segment", n=9, amplitude=1e-2, seed=2)
        for m in (mu, mu2):
            for t in (None, 0.0, -1.0):
                k = K_INF if t is None else kt(t)
                got = perm_measure(k, m, method="ordered").value
                ref = naive_perm_triple(t, [complex(z) for z in m.points],
                                        [float(w) for w in m.weights])
                assert got == ref

    def test_fast_matches_ordered(self):
        mu = generate("perturbed", base="segment", n=25, amplitude=5e-3, seed=4)
        for t in (None, 0.0, -0.8):
            k = K_INF if t is None else kt(t)
            fast = perm_measure(k, mu).value
            slow = perm_measure(k, mu, method="ordered").value
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_worker_count_invariance(self):
        mu = generate("cantor4", level=2)
        base = perm_measure(K_ZERO, mu, workers=1).value
        for w in (2, 3, 7):
            assert perm_measure(K_ZERO, mu, workers=w).value == base

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

    def test_three_distinct_measures(self):
        m1 = generate("segment", n=5)
        m2 = generate("segment", n=4, start=0.1 + 0.5j, end=1.1 + 0.5j)
        m3 = generate("cantor4", level=1)
        got = perm_measure(K_ZERO, m1, m2, m3).value
        ref = 0.0
        for i in range(5):
            for j in range(4):
                for l in range(4):
                    ref += (
                        m1.weights[i] * m2.weights[j] * m3.weights[l]
                        * perm_term(0.0, complex(m1.points[i]),
                                    complex(m2.points[j]), complex(m3.points[l]))
                    )
        assert got == pytest.approx(ref, rel=1e-12)


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


def _total_variation(k, mus, lo):
    """Sum over the admissible triples of the three permutation products in
    absolute value."""
    (p1, w1), (p2, w2), (p3, w3) = ((m.points, m.weights) for m in mus)
    d12 = p1[:, None, None] - p2[None, :, None]
    d13 = p1[:, None, None] - p3[None, None, :]
    d23 = p2[None, :, None] - p3[None, None, :]
    k12, k13, k23 = (np.abs(kernel_values(k, d)) for d in (d12, d13, d23))
    adm = (np.abs(d12) >= lo) & (np.abs(d13) >= lo) & (np.abs(d23) >= lo)
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
        _, counts = _row_sums(K_ZERO, mu.points, mu, mu, ((eps, math.inf),) * 3)
        assert perm_measure(K_ZERO, mu, eps=eps).triples_counted == int(counts.sum())

    def test_empty_slot(self):
        mu, empty = generate("cantor4", level=1), DiscreteMeasure([], [], 0.1)
        for mus in ((empty,), (mu, empty, mu), (mu, mu, empty)):
            for eps in (0.0, 0.5):
                res = perm_measure(K_ZERO, *mus, eps=eps)
                assert res.value == 0.0 and res.triples_counted == 0

    def test_vertex_without_triples_is_zero(self):
        # every leg pair admissible to a vertex is near: A B and N agree in
        # exact arithmetic but round apart, and no triple is admissible
        far = [10 + 0j, 10.1 + 0.03j, 10.05 - 0.07j]
        near = [0j, 0.1j, 0.07 + 0.02j]
        mu1 = DiscreteMeasure([0.03 + 0.01j, -0.02 + 0.05j], [0.3, 0.7], 0.01)
        legs = DiscreteMeasure(far + near, [0.11, 0.23, 0.37, 0.41, 0.53, 0.67], 0.01)
        for k in (K_INF, K_ZERO, kt(-0.5)):
            res = perm_measure(k, mu1, legs, legs, eps=1.0)
            assert res.value == 0.0 and res.triples_counted == 0

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(_shared_measures(), st.sampled_from([None, 0.0, -0.5, 1.5]), st.booleans())
    def test_matches_dense_core(self, case, t, one_measure):
        mus, eps = case
        if one_measure:
            mus = [mus[0]] * 3
        k = K_INF if t is None else kt(t)
        lo = max(eps, np.finfo(float).tiny)
        sums, counts = _row_sums(k, mus[0].points, mus[1], mus[2], ((lo, math.inf),) * 3)
        res = perm_measure(k, *mus, eps=eps)
        assert res.triples_counted == int(counts.sum())
        dense = deterministic_sum(mus[0].weights * sums)
        assert abs(res.value - dense) <= 1e-12 * _total_variation(k, mus, lo)

    @pytest.mark.parametrize("light", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("k", [K_INF, K_ZERO, kt(-0.5)], ids=["inf", "0", "-0.5"])
    @pytest.mark.parametrize("one_measure", [True, False])
    def test_light_atoms_beside_a_heavy_cluster(self, light, k, one_measure):
        # ten heavy atoms closer together than eps and thirty light ones on a
        # circle: at a light vertex the near heavy leg pairs outweigh the
        # admissible ones by about 1 / light, so A B - N cancels that much
        rng = np.random.default_rng(0)
        heavy = 0.02 * (rng.random(10) + 1j * rng.random(10))
        ring = np.exp(2j * np.pi * (np.arange(30) + 0.5) / 30)
        w = np.concatenate([np.ones(10), light * (1 + rng.random(30))])
        mu = DiscreteMeasure(np.concatenate([heavy, ring]), w, 1e-4)
        mus = (mu,) * 3 if one_measure else (mu, DiscreteMeasure(mu.points, w, 1e-4), mu)
        eps = 0.1
        sums, counts = _row_sums(k, mu.points, mus[1], mus[2], ((eps, math.inf),) * 3)
        res = perm_measure(k, *mus, eps=eps)
        assert res.triples_counted == int(counts.sum())
        dense = deterministic_sum(mu.weights * sums)
        assert abs(res.value - dense) <= 1e-12 * _total_variation(k, mus, eps)


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
        assert perm_at_point(100 + 100j, mu, mu, 0.4, 1e-3) == 0.0

    def test_fubini_consistency(self):
        mu = generate("cantor4", level=1)
        delta, r = 0.05, 0.7
        total = perm_truncated_window(mu, mu, mu, delta, r).value
        split = sum(
            w * perm_at_point(z, mu, mu, delta, r)
            for z, w in zip(mu.points, mu.weights)
        )
        assert split == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("q_radius", [-1.0, math.nan])
    def test_point_sum_rejects_bad_radius(self, q_radius):
        mu = generate("cantor4", level=1)
        with pytest.raises(ValueError):
            perm_at_point(0j, mu, mu, 0.5, q_radius)

    def test_window_rejects_nan_radius(self):
        mu = generate("cantor4", level=1)
        with pytest.raises(ValueError):
            perm_truncated_window(mu, mu, mu, 0.5, math.nan)

    def test_single_admissible_pair(self):
        pts = [0j, 1 + 0j, 0.5 + 1j]
        mu2 = DiscreteMeasure([1 + 0j], [0.7], 0.5)
        mu3 = DiscreteMeasure([0.5 + 1j], [0.3], 0.5)
        x = 0j
        got = perm_at_point(x, mu2, mu3, delta=0.9, q_radius=1.0)
        expect = 0.7 * 0.3 * perm_term(0.0, 0j, 1 + 0j, 0.5 + 1j)
        assert got == pytest.approx(expect, rel=1e-14)


class TestSignScan:
    @pytest.mark.parametrize("t", [-3.0, -2.0, 0.0, 1.0])
    def test_nonnegative_outside_range(self, t):
        r = sign_scan(t, Ball(0j, 1.0), n_samples=20000, seed=1)
        assert r.min_value >= -1e-10

    @pytest.mark.parametrize("t", [-1.0, -0.75, -0.5])
    def test_negative_witness_inside_range(self, t):
        r = sign_scan(t, Ball(0j, 1.0), n_samples=20000, seed=1)
        assert r.min_value < 0
        # the witness is recomputable
        assert perm_pointwise(kt(t), *r.argmin_triple) == pytest.approx(
            r.min_value, rel=1e-9
        )

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            sign_scan(0.0, Ball(0j, 1.0), n_samples=0)


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
