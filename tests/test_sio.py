import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from curvperm import sio
from curvperm.kernels import K_INF, K_ZERO, kernel_values, kt
from curvperm.measure import DiscreteMeasure, generate
from curvperm.permutations import perm_measure
from curvperm.sio import (
    TruncationGrid,
    cauchy_l2_norm,
    default_grid,
    l2_norm_T1,
    mv_identity_report,
    sup_l2_norm,
    t1_values,
    theorem1_ratios,
)
from oracles import exact_t1, naive_t1_norm


def two_atoms():
    return DiscreteMeasure([-1 + 0j, 1 + 0j], [1.0, 1.0], 0.5)


def point_sum(k, mu, eps, z):
    """The truncated transform of 1 at the one target ``z``."""
    return sio._truncated_sums(lambda dz: kernel_values(k, dz), np.array([complex(z)]),
                               mu, [eps])[0, 0]


class TestApplyTruncated:
    def test_one_term(self):
        mu = two_atoms()
        got = point_sum(K_INF, mu, 1.0, 1 + 0j)
        assert got == pytest.approx(0.5)

    def test_huge_eps_empty(self):
        mu = generate("segment", n=20)
        assert point_sum(K_ZERO, mu, 100.0, 0.3 + 0j) == 0.0

    def test_odd_cancellation(self):
        mu = two_atoms()
        for t in (None, 0.0, -1.0, 3.0):
            k = K_INF if t is None else kt(t)
            assert point_sum(k, mu, 0.5, 0j) == pytest.approx(
                0.0, abs=1e-16
            )

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            point_sum(K_INF, two_atoms(), 0.0, 0j)
        empty = DiscreteMeasure(np.zeros(0, complex), np.zeros(0), 1.0)
        for mu in (two_atoms(), empty):
            for eps in (float("nan"), -1.0):
                with pytest.raises(ValueError):
                    point_sum(K_INF, mu, eps, 0j)
                with pytest.raises(ValueError):
                    l2_norm_T1(K_ZERO, mu, eps)
                with pytest.raises(ValueError):
                    cauchy_l2_norm(mu, eps)


class TestL2Norm:
    def test_vertical_line_flat_kernel(self):
        mu = generate("segment", n=16, end=1j)
        assert l2_norm_T1(K_ZERO, mu, 0.01) == 0.0
        assert l2_norm_T1(K_INF, mu, 0.01) == 0.0

    def test_two_atom_value(self):
        assert l2_norm_T1(K_INF, two_atoms(), 1.0) == pytest.approx(
            math.sqrt(0.5)
        )

    def test_huge_eps(self):
        mu = generate("circle", n=32)
        assert l2_norm_T1(K_INF, mu, 100.0) == 0.0

    def test_matches_naive(self):
        mu = generate("perturbed", base="segment", n=24, amplitude=2e-3, seed=6)
        for t in (None, 0.0, -0.5):
            k = K_INF if t is None else kt(t)
            eps = 0.07
            got = l2_norm_T1(k, mu, eps)
            ref = naive_t1_norm(t, [complex(z) for z in mu.points],
                                [float(w) for w in mu.weights], eps)
            assert got == pytest.approx(ref, rel=1e-10)

    def test_scaling_law(self):
        # positions x lam, weights x lam, eps x lam => squared norm x lam
        mu = generate("perturbed", base="segment", n=20, amplitude=1e-3, seed=3)
        lam = 2.75
        scaled = DiscreteMeasure(mu.points * lam, mu.weights * lam, mu.scale * lam)
        n1 = l2_norm_T1(K_ZERO, mu, 0.05)
        n2 = l2_norm_T1(K_ZERO, scaled, 0.05 * lam)
        assert n2**2 == pytest.approx(lam * n1**2, rel=1e-12)

    def test_triangle_inequality_decomposition(self):
        mu = generate("perturbed", base="cantor4", level=2, amplitude=1e-3, seed=5)
        for eps in (0.05, 0.2):
            n0 = l2_norm_T1(K_ZERO, mu, eps)
            ninf = l2_norm_T1(K_INF, mu, eps)
            for t in (-1.0, 0.5, 2.0):
                nt = l2_norm_T1(kt(t), mu, eps)
                assert nt <= n0 + abs(t) * ninf + 1e-12


class TestExactT1:
    @pytest.mark.parametrize("t", [None, 0, Fraction(-1, 2), Fraction(-3, 4)])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_forward_error(self, level, t):
        mu = generate("cantor4", level=level)
        # below every distance, the nearest siblings' distance (a tie: the
        # pair is kept) and a third of the diameter
        assert np.any(np.abs(mu.points[:, None] - mu.points) == 3 * mu.scale)
        for eps in (mu.scale / 2, 3 * mu.scale, mu.diameter / 3):
            values, totals = exact_t1(t, mu.points, mu.weights, eps)
            got = t1_values(K_INF if t is None else kt(float(t)), mu, eps)
            for g, v, tv in zip(got, values, totals):
                assert abs(Fraction(g) - v) <= Fraction(1e-13) * tv


class TestSupNorm:
    def test_single_atom_zero(self):
        mu = DiscreteMeasure([0.5 + 0.5j], [1.0], 0.1)
        val, _ = sup_l2_norm(K_INF, mu, TruncationGrid((0.1, 1.0)))
        assert val == 0.0

    def test_single_eps_grid(self):
        mu = two_atoms()
        val, eps = sup_l2_norm(K_INF, mu, TruncationGrid((1.0,)))
        assert val == pytest.approx(math.sqrt(0.5)) and eps == 1.0

    def test_segment_sup_at_small_eps(self):
        mu = generate("segment", n=64)
        grid = default_grid(mu)
        val, eps = sup_l2_norm(K_INF, mu, grid)
        per_eps = [l2_norm_T1(K_INF, mu, e) for e in grid.epsilons]
        assert val == max(per_eps) > 0
        assert eps == grid.epsilons[int(np.argmax(per_eps))]
        # for this family the norm is monotone decreasing in the cutoff
        assert all(a >= b - 1e-12 for a, b in zip(per_eps, per_eps[1:]))

    @pytest.mark.parametrize("n", [2.5, True, 0])
    def test_grid_count_must_be_a_count(self, n):
        with pytest.raises(ValueError, match=rf"^n must be an integer >= 1, got {n!r}$"):
            default_grid(generate("segment", n=16), n)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TruncationGrid(())
        with pytest.raises(ValueError):
            TruncationGrid((0.2, 0.1))
        with pytest.raises(ValueError):
            TruncationGrid((-0.5, 0.1))
        for bad in ((float("nan"),), (0.1, float("nan"))):
            with pytest.raises(ValueError):
                TruncationGrid(bad)


class TestRowBlocks:
    """The truncated sums are taken 256 targets at a time; a measure of 700
    atoms spans three blocks."""

    @pytest.fixture(scope="class")
    def mu(self):
        return generate("perturbed", base="circle", n=700, amplitude=1e-3, seed=4)

    @pytest.mark.parametrize("k", [K_INF, K_ZERO], ids=str)
    def test_every_row_equals_its_point_sum(self, mu, k):
        for eps in default_grid(mu).epsilons[1::7]:
            t1 = t1_values(k, mu, eps)
            point = [point_sum(k, mu, eps, z) for z in mu.points]
            assert np.array_equal(t1, point)

    @pytest.mark.parametrize("k", [K_INF, K_ZERO], ids=str)
    def test_sup_is_max_over_grid(self, mu, k):
        grid = default_grid(mu)
        per_eps = [l2_norm_T1(k, mu, e) for e in grid.epsilons]
        assert sup_l2_norm(k, mu, grid) == (max(per_eps),
                                            grid.epsilons[int(np.argmax(per_eps))])

    def test_memory_below_one_pair_matrix(self):
        mu = generate("lipschitz_graph", n=2048)
        grid = default_grid(mu)
        tracemalloc.start()
        try:
            sup_l2_norm(K_INF, mu, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 2048 * 16  # one complex n x n array, 64 MiB


class TestCauchy:
    def test_single_atom(self):
        mu = DiscreteMeasure([1j], [2.0], 0.5)
        assert cauchy_l2_norm(mu, 0.1) == 0.0

    def test_two_atoms(self):
        assert cauchy_l2_norm(two_atoms(), 1.0) == pytest.approx(math.sqrt(0.5))

    def test_square_by_direct_sum(self):
        pts = [0j, 1 + 0j, 1 + 1j, 1j]
        mu = DiscreteMeasure(pts, [1.0] * 4, 0.25)
        eps = 0.5
        acc = 0.0
        for i, z in enumerate(pts):
            val = 0j
            for j, w in enumerate(pts):
                if abs(z - w) >= eps:
                    val += 1.0 / (z - w)
            acc += abs(val) ** 2
        assert cauchy_l2_norm(mu, eps) == pytest.approx(math.sqrt(acc), rel=1e-12)

    def test_real_part_bounded_by_cauchy_per_atom(self):
        mu = generate("perturbed", base="cantor4", level=2, amplitude=1e-3, seed=9)
        eps = 0.1
        t_inf = t1_values(K_INF, mu, eps)
        dz = mu.points[:, None] - mu.points[None, :]
        mask = np.abs(dz) >= eps
        with np.errstate(divide="ignore", invalid="ignore"):
            ck = np.where(mask, 1.0 / np.where(dz == 0, 1, dz), 0.0)
        cauchy = ck @ mu.weights.astype(complex)
        assert np.all(np.abs(t_inf) <= np.abs(cauchy) + 1e-14)


class TestMvIdentity:
    def test_two_atom_degenerate(self):
        mu = two_atoms()
        rep = mv_identity_report(K_INF, mu, 0.5)
        assert rep.p_third == 0.0
        assert rep.remainder == pytest.approx(rep.lhs)

    def test_vertical_line_all_zero(self):
        mu = generate("segment", n=16, end=1j)
        rep = mv_identity_report(K_ZERO, mu, 0.05)
        assert rep.lhs == 0.0 and rep.p_third == 0.0 and rep.remainder == 0.0

    def test_segment_normalized_remainder_capped(self):
        mu = generate("segment", n=200)
        rep = mv_identity_report(K_INF, mu, 0.05)
        assert abs(rep.normalized_remainder) <= 10.0

    def test_identity_terms_consistent(self):
        mu = generate("cantor4", level=2)
        eps = 0.1
        rep = mv_identity_report(K_INF, mu, eps)
        assert rep.lhs == pytest.approx(l2_norm_T1(K_INF, mu, eps) ** 2)
        assert rep.p_third == pytest.approx(
            perm_measure(K_INF, mu, eps=eps).value / 3
        )
        assert rep.remainder == pytest.approx(rep.lhs - rep.p_third)

    def test_refinement_stability(self):
        rems = []
        for n in (100, 200, 400):
            mu = generate("segment", n=n)
            rems.append(mv_identity_report(K_INF, mu, 0.05).normalized_remainder)
        for a, b in zip(rems, rems[1:]):
            assert max(abs(a), abs(b)) / max(min(abs(a), abs(b)), 1e-12) <= 2.0


class TestTheorem1:
    def test_vertical_line(self):
        mu = generate("segment", n=32, end=1j)
        r = theorem1_ratios(mu, default_grid(mu))
        assert r.sup_0 == 0.0
        assert math.isfinite(r.ratio_fwd)

    def test_horizontal_kernels_coincide(self):
        # on the real axis both kernels reduce to the same function, so the
        # backward ratio sits far below its generic cap
        mu = generate("segment", n=64)
        r = theorem1_ratios(mu, default_grid(mu))
        assert r.sup_0 == pytest.approx(r.sup_inf, rel=1e-12)
        assert r.ratio_bwd <= math.sqrt(2) + 1e-9

    def test_cantor_finite(self):
        mu = generate("cantor4", level=3)
        r = theorem1_ratios(mu, default_grid(mu))
        assert math.isfinite(r.ratio_fwd) and math.isfinite(r.ratio_bwd)
        assert r.sup_inf > 0 and r.sup_0 > 0
