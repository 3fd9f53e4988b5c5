import math
from collections import Counter

import numpy as np
import pytest

from curvperm import graphfit
from curvperm.corona import Params, build_top, build_tree
from curvperm.graphfit import (
    DistanceField,
    balanced_ball_test,
    beta2,
    build_lipschitz_F,
    graph_closeness_report,
    partition_of_unity,
    _select_cube,
    whitney_cover,
)
from curvperm.kernels import line_from_angle
from curvperm.lattice import build
from curvperm.measure import Ball, DiscreteMeasure, generate
from oracles import finite_difference, golden_section_line


@pytest.fixture(scope="module")
def graph_setup():
    mu = generate("lipschitz_graph", n=128, slope=0.2, teeth=1)
    lat = build(mu)
    corona = build_top(lat, mu, Params())
    return mu, lat, corona


class TestBeta2:
    def test_collinear_zero(self):
        mu = generate("segment", n=20)
        res = beta2(mu, Ball(0.5 + 0j, 1.0))
        assert res.beta == 0.0
        assert abs(res.line.direction.imag) < 1e-12

    def test_three_atom_anchor(self):
        # symmetric configuration solved by hand: lambda_min = 0.24,
        # beta^2 = 0.24 / 8 = 0.03
        mu = DiscreteMeasure([-1 + 0j, 0 + 0.6j, 1 + 0j], [1.0] * 3, 0.5)
        res = beta2(mu, Ball(0j, 2.0))
        assert res.beta**2 == pytest.approx(0.03, rel=1e-12)
        assert res.beta == pytest.approx(math.sqrt(0.03), rel=1e-12)

    def test_single_atom(self):
        mu = DiscreteMeasure([0.3 + 0.4j], [2.0], 0.1)
        res = beta2(mu, Ball(0.3 + 0.4j, 1.0))
        assert res.beta == 0.0
        assert not res.degenerate

    def test_empty_ball_flagged(self):
        mu = generate("segment", n=5)
        res = beta2(mu, Ball(10 + 10j, 0.5))
        assert res.beta == 0.0 and res.degenerate

    def test_matches_golden_section(self):
        rng = np.random.default_rng(21)
        mu = generate("perturbed", base="lipschitz_graph", n=60, slope=0.25,
                      amplitude=5e-3, seed=14)
        for _ in range(50):
            center = complex(rng.uniform(0, 1), rng.uniform(-0.1, 0.2))
            radius = rng.uniform(0.1, 0.8)
            ball = Ball(center, radius)
            sub = mu.restrict(ball)
            if len(sub) < 3:
                continue
            got = beta2(mu, ball).beta ** 2
            ref = golden_section_line(sub.points, sub.weights, radius)
            assert got <= ref + 1e-9 * max(ref, 1e-12)
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-12)

    def test_beta_bounded_by_density(self):
        # crude bound: squared beta is at most four times the ball density
        mu = generate("cantor4", level=3)
        rng = np.random.default_rng(4)
        for _ in range(50):
            ball = Ball(
                complex(rng.uniform(0, 1), rng.uniform(0, 1)),
                rng.uniform(0.05, 1.0),
            )
            res = beta2(mu, ball)
            assert res.beta**2 <= 4 * mu.mass_in(ball) / ball.radius + 1e-12


class TestDistanceFunctions:
    def test_singleton_cube_zero(self, graph_setup):
        mu, lat, corona = graph_setup
        checked = False
        for tree in corona.trees.values():
            singles = [q for q in tree.dbtree_ids if lat.cubes[q].n_members == 1]
            if not singles:
                continue
            atom = mu.points[lat.cubes[singles[0]].members[0]]
            assert DistanceField(lat, tree.dbtree_ids).d(atom) == pytest.approx(0.0)
            checked = True
        assert checked

    def test_far_point_distance_dominated(self):
        mu = generate("segment", n=16)
        lat = build(mu)
        far = 100 + 100j
        val = DistanceField(lat, [lat.root.id]).d(far)
        expect = float(np.min(np.abs(mu.points - far))) + lat.set_diameter(0)
        assert val == pytest.approx(expect)

    def test_two_cube_min(self):
        # the farther but smaller cube wins the infimum
        mu = DiscreteMeasure([0j, 1 + 0j, 1.05 + 0j, 3 + 0j], [1.0] * 4, 0.02)
        lat = build(mu)
        big = None
        small = None
        for q in lat.cubes:
            mem = set(q.members.tolist())
            if mem == {1, 2}:
                big = q.id
            if mem == {3} and q.level >= 1:
                small = q.id
        assert big is not None and small is not None
        z = 2.2 + 0j
        val = DistanceField(lat, [big, small]).d(z)
        d_small = abs(3 - 2.2)  # diam 0
        d_big = abs(1.05 - 2.2) + lat.set_diameter(big)
        assert val == pytest.approx(min(d_small, d_big)) == pytest.approx(d_small)

    def test_projected_leq_planar(self, graph_setup):
        mu, lat, corona = graph_setup
        tree = max(corona.trees.values(), key=lambda t: len(t.dbtree_ids))
        assert tree.dbtree_ids
        line = line_from_angle(0j, 0.1)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, 40) + 1j * rng.uniform(-0.2, 0.4, 40)
        field = DistanceField(lat, tree.dbtree_ids)
        d_vals = np.atleast_1d(field.d(pts))
        u = line.project(pts)
        big_d = np.atleast_1d(field.project(line).value(u))
        assert np.all(big_d <= d_vals + 1e-12)

    def test_interval_infimum_exact(self, graph_setup):
        mu, lat, corona = graph_setup
        tree = corona.trees[lat.root.id]
        ids = tree.dbtree_ids or [lat.root.id]
        line = line_from_angle(0j, 0.0)
        proj = DistanceField(lat, ids).project(line)
        rng = np.random.default_rng(9)
        for _ in range(25):
            lo = rng.uniform(-0.5, 1.2)
            hi = lo + rng.uniform(0.01, 0.5)
            exact = proj.inf_on(lo, hi)
            dense = float(np.min(proj.value(np.linspace(lo, hi, 2000))))
            assert exact <= dense + 1e-12
            assert dense - exact <= (hi - lo) / 1999 + 1e-12


class TestCubeTable:
    @staticmethod
    def _costs(lat, ids, line, lo, hi):
        """Per-cube brute force: distance of the projected atoms to [lo, hi]
        plus the cube's diameter."""
        out = []
        for qid in ids:
            u = line.project(lat.mu.points[lat.cubes[qid].members])
            gap = np.maximum(0.0, np.maximum(lo - u, u - hi))
            out.append(float(np.min(gap + lat.set_diameter(qid))))
        return out

    @staticmethod
    def _family(graph_setup):
        """Every doubling cube, root first: a cover over this family picks
        about 40 distinct cubes, where a corona tree's picks only one."""
        lat = graph_setup[1]
        return sorted((q.id for q in lat.cubes if q.doubling),
                      key=lambda q: (lat.cubes[q].level, q))

    def test_table_holds_each_cube(self, graph_setup):
        mu, lat, _ = graph_setup
        ids = self._family(graph_setup)
        field = DistanceField(lat, ids)
        for i, qid in enumerate(ids):
            members = lat.cubes[qid].members
            a = field.starts[i]
            assert field.diameters[i] == lat.set_diameter(qid)
            assert np.array_equal(field.points[a:a + members.size], mu.points[members])
            assert np.all(field.offsets[a:a + members.size] == field.diameters[i])
        assert field.points.size == sum(lat.cubes[q].members.size for q in ids)

    def test_cube_costs_match_per_cube_loop(self, graph_setup):
        _, lat, _ = graph_setup
        ids = self._family(graph_setup)
        line = line_from_angle(0.1j, 0.15)
        proj = DistanceField(lat, ids).project(line)
        rng = np.random.default_rng(10)
        for _ in range(30):
            lo = rng.uniform(-0.5, 1.2)
            hi = lo + 10.0 ** rng.uniform(-4, 0)
            costs = proj.cube_costs(lo, hi)
            assert costs.tolist() == self._costs(lat, ids, line, lo, hi)
            assert costs.min() == proj.inf_on(lo, hi)

    def test_select_cube_matches_oracle(self, graph_setup):
        _, lat, _ = graph_setup
        ids = self._family(graph_setup)
        line = line_from_angle(0j, 0.05)
        field = DistanceField(lat, ids)
        proj = field.project(line)
        rng = np.random.default_rng(11)
        promoted = 0
        for _ in range(60):
            lo = rng.uniform(-0.2, 1.2)
            hi = lo + 10.0 ** rng.uniform(-3, 0)
            costs = self._costs(lat, ids, line, lo, hi)
            first = pick = ids[next(i for i, c in enumerate(costs)
                                    if c <= 2 * min(costs))]
            while lat.set_diameter(pick) < hi - lo:
                anc = lat.cubes[pick].parent
                while anc is not None and not lat.cubes[anc].doubling:
                    anc = lat.cubes[anc].parent
                if anc not in ids:
                    break
                pick = anc
            promoted += pick != first
            assert _select_cube(field, proj, lat, lo, hi) == pick
        assert promoted

    def test_one_fit_and_one_diameter_per_cube(self, graph_setup, monkeypatch):
        mu, lat, _ = graph_setup
        ids = self._family(graph_setup)
        fits, diameters = Counter(), Counter()
        beta2_, set_diameter = graphfit.beta2, lat.set_diameter

        def count_beta2(mu, ball):
            fits[ball] += 1
            return beta2_(mu, ball)

        def count_diameter(qid):
            diameters[qid] += 1
            return set_diameter(qid)

        monkeypatch.setattr(graphfit, "beta2", count_beta2)
        monkeypatch.setattr(lat, "set_diameter", count_diameter)
        line = beta2_(mu, lat.big_ball(ids[0], 2.0)).line
        cover = whitney_cover(lat, mu, ids[0], ids, line)
        used = [q for q in cover.cube_of if q is not None]
        assert len(used) > len(set(used))
        assert sum(fits.values()) == len(set(used))
        assert set(fits.values()) == {1}
        assert set(diameters) <= set(ids) and set(diameters.values()) == {1}

    def test_fit_measures_each_cube_once(self, graph_setup, monkeypatch):
        # the cover and the distances at the members share one field
        mu, lat, _ = graph_setup
        ids = self._family(graph_setup)
        diameters, set_diameter = Counter(), lat.set_diameter

        def count_diameter(qid):
            diameters[qid] += 1
            return set_diameter(qid)

        monkeypatch.setattr(lat, "set_diameter", count_diameter)
        graph = build_lipschitz_F(lat, mu, ids[0], ids)
        assert graph.cover is not None and graph.interp_u.size
        assert set(diameters) <= set(ids) and set(diameters.values()) == {1}


class TestWhitney:
    def test_segment_flat_extension(self):
        mu = generate("segment", n=100)
        lat = build(mu)
        tree = build_tree(lat, mu, lat.root.id, Params())
        g = build_lipschitz_F(lat, mu, lat.root.id, tree.dbtree_ids)
        assert np.max(np.abs(g.sample_v)) == 0.0
        assert g.lipschitz_estimate == 0.0

    def test_disjoint_interiors_and_dyadic_lengths(self, graph_setup):
        mu, lat, corona = graph_setup
        tree = corona.trees[lat.root.id]
        ids = tree.dbtree_ids or [lat.root.id]
        fit = beta2(mu, lat.big_ball(lat.root.id, 2.0))
        cover = whitney_cover(lat, mu, lat.root.id, ids, fit.line)
        order = np.argsort(cover.lo)
        lo, hi = cover.lo[order], cover.hi[order]
        assert np.all(lo[1:] >= hi[:-1] - 1e-15)
        lengths = hi - lo
        ratios = np.log2(lengths / lengths.min())
        assert np.allclose(ratios, np.round(ratios), atol=1e-9)

    def test_gap_tiled_by_intervals(self):
        # one isolated gap in the projected support
        left = np.linspace(0, 0.4, 30)
        right = np.linspace(0.6, 1.0, 30)
        pts = np.concatenate([left, right]) + 0j
        mu = DiscreteMeasure(pts, np.full(60, 1 / 60), 0.4 / 29 / 2)
        lat = build(mu)
        tree = build_tree(lat, mu, lat.root.id, Params())
        g = build_lipschitz_F(lat, mu, lat.root.id, tree.dbtree_ids)
        assert g.cover is not None
        mids = (g.cover.lo + g.cover.hi) / 2
        u_gap_lo = g.line.project(0.42 + 0j)
        u_gap_hi = g.line.project(0.58 + 0j)
        inside = (mids > u_gap_lo) & (mids < u_gap_hi)
        assert np.any(inside)
        # the gap interior is covered by intervals
        probe = np.linspace(u_gap_lo, u_gap_hi, 50)
        covered = np.zeros(probe.size, dtype=bool)
        for a, b in zip(g.cover.lo, g.cover.hi):
            covered |= (probe >= a) & (probe <= b)
        assert np.all(covered)

    def test_neighbor_length_comparability(self, graph_setup):
        mu, lat, corona = graph_setup
        tree = corona.trees[lat.root.id]
        ids = tree.dbtree_ids or [lat.root.id]
        fit = beta2(mu, lat.big_ball(lat.root.id, 2.0))
        cover = whitney_cover(lat, mu, lat.root.id, ids, fit.line)
        order = np.argsort(cover.lo)
        lengths = (cover.hi - cover.lo)[order]
        lo, hi = cover.lo[order], cover.hi[order]
        worst = 1.0
        for i in range(len(lengths) - 1):
            if abs(hi[i] - lo[i + 1]) < 1e-12:  # touching neighbors
                r = lengths[i + 1] / lengths[i]
                worst = max(worst, r, 1 / r)
        assert worst <= 4.0  # dyadic neighbors under a 1-Lipschitz gauge

    def test_whitney_bounds_on_15j(self, graph_setup):
        mu, lat, corona = graph_setup
        for rid, tree in corona.trees.items():
            if not tree.dbtree_ids or lat.cubes[rid].n_members < 2:
                continue
            g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
            if g.cover is None or g.cover.n == 0:
                continue
            proj = DistanceField(lat, tree.dbtree_ids).project(g.line)
            for lo, hi in zip(g.cover.lo, g.cover.hi):
                l = hi - lo
                c = (lo + hi) / 2
                us = np.linspace(c - 7.5 * l, c + 7.5 * l, 31)
                dv = np.atleast_1d(proj.value(us))
                assert np.all(dv >= 5 * l - 1e-12)
                assert np.all(dv <= 50 * l + 1e-12)


class TestPartitionOfUnity:
    def _cover(self, graph_setup):
        mu, lat, corona = graph_setup
        tree = corona.trees[lat.root.id]
        ids = tree.dbtree_ids or [lat.root.id]
        fit = beta2(mu, lat.big_ball(lat.root.id, 2.0))
        return whitney_cover(lat, mu, lat.root.id, ids, fit.line)

    def test_sums_to_one_on_cover(self, graph_setup):
        cover = self._cover(graph_setup)
        us = np.linspace(cover.lo.min(), cover.hi.max(), 3000)
        w, tot = partition_of_unity(cover, us)
        sums = w.sum(axis=1)
        assert np.all(np.abs(sums[tot > 0] - 1.0) <= 1e-12)

    def test_zero_outside_support(self, graph_setup):
        cover = self._cover(graph_setup)
        far = cover.hi.max() + 100.0
        w, tot = partition_of_unity(cover, np.array([far]))
        assert tot[0] == 0.0 and np.all(w == 0.0)

    def test_isolated_interval_weight_one(self):
        # hand-built cover with one interval
        from curvperm.graphfit import WhitneyCover

        cover = WhitneyCover(
            anchor=0.0,
            lo=np.array([0.0]),
            hi=np.array([1.0]),
            in_window=np.array([True]),
            cube_of=[0],
            coeffs=[(0.0, 0.0)],
            unresolved=[],
            window_radius=10.0,
        )
        w, tot = partition_of_unity(cover, np.array([0.5]))
        assert w[0, 0] == 1.0

    def test_derivative_bound(self, graph_setup):
        # |phi'| <= c / length, checked by finite differences
        cover = self._cover(graph_setup)
        k = int(np.argmax(cover.hi - cover.lo))
        length = cover.hi[k] - cover.lo[k]

        def phi(u):
            w, _ = partition_of_unity(cover, np.array([u]))
            return float(w[0, k])

        c = (cover.lo[k] + cover.hi[k]) / 2
        worst = 0.0
        for u in np.linspace(c - 2 * length, c + 2 * length, 200):
            worst = max(worst, abs(finite_difference(phi, u, h=length * 1e-6)))
        assert worst <= 8.0 / length


class TestLipschitzGraph:
    def test_graph_estimate_below_one(self, graph_setup):
        mu, lat, corona = graph_setup
        for rid, tree in corona.trees.items():
            if lat.cubes[rid].n_members < 2:
                continue
            g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
            assert g.lipschitz_estimate <= 1.0

    def test_support_window(self, graph_setup):
        mu, lat, corona = graph_setup
        for rid, tree in corona.trees.items():
            if lat.cubes[rid].n_members < 2:
                continue
            g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
            outside = np.abs(g.sample_u - g.u0) > 12 * g.diam
            assert np.all(np.abs(g.sample_v[outside]) == 0.0)

    def test_interpolates_graph_atoms(self, graph_setup):
        mu, lat, corona = graph_setup
        for rid, tree in sorted(corona.trees.items()):
            if not tree.dbtree_ids or lat.cubes[rid].n_members < 2:
                continue
            g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
            if g.interp_u.size == 0:
                continue
            got = g.eval(g.interp_u)
            assert np.array_equal(got, g.interp_v)
            return
        pytest.skip("no tree carried interpolation atoms")

    def test_outlier_removed_by_stopping(self):
        # graph plus one far outlier: the extension stays in its window
        base = generate("lipschitz_graph", n=64, slope=0.2, teeth=1)
        pts = np.concatenate([base.points, [0.5 + 30j]])
        w = np.concatenate([base.weights, [0.05]])
        mu = DiscreteMeasure(pts, w, base.scale)
        lat = build(mu)
        corona = build_top(lat, mu, Params())
        for rid, tree in corona.trees.items():
            if lat.cubes[rid].n_members < 2:
                continue
            g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
            outside = np.abs(g.sample_u - g.u0) > 12 * g.diam
            assert np.all(np.abs(g.sample_v[outside]) == 0.0)

    def test_closeness_report(self, graph_setup):
        mu, lat, corona = graph_setup
        best = max(
            (t for t in corona.trees.items() if lat.cubes[t[0]].n_members >= 2),
            key=lambda kv: len(kv[1].dbtree_ids),
        )
        rid, tree = best
        g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
        rep = graph_closeness_report(lat, mu, rid, tree.dbtree_ids, g)
        assert math.isfinite(rep["max_ratio"])
        assert rep["max_line_offset_over_r"] >= 0.0
        # atoms with zero distance field lie on the graph
        on = rep["d_values"] == 0.0
        assert np.all(rep["dist_to_graph"][on] <= 1e-12)


class TestBetaPermComparison:
    def test_fitted_constant_over_balanced_cubes(self):
        # positive beta excess over the squared-density base must come with
        # positive local permutations, so a finite constant absorbs it
        from curvperm.graphfit import beta_perm_comparison

        params = Params()
        worst_c = 0.0
        checked = 0
        for mu in (
            generate("lipschitz_graph", n=96, slope=0.2, teeth=1),
            generate("cantor4", level=2),
        ):
            lat = build(mu)
            for q in lat.cubes:
                if not q.doubling or q.n_members < 2:
                    continue
                verdict = balanced_ball_test(lat, mu, q.id, params.gamma)
                if not verdict.balanced:
                    continue
                rec = beta_perm_comparison(
                    lat, mu, q.id, params.eps0, params.delta
                )
                assert rec["absorbable"]
                worst_c = max(worst_c, rec["fitted_c"])
                checked += 1
        assert checked > 10
        assert math.isfinite(worst_c)

    def test_collinear_cube_has_no_excess(self):
        from curvperm.graphfit import beta_perm_comparison

        mu = generate("segment", n=64)
        lat = build(mu)
        rec = beta_perm_comparison(lat, mu, lat.root.id, 1e-2, 1e-3)
        assert rec["lhs"] == 0.0
        assert rec["excess"] <= 0.0


class TestBalancedBalls:
    def test_two_clusters_balanced(self):
        pts = np.concatenate(
            [np.linspace(0, 0.05, 10), np.linspace(0.95, 1.0, 10)]
        ).astype(complex)
        mu = DiscreteMeasure(pts, np.full(20, 0.05), 0.002)
        lat = build(mu)
        v = balanced_ball_test(lat, mu, lat.root.id, gamma=1e-3)
        assert v.balanced and v.witnesses is not None

    def test_tiny_cluster_unbalanced(self):
        # all mass in one cluster far smaller than the separation gauge
        pts = (np.arange(8) * 1e-6).astype(complex)
        mu = DiscreteMeasure(pts, np.full(8, 1.0), 4e-7)
        lat = build(mu)
        v = balanced_ball_test(lat, mu, lat.root.id, gamma=0.5)
        assert not v.balanced

    def test_uniform_segment_balanced(self):
        mu = generate("segment", n=64)
        lat = build(mu)
        v = balanced_ball_test(lat, mu, lat.root.id, gamma=1e-3)
        assert v.balanced

    def test_singleton_convention(self):
        mu = generate("segment", n=16)
        lat = build(mu)
        leaf = lat.levels[-1][0]
        v = balanced_ball_test(lat, mu, leaf, gamma=1e-3)
        assert v.balanced and v.note == "singleton"

    def test_requires_doubling(self):
        mu = generate("circle", n=128)
        lat = build(mu)
        nd = [q.id for q in lat.cubes if not q.doubling]
        if not nd:
            pytest.skip("all cubes doubling at these constants")
        with pytest.raises(ValueError):
            balanced_ball_test(lat, mu, nd[0], gamma=1e-3)

    def test_unbalanced_family_reported(self):
        pts = (np.arange(8) * 1e-6).astype(complex)
        mu = DiscreteMeasure(pts, np.full(8, 1.0), 4e-7)
        lat = build(mu)
        v = balanced_ball_test(lat, mu, lat.root.id, gamma=0.5)
        assert isinstance(v.family, tuple)
        assert v.family_strength >= 0.0
