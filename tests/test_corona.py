import math

import numpy as np
import pytest

from curvperm.corona import (
    Params,
    beta_packing_sum,
    build_top,
    build_tree,
    id_classify,
    packing_sum,
    stop_mass_report,
    theta_r_rule,
)
from curvperm.graphfit import beta2
from curvperm.lattice import build
from curvperm.measure import DiscreteMeasure, generate
from curvperm.permutations import perm_at_point
from curvperm.reduction import deterministic_sum


def make(mu, params=None):
    params = params or Params()
    lat = build(mu, c0=params.c0, a0=params.a0, separation=params.separation,
                doubling_constant=params.doubling_constant)
    return lat, params


class TestParams:
    def test_defaults_satisfy_ordering(self):
        p = Params()
        assert 0 < p.tau < 1
        assert 1.0 / p.a <= p.tau**2
        assert p.gamma <= p.tau**3
        assert p.c2_value > 0

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            Params(tau=0.1, a=50.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            Params(tau=0.1, gamma=0.01)

    @pytest.mark.parametrize(
        "field", ["theta0", "eps0", "alpha", "c_f", "c2", "separation"]
    )
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            Params(**{field: math.nan})

    def test_c2_override(self):
        assert Params(c2=0.25).c2_value == 0.25


class TestThetaRule:
    def test_horizontal_line_tight_budget(self):
        p = Params(theta0=0.05, c_f=1.0)
        in_vf, theta = theta_r_rule(np.pi / 2, p)
        assert in_vf and theta == 0.05

    def test_vertical_line_inflated_budget(self):
        p = Params(theta0=0.05, c_f=1.0)
        in_vf, theta = theta_r_rule(0.0, p)
        assert not in_vf and theta == pytest.approx(0.2)

    def test_boundary_inclusive(self):
        p = Params(theta0=0.05, c_f=1.0)
        in_vf, theta = theta_r_rule(0.1, p)
        assert in_vf and theta == 0.05


class TestSegmentTree:
    def test_empty_stop(self):
        mu = generate("segment", n=100)
        lat, params = make(mu)
        tree = build_tree(lat, mu, lat.root.id, params)
        assert tree.stop == {}
        assert tree.next_ids == []
        assert tree.g_r.size == 100
        assert tree.r_far.size == 0
        assert tree.in_t_vf

    def test_classify_none(self):
        mu = generate("segment", n=64)
        lat, params = make(mu)
        some_cube = lat.levels[2][1]
        assert some_cube not in build_tree(lat, mu, lat.root.id, params).stop

    def test_collinear_never_bp_bs_f(self):
        mu = generate("segment", n=64, end=np.exp(0.3j))
        lat, params = make(mu)
        tree = build_tree(lat, mu, lat.root.id, params)
        labels = {v.label for v in tree.stop.values()}
        assert not labels & {"BP", "BS", "F"}


class TestConstructedStops:
    def test_high_density_cluster(self):
        # a tight heavy cluster on an otherwise sparse line: collinearity
        # silences every other rule, so the density rule must fire
        line = np.linspace(0, 1, 40)
        cluster = 0.5013 + 0.002 * np.arange(8) / 8
        pts = np.unique(np.concatenate([line, cluster])).astype(complex)
        w = np.where(np.isin(pts.real, cluster), 1.0, 0.02)
        mu = DiscreteMeasure(pts, w, 1e-4)
        lat, params = make(mu, Params(a=100.0))
        tree = build_tree(lat, mu, lat.root.id, params)
        labels = [v.label for v in tree.stop.values()]
        assert "HD" in labels
        hd = [q for q, v in tree.stop.items() if v.label == "HD"]
        for q in hd:
            assert lat.theta_2b(q) > params.a * tree.theta_density

    def test_low_density_outlier(self):
        # far light atoms in an otherwise heavy support
        dense = np.linspace(0, 1, 50).astype(complex)
        sparse = np.array([5 + 5j, 6 + 6j])
        pts = np.concatenate([dense, sparse])
        w = np.concatenate([np.full(50, 1.0), np.full(2, 1e-5)])
        mu = DiscreteMeasure(pts, w, 1e-3)
        # the accumulation rule is disabled to isolate the density rule
        lat, params = make(mu, Params(alpha=1e9))
        tree = build_tree(lat, mu, lat.root.id, params)
        ld = [q for q, v in tree.stop.items() if v.label == "LD"]
        assert ld
        for q in ld:
            assert lat.theta_2b(q) < params.tau * tree.theta_density

    def test_kink_fires_slope_rule(self):
        # two branches meeting at a 30 degree kink; the permutation and
        # far-point rules are disabled so the slope rule is isolated
        n = 48
        x = np.linspace(0, 1, n)
        left = x[x <= 0.5] * np.exp(0.26j)
        right = (0.5 * np.exp(0.26j)
                 + (x[x > 0.5] - 0.5) * np.exp(-0.26j))
        pts = np.concatenate([left, right])
        mu = DiscreteMeasure(pts, np.full(n, 1.0 / n), float(x[1] - x[0]) / 2)
        params = Params(alpha=1e9, theta0=0.05)
        lat, params = make(mu, params)
        tree = build_tree(lat, mu, lat.root.id, params)
        labels = [v.label for v in tree.stop.values()]
        assert "BS" in labels
        for q, v in tree.stop.items():
            if v.label == "BS":
                line_q = beta2(mu, lat.big_ball(q, 2.0)).line
                assert v.evidence > tree.theta_r


class TestRFar:
    def test_collinear_empty(self):
        mu = generate("segment", n=64)
        lat, params = make(mu)
        tree = build_tree(lat, mu, lat.root.id, params)
        assert tree.r_far.size == 0

    def test_off_line_heavy_atom_flagged(self):
        pts = np.concatenate([np.linspace(0, 1, 40).astype(complex),
                              [0.5 + 0.3j]])
        w = np.concatenate([np.full(40, 1 / 40), [0.5]])
        mu = DiscreteMeasure(pts, w, 1e-3)
        lat, params = make(mu, Params(alpha=1e9))
        tree = build_tree(lat, mu, lat.root.id, params)
        assert 40 in tree.r_far.tolist()

    def test_mass_bound_recorded(self):
        mu = generate("perturbed", base="lipschitz_graph", n=96, slope=0.2,
                      amplitude=2e-4, seed=13)
        lat, params = make(mu)
        tree = build_tree(lat, mu, lat.root.id, params)
        far_mass = float(mu.weights[tree.r_far].sum())
        # recorded against the expected bound; not asserted as a theorem
        assert far_mass >= 0.0
        assert math.isfinite(far_mass / max(mu.total_mass, 1e-12))

    def test_matches_public_point_op(self):
        # r_far against the public pointwise op over the root's doubled
        # ball: root atoms whose windowed sum reaches c2 Theta^2 at some
        # surviving cube whose doubled ball holds them; with this narrow
        # window the root's sums flag only some atoms, the smaller
        # surviving cubes flag most of the rest
        mu = generate("perturbed", base="lipschitz_graph", n=96, slope=0.2,
                      amplitude=2e-4, seed=13)
        lat, params = make(mu, Params(alpha=1e9, delta=0.3, c2=600.0))
        tree = build_tree(lat, mu, lat.root.id, params)
        rid = tree.root_id
        nu = mu.restrict(lat.big_ball(rid, 2.0))
        cut = params.c2_value * tree.theta_density**2
        members = lat.cubes[rid].members
        survivors = [q for q in tree.tree_ids if q == rid or q not in tree.stop]
        assert len(survivors) > 1
        best = dict.fromkeys(members.tolist(), -math.inf)
        for q in survivors:
            inside = lat.big_ball(q, 2.0).contains(mu.points[members])
            for x in members[inside].tolist():
                v = perm_at_point(mu.points[x], nu, nu, params.delta,
                                  lat.cubes[q].radius)
                best[x] = max(best[x], v)
        got = set(tree.r_far.tolist())
        assert 0 < len(got) < len(members)
        for x, v in best.items():
            if abs(v - cut) > 1e-10 * cut:
                assert (x in got) == (v >= cut), x


@pytest.fixture(scope="module")
def cantor_corona():
    mu = generate("cantor4", level=3)
    lat, params = make(mu)
    return mu, lat, build_top(lat, mu, params)


class TestTreeStructure:

    def test_stop_disjoint(self, cantor_corona):
        mu, lat, corona = cantor_corona
        for tree in corona.trees.values():
            seen = np.zeros(len(mu), dtype=bool)
            for q in tree.stop:
                m = lat.cubes[q].members
                assert not np.any(seen[m])
                seen[m] = True

    def test_tree_and_dbtree_consistency(self, cantor_corona):
        mu, lat, corona = cantor_corona
        for tree in corona.trees.values():
            tree_set = set(tree.tree_ids)
            for q in tree.dbtree_ids:
                assert q in tree_set
                assert lat.cubes[q].doubling
                assert q not in tree.stop
            for q in tree.stop:
                assert q in tree_set

    def test_next_doubling_and_proper(self, cantor_corona):
        mu, lat, corona = cantor_corona
        for rid, tree in corona.trees.items():
            seen = np.zeros(len(mu), dtype=bool)
            for q in tree.next_ids:
                assert lat.cubes[q].doubling
                assert q != rid
                m = lat.cubes[q].members
                assert not np.any(seen[m])  # pairwise disjoint
                seen[m] = True

    def test_replacement_identity(self, cantor_corona):
        mu, lat, corona = cantor_corona
        for rid, tree in corona.trees.items():
            stop_atoms = np.zeros(len(mu), dtype=bool)
            next_atoms = np.zeros(len(mu), dtype=bool)
            for q in tree.stop:
                stop_atoms[lat.cubes[q].members] = True
            for q in tree.next_ids:
                next_atoms[lat.cubes[q].members] = True
            members = lat.cubes[rid].members
            assert np.array_equal(stop_atoms[members], next_atoms[members])

    def test_g_r_complements_stop(self, cantor_corona):
        mu, lat, corona = cantor_corona
        for rid, tree in corona.trees.items():
            members = set(lat.cubes[rid].members.tolist())
            stopped = set()
            for q in tree.stop:
                stopped.update(lat.cubes[q].members.tolist())
            assert set(tree.g_r.tolist()) == members - stopped

    def test_generation_nesting(self, cantor_corona):
        mu, lat, corona = cantor_corona
        for k in range(1, len(corona.generations)):
            prev = corona.generations[k - 1]
            for q in corona.generations[k]:
                owners = [r for r in prev if lat.is_ancestor(r, q)]
                assert len(owners) == 1

    def test_segment_single_generation(self):
        mu = generate("segment", n=100)
        lat, params = make(mu)
        corona = build_top(lat, mu, params)
        assert [len(g) for g in corona.generations] == [1]

    def test_cantor_multiple_generations(self, cantor_corona):
        _, _, corona = cantor_corona
        assert len(corona.generations) >= 2  # recorded behaviour at desk scale


class TestIdClassify:
    def test_empty_stop_both_false(self):
        mu = generate("segment", n=100)
        lat, params = make(mu)
        tree = build_tree(lat, mu, lat.root.id, params)
        flags = id_classify(lat, tree)
        assert not flags.id_h and not flags.id_u

    def test_heavy_hd_triggers(self):
        # the cluster holds most of the mass, so its high-density stop cube
        # pushes the flag over the quarter threshold
        line = np.linspace(0, 1, 40)
        cluster = 0.5013 + 0.002 * np.arange(8) / 8
        pts = np.unique(np.concatenate([line, cluster])).astype(complex)
        w = np.where(np.isin(pts.real, cluster), 1.0, 0.02)
        mu = DiscreteMeasure(pts, w, 1e-4)
        lat, params = make(mu, Params(a=100.0))
        tree = build_tree(lat, mu, lat.root.id, params)
        flags = id_classify(lat, tree)
        hd_mass = sum(lat.mass(q) for q in tree.family("HD"))
        assert hd_mass >= lat.mass(lat.root.id) / 4
        assert flags.id_h
        assert math.isfinite(flags.next_density_sum)


class TestMassReports:
    def test_empty_stop_all_zero(self):
        mu = generate("segment", n=100)
        lat, params = make(mu)
        tree = build_tree(lat, mu, lat.root.id, params)
        rep = stop_mass_report(lat, tree)
        assert all(v == 0.0 for v in rep.masses.values())
        assert rep.bp_holds

    def test_bp_bound_exact_everywhere(self):
        for name, mu in (
            ("cantor", generate("cantor4", level=2)),
            ("graph", generate("lipschitz_graph", n=96, slope=0.3, teeth=1)),
        ):
            lat, params = make(mu)
            corona = build_top(lat, mu, params)
            for tree in corona.trees.values():
                rep = stop_mass_report(lat, tree)
                assert rep.bp_holds, name

    def test_graph_ld_ratio_recorded(self):
        mu = generate("lipschitz_graph", n=96, slope=0.2, teeth=1)
        lat, params = make(mu)
        tree = build_tree(lat, mu, lat.root.id, params)
        rep = stop_mass_report(lat, tree)
        assert rep.ratios["LD"] <= 1.0
        assert "LD" in rep.flags

    def test_density_band(self):
        from curvperm.corona import density_band_report

        for mu in (generate("segment", n=64),
                   generate("cantor4", level=2),
                   generate("lipschitz_graph", n=96, slope=0.2, teeth=1)):
            lat, params = make(mu)
            tree = build_tree(lat, mu, lat.root.id, params)
            rep = density_band_report(lat, tree)
            assert rep["lower_ok"]  # exact by the stopping rule
            assert math.isfinite(rep["observed_upper_over_a"])

    def test_bp_monotone_in_alpha(self):
        mu = generate("cantor4", level=2)
        lat, params = make(mu)
        small = build_tree(lat, mu, lat.root.id, params)
        big = build_tree(lat, mu, lat.root.id,
                         Params(alpha=params.alpha * 2))
        bp_small = set(small.family("BP"))
        bp_big = set(big.family("BP"))
        # enlarging the threshold weakly shrinks the family's atoms
        atoms = lambda fam: set(
            int(a) for q in fam for a in lat.cubes[q].members
        )
        assert atoms(bp_big) <= atoms(bp_small)


class TestDepthCappedLattice:
    def test_childless_stop_cubes_terminate(self):
        # a depth-capped lattice has multi-atom leaves; a stopped leaf is
        # replaced by itself once and never re-rooted
        mu = generate("cantor4", level=2)
        lat = build(mu, k_max=2)
        params = Params()
        corona = build_top(lat, mu, params)
        assert len(corona.generations) <= len(lat.levels) + 2
        for rid, tree in corona.trees.items():
            for q in tree.next_ids:
                assert q != rid
        # atoms dropped at the frontier are reported, not lost silently
        dropped = sum(t.dropped_atoms.size for t in corona.trees.values())
        assert dropped >= 0

    def test_deep_root_engine_matches_public_op(self):
        # on a deep root the companion-ball restriction of the outer slots
        # matters; the engine must agree with the public windowed integral
        from curvperm.corona import _PermEngine
        from curvperm.permutations import perm_truncated_window

        mu = generate("cantor4", level=3)
        lat, params = make(mu)
        deep = [q.id for q in lat.cubes if q.level == 2 and q.n_members >= 4]
        rid = deep[0]
        engine = _PermEngine(lat, mu, rid)
        outer = lat.big_ball(rid, 2.0)
        slot23 = mu.restrict(outer)
        assert len(slot23) < len(mu)  # the restriction is genuine
        for qid in lat.descendants(rid)[:4]:
            ball = lat.big_ball(qid, 2.0)
            slot1 = np.flatnonzero(
                np.abs(mu.points - ball.center) < ball.radius
            )
            sums = engine.point_sums(slot1, lat.cubes[qid].radius, params.delta)
            got = deterministic_sum(mu.weights[slot1] * sums)
            ref = perm_truncated_window(
                mu.subset(slot1), slot23, slot23,
                params.delta, lat.cubes[qid].radius,
            ).value
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-18)

    def test_engine_rejects_atoms_outside_root_ball(self):
        from curvperm.corona import _PermEngine

        mu = generate("cantor4", level=3)
        lat, params = make(mu)
        rid = next(q.id for q in lat.cubes if q.level == 2 and q.n_members >= 4)
        engine = _PermEngine(lat, mu, rid)
        outside = np.flatnonzero(~lat.big_ball(rid, 2.0).contains(mu.points))
        assert outside.size
        with pytest.raises(ValueError, match="doubled ball"):
            engine.point_sums(outside[:1], lat.cubes[rid].radius, params.delta)
        mixed = np.sort(np.concatenate([engine.sub[:2], outside[-1:]]))
        with pytest.raises(ValueError, match="doubled ball"):
            engine.point_sums(mixed, lat.cubes[rid].radius, params.delta)


class TestPackingSums:
    def test_segment_packing(self):
        mu = generate("segment", n=100)
        lat, params = make(mu)
        corona = build_top(lat, mu, params)
        rep = packing_sum(lat, corona, mu)
        theta_r = lat.theta_2b(lat.root.id)
        assert rep.top_sum == pytest.approx(theta_r**2 * mu.total_mass)
        assert abs(rep.p0) < 1e-12
        assert math.isfinite(rep.ratio_upper)

    def test_cantor_sandwich_finite(self):
        mu = generate("cantor4", level=3)
        lat, params = make(mu)
        corona = build_top(lat, mu, params)
        rep = packing_sum(lat, corona, mu)
        assert rep.p_inf > 0 and rep.top_sum > 0
        assert math.isfinite(rep.ratio_lower) and math.isfinite(rep.ratio_upper)

    def test_beta_packing_zero_for_lines(self):
        mu = generate("segment", n=64)
        lat, _ = make(mu)
        rep = beta_packing_sum(lat, mu)
        assert rep.beta_sum <= 1e-12

    def test_beta_packing_cantor_exceeds_graph(self):
        mu_g = generate("lipschitz_graph", n=64, slope=0.2, teeth=1)
        mu_c = generate("cantor4", level=2)
        lat_g, _ = make(mu_g)
        lat_c, _ = make(mu_c)
        rep_g = beta_packing_sum(lat_g, mu_g)
        rep_c = beta_packing_sum(lat_c, mu_c)
        assert math.isfinite(rep_g.ratio) and math.isfinite(rep_c.ratio)
        assert rep_c.beta_sum > rep_g.beta_sum
