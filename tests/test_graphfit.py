import cmath
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from curvperm import graphfit, lattice
from curvperm.corona import Params, beta_packing_sum, build_top, build_tree
from curvperm.experiments import corona_corpus
from curvperm.graphfit import (
    DistanceField,
    LipschitzGraph,
    WhitneyCover,
    balanced_ball_test,
    beta2,
    beta_perm_comparison,
    build_lipschitz_F,
    graph_closeness_report,
    partition_of_unity,
    _select_cube,
    whitney_cover,
)
from curvperm.kernels import Line
from curvperm.lattice import _fit_lines, build, delta_mu
from curvperm.measure import Ball, DiscreteMeasure, generate
from oracles import (
    balanced_pair_dense,
    beta2_scan,
    blend_loop,
    finite_difference,
    golden_section_line,
    partition_of_unity_dense,
    whitney_cover_recursive,
)


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


class TestBatchedFit:
    """``beta2`` and the batched ``_fit_lines`` against the one-ball scan,
    bit for bit: ``repr`` tells -0.0 from 0.0, which ``==`` does not."""

    @staticmethod
    def _lattice_fits(lat):
        anchors, directions, masses, lams = _fit_lines(lat.mu, lat.atoms2b, lat.atoms2b_start)
        assert anchors.size == directions.size == masses.size == lams.size == len(lat.cubes)
        lines = [Line(a, d) for a, d in zip(anchors.tolist(), directions.tolist())]
        return lines, masses.tolist(), lams.tolist()

    @pytest.mark.parametrize("name", sorted(corona_corpus()))
    def test_every_cube_ball(self, name):
        mu = corona_corpus()[name]
        lat = build(mu)
        lines, masses, lams = self._lattice_fits(lat)
        for q in lat.cubes:
            ball = lat.big_ball(q.id, 2.0)
            ref = beta2_scan(mu, ball)
            assert repr(beta2(mu, ball)) == repr(ref)
            got = (lines[q.id], masses[q.id], math.sqrt(lams[q.id] / ball.radius**3))
            assert repr(got) == repr((ref.line, ref.mass, ref.beta))

    @pytest.mark.parametrize("points, ball", [
        ([0j, 1 + 0j], Ball(5 + 5j, 1.0)),  # empty
        ([0.3 + 0.4j], Ball(0.3 + 0.4j, 1.0)),  # one atom
        ([0.1 + 0.2j, 0.4 - 0.3j], Ball(0j, 2.0)),  # two atoms
        ([0.5 + 0j, 0.5 + 0.25j, 0.5 + 0.75j, 0.5 - 0.5j], Ball(0.5 + 0j, 2.0)),  # vertical
        ([-0.5 + 0j, -0.25 + 0j, 0.125 + 0j, 0.5 + 0j], Ball(0j, 1.0)),  # horizontal
        ([-1 + 0j, 1 + 0j, 0 - 0.0j], Ball(0j, 2.0)),  # horizontal through -0.0
    ], ids=["empty", "one", "two", "vertical", "horizontal", "negative-zero"])
    def test_small_balls(self, points, ball):
        mu = DiscreteMeasure(points, np.linspace(1.0, 2.0, len(points)), 0.01)
        assert repr(beta2(mu, ball)) == repr(beta2_scan(mu, ball))

    def test_stacked_sets_fit_as_one(self):
        # the sets of a lattice fitted together and each alone agree
        mu = corona_corpus()["perturbed_graph"]
        lat = build(mu)
        together = _fit_lines(mu, lat.atoms2b, lat.atoms2b_start)
        for q in range(0, len(lat.cubes), 7):
            atoms = lat.atoms_2b(q)
            alone = _fit_lines(mu, atoms, np.array([0, atoms.size]))
            assert repr([v[q].item() for v in together]) == repr([v[0].item() for v in alone])


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
        line = Line(0j, cmath.exp(0.1j))
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
        line = Line(0j, 1 + 0j)
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
        line = Line(0.1j, cmath.exp(0.15j))
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
        line = Line(0j, cmath.exp(0.05j))
        field = DistanceField(lat, ids)
        proj = field.project(line)
        rng = np.random.default_rng(11)
        promoted = 0
        los, his, picks = [], [], []
        for _ in range(60):
            lo = rng.uniform(-0.2, 1.2)
            hi = lo + 10.0 ** rng.uniform(-3, 0)
            los.append(lo)
            his.append(hi)
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
            picks.append(pick)
        assert _select_cube(field, proj, lat, np.array(los), np.array(his)) == picks
        assert promoted

    def test_one_fit_and_one_diameter_per_cube(self, graph_setup, monkeypatch):
        # each picked cube's line is read from the lattice's fit table
        # once, and nothing is fitted again
        mu, lat, _ = graph_setup
        ids = self._family(graph_setup)
        reads, diameters = Counter(), Counter()
        line_2b, set_diameter = lat.line_2b, lat.set_diameter

        def count_line(qid):
            reads[qid] += 1
            return line_2b(qid)

        def count_diameter(qid):
            diameters[qid] += 1
            return set_diameter(qid)

        def refit(*args):
            raise AssertionError("the lattice's lines were fitted again")

        line = line_2b(ids[0])
        monkeypatch.setattr(lattice, "_fit_lines", refit)
        monkeypatch.setattr(graphfit, "beta2", refit)
        monkeypatch.setattr(lat, "line_2b", count_line)
        monkeypatch.setattr(lat, "set_diameter", count_diameter)
        cover = whitney_cover(lat, mu, ids[0], ids, line)
        used = [q for q in cover.cube_of if q is not None]
        assert len(used) > len(set(used))
        assert sum(reads.values()) == len(set(used))
        assert set(reads.values()) == {1}
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


def _gap_measure():
    """Two clusters on a line, with one isolated gap in the projected support."""
    left = np.linspace(0, 0.4, 30)
    right = np.linspace(0.6, 1.0, 30)
    pts = np.concatenate([left, right]) + 0j
    return DiscreteMeasure(pts, np.full(60, 1 / 60), 0.4 / 29 / 2)


class TestWhitney:
    def test_segment_flat_extension(self):
        mu = generate("segment", n=100)
        lat = build(mu)
        tree = build_tree(lat, mu, lat.root.id, Params())
        g = build_lipschitz_F(lat, mu, lat.root.id, tree.dbtree_ids)
        assert np.max(np.abs(g.sample_v)) == 0.0
        assert g.lipschitz_estimate == 0.0

    @pytest.mark.parametrize("n_samples", [2.5, True, False, 0, 1, -3, math.nan, "64", None],
                             ids=repr)
    def test_sample_count_must_be_an_integer(self, n_samples, graph_setup):
        # with 0, 1 or True the grid held at most one sample, and the
        # Lipschitz estimate came from the interpolation points alone, which
        # passes any bound vacuously; 2.5 failed inside numpy
        mu, lat, corona = graph_setup
        rid, tree = max(corona.trees.items(), key=lambda kv: len(kv[1].dbtree_ids))
        for ids in (tree.dbtree_ids, []):
            with pytest.raises(ValueError, match=r"^n_samples must be an integer >= 2, got "):
                build_lipschitz_F(lat, mu, rid, ids, n_samples=n_samples)

    def test_two_samples_and_numpy_integers(self, graph_setup):
        mu, lat, corona = graph_setup
        rid, tree = max(corona.trees.items(), key=lambda kv: len(kv[1].dbtree_ids))
        assert tree.dbtree_ids
        g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids, n_samples=np.int64(2))
        ref = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids, n_samples=2)
        assert np.array_equal(g.sample_u, ref.sample_u) and g.sample_u.size >= 2
        assert g.lipschitz_estimate == ref.lipschitz_estimate

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
        mu = _gap_measure()
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


class TestLevelCover:
    """The cover built one dyadic level at a time against the depth-first
    recursion it replaced, field for field."""

    @pytest.fixture(scope="class")
    def measures(self, graph_setup):
        rng = np.random.default_rng(1)  # the graph-extension graph of seed 1
        graph = generate("lipschitz_graph", n=256, slope=float(rng.uniform(0.15, 0.3)),
                         teeth=1)
        # two atoms 1e-13 apart at scale 1e-14: the diam * 2^-42 guard, not
        # the scale floor, stops the split there
        pair = DiscreteMeasure(np.array([0, 1e-13, 0.5, 1.0]) + 0j, np.full(4, 0.25), 1e-14)
        return [graph_setup, _gap_measure(), graph, pair]

    @pytest.mark.parametrize("params", [Params(), Params(delta=0.05)],
                             ids=["default", "delta"])
    def test_matches_recursion(self, measures, params):
        covers = unresolved = 0
        for case in measures:
            mu, lat = case[:2] if isinstance(case, tuple) else (case, build(case))
            for rid, tree in sorted(build_top(lat, mu, params).trees.items()):
                if not tree.dbtree_ids:
                    continue
                line = beta2(mu, lat.big_ball(rid, 2.0)).line
                unresolved += len(self._check(lat, mu, rid, tree.dbtree_ids, line).unresolved)
                covers += 1
        assert covers > 100 and unresolved

    def test_family_cover_matches_recursion(self, graph_setup):
        # a corona tree's cover picks its root for every interval; over
        # every doubling cube the picks, promotions and slopes vary
        mu, lat, _ = graph_setup
        ids = TestCubeTable._family(graph_setup)
        for line in (beta2(mu, lat.big_ball(ids[0], 2.0)).line,
                     Line(0j, cmath.exp(0.05j)), Line(0.1j, cmath.exp(-0.1j))):
            cover = self._check(lat, mu, ids[0], ids, line)
            assert len(set(cover.cube_of) - {None}) > 10
            assert len({cf[1] for cf in cover.coeffs if cf is not None}) > 10

    @staticmethod
    def _check(lat, mu, rid, ids, line) -> WhitneyCover:
        got = whitney_cover(lat, mu, rid, ids, line)
        field = graphfit._tree_field(lat, ids)
        ref = whitney_cover_recursive(field, mu, rid, line, max(field.diameter(rid), mu.scale))
        assert got.anchor == ref.anchor and got.window_radius == ref.window_radius
        for name in ("lo", "hi", "in_window"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.cube_of == ref.cube_of
        assert got.coeffs == ref.coeffs
        assert got.unresolved == ref.unresolved
        return got


class TestFieldQueries:
    """Row-blocked field evaluation: empty queries, block boundaries, memory."""

    def test_empty_queries_return_empty_arrays(self, graph_setup):
        _, lat, _ = graph_setup
        field = DistanceField(lat, [lat.root.id])
        proj = field.project(Line(0j, cmath.exp(0.1j)))
        assert field.d(np.zeros(0, complex)).shape == (0,)
        assert proj.value(np.zeros(0)).shape == (0,)
        assert proj.inf_on(np.zeros(0), np.zeros(0)).shape == (0,)

    def test_value_is_inf_on_a_point(self, graph_setup):
        # max(u - c, c - u) == |u - c| in floating point, so the dense
        # formula, value and inf_on(u, u) agree bit for bit
        mu, lat, corona = graph_setup
        rng = np.random.default_rng(12)
        for tree in corona.trees.values():
            if not tree.dbtree_ids:
                continue
            field = DistanceField(lat, tree.dbtree_ids)
            proj = field.project(Line(0.05j, cmath.exp(0.1j)))
            u = np.concatenate([proj.coords, rng.uniform(-0.5, 1.5, 700)])
            dense = np.min(np.abs(u[:, None] - proj.coords) + proj.offsets, axis=1)
            assert np.array_equal(proj.value(u), dense)
            assert np.array_equal(proj.inf_on(u, u), dense)

    def test_row_blocks_match_one_pass(self, graph_setup, monkeypatch):
        mu, lat, _ = graph_setup
        field = DistanceField(lat, TestCubeTable._family(graph_setup))
        proj = field.project(Line(0j, cmath.exp(0.05j)))
        rng = np.random.default_rng(13)
        z = rng.uniform(-0.5, 1.5, 600) + 1j * rng.uniform(-0.3, 0.5, 600)
        lo = rng.uniform(-0.5, 1.5, 600)
        hi = lo + 10.0 ** rng.uniform(-4, 0, 600)
        d_dense = np.min(np.abs(z[:, None] - field.points) + field.offsets, axis=1)
        inf_dense = np.min(np.maximum(0.0, np.maximum(lo[:, None] - proj.coords,
                                                      proj.coords - hi[:, None]))
                           + proj.offsets, axis=1)
        picks = _select_cube(field, proj, lat, lo, hi)
        for rows in (graphfit._ROWS, 7, 1):
            monkeypatch.setattr(graphfit, "_ROWS", rows)
            assert np.array_equal(field.d(z), d_dense)
            assert np.array_equal(proj.inf_on(lo, hi), inf_dense)
            assert _select_cube(field, proj, lat, lo, hi) == picks

    def test_memory_bounded_by_row_block(self, graph_setup):
        # a dense query would hold n x P differences; a block holds _ROWS x P
        mu, lat, _ = graph_setup
        field = DistanceField(lat, TestCubeTable._family(graph_setup))
        proj = field.project(Line(0j, cmath.exp(0.05j)))
        n, block = 16 * graphfit._ROWS, graphfit._ROWS * field.points.size
        z = np.linspace(-0.5, 1.5, n) + 0.1j
        u = z.real.copy()
        for query, arg in ((field.d, z), (proj.value, u)):
            tracemalloc.start()
            query(arg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 2 * 16 * block + 8 * n


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


def _hand_cover(lo, hi, in_window=None):
    """A cover of the given intervals; interval i carries the piece
    ``(i + 1) / 8 + (-1) ** i (u - lo) / 4``, which counts only in the
    window."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    on = np.ones(lo.size, bool) if in_window is None else np.asarray(in_window)
    coeffs = [((i + 1) / 8, (-1) ** i / 4) for i in range(lo.size)]
    return WhitneyCover(0.0, lo, hi, on, [0] * lo.size, coeffs, [], 10.0)


HAND_COVERS = {
    "one": ([0.0], [1.0], None),
    "neighbours": ([0.0, 1.0], [1.0, 1.0 + 1 / 64], None),
    "gap": ([0.0, 0.5, 3.0], [0.5, 1.0, 4.0], [True, False, True]),
    "empty": ([], [], None),
}

ODD_SAMPLES = {
    # unsorted, duplicated, beyond every tripled interval, at a support edge
    "scattered": np.array([0.7, -0.2, 0.7, 5.5, 1.0, 2.0, 100.0, -40.0, 0.7, 3.5, -1.0]),
    "dense": np.random.default_rng(3).permutation(np.linspace(-3.0, 7.0, 1001)),
    "empty": np.zeros(0),
}


class TestSparseBumps:
    """The slice evaluator against the dense partition and looped blend."""

    @staticmethod
    def _compare(cover, u):
        weights, total = partition_of_unity(cover, u)
        ref_w, ref_t = partition_of_unity_dense(cover, u)
        assert weights.shape == ref_w.shape and total.shape == ref_t.shape
        assert np.all(np.abs(weights - ref_w) <= 4.5e-16)
        assert np.all(np.abs(total - ref_t) <= 1e-15 * ref_t)
        got = LipschitzGraph(None, 0.0, 1.0, cover, np.zeros(0), np.zeros(0)).blend(u)
        assert got.dtype == np.float64
        c = (cover.lo + cover.hi) / 2
        on = np.abs(u[:, None] - c[None, :]) < 3 * (cover.hi - cover.lo)[None, :] / 2
        pieces = np.zeros(ref_w.shape)
        for i, cf in enumerate(cover.coeffs):
            if cover.in_window[i] and cf is not None:
                pieces[:, i] = np.where(on[:, i], cf[0] + cf[1] * (u - cover.lo[i]), 0.0)
        scale = np.abs(pieces).max(axis=1, initial=0.0)
        assert np.all(np.abs(got - blend_loop(cover, u)) <= 1e-15 * scale)

    @pytest.fixture(scope="class")
    def graphs(self, graph_setup):
        out = [graph_setup]
        for slope in (0.18, 0.27):
            mu = generate("lipschitz_graph", n=256, slope=slope, teeth=1)
            lat = build(mu)
            out.append((mu, lat, build_top(lat, mu, Params())))
        return out

    def test_fitted_covers_match_dense(self, graphs):
        fits = 0
        for mu, lat, corona in graphs:
            for rid, tree in sorted(corona.trees.items()):
                if lat.cubes[rid].n_members < 2:
                    continue
                g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
                if g.cover is None:
                    continue
                self._compare(g.cover, g.sample_u)
                fits += 1
        assert fits >= 20

    @pytest.mark.parametrize("samples", ODD_SAMPLES)
    @pytest.mark.parametrize("cover", HAND_COVERS)
    def test_hand_covers_match_dense(self, cover, samples):
        self._compare(_hand_cover(*HAND_COVERS[cover]), ODD_SAMPLES[samples])

    def test_duplicated_interpolation_coordinate_takes_the_last(self):
        cover = _hand_cover(*HAND_COVERS["one"])
        g = LipschitzGraph(None, 0.0, 1.0, cover, np.array([0.5, 0.2, 0.5]),
                           np.array([1.0, 2.0, 3.0]))
        got = g.eval(np.array([0.5, 0.3, 0.2, 0.5]))
        assert got[[0, 2, 3]].tolist() == [3.0, 2.0, 3.0]
        assert got[1] == g.blend(0.3)[0]

    def test_empty_interpolation_is_the_blend(self):
        cover = _hand_cover(*HAND_COVERS["neighbours"])
        g = LipschitzGraph(None, 0.0, 1.0, cover, np.zeros(0), np.zeros(0))
        u = ODD_SAMPLES["dense"]
        assert np.array_equal(g.eval(u), g.blend(u))

    def test_value_off_every_bump_stays_float(self):
        # no bump is on at 100, so the blend has no entries to sum
        cover = _hand_cover(*HAND_COVERS["one"])
        g = LipschitzGraph(None, 0.0, 1.0, cover, np.array([100.0]), np.array([0.25]))
        assert g.blend(np.array([100.0])).dtype == np.float64
        assert g.eval(np.array([100.0, 50.0])).tolist() == [0.25, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        cover = _hand_cover(*HAND_COVERS["neighbours"])
        u = np.array([0.5, bad, 1.0, bad])
        for g in (LipschitzGraph(None, 0.0, 1.0, cover, np.array([0.5]), np.array([1.0])),
                  LipschitzGraph(None, 0.0, 1.0, None, np.zeros(0), np.zeros(0))):
            with pytest.raises(ValueError, match="2 non-finite"):
                g.blend(u)
            with pytest.raises(ValueError, match="2 non-finite"):
                g.eval(u)
        with pytest.raises(ValueError, match="2 non-finite"):
            partition_of_unity(cover, u)

    def test_good_atoms_are_the_zeros_of_d(self, graph_setup):
        mu, lat, corona = graph_setup
        for rid, tree in corona.trees.items():
            if not tree.dbtree_ids or lat.cubes[rid].n_members < 2:
                continue
            g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
            pts = mu.points[lat.cubes[rid].members]
            zero = np.atleast_1d(DistanceField(lat, tree.dbtree_ids).d(pts)) == 0.0
            assert np.array_equal(g.interp_u, g.line.project(pts[zero]))
            assert np.array_equal(g.interp_v, g.line.offset(pts[zero]))


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
        mu = generate("segment", n=64)
        lat = build(mu)
        rec = beta_perm_comparison(lat, mu, lat.root.id, 1e-2, 1e-3)
        assert rec["lhs"] == 0.0
        assert rec["excess"] <= 0.0


class TestLatticeMeasure:
    """The entry points that take ``(lattice, mu)`` read the lattice's tables,
    so they accept only the lattice's own measure, as build_top does."""

    @staticmethod
    def _setup():
        mu = corona_corpus()["graph_0.1"]
        lat = build(mu)
        rid, tree = max(build_top(lat, mu, Params()).trees.items(),
                        key=lambda kv: len(kv[1].dbtree_ids))
        ids = tree.dbtree_ids
        graph = build_lipschitz_F(lat, mu, rid, ids, n_samples=64)
        small = next(q.id for q in lat.cubes if q.level == 2 and lat.atoms_2b(q.id).size >= 3)
        return mu, lat, {
            "whitney_cover": lambda m: whitney_cover(lat, m, rid, ids, graph.line),
            "build_lipschitz_F": lambda m: build_lipschitz_F(lat, m, rid, ids, n_samples=64),
            "graph_closeness_report": lambda m: graph_closeness_report(lat, m, rid, ids, graph),
            "beta_perm_comparison": lambda m: beta_perm_comparison(lat, m, small, 1e-2, 1e-3),
        }

    @pytest.mark.parametrize("change", ["points", "weights"])
    @pytest.mark.parametrize("entry", ["whitney_cover", "build_lipschitz_F",
                                       "graph_closeness_report", "beta_perm_comparison"])
    def test_foreign_measure_is_rejected(self, change, entry):
        mu, _, entries = self._setup()
        pts, w = mu.points.copy(), mu.weights.copy()
        if change == "points":
            pts[3] += 1e-9
        else:
            w[3] *= 2
        with pytest.raises(ValueError, match="^mu must be the lattice's own measure, lattice.mu$"):
            entries[entry](DiscreteMeasure(pts, w, mu.scale))
        # an equal copy is the lattice's measure
        copy = DiscreteMeasure(mu.points.copy(), mu.weights.copy(), mu.scale)
        assert repr(entries[entry](copy)) == repr(entries[entry](mu))

    def test_no_whole_measure_scan(self, monkeypatch):
        # the fits, covers, beta comparisons and annulus sums read 2B atoms
        # and lines from the lattice's tables
        mu = corona_corpus()["perturbed_graph"]
        lat = build(mu)
        corona = build_top(lat, mu, Params())
        sizes, real = [], Ball.contains
        monkeypatch.setattr(Ball, "contains", lambda b, z: sizes.append(np.size(z)) or real(b, z))
        for rid, tree in corona.trees.items():
            if lat.cubes[rid].n_members >= 2:
                build_lipschitz_F(lat, mu, rid, tree.dbtree_ids, n_samples=64)
        for q in lat.cubes[1::9]:
            if lat.atoms_2b(q.id).size <= 64:
                beta_perm_comparison(lat, mu, q.id, 1e-2, 1e-3)
            delta_mu(lat, q.id, q.parent)
        beta_packing_sum(lat, mu)
        assert len(mu) not in sizes


class TestBalancedBalls:
    @pytest.mark.parametrize("n", [64, 128])
    def test_foreign_measure_is_rejected(self, n):
        # the cube's member indices are the lattice's: a smaller measure has
        # fewer atoms than they name, one of the same size other atoms
        mu = generate("lipschitz_graph", n=128, slope=0.2, teeth=1)
        lat = build(mu)
        foreign = generate("lipschitz_graph", n=n, slope=0.3, teeth=1)
        with pytest.raises(ValueError, match="^mu must be the lattice's own measure, lattice.mu$"):
            balanced_ball_test(lat, foreign, lat.root.id, gamma=0.5)
        copy = DiscreteMeasure(mu.points.copy(), mu.weights.copy(), mu.scale)
        assert (repr(balanced_ball_test(lat, copy, lat.root.id, gamma=0.5))
                == repr(balanced_ball_test(lat, mu, lat.root.id, gamma=0.5)))

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

    def test_search_matches_dense_oracle(self, graph_setup):
        # the existing unbalanced cases, two clusters and every doubling
        # cube of the fixture's graph at three balance constants
        tiny = DiscreteMeasure((np.arange(8) * 1e-6).astype(complex), np.full(8, 1.0), 4e-7)
        pts = np.concatenate([np.linspace(0, 0.05, 10),
                              np.linspace(0.95, 1.0, 10)]).astype(complex)
        clusters = DiscreteMeasure(pts, np.full(20, 0.05), 0.002)
        cases = [(tiny, 0.5), (clusters, 1e-3), (graph_setup[0], 1e-3),
                 (graph_setup[0], 0.1), (graph_setup[0], 0.5)]
        verdicts = Counter()
        for mu, gamma in cases:
            lat = graph_setup[1] if mu is graph_setup[0] else build(mu)
            for q in lat.cubes:
                if not q.doubling or q.n_members < 2:
                    continue
                v = balanced_ball_test(lat, mu, q.id, gamma)
                assert v.witnesses == balanced_pair_dense(lat, mu, q.id, gamma)
                assert v.balanced == (v.witnesses is not None)
                verdicts[v.balanced] += 1
        assert verdicts[True] and verdicts[False]
