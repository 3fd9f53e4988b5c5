import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from curvperm import corona, graphfit, lattice, permutations
from curvperm.corona import (
    Params,
    _engine_rows,
    _TreeBuilder,
    beta_packing_sum,
    build_top,
    build_tree,
    packing_sum,
    stop_mass_report,
    theta_r_rule,
)
from curvperm.experiments import corona_corpus
from curvperm.graphfit import beta2, build_lipschitz_F
from curvperm.kernels import K_ZERO
from curvperm.lattice import build
from curvperm.measure import Ball, DiscreteMeasure, generate
from curvperm.permutations import _WindowEngine, perm_truncated_window
from oracles import DenseEngine, far_stops_loop


def fresh_engine(lat, mu, rid):
    """The atoms of one root's 2B and their engine, from a fresh K_0
    matrix."""
    sub = lat.atoms_2b(rid)
    return sub, _WindowEngine(K_ZERO, mu._view(sub))


@pytest.fixture
def fit_calls(monkeypatch):
    """The number of atom sets of each ``_fit_lines`` call the lattice
    makes, in call order."""
    calls, real = [], lattice._fit_lines
    monkeypatch.setattr(lattice, "_fit_lines",
                        lambda mu, atoms, start: calls.append(start.size - 1)
                        or real(mu, atoms, start))
    return calls


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

    @pytest.mark.parametrize("field", ["separation", "c_f", "c2", "tau"])
    def test_rejects_bool(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a finite number, got True"):
            Params(**{field: True})

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

    def test_far_from_lines_and_maximality(self):
        # a loose permutation budget and a tight line tolerance let the
        # far-from-lines rule fire; it tests every cube no earlier rule
        # stopped, nested ones included, and maximality keeps the topmost
        mu = corona_corpus()["perturbed_graph"]
        lat, params = make(mu, Params(alpha=0.5, eps0=1e-8))
        corona = build_top(lat, mu, params)
        f_stops = [v for tree in corona.trees.values()
                   for v in tree.stop.values() if v.label == "F"]
        assert f_stops
        assert all(v.evidence > math.sqrt(params.alpha) for v in f_stops)
        for rid, tree in corona.trees.items():
            for q in tree.tree_ids:
                assert not tree.stop.keys() & set(lat.chain(q, rid)[1:])

    @pytest.mark.parametrize("params", [Params(), Params(alpha=0.5, eps0=1e-8),
                                        Params(eps0=1e-12, alpha=0.2, theta0=2.0)],
                             ids=["default", "loose-budget", "no-slope-rule"])
    def test_far_stops_equal_the_pair_loop(self, params, monkeypatch):
        # every call of the batched pass, over every tree of the corpus,
        # gives the verdicts of the scalar loop over (cube, line) pairs
        fired = []
        batched = _TreeBuilder.far_stops

        def both(builder, open_ids):
            got = batched(builder, open_ids)
            assert got == far_stops_loop(builder, open_ids)
            fired.extend(got)
            return got

        monkeypatch.setattr(_TreeBuilder, "far_stops", both)
        for mu in corona_corpus().values():
            lat, params = make(mu, params)
            build_top(lat, mu, params)
        assert bool(fired) == (params != Params())


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
        # r_far against the public windowed triple integral of one atom over
        # the root's doubled ball: root atoms whose windowed sum reaches c2 Theta^2 at some
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
                at_x = DiscreteMeasure(mu.points[x:x + 1], [1.0], mu.scale)
                v = perm_truncated_window(at_x, nu, nu, params.delta,
                                          lat.cubes[q].radius).value
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
    def test_heavy_hd_triggers(self):
        # the cluster holds most of the mass, so its high-density stop cubes
        # hold at least a quarter of the root's mass (the ID_H condition)
        line = np.linspace(0, 1, 40)
        cluster = 0.5013 + 0.002 * np.arange(8) / 8
        pts = np.unique(np.concatenate([line, cluster])).astype(complex)
        w = np.where(np.isin(pts.real, cluster), 1.0, 0.02)
        mu = DiscreteMeasure(pts, w, 1e-4)
        lat, params = make(mu, Params(a=100.0))
        tree = build_tree(lat, mu, lat.root.id, params)
        hd_mass = sum(lat.mass(q) for q in tree.family("HD"))
        assert hd_mass >= lat.mass(lat.root.id) / 4


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
        from curvperm.permutations import perm_truncated_window

        mu = generate("cantor4", level=3)
        lat, params = make(mu)
        deep = [q.id for q in lat.cubes if q.level == 2 and q.n_members >= 4]
        rid = deep[0]
        sub, engine = fresh_engine(lat, mu, rid)
        outer = lat.big_ball(rid, 2.0)
        slot23 = mu.restrict(outer)
        assert len(slot23) < len(mu)  # the restriction is genuine
        for qid in lat.descendants(rid)[:4]:
            ball = lat.big_ball(qid, 2.0)
            slot1 = np.flatnonzero(
                np.abs(mu.points - ball.center) < ball.radius
            )
            sums = engine.point_sums(_engine_rows(sub, slot1),
                                     lat.cubes[qid].radius, params.delta)
            got = math.fsum(mu.weights[slot1] * sums)
            ref = perm_truncated_window(
                mu.subset(slot1), slot23, slot23,
                params.delta, lat.cubes[qid].radius,
            ).value
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-18)

    def test_engine_rejects_atoms_outside_root_ball(self):
        mu = generate("cantor4", level=3)
        lat, params = make(mu)
        rid = next(q.id for q in lat.cubes if q.level == 2 and q.n_members >= 4)
        sub, _ = fresh_engine(lat, mu, rid)
        outside = np.flatnonzero(~lat.big_ball(rid, 2.0).contains(mu.points))
        assert outside.size
        with pytest.raises(ValueError, match="doubled ball"):
            _engine_rows(sub, outside[:1])
        mixed = np.sort(np.concatenate([sub[:2], outside[-1:]]))
        with pytest.raises(ValueError, match="doubled ball"):
            _engine_rows(sub, mixed)


class TestEngine:
    """The engines build_top shares across trees, sliced from one K_0 matrix
    of the whole measure, against a fresh dense engine per tree."""

    @pytest.mark.parametrize("delta", [1e-3, 0.05])
    def test_point_sums_equal_dense_oracle(self, delta, monkeypatch):
        calls = []
        real_rows, real = corona._engine_rows, _WindowEngine.point_sums

        def rows_of(sub, atoms):
            calls.append([sub, atoms])
            return real_rows(sub, atoms)

        def record(engine, rows, q_radius, d):
            out = real(engine, rows, q_radius, d)
            calls[-1] += [q_radius, out]
            return out

        monkeypatch.setattr(corona, "_engine_rows", rows_of)
        monkeypatch.setattr(_WindowEngine, "point_sums", record)
        params = Params(delta=delta)
        n_cubes = n_rows = n_whole = 0
        for mu in corona_corpus().values():
            lat, _ = make(mu, params)
            calls.clear()
            cor = build_top(lat, mu, params)
            n_cubes += sum(len(t.tree_ids) for rid, t in cor.trees.items()
                           if lat.cubes[rid].n_members >= 2)
            dense = {}
            for sub, atoms, q_radius, out in calls:
                key = sub.tobytes()
                if key not in dense:
                    dense[key] = DenseEngine(mu.points, mu.weights, sub)
                ref, mag, whole = dense[key].point_sums(atoms, q_radius, delta)
                # a row whose window leaves out some atom is summed on its
                # window as the oracle sums it; the others may be read
                # from the engine's whole-row totals
                assert np.array_equal(out[~whole], ref[~whole])
                assert np.all(np.abs(out[whole] - ref[whole]) <= 1e-12 * mag[whole])
                n_rows, n_whole = n_rows + whole.size, n_whole + whole.sum()
            n_cubes -= len(calls)
        # one call per tree cube of every multi-atom tree
        assert n_cubes == 0
        # both kinds of row occur under either delta
        assert 0 < n_whole < n_rows

    def test_atoms_at_far_scales_neither_warn_nor_drift(self, monkeypatch):
        # 0, 1, 10 and 10^-k for even k <= 168, each weighted by its smaller
        # gap: squares of K_0 overflow and squares of the weights underflow
        x = np.array(sorted([0.0, 1.0, 10.0] + [10.0**-k for k in range(2, 169, 2)]))
        gap = np.diff(x)
        mu = DiscreteMeasure(x + 0j, np.minimum(np.r_[np.inf, gap], np.r_[gap, np.inf]),
                             gap.min())
        assert len(mu) == 87
        with np.errstate(over="ignore"):
            assert np.isinf(permutations._kernel_matrix(K_ZERO, mu.points, mu.points) ** 2).any()
        seen, real = [], _TreeBuilder.perm_sq

        def perm_sq(builder, qid):
            seen.append((builder, qid, real(builder, qid)))
            return seen[-1][2]

        monkeypatch.setattr(_TreeBuilder, "perm_sq", perm_sq)
        lat, params = make(mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            build_top(lat, mu, params)
        assert len(seen) > 1000
        dense = {}
        for builder, qid, got in seen:
            key = builder.sub.tobytes()
            if key not in dense:
                dense[key] = DenseEngine(mu.points, mu.weights, builder.sub)
            slot1 = lat.atoms_2b(qid)
            ref, mag, _ = dense[key].point_sums(slot1, lat.cubes[qid].radius, params.delta)
            w = mu.weights[slot1]
            denom = builder.theta_density**2 * lat.mass(qid)
            want = max(math.fsum(w * ref), 0.0) / denom
            # within 1e-12 of the products in absolute value
            assert abs(got - want) <= 1e-12 * math.fsum(w * mag) / denom

    def test_one_kernel_pass_and_one_engine_per_run(self, monkeypatch):
        mu = generate("lipschitz_graph", n=128, slope=0.2, teeth=1)
        lat, params = make(mu)
        matrices, engines = [], []
        real_kv = permutations.kernel_values

        def kv(k, dz):
            matrices.append(np.shape(dz))
            return real_kv(k, dz)

        def new_engine(k, nu, *args):
            engines.append(nu.points)
            return _WindowEngine(k, nu, *args)

        monkeypatch.setattr(permutations, "kernel_values", kv)
        monkeypatch.setattr(corona, "_WindowEngine", new_engine)
        cor = build_top(lat, mu, params)
        # one pass over the measure's pairs, in row blocks
        assert sum(rows for rows, _ in matrices) == len(mu)
        assert all(cols == len(mu) for _, cols in matrices)
        sets = [lat.atoms_2b(rid) for rid in cor.trees
                if lat.cubes[rid].n_members >= 2]
        runs = [sets[0]] + [b for a, b in zip(sets, sets[1:])
                            if not np.array_equal(a, b)]
        assert len(runs) < len(sets)  # some consecutive roots share atoms
        assert len(engines) == len(runs)
        assert all(np.array_equal(a, mu.points[b]) for a, b in zip(engines, runs))

    def test_engines_view_or_gather_the_kernel_matrix(self, monkeypatch):
        # an engine over consecutive atoms, the whole measure included, views
        # the measure's K_0; any other engine holds a gathered copy
        kmats, engines, kinds = [], [], set()
        real_kmat = corona._kernel_matrix

        def kernel_matrix(*args):
            kmats.append(real_kmat(*args))
            return kmats[-1]

        def new_engine(k, nu, c):
            engines.append((nu.points, c))
            return _WindowEngine(k, nu, c)

        monkeypatch.setattr(corona, "_kernel_matrix", kernel_matrix)
        monkeypatch.setattr(corona, "_WindowEngine", new_engine)
        for mu in (generate("lipschitz_graph", n=128, slope=0.2, teeth=1),
                   generate("cantor4", level=3)):
            kmats.clear()
            engines.clear()
            lat, params = make(mu)
            build_top(lat, mu, params)
            index = {z: i for i, z in enumerate(mu.points.tolist())}
            for pts, c in engines:
                sub = np.array([index[z] for z in pts.tolist()])
                consecutive = sub[-1] - sub[0] + 1 == sub.size
                kinds.add((consecutive, sub.size == len(mu)))
                assert np.shares_memory(c, kmats[0]) == consecutive
                assert np.array_equal(c, kmats[0][np.ix_(sub, sub)])
        assert kinds == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("delta", [1e-3, 0.05])
    def test_row_bounds_hold(self, delta, monkeypatch):
        # every engine row's bounds on its nearest and farthest distinct
        # atom against the exact distances
        checked = []

        def checked_engine(*args):
            e = _WindowEngine(*args)
            d = np.abs(e.p[:, None] - e.p[None, :])
            far = d.max(axis=1)
            d[d == 0.0] = np.inf
            assert np.all(e.near_lb <= d.min(axis=1)) and np.all(e.near_lb > 0)
            assert np.all(e.far_ub >= far)
            checked.append(e.p.size)
            return e

        monkeypatch.setattr(corona, "_WindowEngine", checked_engine)
        for mu in corona_corpus().values():
            lat, params = make(mu, Params(delta=delta))
            build_top(lat, mu, params)
        assert sum(checked) > 1000

    def test_bounds_decide_every_row(self, engine_calls):
        # under Params() the bounds certify most rows whole, and the others
        # are summed on their windows
        rows, windowed = engine_calls("point_sums"), engine_calls("_window_sums")
        for mu in corona_corpus().values():
            lat, params = make(mu)
            build_top(lat, mu, params)
        assert sum(rows) > sum(windowed) > 0

    def test_window_pass_sees_each_open_row_once(self, monkeypatch):
        # the rows the bounds leave open, and only they, are summed on
        # their windows, each once
        real_sums, real_win = _WindowEngine.point_sums, _WindowEngine._window_sums
        seen, n_open = [], 0

        def point_sums(engine, rows, q_radius, delta):
            nonlocal n_open
            lo, hi = permutations._window(delta, q_radius)
            sure = (engine.dabs is None) & (engine.near_lb >= lo) & (engine.far_ub[rows] <= hi)
            seen.clear()
            out = real_sums(engine, rows, q_radius, delta)
            got = np.concatenate(seen) if seen else np.array([], dtype=int)
            assert got.size == np.unique(got).size
            assert np.array_equal(np.sort(got), np.sort(rows[~sure]))
            n_open += np.count_nonzero(~sure)
            return out

        monkeypatch.setattr(_WindowEngine, "point_sums", point_sums)
        monkeypatch.setattr(_WindowEngine, "_window_sums",
                            lambda e, j, *a: seen.append(j) or real_win(e, j, *a))
        params = Params(delta=0.05)
        for mu in corona_corpus().values():
            lat, _ = make(mu, params)
            build_top(lat, mu, params)
        assert n_open > 0

    def test_cube_line_reads_the_ball_atoms_of_perm_sq(self, monkeypatch):
        # cube_line counts 2B(Q) from the lattice's atom table and reads its
        # line from the lattice's fit table; neither scans the ball, not
        # even on the first read, which fits every cube
        mu = corona_corpus()["graph_0.2"]
        lat, params = make(mu)
        depth, lines, stray = 0, [], []
        real_line, real_contains = corona._TreeBuilder.cube_line, Ball.contains

        def cube_line(builder, q):
            nonlocal depth
            depth += 1
            try:
                lines.append(q)
                return real_line(builder, q)
            finally:
                depth -= 1

        monkeypatch.setattr(corona._TreeBuilder, "cube_line", cube_line)
        monkeypatch.setattr(Ball, "contains",
                            lambda b, z: (depth and stray.append(b)) or real_contains(b, z))
        build_top(lat, mu, params)
        assert lines and stray == []

    def test_too_large_for_memory_is_rejected(self, monkeypatch):
        mu = generate("segment", n=400)
        lat, params = make(mu)
        monkeypatch.setattr(corona, "_physical_memory", lambda: 10**6)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^build_top on 400 atoms needs about 5120000 bytes"):
                build_top(lat, mu, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_engine_set_up_allocates_no_square_matrix(self):
        mu = generate("cantor4", level=5)
        kmat = permutations._kernel_matrix(K_ZERO, mu.points, mu.points)
        sub = np.arange(len(mu))
        tracemalloc.start()
        try:
            _WindowEngine(K_ZERO, mu._view(sub), kmat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kmat.nbytes / 4

    def test_whole_windows_skip_the_product(self, engine_calls):
        # under Params() the window of nearly every cube holds its whole
        # root ball, so no engine needs D W K(z - x)
        mu = generate("cantor4", level=5)
        lat, params = make(mu)
        rows, windowed = engine_calls("point_sums"), engine_calls("_window_sums")
        products = engine_calls("_product")
        build_top(lat, mu, params)
        assert products == []
        assert sum(windowed) <= 0.1 * sum(rows)

    def test_build_tree_evaluates_only_its_root_block(self, monkeypatch):
        mu = generate("cantor4", level=3)
        lat, params = make(mu)
        rid = next(q.id for q in lat.cubes if q.level == 2 and q.n_members >= 4)
        shapes = []
        real_kv = permutations.kernel_values
        monkeypatch.setattr(permutations, "kernel_values",
                            lambda k, dz: shapes.append(np.shape(dz)) or real_kv(k, dz))
        build_tree(lat, mu, rid, params)
        m = lat.atoms_2b(rid).size
        assert m < len(mu)
        assert sum(rows for rows, _ in shapes) == m
        assert all(cols == m for _, cols in shapes)


class TestPinnedDecisions:
    """The corona's decisions on ``corona_corpus()``, pinned by SHA-256 so
    that a change of summation order that moves any of them shows.  Per
    measure the digest reads the generations and, per tree, its stop labels,
    tree cubes, far atoms and next roots; no float value enters it."""

    # per delta: Params() and Params(delta=0.05); the two agree, as no
    # decision on the corpus depends on delta
    DIGESTS = {
        1e-3: "6b182ab68ce07b29bcc49c8f3394945a34df6a8733bff7a1aa8cbd61c1a2c3f5",
        0.05: "6b182ab68ce07b29bcc49c8f3394945a34df6a8733bff7a1aa8cbd61c1a2c3f5",
    }

    @staticmethod
    def digest(params: Params) -> str:
        h = hashlib.sha256()
        for name, mu in corona_corpus().items():
            lat, _ = make(mu, params)
            cor = build_top(lat, mu, params)
            trees = [[rid, sorted((q, v.label) for q, v in t.stop.items()), t.tree_ids,
                      t.r_far.tolist(), t.next_ids] for rid, t in cor.trees.items()]
            h.update(json.dumps([name, cor.generations, trees], default=int).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("delta", sorted(DIGESTS))
    def test_decisions_are_pinned(self, delta):
        assert self.digest(Params(delta=delta)) == self.DIGESTS[delta]


class TestTableAndFits:
    """build_top reads 2B atoms from the lattice's table and each cube's
    line from the lattice's fit table, which fits every cube once, in one
    batch."""

    def test_no_whole_measure_scan(self, monkeypatch):
        sizes, real = [], Ball.contains
        monkeypatch.setattr(Ball, "contains", lambda b, z: sizes.append(np.size(z)) or real(b, z))
        for name in ("graph_0.2", "cantor4_3", "perturbed_graph"):
            mu = corona_corpus()[name]
            lat, params = make(mu)
            sizes.clear()
            build_top(lat, mu, params)
            assert len(mu) not in sizes

    def test_each_doubling_cube_fitted_once(self, monkeypatch, fit_calls):
        # one fit per cube, doubling or not, in one call; no beta2 scan
        betas, real_beta = [], graphfit.beta2
        monkeypatch.setattr(graphfit, "beta2", lambda *a: betas.append(a) or real_beta(*a))
        assert not hasattr(corona, "beta2") and not hasattr(corona, "_fit_lines")
        for mu in corona_corpus().values():
            lat, params = make(mu)
            fit_calls.clear()
            cor = build_top(lat, mu, params)
            assert fit_calls == [len(lat.cubes)]
            assert len(cor.trees) > 0 and betas == []

    def test_one_fit_serves_every_reader(self, fit_calls):
        # the trees of build_top and build_tree, the beta packing sum and
        # every tree's Lipschitz fit read one fit of the lattice
        for name in ("graph_0.2", "cantor4_2"):
            mu = corona_corpus()[name]
            lat, params = make(mu)
            fit_calls.clear()
            cor = build_top(lat, mu, params)
            build_tree(lat, mu, lat.root.id, Params(delta=0.05))
            beta_packing_sum(lat, mu)
            for rid, tree in cor.trees.items():
                build_lipschitz_F(lat, mu, rid, tree.dbtree_ids, n_samples=64)
            assert fit_calls == [len(lat.cubes)]

    def test_single_atom_root_is_a_table_lookup(self):
        # no engine, no point sums and no mask over the measure's atoms
        mu = generate("cantor4", level=6)
        lat, params = make(mu)
        lat.line_2b(lat.root.id)  # fit the lattice's lines, as build_top's first tree does
        roots = [q.id for q in lat.cubes if q.doubling and q.n_members == 1]
        assert len(roots) > 100

        def no_engine(sub):
            raise AssertionError("a single-atom root built an engine")

        for rid in roots[::97]:
            builder = corona._TreeBuilder(lat, rid, params)
            tracemalloc.start()
            try:
                tree = builder.build(no_engine)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < len(mu)  # one bool per atom would not fit
            chain = sorted(lat.descendants(rid), key=lambda q: (lat.cubes[q].level, q))
            assert tree.tree_ids == chain and tree.stop == {} and tree.next_ids == []
            assert tree.perm_sq == dict.fromkeys(chain, 0.0)
            assert np.array_equal(tree.g_r, lat.cubes[rid].members)
            assert tree.r_far.size == tree.dropped_atoms.size == 0
            assert repr(tree.line) == repr(lat.line_2b(rid))

    @pytest.mark.parametrize("change", ["points", "weights"])
    @pytest.mark.parametrize("entry", ["build_top", "build_tree"])
    def test_foreign_measure_is_rejected(self, change, entry):
        mu = corona_corpus()["graph_0.1"]
        lat, params = make(mu)
        pts, w = mu.points.copy(), mu.weights.copy()
        if change == "points":
            pts[3] += 1e-9
        else:
            w[3] *= 2
        other = DiscreteMeasure(pts, w, mu.scale)
        run = ((lambda m: build_top(lat, m, params)) if entry == "build_top"
               else (lambda m: build_tree(lat, m, lat.root.id, params)))
        with pytest.raises(ValueError, match="lattice's own measure"):
            run(other)
        # an equal copy is the lattice's measure
        copy = DiscreteMeasure(mu.points.copy(), mu.weights.copy(), mu.scale)
        assert repr(run(copy)) == repr(run(mu))


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
