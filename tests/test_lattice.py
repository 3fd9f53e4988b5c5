import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvperm.corona import Params
from curvperm.experiments import corona_corpus
from curvperm.lattice import (
    BIG_BALL_FACTOR,
    _greedy_net,
    build,
    delta_mu,
    density_chain_report,
    first_doubling_ancestor,
    maximal_doubling,
    small_boundary_report,
)
from curvperm.measure import DiscreteMeasure, generate
from oracles import (
    beta2_scan,
    delta_mu_scan,
    density_chain_scan,
    doubling_raw,
    greedy_net_1d,
    level_5b_pairs,
)


@pytest.fixture(scope="module")
def segment_lattice():
    mu = generate("segment", n=64)
    return mu, build(mu)


@pytest.fixture(scope="module")
def cantor_lattice():
    mu = generate("cantor4", level=3)
    return mu, build(mu)


class TestBuild:
    def test_single_atom(self):
        mu = DiscreteMeasure([0.3 + 0.7j], [1.0], 0.5)
        lat = build(mu)
        assert len(lat.levels) == 1
        assert lat.root.n_members == 1

    def test_two_clusters_split(self):
        pts = [0j, 0.01 + 0j, 1 + 0j, 1.01 + 0j]
        mu = DiscreteMeasure(pts, [1.0] * 4, 0.005)
        lat = build(mu)
        # some level separates the clusters, one cube per cluster
        for lvl in lat.levels[1:]:
            if len(lvl) == 2:
                sets = [frozenset(lat.cubes[q].members.tolist()) for q in lvl]
                assert frozenset({0, 1}) in sets and frozenset({2, 3}) in sets
                break
        else:
            pytest.fail("no level separated the clusters")

    def test_level_counts_match_net_oracle(self, segment_lattice):
        mu, lat = segment_lattice
        # per-parent nets on a single line collapse to one global 1-d net
        for k in (2, 3):
            if k >= len(lat.levels):
                continue
            sep = lat.separation * lat.a0 ** (-k) * lat.rescale
            got = len(lat.levels[k])
            parents = lat.levels[k - 1]
            expect = sum(
                greedy_net_1d(mu.points[lat.cubes[p].members].real, sep)
                for p in parents
            )
            assert got == expect

    def test_partition_per_level(self, cantor_lattice):
        mu, lat = cantor_lattice
        n = len(mu)
        for lvl in lat.levels:
            seen = np.zeros(n, dtype=bool)
            for q in lvl:
                m = lat.cubes[q].members
                assert not np.any(seen[m])
                seen[m] = True
            assert np.all(seen)

    def test_nesting(self, cantor_lattice):
        _, lat = cantor_lattice
        for q in lat.cubes:
            if q.children:
                union = np.sort(
                    np.concatenate([lat.cubes[c].members for c in q.children])
                )
                assert np.array_equal(union, q.members)

    def test_radius_sandwich(self, cantor_lattice):
        _, lat = cantor_lattice
        for q in lat.cubes:
            r = q.radius / lat.rescale
            assert lat.a0 ** (-q.level) <= r * (1 + 1e-12)
            assert r <= lat.c0 * lat.a0 ** (-q.level) * (1 + 1e-12)

    def test_members_within_big_ball(self, cantor_lattice):
        mu, lat = cantor_lattice
        assert lat.report["member_radius_violations"] == []
        for q in lat.cubes:
            pts = mu.points[q.members]
            assert np.all(np.abs(pts - q.center) <= BIG_BALL_FACTOR * q.radius)

    def test_center_is_member(self, cantor_lattice):
        mu, lat = cantor_lattice
        for q in lat.cubes:
            assert q.center in mu.points[q.members]

    def test_sibling_disjointness(self, segment_lattice):
        # the separation rule makes sibling ball disjointness exact; any
        # violation would be listed in the build report
        _, lat = segment_lattice
        assert lat.report["sibling_5b_violations"] == []
        total_pairs = sum(
            len(q.children) * (len(q.children) - 1) // 2 for q in lat.cubes
        )
        assert total_pairs > 0

    def test_cantor_nets_from_own_members(self):
        # each cube's net comes from its own atoms, so siblings stay
        # separated and members stay in the big ball at every level of the
        # level-5 dust, where the measure's first atoms lie elsewhere
        lat = build(generate("cantor4", level=5))
        assert lat.report["sibling_5b_violations"] == []
        assert lat.report["member_radius_violations"] == []

    def test_greedy_net_reads_members(self):
        # members far from the measure's first atoms
        pts = np.concatenate([np.arange(10), 100 + 0.5 * np.arange(10)]).astype(complex)
        net = _greedy_net(pts, np.arange(10, 20), 3.0)
        assert net == [10, 19]  # 100 and 104.5; every member is within 2.5

    @pytest.mark.parametrize("separation", [10.0, 3.0])
    def test_report_pairs_match_pair_loop(self, separation):
        # the report's per-level numpy comparison lists the pairs of the
        # plain loop, in its order; at separation 3 nets crowd and about
        # two thousand pairs are listed
        listed = 0
        for mu in corona_corpus().values():
            lat = build(mu, separation=separation)
            level, sibling = level_5b_pairs(lat)
            assert lat.report["level_5b_violations"] == level
            assert lat.report["sibling_5b_violations"] == sibling
            listed += len(level)
        assert listed > 0

    def test_doubled_balls_nest_in_ancestors(self):
        # the corona's windowed sums see only the root's 2B, so every
        # descendant's 2B must lie inside it
        params = Params()
        two_b = 2 * BIG_BALL_FACTOR
        for mu in corona_corpus().values():
            lat = build(mu, c0=params.c0, a0=params.a0,
                        separation=params.separation,
                        doubling_constant=params.doubling_constant)
            for q in lat.cubes:
                rid = q.parent
                while rid is not None:
                    r = lat.cubes[rid]
                    assert (abs(q.center - r.center) + two_b * q.radius
                            <= two_b * r.radius)
                    rid = r.parent

    def test_bad_constants(self):
        mu = generate("segment", n=8)
        with pytest.raises(ValueError):
            build(mu, c0=8.0, a0=2.0)

    @pytest.mark.parametrize("name, value", [
        ("separation", 0.0), ("separation", -1.0), ("separation", math.nan),
        ("separation", math.inf), ("a0", math.inf), ("c0", math.inf),
    ])
    def test_constant_that_would_never_finish_is_named(self, name, value):
        # a zero separation or an infinite a0 makes every atom a net point
        # at every level, so the build would never end
        with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got {value!r}"):
            build(generate("segment", n=5), **{name: value})

    def test_underflowing_separation_is_rejected(self):
        mu = DiscreteMeasure([0, 1e-30, 3e-30], [1.0] * 3, 1e-31)
        with pytest.raises(ValueError, match="level-1 separation underflows"):
            build(mu, a0=1e300)

    def test_k_max_truncates_depth(self):
        mu = generate("segment", n=64)
        lat = build(mu, k_max=2)
        assert len(lat.levels) == 3
        full = build(mu)
        assert len(full.levels) > 3

    @pytest.mark.parametrize("k_max", [-1, 1.5, True])
    def test_k_max_must_be_a_count(self, k_max):
        with pytest.raises(ValueError, match=rf"^k_max must be an integer >= 0, got {k_max!r}$"):
            build(generate("segment", n=64), k_max=k_max)

    def test_k_max_zero_builds_the_root(self):
        assert len(build(generate("segment", n=64), k_max=0).levels) == 1

    def test_k_max_below_resolution(self):
        mu = generate("segment", n=8)
        with pytest.raises(ValueError):
            build(mu, k_max=12)

    def test_json_dump_stable(self, segment_lattice):
        _, lat = segment_lattice
        a = json.dumps(lat.to_dict(), sort_keys=True)
        b = json.dumps(lat.to_dict(), sort_keys=True)
        assert a == b
        payload = json.loads(a)
        assert {"id", "level", "center", "r", "members", "doubling", "parent"} <= set(
            payload["cubes"][0]
        )


class TestDoubling:
    def test_root_doubling(self, segment_lattice):
        _, lat = segment_lattice
        assert lat.root.doubling

    def test_isolated_cluster(self):
        pts = [0j, 0.001 + 0j]
        mu = DiscreteMeasure(pts, [1.0, 1.0], 0.0005)
        lat = build(mu)
        assert lat.root.doubling

    def test_heavy_mass_outside_fails_small_constant(self):
        # one light atom with heavy mass just outside 99 radii
        pts = [0j, 0.5 + 0j]
        mu = DiscreteMeasure(pts, [1e-3, 10.0], 0.004)
        lat = build(mu, doubling_constant=2.0)
        target = None
        for q in lat.cubes:
            if q.n_members == 1 and abs(q.center) == 0.0:
                if 100 * q.radius > 0.5 and q.radius < 0.5:
                    target = q.id
        assert target is not None
        assert not lat.cubes[target].doubling

    @pytest.mark.parametrize("c0, a0", [(2.0, 8.0), (1.05, 1.1)])
    def test_ball_mass_table_equals_oracle(self, c0, a0):
        # at a0 = 1.1 a child's 100B can stick out of its parent's, and the
        # table then reads every atom for it
        outside = 0
        for mu in corona_corpus().values():
            lat = build(mu, c0=c0, a0=a0)
            for q in lat.cubes:
                assert q.doubling == doubling_raw(lat, q.id)
                b = lat.big_ball(q.id, 2.0)
                assert lat.theta_2b(q.id) == mu.mass_in(b) / b.radius
                if q.parent is not None:
                    p = lat.cubes[q.parent]
                    outside += (abs(q.center - p.center) + 100 * q.radius
                                > 100 * p.radius * (1 - 1e-9))
        assert (outside > 0) == (a0 < 2)

    def test_maximal_doubling_self(self, segment_lattice):
        _, lat = segment_lattice
        assert maximal_doubling(lat, lat.root.id) == [lat.root.id]

    def test_maximal_doubling_antichain(self):
        mu = generate("cantor4", level=2)
        lat = build(mu, doubling_constant=4.0)
        for q in lat.cubes:
            fam = maximal_doubling(lat, q.id)
            for a in fam:
                assert lat.cubes[a].doubling
                for b in fam:
                    if a != b:
                        assert not lat.is_ancestor(a, b)

    def test_first_doubling_ancestor_self(self, segment_lattice):
        _, lat = segment_lattice
        assert first_doubling_ancestor(lat, lat.root.id) == lat.root.id

    def test_first_doubling_ancestor_walks_up(self):
        mu = generate("circle", n=128)
        lat = build(mu)
        nd = [q.id for q in lat.cubes if not q.doubling]
        if not nd:
            pytest.skip("no non-doubling cube at these constants")
        anc = first_doubling_ancestor(lat, nd[0])
        assert lat.cubes[anc].doubling
        assert lat.is_ancestor(anc, nd[0])

    def test_root_always_doubling(self):
        # the root ball covers the support, so its 100-fold ball adds no
        # mass and the ancestor walk always terminates
        for mu in (generate("circle", n=32), generate("cantor4", level=2)):
            lat = build(mu, doubling_constant=1.0001)
            assert lat.root.doubling
            for q in lat.cubes:
                anc = first_doubling_ancestor(lat, q.id)
                assert lat.cubes[anc].doubling

    def test_no_doubling_ancestor_errors(self):
        mu = DiscreteMeasure([0j, 0.5 + 0j], [1e-3, 10.0], 0.004)
        lat = build(mu)
        lat.cubes[lat.root.id].doubling = False  # force the degenerate case
        orphan = [q.id for q in lat.cubes if not q.doubling]
        with pytest.raises(ValueError):
            first_doubling_ancestor(lat, orphan[0])


def corona_build_inputs(seed: int) -> list:
    """The four measures of the ``corona-build`` benchmark workload."""
    rng = np.random.default_rng(seed)
    return [generate("lipschitz_graph", n=1024), generate("circle", n=512),
            generate("cantor4", level=5),
            generate("perturbed", seed=int(rng.integers(2**31)), base="lipschitz_graph",
                     n=512, amplitude=1e-4)]


@st.composite
def _grid_measures(draw):
    """Distinct atoms on a scaled integer grid, with unequal weights."""
    cells = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12)),
                          min_size=1, max_size=48, unique=True))
    unit = draw(st.sampled_from([1.0, 1e-3, 37.5]))
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=len(cells),
                            max_size=len(cells)))
    return DiscreteMeasure([unit * complex(x, y) for x, y in cells], weights, unit)


class TestBallTable:
    """``Lattice.atoms_2b`` against a scan of every atom."""

    @staticmethod
    def _check(lat) -> int:
        """Assert the table of every cube; count the cubes whose 100B is not
        held by the parent's, which read every atom."""
        outside = 0
        for q in lat.cubes:
            ref = np.flatnonzero(lat.big_ball(q.id, 2.0).contains(lat.mu.points))
            got = lat.atoms_2b(q.id)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            if q.parent is not None:
                p = lat.cubes[q.parent]
                outside += (abs(q.center - p.center) + 100 * q.radius
                            > 100 * p.radius * (1 - 1e-9))
        return outside

    @pytest.mark.parametrize("c0, a0", [(2.0, 8.0), (1.05, 1.1)])
    def test_corpus(self, c0, a0):
        outside = sum(self._check(build(mu, c0=c0, a0=a0))
                      for mu in corona_corpus().values())
        assert (outside > 0) == (a0 < 2)

    def test_corona_build_inputs(self):
        for mu in corona_build_inputs(1):
            self._check(build(mu))

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(_grid_measures(), st.sampled_from([(2.0, 8.0), (1.05, 1.1), (1.5, 3.0)]))
    def test_grid_measures(self, mu, constants):
        c0, a0 = constants
        self._check(build(mu, c0=c0, a0=a0))

    def test_atoms_on_the_sphere_are_left_out(self):
        # on the eighths of [0, 1] some atom lies exactly 2 * 28 * r from
        # a cube's centre; the open 2B leaves it out
        lat = build(generate("segment", n=9))
        on = sum(np.count_nonzero(np.abs(lat.mu.points - q.center)
                                  == 2.0 * BIG_BALL_FACTOR * q.radius) for q in lat.cubes)
        assert on > 0
        self._check(lat)

    def test_one_read_only_index_array(self):
        lat = build(generate("cantor4", level=3))
        assert not lat.atoms2b.flags.writeable
        assert lat.atoms2b_start.size == len(lat.cubes) + 1
        assert lat.atoms2b_start[-1] == lat.atoms2b.size
        assert all(lat.atoms_2b(q.id).base is lat.atoms2b for q in lat.cubes)

    def test_table_retains_one_index_array_and_offsets(self):
        # dropping the table frees one index array, its offsets and their
        # two headers; an array per cube would free a header for each of
        # the 338 cubes as well
        tracemalloc.start()
        try:
            lat = build(generate("cantor4", level=4))
            table = lat.atoms2b.nbytes + lat.atoms2b_start.nbytes
            before = tracemalloc.get_traced_memory()[0]
            lat.atoms2b = lat.atoms2b_start = None
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(lat.cubes) > 300 and table > 10**4
        assert table <= freed <= table + 512


class TestIdsRunLevelByLevel:
    """``build`` numbers the cubes level by level, so a plain sort of cube
    ids orders them by ``(level, id)``, as the corona, the Whitney cover
    and the CLI sort them."""

    @staticmethod
    def _check(lat):
        assert [i for lvl in lat.levels for i in lvl] == list(range(len(lat.cubes)))
        assert [q.id for q in lat.cubes] == list(range(len(lat.cubes)))

    @pytest.mark.parametrize("c0, a0", [(2.0, 8.0), (1.05, 1.1)])
    def test_corpus(self, c0, a0):
        for mu in corona_corpus().values():
            self._check(build(mu, c0=c0, a0=a0))

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(_grid_measures(), st.sampled_from([(2.0, 8.0), (1.05, 1.1), (1.5, 3.0)]))
    def test_grid_measures(self, mu, constants):
        c0, a0 = constants
        self._check(build(mu, c0=c0, a0=a0))


class TestFitTable:
    """``Lattice.line_2b`` and ``beta_2b`` against a scan of each cube's 2B,
    bit for bit: ``repr`` tells -0.0 from 0.0, which ``==`` does not."""

    @staticmethod
    def _check(lat):
        for q in lat.cubes:
            ref = beta2_scan(lat.mu, lat.big_ball(q.id, 2.0))
            assert not ref.degenerate  # a 2B holds its cube's members
            assert repr((lat.line_2b(q.id), lat.beta_2b(q.id))) == repr((ref.line, ref.beta))

    @pytest.mark.parametrize("name", sorted(corona_corpus()))
    def test_corpus(self, name):
        self._check(build(corona_corpus()[name]))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_corona_build_inputs(self, seed):
        for mu in corona_build_inputs(seed):
            self._check(build(mu))

    def test_flat_arrays_fitted_once(self):
        lat = build(generate("cantor4", level=3))
        table = lat._fit_2b
        assert lat._fit_2b is table
        assert [a.dtype for a in table] == [np.dtype(complex), np.dtype(complex), np.dtype(float)]
        assert all(a.shape == (len(lat.cubes),) for a in table)


class TestChainsAndBoundaries:
    def test_trivial_chain(self, segment_lattice):
        _, lat = segment_lattice
        rep = density_chain_report(lat, lat.root.id, lat.root.id)
        assert rep["chain"] == [lat.root.id]
        assert rep["ratio"] == pytest.approx(1.0)

    def test_chain_with_doubling_intermediate_errors(self, segment_lattice):
        _, lat = segment_lattice
        leaf = lat.levels[-1][0]
        chain = lat.chain(leaf, lat.root.id)
        if len(chain) > 2 and lat.cubes[chain[1]].doubling:
            with pytest.raises(ValueError):
                density_chain_report(lat, leaf, lat.root.id)

    def test_chain_report_equals_the_scan(self):
        # every chain up from every cube through non-doubling cubes
        chains = cubes = 0
        for mu in corona_corpus().values():
            lat = build(mu)
            cubes += len(lat.cubes)
            for q in lat.cubes:
                pid = q.id
                while True:
                    got = density_chain_report(lat, q.id, pid)
                    assert got == density_chain_scan(lat, q.id, pid)
                    chains += 1
                    if pid == lat.root.id or (pid != q.id and lat.cubes[pid].doubling):
                        break
                    pid = lat.cubes[pid].parent
        assert chains > cubes

    def test_chain_report_fields(self):
        mu = generate("circle", n=128)
        lat = build(mu)
        nd = [q.id for q in lat.cubes
              if not q.doubling and q.parent is not None]
        if not nd:
            pytest.skip("no non-doubling cube")
        q = nd[0]
        child = lat.cubes[q].children[0] if lat.cubes[q].children else None
        if child is None:
            pytest.skip("childless")
        rep = density_chain_report(lat, child, lat.cubes[q].parent)
        assert len(rep["thetas"]) == len(rep["chain"])
        assert rep["sum_thetas"] >= rep["thetas"][-1] - 1e-12

    def test_small_boundary_isolated(self):
        pts = [0j, 0.001 + 0j, 5 + 5j]
        mu = DiscreteMeasure(pts, [1.0, 1.0, 1.0], 0.0005)
        lat = build(mu)
        for lvl in lat.levels[1:]:
            for qid in lvl:
                q = lat.cubes[qid]
                if q.n_members == 2:
                    rep = small_boundary_report(lat, qid, 0)
                    assert rep["ext_mass"] == 0.0
                    break

    def test_small_boundary_below_resolution_flag(self, segment_lattice):
        _, lat = segment_lattice
        rep = small_boundary_report(lat, lat.levels[-1][0], 20)
        assert rep["below_resolution"]

    def test_small_boundary_adversary_recorded_not_raised(self):
        # a heavy atom a hair across a cell boundary: the level-2 nets
        # centre cells on 0 and 0.3, which split the pair at 0.15 into
        # different cubes while the reference bound decays (c0^-7 a0 > 1
        # at these constants)
        e = 1e-4
        pts = [0j, 0.15 - e + 0j, 0.15 + e + 0j, 0.3 + 0j, 1 + 0j]
        mu = DiscreteMeasure(pts, [1e-3, 1e-3, 10.0, 1e-3, 1e-3], e)
        lat = build(mu, c0=1.05, a0=8.0)
        failed = False
        for q in lat.cubes:
            for l in (1, 2, 3):
                rep = small_boundary_report(lat, q.id, l)
                if not rep["holds"]:
                    failed = True
        assert failed

    def test_delta_mu_same_cube(self, segment_lattice):
        _, lat = segment_lattice
        assert delta_mu(lat, lat.root.id, lat.root.id) == 0.0

    def test_delta_mu_single_annulus_atom(self):
        pts = [0j, 0.001 + 0j, 0.9 + 0j]
        mu = DiscreteMeasure(pts, [1.0, 1.0, 2.5], 0.0005)
        lat = build(mu)
        inner = None
        for q in lat.cubes:
            if set(q.members.tolist()) == {0, 1} and q.parent is not None:
                inner = q.id
        if inner is None:
            pytest.skip("cluster cube not formed")
        path = lat.chain(inner, lat.root.id)
        outer = path[-1]
        inner_ball = lat.big_ball(inner, 2.0)
        if abs(0.9 - inner_ball.center) < inner_ball.radius:
            pytest.skip("annulus empty at these scales")
        got = delta_mu(lat, inner, outer)
        z_q = lat.cubes[inner].center
        assert got == pytest.approx(2.5 / abs(0.9 - z_q), rel=1e-12)

    def test_delta_mu_vs_density(self, segment_lattice):
        mu, lat = segment_lattice
        leaf = lat.levels[-1][len(lat.levels[-1]) // 2]
        val = delta_mu(lat, leaf, lat.root.id)
        theta_root = lat.theta_2b(lat.root.id)
        assert val > 0
        # recorded ratio stays within a modest multiple of the root density
        assert val / theta_root < 2000

    @pytest.mark.parametrize("name", sorted(corona_corpus()))
    def test_delta_mu_matches_scan(self, name):
        # the annulus read from the 2B table sums the atoms the scan finds
        lat = build(corona_corpus()[name])
        pairs = [(q.id, t) for q in lat.cubes for t in lat.chain(q.id, lat.root.id)]
        assert any(delta_mu_scan(lat, q, t) > 0 for q, t in pairs)
        for q, t in pairs:
            assert repr(delta_mu(lat, q, t)) == repr(delta_mu_scan(lat, q, t))

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(_grid_measures())
    def test_delta_mu_matches_scan_on_grids(self, mu):
        lat = build(mu)
        for q in lat.cubes:
            for t in lat.chain(q.id, lat.root.id):
                assert repr(delta_mu(lat, q.id, t)) == repr(delta_mu_scan(lat, q.id, t))

    def test_delta_mu_precondition(self, segment_lattice):
        _, lat = segment_lattice
        a, b = lat.levels[-1][0], lat.levels[-1][1]
        with pytest.raises(ValueError):
            delta_mu(lat, a, b)
