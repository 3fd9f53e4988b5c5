import json
import math
from fractions import Fraction

import numpy as np
import pytest

from curvperm import measure
from curvperm.experiments import corpus
from curvperm.measure import (
    Ball,
    DiscreteMeasure,
    generate,
    load_json,
    pushforward,
    save_json,
)
from oracles import (
    growth_constant_exact_sq,
    growth_constant_per_atom,
    growth_constant_scan,
)


def unit_segment(n=100):
    return generate("segment", n=n)


def _scan_inputs():
    # the corpus, a circle spanning three blocks of rows, the Cantor dust
    # and two atoms whose growth constant is read at the scale
    out = dict(corpus())
    out["two_far_atoms"] = DiscreteMeasure([0, 100 + 0j], [1e-3, 1e-3], 1.0)
    out["circle_700"] = generate("perturbed", base="circle", n=700, amplitude=1e-3, seed=3)
    out["cantor4_5"] = generate("cantor4", level=5)
    return out


SCAN_INPUTS = _scan_inputs()


class TestBasics:
    def test_total_mass_empty(self):
        mu = DiscreteMeasure(np.zeros(0, complex), np.zeros(0), 1.0)
        assert mu.total_mass == 0.0

    def test_total_mass_three_atoms(self):
        mu = DiscreteMeasure([0, 1, 2j], [1.0, 1.0, 1.0], 0.5)
        assert mu.total_mass == 3.0

    def test_total_mass_segment(self):
        assert unit_segment().total_mass == pytest.approx(1.0, abs=1e-15)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0, 1], [1.0, 0.0], 0.1)

    def test_duplicate_positions(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([1 + 1j, 1 + 1j], [1.0, 1.0], 0.1)

    def test_scale_above_spacing(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0, 0.1], [1.0, 1.0], 0.5)


class TestMinSpacing:
    @pytest.mark.parametrize("kind, params", [
        ("segment", {"n": 40}), ("lipschitz_graph", {"n": 64}), ("circle", {"n": 30}),
        ("cantor4", {"level": 2}), ("perturbed", {"base": "circle", "n": 30}),
    ])
    def test_is_the_smallest_spacing(self, kind, params):
        # the generators set scale below the spacing (half of it, or a
        # third for cantor4); min_spacing is the spacing itself
        mu = generate(kind, **params)
        d = np.abs(mu.points[:, None] - mu.points[None, :])
        assert mu.min_spacing == d[d > 0].min() >= mu.scale

    def test_given_spacing_is_kept(self):
        pts = np.array([0j, 1 + 0j, 3 + 0j])
        mu = DiscreteMeasure(pts, [1.0] * 3, 0.5, spacing=(0.75, 3.0))
        assert mu.min_spacing == 0.75 and mu.diameter == 3.0

    def test_sub_measure_keeps_the_parent_bound(self):
        mu = generate("lipschitz_graph", n=64)
        sub = mu.restrict(Ball(0.9 + 0j, 0.2))
        assert 1 < len(sub) < len(mu) and sub.min_spacing == mu.min_spacing
        assert mu.restrict(Ball(5 + 0j, 0.1)).min_spacing == mu.min_spacing

    def test_fewer_than_two_atoms(self):
        assert DiscreteMeasure([1j], [1.0], 0.1).min_spacing == math.inf
        assert DiscreteMeasure([], [], 0.1).min_spacing == math.inf


class TestRestrictDensity:
    def test_restrict_excludes_far_atom(self):
        mu = DiscreteMeasure([2 + 0j], [1.0], 0.1)
        assert len(mu.restrict(Ball(0j, 1.0))) == 0

    def test_restrict_identity(self):
        mu = unit_segment(10)
        sub = mu.restrict(Ball(0.5 + 0j, 10.0))
        assert np.array_equal(sub.points, mu.points)
        assert np.array_equal(sub.weights, mu.weights)

    def test_restrict_boundary_is_strict(self):
        # atoms at x < 0.5 survive; the filter oracle is a direct comparison
        mu = unit_segment(100)
        sub = mu.restrict(Ball(0j, 0.5))
        expect = mu.points[np.abs(mu.points) < 0.5]
        assert np.array_equal(sub.points, expect)
        assert np.all(sub.points.real < 0.5)

    def test_restrict_equals_validated_construction(self):
        # restrict skips the spacing check; its sub-measures must be the
        # ones the checked constructor gives, on every cube's 2B
        from curvperm.lattice import build

        mu = generate("lipschitz_graph", n=128, slope=0.2, teeth=1)
        lat = build(mu)
        for q in lat.cubes:
            ball = lat.big_ball(q.id, 2.0)
            sub = mu.restrict(ball)
            keep = ball.contains(mu.points)
            ref = DiscreteMeasure(mu.points[keep], mu.weights[keep], mu.scale)
            assert np.array_equal(sub.points, ref.points)
            assert np.array_equal(sub.weights, ref.weights)
            assert sub.scale == ref.scale
            assert sub.total_mass == ref.total_mass
            assert sub.diameter == ref.diameter
            assert sub.points.dtype == complex and sub.weights.dtype == float
            for arr in (sub.points, sub.weights):
                assert arr.flags.c_contiguous and not arr.flags.writeable

    def test_density_three_atoms(self):
        # mu(B)/r(B) over mass_in; the ball is open, so an atom on the circle is out
        mu = DiscreteMeasure([0, 0.5, 1 + 0j], [1.0, 1.0, 1.0], 0.25)
        assert mu.mass_in(Ball(0j, 2.0)) / 2.0 == pytest.approx(1.5)
        assert mu.mass_in(Ball(0j, 1.0)) == 2.0

    def test_density_empty_ball(self):
        mu = unit_segment(10)
        assert mu.mass_in(Ball(5 + 5j, 0.5)) == 0.0


class TestGrowth:
    def test_single_atom(self):
        mu = DiscreteMeasure([1 + 2j], [0.7], 0.2)
        assert mu.linear_growth_constant() == pytest.approx(0.7 / 0.2)

    def test_empty_errors(self):
        mu = DiscreteMeasure(np.zeros(0, complex), np.zeros(0), 1.0)
        with pytest.raises(ValueError):
            mu.linear_growth_constant()

    def test_segment_matches_scan_oracle(self):
        mu = unit_segment(100)
        got = mu.linear_growth_constant()
        ref = growth_constant_scan(mu.points, mu.weights, mu.scale)
        assert got >= ref - 1e-12
        assert got == pytest.approx(ref, rel=5e-3)

    def test_circle_matches_scan_oracle(self):
        mu = generate("circle", n=64)
        got = mu.linear_growth_constant()
        ref = growth_constant_scan(mu.points, mu.weights, mu.scale)
        assert got >= ref - 1e-12
        assert got == pytest.approx(ref, rel=5e-3)

    @pytest.mark.parametrize("name", sorted(SCAN_INPUTS))
    def test_equals_per_atom_loop(self, name):
        mu = SCAN_INPUTS[name]
        assert mu.linear_growth_constant() == growth_constant_per_atom(
            mu.points, mu.weights, mu.scale)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_exact_rational_growth(self, level):
        # dyadic atoms, weights and scale: the squared constant is rational
        mu = generate("cantor4", level=level)
        exact = growth_constant_exact_sq(mu.points, mu.weights, mu.scale)
        rel = Fraction(1, 10**15)
        got = Fraction(mu.linear_growth_constant()) ** 2
        assert (1 - rel) ** 2 * exact <= got <= (1 + rel) ** 2 * exact

    def test_isometry_invariance(self):
        mu = unit_segment(40)
        rot = pushforward(mu, lambda z: z * np.exp(0.9j) + (2 - 1j), 1.0)
        assert rot.linear_growth_constant() == pytest.approx(
            mu.linear_growth_constant(), rel=1e-12
        )


class TestGenerate:
    def test_segment_two_atoms(self):
        mu = generate("segment", n=2)
        assert np.allclose(mu.points, [0, 1])
        assert np.allclose(mu.weights, [0.5, 0.5])

    def test_cantor4_level1_centers(self):
        mu = generate("cantor4", level=1)
        expect = {0.125 + 0.125j, 0.875 + 0.125j, 0.125 + 0.875j, 0.875 + 0.875j}
        assert set(np.round(mu.points, 12)) == expect
        assert np.allclose(mu.weights, 0.25)

    def test_cantor4_mass_and_count(self):
        for lvl in (1, 2, 3):
            mu = generate("cantor4", level=lvl)
            assert len(mu) == 4**lvl
            assert mu.total_mass == pytest.approx(1.0)

    def test_flat_graph_is_horizontal(self):
        mu = generate("lipschitz_graph", n=50, slope=0.0)
        assert np.all(mu.points.imag == 0.0)

    def test_graph_arclength_weights(self):
        mu = generate("lipschitz_graph", n=200, slope=0.3, teeth=2)
        assert mu.total_mass == pytest.approx(np.sqrt(1 + 0.09), rel=1e-3)

    def test_circle_mass(self):
        mu = generate("circle", n=256)
        assert mu.total_mass == pytest.approx(2 * np.pi)

    def test_reproducible(self):
        a = generate("perturbed", base="segment", n=30, amplitude=1e-3, seed=5)
        b = generate("perturbed", base="segment", n=30, amplitude=1e-3, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            generate("hyperbola")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            generate("cantor4", level=-1)

    @pytest.mark.parametrize("kind, params, key", [
        ("segment", {"N": 8}, "N"),
        ("lipschitz_graph", {"n": 16, "slopes": 0.1}, "slopes"),
        ("circle", {"level": 2}, "level"),
        ("cantor4", {"n": 16}, "n"),
        ("perturbed", {"base": "circle", "n": 16, "bogus": 1}, "bogus"),
    ])
    def test_unknown_key_is_named(self, kind, params, key):
        with pytest.raises(ValueError, match=repr(key)):
            generate(kind, **params)

    @pytest.mark.parametrize("kind, params, key", [
        ("cantor4", {"level": 2.5}, "level"),
        ("cantor4", {"level": True}, "level"),
        ("segment", {"n": 100.7}, "n"),
        ("lipschitz_graph", {"n": 64, "teeth": 1.5}, "teeth"),
        ("perturbed", {"base": "circle", "n": "16"}, "n"),
    ])
    def test_fractional_count_is_named(self, kind, params, key):
        with pytest.raises(ValueError, match=f"^{key} must be a whole number"):
            generate(kind, **params)

    def test_integral_float_count_is_kept(self):
        assert len(generate("segment", n=100.0)) == 100
        assert len(generate("cantor4", level=np.int64(2))) == 16

    def test_perturbed_runs_one_distance_pass(self, monkeypatch):
        passes = []
        rows = measure._distance_rows
        monkeypatch.setattr(measure, "_distance_rows",
                            lambda pts: passes.append(pts.size) or rows(pts))
        mu = generate("perturbed", base="lipschitz_graph", n=2048, amplitude=1e-5, seed=2)
        assert mu.diameter > 0
        assert passes == [2048]

    def test_perturbed_jitters_its_base(self):
        mu = generate("perturbed", base="circle", n=40, amplitude=1e-3, seed=4)
        base = generate("circle", n=40)
        rng = np.random.default_rng(4)
        jitter = 1e-3 * (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40))
        assert np.array_equal(mu.points, base.points + jitter)
        assert np.array_equal(mu.weights, base.weights)
        d = np.abs(mu.points[:, None] - mu.points[None, :])
        np.fill_diagonal(d, np.inf)
        assert mu.scale == min(base.scale, d.min())
        np.fill_diagonal(d, 0.0)
        assert mu.diameter == d.max()

    def test_perturbed_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="finite"):
            generate("perturbed", base="segment", n=8, amplitude=math.nan)

    def test_perturbed_passes_keys_to_its_base(self):
        mu = generate("perturbed", base="circle", n=16, radius=2.0, amplitude=1e-4)
        assert len(mu) == 16
        assert np.allclose(np.abs(mu.points), 2.0, atol=1e-3)


class TestPushforward:
    def test_identity(self):
        mu = unit_segment(20)
        out = pushforward(mu, lambda z: z, 1.0)
        assert np.array_equal(out.points, mu.points)
        assert out.scale == mu.scale

    def test_rotation_preserves_distances_and_mass(self):
        mu = generate("cantor4", level=2)
        rot = pushforward(mu, lambda z: z * np.exp(1j * np.pi / 4), 1.0)
        assert rot.total_mass == pytest.approx(mu.total_mass)
        d0 = np.abs(mu.points[:, None] - mu.points[None, :])
        d1 = np.abs(rot.points[:, None] - rot.points[None, :])
        assert np.allclose(d0, d1, rtol=1e-12, atol=1e-15)

    def test_shear_puts_segment_on_slope(self):
        mu = unit_segment(30)
        out = pushforward(mu, lambda z: z.real + 1j * (z.imag + 0.2 * z.real),
                          1.2)
        slope = out.points.imag / np.where(out.points.real == 0, 1,
                                           out.points.real)
        assert np.allclose(slope[out.points.real != 0], 0.2)

    def test_bilipschitz_pairwise_bounds(self):
        mu = generate("cantor4", level=2)
        L = 1.5
        s = L - 1 / L
        out = pushforward(mu, lambda z: z.real + 1j * (z.imag + s * z.real), L)
        d0 = np.abs(mu.points[:, None] - mu.points[None, :])
        d1 = np.abs(out.points[:, None] - out.points[None, :])
        mask = ~np.eye(len(mu), dtype=bool)
        ratio = d1[mask] / d0[mask]
        assert np.all(ratio >= 1 / L - 1e-12)
        assert np.all(ratio <= L + 1e-12)

    def test_collision_raises(self):
        mu = DiscreteMeasure([0, 1 + 0j], [1, 1], 0.5)
        with pytest.raises(ValueError):
            pushforward(mu, lambda z: np.zeros_like(z), 1.0)

    def test_one_distance_pass(self, monkeypatch):
        mu = generate("lipschitz_graph", n=600, slope=0.2)
        passes = []
        rows = measure._distance_rows
        monkeypatch.setattr(measure, "_distance_rows",
                            lambda pts: passes.append(pts.size) or rows(pts))
        img = pushforward(mu, lambda z: z * np.exp(0.4j), 1.0)
        assert img.diameter == pytest.approx(mu.diameter, rel=1e-12)
        assert passes == [600]
        with pytest.raises(ValueError):
            pushforward(mu, lambda z: np.where(z == z[0], z[1], z), 1.0)
        assert passes == [600, 600]

    def test_restrict_mass_bounded(self):
        mu = generate("cantor4", level=2)
        for r in (0.1, 0.4, 2.0):
            assert mu.restrict(Ball(0.3 + 0.3j, r)).total_mass <= mu.total_mass


class TestJsonRoundTrip:
    def test_bit_exact(self, tmp_path):
        mu = generate("perturbed", base="lipschitz_graph", n=40, slope=0.17,
                      amplitude=3e-4, seed=9)
        path = tmp_path / "m.json"
        save_json(mu, path)
        back = load_json(path)
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)
        assert back.scale == mu.scale

    def test_format_shape(self, tmp_path):
        mu = generate("segment", n=3)
        path = tmp_path / "m.json"
        save_json(mu, path)
        data = json.loads(path.read_text())
        assert set(data) == {"scale", "atoms"}
        assert set(data["atoms"][0]) == {"x", "y", "w"}

    @pytest.mark.parametrize("key, value", [
        ("x", True), ("y", False), ("w", "a"), ("w", None), ("scale", "0.5"), ("scale", True),
    ])
    def test_non_number_names_the_key(self, tmp_path, key, value):
        data = {"scale": 0.5, "atoms": [{"x": 0.0, "y": 0.0, "w": 1.0}]}
        (data if key == "scale" else data["atoms"][0])[key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"measure JSON key {key!r} must be a number"):
            load_json(path)

    @pytest.mark.parametrize("drop", ["scale", "w"])
    def test_missing_key_names_it(self, tmp_path, drop):
        data = {"scale": 0.5, "atoms": [{"x": 0.0, "y": 0.0, "w": 1.0}]}
        data.pop(drop, None)
        data["atoms"][0].pop(drop, None)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=repr(drop)):
            load_json(path)
