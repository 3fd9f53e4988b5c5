import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvperm.kernels import (
    K_INF,
    K_ZERO,
    KernelParam,
    Line,
    angle_between,
    kernel_values,
    kt,
    theta_vertical,
    v_far,
    zero_lines,
)
from oracles import kernel_t


class TestKernelEval:
    def test_t0_at_one(self):
        assert kernel_values(K_ZERO, 1 + 0j) == 1.0

    def test_vanishes_on_imaginary_axis(self):
        for k in (K_INF, K_ZERO, kt(-1.3), kt(7.0)):
            assert kernel_values(k, 1j) == 0.0
            assert kernel_values(k, -2.5j) == 0.0

    def test_unit_circle_reduction(self):
        # on the unit circle the kernel is cos(a) (cos(a)^2 + t)
        for t in (-1.0, -0.5, 0.0, 2.0):
            for a in (0.3, np.pi / 4, 1.2, 2.9):
                z = complex(np.cos(a), np.sin(a))
                expect = np.cos(a) * (np.cos(a) ** 2 + t)
                assert kernel_values(kt(t), z) == pytest.approx(expect, abs=1e-14)

    def test_anchor_minus_one_diag(self):
        val = kernel_values(kt(-1.0), complex(np.cos(np.pi / 4), np.sin(np.pi / 4)))
        assert val == pytest.approx(-np.sqrt(2) / 4, abs=1e-12)

    def test_infinite_param_is_explicit(self):
        assert K_INF.is_infinite
        with pytest.raises(ValueError):
            KernelParam(math.inf)

    def test_vectorized_fill(self):
        z = np.array([0j, 1 + 0j])
        out = kernel_values(K_ZERO, z)
        assert out[0] == 0.0 and out[1] == 1.0


_rng = np.random.default_rng(42)
_z = _rng.uniform(-3, 3, 5000) + 1j * _rng.uniform(-3, 3, 5000)


class TestKernelProperties:
    Z = _z[np.abs(_z) > 1e-6]

    def setup_method(self):
        self.z = self.Z

    @pytest.mark.parametrize("t", [None, 0.0, -1.0, 0.5, 3.0])
    def test_oddness(self, t):
        k = K_INF if t is None else kt(t)
        v = kernel_values(k, self.z)
        w = kernel_values(k, -self.z)
        assert np.max(np.abs(v + w) / np.maximum(np.abs(v), 1e-300)) <= 1e-15

    def _term_scale(self, t):
        # the two kernel pieces cancel along the zero lines; errors are
        # judged against the pre-cancellation term magnitude
        if t is None:
            return np.abs(kernel_values(K_INF, self.z))
        return np.abs(kernel_values(K_ZERO, self.z)) + abs(t) * np.abs(
            kernel_values(K_INF, self.z)
        )

    @pytest.mark.parametrize("t", [None, 0.0, -1.0, -0.7, 2.0])
    def test_homogeneity(self, t):
        k = K_INF if t is None else kt(t)
        rng = np.random.default_rng(7)
        lam = rng.uniform(0.01, 100, self.z.size)
        v = kernel_values(k, self.z) / lam
        w = kernel_values(k, lam * self.z)
        scale = np.maximum(np.abs(v), self._term_scale(t) / lam)
        assert np.max(np.abs(v - w) / scale) <= 1e-12

    @pytest.mark.parametrize("t", [-1.5, -1.0, -0.25, 0.5, 4.0])
    def test_decomposition(self, t):
        v = kernel_values(kt(t), self.z)
        split = kernel_values(K_ZERO, self.z) + t * kernel_values(K_INF, self.z)
        scale = np.maximum(np.abs(v), self._term_scale(t))
        assert np.max(np.abs(v - split) / scale) <= 1e-14


class TestKernelRange:
    """``kernel_values`` across the whole double range: |z|^4 underflows
    below about 1e-77 and overflows above about 1e77."""

    T = [None, 0.0, -0.5, 2.0]

    @staticmethod
    def _points(lo, hi):
        rng = np.random.default_rng(3)
        mod = 10.0 ** np.linspace(lo, hi, 1201)
        return mod * np.exp(1j * rng.uniform(0, 2 * np.pi, mod.size))

    @staticmethod
    def _complex_form(t, z):
        # 1/4 Re(conj(z)/z^2) + (3/4 + t) Re(1/z), in exact rationals
        x, y = Fraction(z.real), Fraction(z.imag)
        r2 = x * x + y * y
        if t is None:
            return float(x / r2)
        t = Fraction(t)
        return float((x**3 - 3 * x * y * y) / (4 * r2 * r2)
                     + (Fraction(3, 4) + t) * x / r2)

    @pytest.mark.parametrize("t", T)
    def test_matches_complex_form_from_1e_300_to_1e300(self, t):
        z = self._points(-300, 300)
        k = K_INF if t is None else kt(t)
        got = kernel_values(k, z)
        ref = np.array([self._complex_form(t, v) for v in z])
        scale = (1 + (0 if t is None else abs(t))) / np.abs(z)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref) / scale) <= 1e-14

    @pytest.mark.parametrize("t", T)
    def test_plain_formula_bits_from_1e_70_to_1e70(self, t):
        z = self._points(-70, 70)
        k = K_INF if t is None else kt(t)
        ref = np.array([kernel_t(t, v) for v in z])
        assert np.array_equal(kernel_values(k, z).view(np.uint64), ref.view(np.uint64))

    def test_reported_extremes(self):
        assert kernel_values(K_ZERO, 1e-100) == 1e100
        assert kernel_values(K_ZERO, 1e-80 * (1 + 1j)) == pytest.approx(2.5e79, rel=1e-15)
        assert kernel_values(K_ZERO, 1e120) == 1e-120
        assert kernel_values(K_ZERO, 1e200) == 1e-200
        assert kernel_values(K_INF, 1e200) == 1e-200
        assert kernel_values(K_INF, 1e-160) == 1e160

    def test_zero_maps_to_zero_at_every_scale(self):
        z = np.array([0j, 1e-170 + 0j, 0j, 1e170j])
        v = kernel_values(K_ZERO, z)
        assert v[[0, 2, 3]].tolist() == [0.0, 0.0, 0.0]
        assert v[1] == pytest.approx(1e170, rel=1e-15)

    def test_flat_kernel_odd_bit_for_bit(self):
        # the corona engine reads a column of its K_0 matrix as a negated row
        z = np.concatenate([self._points(-300, 300), TestKernelProperties.Z])
        v = kernel_values(K_ZERO, z)
        assert np.array_equal(kernel_values(K_ZERO, -z).view(np.uint64),
                              (-v).view(np.uint64))

    @pytest.mark.parametrize("t", [None, -0.5, 1.5])
    def test_odd_bit_for_bit(self, t):
        # the windowed-sum engine drops the z = x term of D w as -A[x, y]
        z = np.concatenate([self._points(-300, 300), TestKernelProperties.Z])
        k = K_INF if t is None else kt(t)
        assert np.array_equal(kernel_values(k, -z).view(np.uint64),
                              (-kernel_values(k, z)).view(np.uint64))

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.one_of(st.none(), st.sampled_from([0.0, -0.7, 3.1, -1.0]), st.floats(-5, 5)),
           st.lists(st.tuples(st.floats(-300, 300), st.floats(0, 2 * math.pi)),
                    min_size=1, max_size=64))
    def test_odd_bit_for_bit_property(self, t, polar):
        mod, ang = np.array(polar).T
        z = 10.0**mod * np.exp(1j * ang)
        k = K_INF if t is None else kt(t)
        v, w = kernel_values(k, z), kernel_values(k, -z)
        assert np.array_equal(w, -v)
        # on a zero line both values are the +0 of x + (-x); elsewhere the
        # sign bits agree too
        on = v != 0
        assert np.array_equal(w[on].view(np.uint64), (-v[on]).view(np.uint64))


class TestZeroLines:
    def test_counts_table(self):
        sweep = (-3, -2, -1.5, -1, -0.9, -0.5, -0.1, 0, 1, 5)
        expect = (1, 1, 1, 2, 3, 3, 3, 1, 1, 1)
        assert tuple(len(zero_lines(t)) for t in sweep) == expect

    def test_vertical_always_present(self):
        for t in (-5, -1, -0.3, 0, 10):
            assert any(abs(a - np.pi / 2) < 1e-15 for a in zero_lines(t))

    def test_minus_half_angles(self):
        angles = zero_lines(-0.5)
        assert angles == pytest.approx([np.pi / 4, np.pi / 2, 3 * np.pi / 4])

    def test_angles_are_roots(self):
        # kernel vanishes identically along every reported line
        for t in (-0.9, -0.5, -0.1, -1.0):
            for a in zero_lines(t):
                for r in (0.5, 1.0, 7.0, -2.0):
                    z = r * complex(np.cos(a), np.sin(a))
                    if z != 0:
                        assert abs(kernel_values(kt(t), z)) < 1e-14 / abs(r)


class TestLines:
    def test_theta_vertical_cases(self):
        assert theta_vertical(Line(0j, cmath.exp(0.5j * np.pi))) == 0.0
        assert theta_vertical(Line(0j, 1 + 0j)) == pytest.approx(np.pi / 2)
        assert theta_vertical(Line(0j, cmath.exp(0.25j * np.pi))) == pytest.approx(np.pi / 4)

    def test_angle_between_cases(self):
        l1 = Line(0j, 1 + 0j)
        assert angle_between(l1, Line(3 + 2j, 1 + 0j)) == 0.0
        assert angle_between(l1, Line(0j, cmath.exp(0.5j * np.pi))) == pytest.approx(
            np.pi / 2
        )
        assert angle_between(l1, Line(0j, cmath.exp(0.25j * np.pi))) == pytest.approx(
            np.pi / 4
        )

    def test_line_needs_unit_direction(self):
        with pytest.raises(ValueError):
            Line(0j, 2 + 0j)

    def test_project_embed_round_trip(self):
        line = Line(1 + 2j, (2 - 3j) / abs(2 - 3j))
        z = np.array([0.5 + 0.5j, 2 - 2j, 4 + 1j])
        u = line.project(z)
        v = line.offset(z)
        back = line.embed(u, v)
        assert np.allclose(back, z, atol=1e-14)

    def test_distance(self):
        line = Line(0j, 1 + 0j)
        assert line.distance(3 + 2j) == pytest.approx(2.0)


class TestVFar:
    def test_vertical_triple_false(self):
        assert not v_far(0j, 1j, 2.5j, 0.1)

    def test_horizontal_triple_true(self):
        assert v_far(0j, 1 + 0j, 2.5 + 0j, 1.0)

    def test_right_triangle(self):
        # angles: pi/2 (horizontal pair), 0 (vertical pair), pi/4
        assert v_far(0j, 1 + 0j, 1j, np.pi / 2)
        assert not v_far(0j, 1 + 0j, 1j, 3 * np.pi / 4 + 0.01)

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            v_far(0j, 0j, 1 + 0j, 0.1)
        with pytest.raises(ValueError):
            v_far(np.array([0j, 1j]), np.array([1 + 0j, 1j]), 2 + 0j, 0.1)

    def test_arrays_match_scalar_calls_and_lines(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-1, 1, (3, 400)) + 1j * rng.uniform(-1, 1, (3, 400))
        # the sums of the connecting lines' vertical angles, line by line
        angles = np.array([
            sum(theta_vertical(Line(0j, d / abs(d)))
                for d in (z[b, i] - z[a, i] for a, b in ((0, 1), (0, 2), (1, 2))))
            for i in range(400)
        ])
        for theta in (0.3, 1.5, 2.5):
            far = v_far(z[0], z[1], z[2], theta)
            assert far.dtype == bool
            assert far.tolist() == [v_far(*z[:, i], theta) for i in range(400)]
            clear = np.abs(angles - theta) > 1e-12
            assert np.array_equal(far[clear], (angles >= theta)[clear])
