import math

import numpy as np
import pytest

from curvperm.kernels import (
    K_INF,
    K_ZERO,
    KernelParam,
    Line,
    angle_between,
    cauchy_kernel,
    kernel_eval,
    kernel_values,
    kt,
    line_from_angle,
    line_through,
    theta_vertical,
    v_far,
    zero_lines,
)


class TestKernelEval:
    def test_t0_at_one(self):
        assert kernel_eval(K_ZERO, 1 + 0j) == 1.0

    def test_vanishes_on_imaginary_axis(self):
        for k in (K_INF, K_ZERO, kt(-1.3), kt(7.0)):
            assert kernel_eval(k, 1j) == 0.0
            assert kernel_eval(k, -2.5j) == 0.0

    def test_unit_circle_reduction(self):
        # on the unit circle the kernel is cos(a) (cos(a)^2 + t)
        for t in (-1.0, -0.5, 0.0, 2.0):
            for a in (0.3, np.pi / 4, 1.2, 2.9):
                z = complex(np.cos(a), np.sin(a))
                expect = np.cos(a) * (np.cos(a) ** 2 + t)
                assert kernel_eval(kt(t), z) == pytest.approx(expect, abs=1e-14)

    def test_anchor_minus_one_diag(self):
        val = kernel_eval(kt(-1.0), complex(np.cos(np.pi / 4), np.sin(np.pi / 4)))
        assert val == pytest.approx(-np.sqrt(2) / 4, abs=1e-12)

    def test_singularity(self):
        with pytest.raises(ValueError):
            kernel_eval(K_ZERO, 0j)

    def test_infinite_param_is_explicit(self):
        assert K_INF.is_infinite
        with pytest.raises(ValueError):
            KernelParam(math.inf)

    def test_vectorized_fill(self):
        z = np.array([0j, 1 + 0j])
        out = kernel_values(K_ZERO, z)
        assert out[0] == 0.0 and out[1] == 1.0


class TestKernelProperties:
    def setup_method(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(-3, 3, 5000) + 1j * rng.uniform(-3, 3, 5000)
        self.z = z[np.abs(z) > 1e-6]

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


class TestCauchy:
    def test_real(self):
        assert cauchy_kernel(1 + 0j) == 1 + 0j

    def test_imaginary(self):
        assert cauchy_kernel(1j) == -1j

    def test_diagonal(self):
        assert cauchy_kernel(1 + 1j) == pytest.approx(0.5 - 0.5j)

    def test_zero(self):
        with pytest.raises(ValueError):
            cauchy_kernel(0j)


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
                        assert abs(kernel_eval(kt(t), z)) < 1e-14 / abs(r)


class TestLines:
    def test_theta_vertical_cases(self):
        assert theta_vertical(line_from_angle(0, np.pi / 2)) == 0.0
        assert theta_vertical(line_from_angle(0, 0.0)) == pytest.approx(np.pi / 2)
        assert theta_vertical(line_through(0, 1 + 1j)) == pytest.approx(np.pi / 4)

    def test_angle_between_cases(self):
        l1 = line_from_angle(0, 0.0)
        assert angle_between(l1, line_from_angle(3 + 2j, 0.0)) == 0.0
        assert angle_between(l1, line_from_angle(0, np.pi / 2)) == pytest.approx(
            np.pi / 2
        )
        assert angle_between(l1, line_through(0, 1 + 1j)) == pytest.approx(np.pi / 4)

    def test_canonical_identifies_same_line(self):
        l1 = Line(1 + 1j, complex(np.cos(0.3), np.sin(0.3)))
        shift = 1 + 1j + 2.7 * complex(np.cos(0.3), np.sin(0.3))
        l2 = Line(shift, -complex(np.cos(0.3), np.sin(0.3)))
        c1, c2 = l1.canonical(), l2.canonical()
        assert c1.direction == pytest.approx(c2.direction)
        assert c1.anchor == pytest.approx(c2.anchor)

    def test_line_needs_unit_direction(self):
        with pytest.raises(ValueError):
            Line(0j, 2 + 0j)

    def test_project_embed_round_trip(self):
        line = line_through(1 + 2j, 3 - 1j)
        z = np.array([0.5 + 0.5j, 2 - 2j, 4 + 1j])
        u = line.project(z)
        v = line.offset(z)
        back = line.embed(u, v)
        assert np.allclose(back, z, atol=1e-14)

    def test_distance(self):
        line = line_from_angle(0j, 0.0)
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
