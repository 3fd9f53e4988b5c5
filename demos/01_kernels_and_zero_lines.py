#!/usr/bin/env python3
"""Walk through the kernel family: evaluation, the limiting kernel, and
how the zero-line count changes across the parameter range.

On the unit circle the kernel collapses to cos(a) (cos(a)^2 + t), so the
zero lines through the origin are the vertical line plus the solutions of
cos^2(a) = -t; their number switches 1 -> 2 -> 3 -> 1 as t crosses the
interval [-1, 0).
"""

import numpy as np

from curvperm.kernels import K_INF, K_ZERO, kernel_values, kt, zero_lines

print("kernel values at a few points")
for label, k in [("t=0", K_ZERO), ("t=-1", kt(-1.0)), ("limit", K_INF)]:
    row = kernel_values(k, [1 + 0j, 1 + 1j, np.exp(0.3j)])
    print(f"  {label:6s}", np.round(row, 6))

print("\nthe kernel is odd and (-1)-homogeneous:")
z = 0.3 + 0.7j
for k in (K_ZERO, kt(-0.8), K_INF):
    minus, plus, double = kernel_values(k, [-z, z, 2 * z])
    print(f"  {k}:  k(-z) = {minus:+.6f}"
          f"   -k(z) = {-plus:+.6f}"
          f"   k(2z) = {double:+.6f}"
          f"   k(z)/2 = {plus / 2:+.6f}")

print("\nzero-line counts across the parameter sweep")
for t in (-3, -2, -1.5, -1, -0.9, -0.5, -0.1, 0, 1, 5):
    lines = zero_lines(t)
    angles = ", ".join(f"{a:.4f}" for a in lines)
    print(f"  t={t:5.1f}: {len(lines)} line(s) at angles [{angles}]")
