#!/usr/bin/env python3
"""Permutations of a triple, the circumradius identity, and the sign
dichotomy across the parameter range.

The limiting-kernel permutation of any triple equals a quarter of its
squared Menger curvature, so it is never negative.  Inside the open
parameter interval (-2, 0) the permutation genuinely changes sign: the
scan below finds explicit negative witnesses for three such parameters
and only roundoff-level minima outside the interval.
"""

from curvperm import generate
from curvperm.kernels import K_INF, K_ZERO
from curvperm.permutations import (
    curvature_squared,
    menger_curvature,
    perm_measure,
    perm_pointwise,
    sign_scan,
)

triple = (0j, 1 + 0j, 1j)
c = menger_curvature(*triple)
print(f"triple {triple}: curvature {c:.6f}, c^2/4 = {c * c / 4:.6f}, "
      f"p_inf = {perm_pointwise(K_INF, *triple):.6f}")

print("\nsign scan over random and thin triples:")
for t in (-3.0, -1.0, -0.75, -0.5, 0.0, 1.0):
    r = sign_scan(t, n_samples=50_000, seed=7)
    tag = "changes sign" if r.min_value < -1e-10 else "nonnegative"
    print(f"  t={t:5.2f}: min {r.min_value: .3e}  ({tag})")

print("\ncurvature of measures:")
for name, mu in [
    ("segment", generate("segment", n=64)),
    ("circle", generate("circle", n=64)),
    ("cantor4(2)", generate("cantor4", level=2)),
    ("cantor4(3)", generate("cantor4", level=3)),
]:
    c2 = curvature_squared(mu)
    p0 = perm_measure(K_ZERO, mu).value
    print(f"  {name:11s}: c^2 = {c2: .6f}   p_0 = {p0: .6f}")
print("\nthe flat pieces vanish; the Cantor dust does not, and grows with "
      "the level.")
