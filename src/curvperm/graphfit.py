"""Beta numbers, distance functions, Whitney intervals, and the blended
Lipschitz extension over a base line.

The best approximating line for a ball is the weighted principal axis
through the weighted centroid; the squared beta number is the smallest
eigenvalue of the weighted scatter matrix divided by the cubed radius.
The extension machinery works in on-line coordinates of the base line:
maximal dyadic intervals whose length is dominated by the projected
distance function carry affine pieces that a partition of unity blends
into one function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import Line
from .lattice import BIG_BALL_FACTOR, Lattice, first_doubling_ancestor
from .measure import Ball, DiscreteMeasure
from .permutations import perm_truncated_window

__all__ = [
    "BetaResult",
    "DistanceField",
    "WhitneyCover",
    "LipschitzGraph",
    "BalanceVerdict",
    "beta2",
    "whitney_cover",
    "partition_of_unity",
    "build_lipschitz_F",
    "graph_closeness_report",
    "balanced_ball_test",
]

LENGTH_RULE = 20.0  # interval length <= inf D / LENGTH_RULE


@dataclass(frozen=True)
class BetaResult:
    beta: float
    line: Line
    ball: Ball
    mass: float
    degenerate: bool = False


def beta2(mu: DiscreteMeasure, ball: Ball) -> BetaResult:
    """Scale-normalized least-squares line fit inside an open ball.

    The minimizing line passes through the weighted centroid along the top
    principal direction, so the fit is closed form and deterministic.
    """
    keep = ball.contains(mu.points)
    r = ball.radius
    if not np.any(keep):
        return BetaResult(0.0, Line(ball.center, 1 + 0j), ball, 0.0, True)
    w = mu.weights[keep]
    pts = mu.points[keep]
    mass = float(w.sum())
    cx = float((w * pts.real).sum()) / mass
    cy = float((w * pts.imag).sum()) / mass
    dx = pts.real - cx
    dy = pts.imag - cy
    sxx = float((w * dx * dx).sum())
    sxy = float((w * dx * dy).sum())
    syy = float((w * dy * dy).sum())
    scatter = np.array([[sxx, sxy], [sxy, syy]])
    evals, evecs = np.linalg.eigh(scatter)
    lam_min = max(float(evals[0]), 0.0)
    vx, vy = evecs[0, 1], evecs[1, 1]
    if vx == 0.0 and vy == 0.0:
        vx, vy = 1.0, 0.0
    direction = complex(vx, vy) / abs(complex(vx, vy))
    if direction.imag < 0 or (direction.imag == 0 and direction.real < 0):
        direction = -direction
    line = Line(complex(cx, cy), direction)
    return BetaResult(math.sqrt(lam_min / r**3), line, ball, mass, False)


class DistanceField:
    """Pooled (point, diameter) pairs of a cube family, for fast infima of
    distance-to-cube plus cube-diameter, in the plane and on a line.

    The per-cube table is in family order: ``diameters`` holds each cube's
    diameter and ``starts`` the offset of its atoms in the pooled points."""

    def __init__(self, lattice: Lattice, cube_ids):
        cube_ids = list(cube_ids)
        if not cube_ids:
            raise ValueError("empty cube family")
        members = [lattice.cubes[qid].members for qid in cube_ids]
        sizes = np.array([m.size for m in members])
        self.lattice = lattice
        self.cube_ids = cube_ids
        self.index = {qid: i for i, qid in enumerate(cube_ids)}
        self.diameters = np.array([lattice.set_diameter(qid) for qid in cube_ids])
        self.starts = np.cumsum(sizes) - sizes
        self.points = lattice.mu.points[np.concatenate(members)]
        self.offsets = np.repeat(self.diameters, sizes)

    def d(self, z) -> np.ndarray:
        """Infimum of dist(z, cube) + diam(cube) over the family."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.min(
            np.abs(z[:, None] - self.points[None, :]) + self.offsets[None, :], axis=1
        )
        return out if out.size > 1 else out[0]

    def diameter(self, qid: int) -> float:
        """A cube's diameter, from the table when the cube is in the family."""
        i = self.index.get(qid)
        return self.lattice.set_diameter(qid) if i is None else float(self.diameters[i])

    def project(self, line: Line) -> "ProjectedField":
        return ProjectedField(line.project(self.points), self.offsets, self.starts)


class ProjectedField:
    """On-line version of the distance field; infima over intervals are
    exact because each contribution is 1-Lipschitz and piecewise linear."""

    def __init__(self, coords: np.ndarray, offsets: np.ndarray, starts: np.ndarray):
        self.coords = coords
        self.offsets = offsets
        self.starts = starts

    def value(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.min(
            np.abs(u[:, None] - self.coords[None, :]) + self.offsets[None, :], axis=1
        )
        return out if out.size > 1 else out[0]

    def _costs(self, lo: float, hi: float) -> np.ndarray:
        gap = np.maximum(0.0, np.maximum(lo - self.coords, self.coords - hi))
        return gap + self.offsets

    def inf_on(self, lo: float, hi: float) -> float:
        return float(np.min(self._costs(lo, hi)))

    def cube_costs(self, lo: float, hi: float) -> np.ndarray:
        """Each cube's distance of projection to [lo, hi] plus its diameter,
        in family order."""
        return np.minimum.reduceat(self._costs(lo, hi), self.starts)


@dataclass
class WhitneyCover:
    """Maximal dyadic intervals dominated by the projected distance field."""

    anchor: float
    lo: np.ndarray
    hi: np.ndarray
    in_window: np.ndarray  # meets the 10-diameter working window
    cube_of: list[int | None]
    coeffs: list[tuple[float, float] | None]  # affine piece (value at lo, slope)
    unresolved: list[tuple[float, float]]
    window_radius: float

    @property
    def n(self) -> int:
        return self.lo.size

    def lengths(self) -> np.ndarray:
        return self.hi - self.lo


def _select_cube(
    field: DistanceField, proj: ProjectedField, lattice: Lattice, lo: float, hi: float
) -> int:
    """Cube nearly attaining the interval's distance infimum, promoted to a
    doubling tree ancestor when its diameter is small next to the interval."""
    costs = proj.cube_costs(lo, hi)
    pick = int(np.argmax(costs <= 2.0 * costs.min()))
    while field.diameters[pick] < hi - lo:
        parent = lattice.cubes[field.cube_ids[pick]].parent
        try:  # ValueError: no doubling ancestor; KeyError: it is not in the family
            pick = field.index[first_doubling_ancestor(lattice, parent)]
        except (ValueError, KeyError):
            break
    return field.cube_ids[pick]


def whitney_cover(
    lattice: Lattice,
    mu: DiscreteMeasure,
    root_id: int,
    dbtree_ids,
    line: Line,
) -> WhitneyCover:
    """Maximal dyadic intervals ``J`` (anchored at the projected base point)
    with ``len(J) <= inf_J D / 20``, each carrying the best line of a cube
    that nearly attains the infimum."""
    field = _tree_field(lattice, dbtree_ids)
    return _whitney_cover(field, mu, root_id, line, max(field.diameter(root_id), mu.scale))


def _tree_field(lattice: Lattice, dbtree_ids) -> DistanceField:
    """The distance field of a doubling tree, its cubes coarsest first."""
    dbtree_ids = sorted(dbtree_ids, key=lambda q: (lattice.cubes[q].level, q))
    if not dbtree_ids:
        raise ValueError("empty doubling tree")
    return DistanceField(lattice, dbtree_ids)


def _whitney_cover(
    field: DistanceField, mu: DiscreteMeasure, root_id: int, line: Line, diam: float
) -> WhitneyCover:
    """``whitney_cover`` over a tree's field; ``diam`` is the root's diameter,
    at least the scale."""
    lattice = field.lattice
    proj = field.project(line)
    members = lattice.cubes[root_id].members
    dists = line.distance(mu.points[members])
    x0 = mu.points[members[int(np.argmin(dists))]]
    u0 = float(line.project(x0))
    window = 10.0 * diam
    work = 16.0 * diam
    floor = mu.scale / LENGTH_RULE

    top_len = 2.0 ** math.ceil(math.log2(4.0 * diam))
    m_lo = math.floor((-work) / top_len)
    m_hi = math.ceil(work / top_len)
    intervals: list[tuple[float, float]] = []
    unresolved: list[tuple[float, float]] = []

    def recurse(lo: float, hi: float):
        length = hi - lo
        if length <= proj.inf_on(lo, hi) / LENGTH_RULE:
            intervals.append((lo, hi))
            return
        if length < floor or length < diam * 2.0**-42:
            unresolved.append((lo, hi))
            return
        mid = (lo + hi) / 2
        recurse(lo, mid)
        recurse(mid, hi)

    for m in range(m_lo, m_hi):
        recurse(u0 + m * top_len, u0 + (m + 1) * top_len)

    intervals.sort()
    lo = np.array([a for a, _ in intervals])
    hi = np.array([b for _, b in intervals])
    in_window = (hi > u0 - window) & (lo < u0 + window)
    cube_of: list[int | None] = []
    coeffs: list[tuple[float, float] | None] = []
    fits: dict[int, BetaResult] = {}
    for a, b, flag in zip(lo, hi, in_window):
        if not flag:
            cube_of.append(None)
            coeffs.append(None)
            continue
        qid = _select_cube(field, proj, lattice, a, b)
        cube_of.append(qid)
        if qid not in fits:
            fits[qid] = beta2(mu, lattice.big_ball(qid, 2.0))
        best = fits[qid]
        du = (best.line.direction * np.conj(line.direction)).real
        dv = (best.line.direction * np.conj(line.direction)).imag
        if abs(du) < 1e-9:
            coeffs.append((0.0, 0.0))
            continue
        slope = dv / du
        ua = float(line.project(best.line.anchor))
        va = float(line.offset(best.line.anchor))
        coeffs.append((va + slope * (a - ua), slope))
    return WhitneyCover(
        u0, lo, hi, in_window, cube_of, coeffs, unresolved, window
    )


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _bumps(cover: WhitneyCover, u: np.ndarray) -> np.ndarray:
    """Raw plateau bumps: 1 on the doubled interval, 0 off the tripled one,
    C2 transition in between, |derivative| <= 4 / length."""
    c = (cover.lo + cover.hi) / 2
    half = (cover.hi - cover.lo) / 2
    dist = np.abs(u[:, None] - c[None, :])
    # half-widths: 2J has 2*half, 3J has 3*half; ramp down across one half
    return _smoothstep((3.0 * half[None, :] - dist) / half[None, :])


def partition_of_unity(cover: WhitneyCover, u) -> tuple[np.ndarray, np.ndarray]:
    """Normalized bump weights over all intervals at the given coordinates.

    Rows summing to zero are outside every tripled interval and are
    returned as all-zero rows.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    raw = _bumps(cover, u)
    total = raw.sum(axis=1)
    safe = np.where(total > 0, total, 1.0)
    weights = raw / safe[:, None]
    weights[total == 0] = 0.0
    return weights, total


@dataclass
class LipschitzGraph:
    line: Line
    u0: float
    diam: float
    cover: WhitneyCover | None
    interp_u: np.ndarray
    interp_v: np.ndarray
    lipschitz_estimate: float = 0.0
    sample_u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sample_v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def blend(self, u) -> np.ndarray:
        """The partition-of-unity blend of the affine pieces (no exact
        interpolation overrides)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if self.cover is None or self.cover.n == 0:
            return np.zeros_like(u)
        weights, _ = partition_of_unity(self.cover, u)
        vals = np.zeros_like(u)
        for i in range(self.cover.n):
            if not self.cover.in_window[i] or self.cover.coeffs[i] is None:
                continue
            a, slope = self.cover.coeffs[i]
            vals += weights[:, i] * (a + slope * (u - self.cover.lo[i]))
        return vals

    def eval(self, u) -> np.ndarray:
        """Blend plus exact graph values at the projected good atoms."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        vals = self.blend(u)
        if self.interp_u.size:
            pos = {float(x): float(v) for x, v in zip(self.interp_u, self.interp_v)}
            for j, x in enumerate(u):
                hit = pos.get(float(x))
                if hit is not None:
                    vals[j] = hit
        return vals


def build_lipschitz_F(
    lattice: Lattice,
    mu: DiscreteMeasure,
    root_id: int,
    dbtree_ids,
    n_samples: int = 4096,
) -> LipschitzGraph:
    """Assemble the blended extension for one root cube.

    With an empty doubling tree the function is identically zero and its
    graph is the base line itself.
    """
    line = beta2(mu, lattice.big_ball(root_id, 2.0)).line
    member_pts = mu.points[lattice.cubes[root_id].members]
    dbtree_ids = list(dbtree_ids)
    if not dbtree_ids:
        diam = max(lattice.set_diameter(root_id), mu.scale)
        u_flat = float(np.median(line.project(member_pts)))
        g = LipschitzGraph(line, u_flat, diam, None, np.zeros(0), np.zeros(0))
        g.sample_u = np.linspace(u_flat - 12 * diam, u_flat + 12 * diam, n_samples)
        g.sample_v = np.zeros(n_samples)
        return g

    # one field serves the cover and the distances at the members
    field = _tree_field(lattice, dbtree_ids)
    diam = max(field.diameter(root_id), mu.scale)
    cover = _whitney_cover(field, mu, root_id, line, diam)
    d_at_members = np.atleast_1d(field.d(member_pts))
    good = d_at_members == 0.0
    interp_u = line.project(member_pts[good])
    interp_v = line.offset(member_pts[good])
    g = LipschitzGraph(line, cover.anchor, diam, cover, interp_u, interp_v)

    us = np.linspace(cover.anchor - 12 * diam, cover.anchor + 12 * diam, n_samples)
    us = np.unique(np.concatenate([us, interp_u]))
    vs = g.eval(us)
    g.sample_u = us
    g.sample_v = vs
    du = np.diff(us)
    dv = np.abs(np.diff(vs))
    ok = du > 0
    g.lipschitz_estimate = float(np.max(dv[ok] / du[ok])) if np.any(ok) else 0.0
    return g


def graph_closeness_report(
    lattice: Lattice,
    mu: DiscreteMeasure,
    root_id: int,
    dbtree_ids,
    graph: LipschitzGraph,
) -> dict:
    """Distances from atoms to the built graph against the local distance
    field, and graph-to-base-line offsets against the root radius."""
    root = lattice.cubes[root_id]
    pts = mu.points[root.members]
    in_b0 = np.abs(pts - graph.line.embed(graph.u0)) < 10 * graph.diam
    pts = pts[in_b0]
    if len(dbtree_ids):
        d_vals = np.atleast_1d(DistanceField(lattice, dbtree_ids).d(pts))
    else:
        d_vals = np.zeros(pts.size)
    curve = graph.line.embed(graph.sample_u, graph.sample_v)
    if pts.size:
        cloud = np.min(np.abs(pts[:, None] - curve[None, :]), axis=1)
        vertical = np.abs(
            np.atleast_1d(graph.line.offset(pts)) - graph.eval(graph.line.project(pts))
        )
        dist = np.minimum(cloud, vertical)
    else:
        dist = np.zeros(0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(
            (dist == 0) & (d_vals == 0), 0.0, dist / np.where(d_vals == 0, np.inf, d_vals)
        )
    r_root = lattice.cubes[root_id].radius
    line_offsets = np.abs(graph.sample_v) / r_root
    return {
        "n_atoms": int(pts.size),
        "dist_to_graph": dist,
        "d_values": d_vals,
        "max_ratio": float(np.max(ratio)) if pts.size else 0.0,
        "max_line_offset_over_r": float(np.max(line_offsets)),
    }


def beta_perm_comparison(
    lattice: Lattice,
    mu: DiscreteMeasure,
    qid: int,
    eps: float,
    delta: float,
) -> dict:
    """Pieces of the balanced-cube comparison: the density-weighted squared
    beta number against a squared-density base plus a windowed-permutation
    term.  The fitted constant is whatever multiple of the permutation term
    absorbs the excess; it is reported, not asserted."""
    theta = lattice.theta_2b(qid)
    ball = lattice.big_ball(qid, 2.0)
    fit = beta2(mu, ball)
    sub = mu.restrict(ball)
    perm = perm_truncated_window(
        sub, sub, sub, delta, lattice.cubes[qid].radius
    ).value
    perm_term = max(perm, 0.0) / lattice.mass(qid)
    lhs = fit.beta**2 * theta
    base = 4 * eps**2 * theta**2
    excess = lhs - base
    fitted_c = excess / perm_term if excess > 0 and perm_term > 0 else 0.0
    return {
        "cube": qid,
        "lhs": lhs,
        "base": base,
        "perm_term": perm_term,
        "excess": excess,
        "fitted_c": fitted_c,
        "absorbable": excess <= 0 or perm_term > 0,
    }


@dataclass(frozen=True)
class BalanceVerdict:
    balanced: bool
    witnesses: tuple[complex, complex] | None
    family: tuple[int, ...]
    family_strength: float  # sum Theta(2B_P)^2 mass(P) over gamma^-2 Theta^2 mass(Q)
    note: str = ""


def balanced_ball_test(
    lattice: Lattice,
    mu: DiscreteMeasure,
    qid: int,
    gamma: float,
) -> BalanceVerdict:
    """Search atom-centered balls for two separated mass chunks.

    Balanced: two balls of radius gamma/4 r(Q), each carrying gamma^2
    mass(Q) of the cube, every cross pair of their member atoms at distance
    at least gamma*r(28B(Q)).  Single-atom cubes are balanced by convention: a point
    mass offers no two chunks and no descendant density gain.
    """
    q = lattice.cubes[qid]
    if not q.doubling:
        raise ValueError("balance test applies to doubling cubes")
    if not (0 < gamma < 1):
        raise ValueError("gamma must lie in (0, 1)")
    members = q.members
    if members.size == 1:
        return BalanceVerdict(True, None, (), 0.0, "singleton")
    pts = mu.points[members]
    w = mu.weights[members]
    mass_q = float(w.sum())
    ball_r = gamma / 4 * q.radius
    need = gamma * gamma * mass_q
    sep = gamma * BIG_BALL_FACTOR * q.radius
    dmat = np.abs(pts[:, None] - pts[None, :])
    in_ball = dmat <= ball_r
    ball_mass = in_ball @ w
    heavy = np.flatnonzero(ball_mass >= need)
    for ii, a in enumerate(heavy):
        for b in heavy[ii + 1 :]:
            if dmat[a, b] < sep:
                continue
            if dmat[a, b] >= sep + 2 * ball_r:
                return BalanceVerdict(
                    True, (complex(pts[a]), complex(pts[b])), (), 0.0
                )
            cross = dmat[np.ix_(in_ball[a], in_ball[b])]
            if cross.size and cross.min() >= sep:
                return BalanceVerdict(
                    True, (complex(pts[a]), complex(pts[b])), (), 0.0
                )
    # unbalanced: report the descendant family with a density gain
    theta_q = lattice.theta_2b(qid)
    family = []
    strength = 0.0
    stack = list(q.children)
    while stack:
        cur = stack.pop()
        if lattice.cubes[cur].doubling:
            if lattice.theta_2b(cur) >= theta_q:
                family.append(cur)
                strength += lattice.theta_2b(cur) ** 2 * lattice.mass(cur)
            else:
                stack.extend(lattice.cubes[cur].children)
        else:
            stack.extend(lattice.cubes[cur].children)
    denom = gamma ** (-2) * theta_q**2 * mass_q
    return BalanceVerdict(
        False,
        None,
        tuple(sorted(family)),
        strength / denom if denom > 0 else 0.0,
    )
