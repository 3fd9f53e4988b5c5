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

from .kernels import K_ZERO, Line
from .lattice import BIG_BALL_FACTOR, Lattice, _fit_lines, _own_measure, first_doubling_ancestor
from .measure import _ROWS, Ball, DiscreteMeasure, _distance_rows
from .permutations import _WindowEngine, _check_count

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
    """Scale-normalized least-squares line fit inside an arbitrary open ball,
    closed form and deterministic: ``lattice._fit_lines`` of the atoms a scan
    finds.  A cube's 2B reads the same values from ``Lattice.line_2b``."""
    keep = np.flatnonzero(ball.contains(mu.points))
    if not keep.size:
        return BetaResult(0.0, Line(ball.center, 1 + 0j), ball, 0.0, True)
    (anchor,), (direction,), (mass,), (lam_min,) = _fit_lines(mu, keep, np.array([0, keep.size]))
    return BetaResult(math.sqrt(lam_min / ball.radius**3),
                      Line(complex(anchor), complex(direction)), ball, float(mass), False)


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
        """Infimum of dist(z, cube) + diam(cube) over the family, ``_ROWS``
        points at a time."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.empty(z.size)
        for s in range(0, z.size, _ROWS):
            out[s:s + _ROWS] = np.min(np.abs(z[s:s + _ROWS, None] - self.points)
                                      + self.offsets, axis=1)
        return out if out.size != 1 else out[0]

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
        """The field at each coordinate: ``inf_on(u, u)``, bit for bit, as
        ``max(u - c, c - u) == |u - c|`` in floating point."""
        out = self.inf_on(u, u)
        return out if out.size != 1 else out[0]

    def _costs(self, lo, hi) -> np.ndarray:
        """Each atom's distance of projection to ``[lo, hi]`` plus its cube's
        diameter; a row per interval for arrays of ends."""
        lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
        return np.maximum(0.0, np.maximum(lo - self.coords, self.coords - hi)) + self.offsets

    def inf_on(self, lo, hi) -> np.ndarray:
        """The field's infimum on each interval ``[lo, hi]``, ``_ROWS``
        intervals at a time."""
        lo, hi = np.atleast_1d(lo, hi)
        out = np.empty(lo.size)
        for s in range(0, lo.size, _ROWS):
            out[s:s + _ROWS] = self._costs(lo[s:s + _ROWS], hi[s:s + _ROWS]).min(axis=1)
        return out

    def cube_costs(self, lo, hi) -> np.ndarray:
        """Each cube's distance of projection to ``[lo, hi]`` plus its
        diameter, in family order; a row per interval for arrays of ends."""
        return np.minimum.reduceat(self._costs(lo, hi), self.starts, axis=-1)


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


def _select_cube(
    field: DistanceField, proj: ProjectedField, lattice: Lattice, lo: np.ndarray, hi: np.ndarray
) -> list[int]:
    """For each interval, the cube nearly attaining its distance infimum,
    promoted to a doubling tree ancestor while its diameter is small next to
    the interval."""
    picks = np.empty(lo.size, dtype=int)
    for s in range(0, lo.size, _ROWS):
        costs = proj.cube_costs(lo[s:s + _ROWS], hi[s:s + _ROWS])
        picks[s:s + _ROWS] = np.argmax(costs <= 2.0 * costs.min(axis=1, keepdims=True), axis=1)
    out = []
    for pick, length in zip(picks.tolist(), hi - lo):
        while field.diameters[pick] < length:
            parent = lattice.cubes[field.cube_ids[pick]].parent
            try:  # ValueError: no doubling ancestor; KeyError: it is not in the family
                pick = field.index[first_doubling_ancestor(lattice, parent)]
            except (ValueError, KeyError):
                break
        out.append(field.cube_ids[pick])
    return out


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
    _own_measure(lattice, mu)
    field = _tree_field(lattice, dbtree_ids)
    return _whitney_cover(field, mu, root_id, line, max(field.diameter(root_id), mu.scale))


def _tree_field(lattice: Lattice, dbtree_ids) -> DistanceField:
    """The distance field of a doubling tree, its cubes coarsest first."""
    dbtree_ids = sorted(dbtree_ids)  # ids run level by level
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
    m = np.arange(math.floor(-work / top_len), math.ceil(work / top_len))
    lo, hi = u0 + m * top_len, u0 + (m + 1) * top_len
    ends = []  # (lo, hi, accepted) of the intervals split no further
    while lo.size:  # the live intervals of one dyadic level
        length = hi - lo
        ok = length <= proj.inf_on(lo, hi) / LENGTH_RULE
        split = ~ok & ~((length < floor) | (length < diam * 2.0**-42))
        ends.append((lo[~split], hi[~split], ok[~split]))
        mid = (lo[split] + hi[split]) / 2
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
    lo, hi, ok = (np.concatenate(x) for x in zip(*ends))
    order = np.lexsort((hi, lo))  # the order in which a depth-first split visits them
    lo, hi, ok = lo[order], hi[order], ok[order]
    unresolved = list(zip(lo[~ok].tolist(), hi[~ok].tolist()))
    lo, hi = lo[ok], hi[ok]
    in_window = (hi > u0 - window) & (lo < u0 + window)
    picks = _select_cube(field, proj, lattice, lo[in_window], hi[in_window])
    pieces = {}  # per cube: its fit's anchor in line coordinates and its slope
    for qid in dict.fromkeys(picks):
        best = lattice.line_2b(qid)
        turn = best.direction * np.conj(line.direction)
        pieces[qid] = None if abs(turn.real) < 1e-9 else (
            float(line.project(best.anchor)), float(line.offset(best.anchor)),
            turn.imag / turn.real)
    cube_of, coeffs = [None] * lo.size, [None] * lo.size
    for i, qid in zip(np.flatnonzero(in_window).tolist(), picks):
        cube_of[i], p = qid, pieces[qid]
        coeffs[i] = (0.0, 0.0) if p is None else (p[1] + p[2] * (lo[i] - p[0]), p[2])
    return WhitneyCover(
        u0, lo, hi, in_window, cube_of, coeffs, unresolved, window
    )


def _samples(u) -> np.ndarray:
    """Sample coordinates as a 1-d float array, all of them finite."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(np.isfinite(u)):
        raise ValueError(f"{np.count_nonzero(~np.isfinite(u))} non-finite sample(s)")
    return u


def _weights(cover: WhitneyCover, u: np.ndarray):
    """Each bump on its slice of the sorted samples, as ``(row, col,
    weight, total)``: bump ``col`` is 1 on the doubled interval, 0 off the
    tripled one, C2 between with |derivative| <= 4 / length.  The slice is
    widened past the tripled support, so the formula decides at its ends."""
    c = (cover.lo + cover.hi) / 2
    half = (cover.hi - cover.lo) / 2
    order = np.argsort(u)
    reach = 3.0 * half * (1 + 1e-9)
    first = np.searchsorted(u[order], c - reach)
    count = np.searchsorted(u[order], c + reach, side="right") - first
    col = np.repeat(np.arange(cover.n), count)  # bincount adds in interval order
    row = order[np.arange(col.size) + np.repeat(first - np.cumsum(count) + count, count)]
    t = np.clip((3.0 * half[col] - np.abs(u[row] - c[col])) / half[col], 0.0, 1.0)
    bump = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
    total = np.bincount(row, bump, minlength=u.size).astype(float)
    return row, col, bump / np.where(total > 0, total, 1.0)[row], total


def partition_of_unity(cover: WhitneyCover, u) -> tuple[np.ndarray, np.ndarray]:
    """Normalized bump weights over all intervals at the given coordinates.

    Rows summing to zero are outside every tripled interval and are
    returned as all-zero rows.
    """
    u = _samples(u)
    row, col, weight, total = _weights(cover, u)
    weights = np.zeros((u.size, cover.n))
    weights[row, col] = weight
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
        u = _samples(u)
        if self.cover is None or self.cover.n == 0:
            return np.zeros_like(u)
        row, col, weight, _ = _weights(self.cover, u)
        # an interval without a piece adds +0, as if it were skipped
        coef = np.array([cf if on and cf else (0.0, 0.0)
                         for cf, on in zip(self.cover.coeffs, self.cover.in_window)])
        piece = coef[col, 0] + coef[col, 1] * (u[row] - self.cover.lo[col])
        return np.bincount(row, weight * piece, minlength=u.size).astype(float)

    def eval(self, u) -> np.ndarray:
        """Blend plus exact graph values at the projected good atoms; of
        atoms at one coordinate, the last one's value is taken."""
        u = _samples(u)
        vals = self.blend(u)
        if self.interp_u.size:
            order = np.argsort(self.interp_u, kind="stable")
            at = np.searchsorted(self.interp_u[order], u, side="right") - 1
            hit = (at >= 0) & (self.interp_u[order[at]] == u)
            vals[hit] = self.interp_v[order[at[hit]]]
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
    graph is the base line itself.  ``n_samples``, the number of grid
    samples, must be an integer >= 2: the Lipschitz estimate needs a pair.
    """
    _check_count("n_samples", n_samples, least=2)
    _own_measure(lattice, mu)
    line = lattice.line_2b(root_id)
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
    # d vanishes only at the lone atom of a one-atom family cube
    good = np.isin(member_pts, field.points[field.offsets == 0])
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
    _own_measure(lattice, mu)
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
    _own_measure(lattice, mu)
    theta = lattice.theta_2b(qid)
    sub = mu._view(lattice.atoms_2b(qid))
    sums = _WindowEngine(K_ZERO, sub).point_sums(np.arange(len(sub)), lattice.cubes[qid].radius,
                                                 delta)
    perm = math.fsum(sub.weights * sums)
    perm_term = max(perm, 0.0) / lattice.mass(qid)
    lhs = lattice.beta_2b(qid)**2 * theta
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
    mass offers no two chunks and no descendant density gain.  ``mu`` must
    be ``lattice.mu``, or have its points and weights.
    """
    _own_measure(lattice, mu)
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
    ball_mass = np.concatenate([(d <= ball_r) @ w for _, d in _distance_rows(pts)])
    heavy = np.flatnonzero(ball_mass >= need)
    for ii, a in enumerate(heavy):
        da = np.abs(pts[a] - pts)
        later = heavy[ii + 1 :]
        for b in later[da[later] >= sep]:
            if da[b] < sep + 2 * ball_r:
                cross = pts[da <= ball_r][:, None] - pts[np.abs(pts[b] - pts) <= ball_r]
                if np.abs(cross).min() < sep:
                    continue
            return BalanceVerdict(True, (complex(pts[a]), complex(pts[b])), (), 0.0)
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
