"""Hierarchical cube structure adapted to a discrete measure.

Cells are built per level from greedy farthest-point nets of the atoms,
nested inside the previous level's cells.  Each cube carries a ball whose
28-fold enlargement contains all its members; sibling balls inflated five
times stay disjoint because the net separation is ten cube radii.  The
support is rescaled to unit diameter for the level geometry; all stored
lengths are in original units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import Line
from .measure import (_ROWS, Ball, DiscreteMeasure, _check_count, _check_length,
                      _distance_range, _distance_rows)

__all__ = [
    "Cube",
    "Lattice",
    "build",
    "maximal_doubling",
    "first_doubling_ancestor",
    "density_chain_report",
    "small_boundary_report",
    "delta_mu",
]

BIG_BALL_FACTOR = 28
DEFAULT_SEPARATION = 10.0
DEFAULT_DOUBLING_CONSTANT = 128.0


@dataclass
class Cube:
    id: int
    level: int
    center: complex
    radius: float  # original units; radius / lattice.rescale in [A0^-k, C0 A0^-k]
    members: np.ndarray
    parent: int | None
    children: list[int] = field(default_factory=list)
    doubling: bool = False

    @property
    def n_members(self) -> int:
        return int(self.members.size)


@dataclass
class Lattice:
    """The cubes of a measure, level by level, and three tables from the
    build's one distance row per cube: the density of each cube's 2B, the
    mass of each 100B, and the atoms of each 2B, held as one flat index
    array with per-cube offsets rather than an array per cube.  Cube ids run level by level.
    The first read of ``line_2b`` or ``beta_2b`` fits every 2B's best line
    in one ``_fit_lines`` call over the atom table, kept as flat arrays."""

    mu: DiscreteMeasure
    c0: float
    a0: float
    separation: float
    doubling_constant: float
    rescale: float
    cubes: list[Cube]
    levels: list[list[int]]
    # per cube id, the density theta(2B) of its doubled companion ball
    theta2b: np.ndarray = field(repr=False)
    # per cube id, the mass of its 100-fold ball 100B
    mass100b: np.ndarray = field(repr=False)
    # the atoms of every 2B in one sorted index array per cube, laid end to
    # end: cube q's are atoms2b[atoms2b_start[q]:atoms2b_start[q + 1]]
    atoms2b: np.ndarray = field(repr=False)
    atoms2b_start: np.ndarray = field(repr=False)

    @property
    def root(self) -> Cube:
        return self.cubes[self.levels[0][0]]

    @cached_property
    def report(self) -> dict:
        """Separation and containment violations, computed on first read."""
        return _build_report(self)

    @cached_property
    def _fit_2b(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The anchor, direction and smallest scatter eigenvalue of each 2B's
        best line, by cube id; no 2B is empty, as it holds its cube."""
        anchors, directions, _, lams = _fit_lines(self.mu, self.atoms2b, self.atoms2b_start)
        return anchors, directions, lams

    def line_2b(self, qid: int) -> Line:
        """``beta2(mu, big_ball(qid, 2.0)).line``, read from the fit table."""
        anchors, directions, _ = self._fit_2b
        return Line(complex(anchors[qid]), complex(directions[qid]))

    def beta_2b(self, qid: int) -> float:
        """``beta2(mu, big_ball(qid, 2.0)).beta``, read from the fit table."""
        return math.sqrt(float(self._fit_2b[2][qid]) / self.big_ball(qid, 2.0).radius**3)

    def ball(self, qid: int) -> Ball:
        q = self.cubes[qid]
        return Ball(q.center, q.radius)

    def big_ball(self, qid: int, factor: float = 1.0) -> Ball:
        """``factor`` times the 28-fold companion ball."""
        q = self.cubes[qid]
        return Ball(q.center, factor * BIG_BALL_FACTOR * q.radius)

    def mass(self, qid: int) -> float:
        return float(self.mu.weights[self.cubes[qid].members].sum())

    def theta_2b(self, qid: int) -> float:
        """``theta(big_ball(qid, 2.0))``, read from the build's table."""
        return float(self.theta2b[qid])

    def atoms_2b(self, qid: int) -> np.ndarray:
        """``np.flatnonzero(big_ball(qid, 2.0).contains(mu.points))``, read
        from the build's table."""
        return self.atoms2b[self.atoms2b_start[qid]:self.atoms2b_start[qid + 1]]

    def set_diameter(self, qid: int) -> float:
        q = self.cubes[qid]
        if q.n_members < 2:
            return 0.0
        return _distance_range(self.mu.points[q.members])[1]

    def is_ancestor(self, aid: int, qid: int) -> bool:
        """Whether ``aid`` is ``qid`` or one of its ancestors."""
        cur: int | None = qid
        while cur is not None:
            if cur == aid:
                return True
            cur = self.cubes[cur].parent
        return False

    def chain(self, qid: int, pid: int) -> list[int]:
        """Cube ids from ``qid`` up to ``pid`` inclusive."""
        out = []
        cur: int | None = qid
        while cur is not None:
            out.append(cur)
            if cur == pid:
                return out
            cur = self.cubes[cur].parent
        raise ValueError(f"cube {pid} is not an ancestor of cube {qid}")

    def descendants(self, qid: int) -> list[int]:
        out = []
        stack = [qid]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.cubes[cur].children)
        return out

    def to_dict(self) -> dict:
        return {
            "c0": self.c0,
            "a0": self.a0,
            "separation": self.separation,
            "doubling_constant": self.doubling_constant,
            "rescale": self.rescale,
            "cubes": [
                {
                    "id": q.id,
                    "level": q.level,
                    "center": [q.center.real, q.center.imag],
                    "r": q.radius,
                    "members": [int(m) for m in q.members],
                    "doubling": bool(q.doubling),
                    "parent": q.parent,
                }
                for q in self.cubes
            ],
        }


def _greedy_net(points: np.ndarray, indices: np.ndarray, sep: float) -> list[int]:
    """Greedy farthest-point subset with pairwise distances >= sep.

    Seeded at the lowest atom index of the sorted ``indices``; each step
    adds the member farthest from the chosen set (ties to the lowest
    index) while that distance still clears the separation.
    """
    pts = points[indices]
    chosen = [0]
    dist = np.abs(pts - pts[0])
    while True:
        far = int(np.argmax(dist))  # argmax takes the lowest index on ties
        if dist[far] < sep:
            break
        chosen.append(far)
        dist = np.minimum(dist, np.abs(pts - pts[far]))
    return [int(indices[c]) for c in chosen]


def build(
    mu: DiscreteMeasure,
    c0: float = 2.0,
    a0: float = 8.0,
    k_max: int | None = None,
    separation: float = DEFAULT_SEPARATION,
    doubling_constant: float = DEFAULT_DOUBLING_CONSTANT,
) -> Lattice:
    """Build the cube hierarchy down to single-atom cells (or ``k_max``)."""
    if len(mu) == 0:
        raise ValueError("cannot build a lattice on the empty measure")
    # a zero level separation would grow a net forever
    for name, value in (("c0", c0), ("a0", a0), ("separation", separation)):
        _check_length(name, value)
    if not (a0 > c0 > 1):
        raise ValueError("need a0 > c0 > 1")
    if k_max is not None:
        _check_count("k_max", k_max, least=0)
    rescale = mu.diameter if mu.diameter > 0 else 1.0
    if k_max is not None and len(mu) > 1:
        if separation * a0 ** (-k_max) * rescale < mu.scale:
            raise ValueError("k_max probes below the discretization scale")

    pts = mu.points
    n = len(mu)
    # root: center minimizing the maximal member distance, ties lowest index
    if n == 1:
        root_center_idx = 0
        max_dist = 0.0
    else:
        worst = np.concatenate([d.max(axis=1) for _, d in _distance_rows(pts)])
        root_center_idx = int(np.argmin(worst))
        max_dist = float(worst[root_center_idx])
    r_root = min(c0, max(1.0, (max_dist / rescale) * (1 + 1e-9)))
    cubes: list[Cube] = [
        Cube(0, 0, complex(pts[root_center_idx]), r_root * rescale,
             np.arange(n), None)
    ]
    levels: list[list[int]] = [[0]]

    k = 0
    while True:
        prev = levels[-1]
        if all(cubes[q].n_members == 1 for q in prev):
            break
        if k_max is not None and k >= k_max:
            break
        k += 1
        sep = separation * a0 ** (-k) * rescale
        radius = a0 ** (-k) * rescale
        if not sep > 0:
            raise ValueError(f"the level-{k} separation underflows to 0; a0 = {a0} "
                             "is too large for this measure")
        new_level: list[int] = []
        for pid in prev:
            parent = cubes[pid]
            midx = parent.members
            net = _greedy_net(pts, midx, sep)
            centers = pts[np.array(net)]
            # nearest net point, ties to the lowest net atom index
            d = np.abs(pts[midx][:, None] - centers[None, :])
            assign = np.argmin(d, axis=1)
            for ci, atom in enumerate(net):
                cell = midx[assign == ci]
                cid = len(cubes)
                cubes.append(
                    Cube(cid, k, complex(pts[atom]), radius, np.sort(cell), pid)
                )
                parent.children.append(cid)
                new_level.append(cid)
        levels.append(new_level)

    return Lattice(mu, c0, a0, separation, doubling_constant, rescale, cubes,
                   levels, *_ball_masses(mu, cubes, levels, doubling_constant))


def _ball_masses(mu: DiscreteMeasure, cubes: list[Cube], levels: list[list[int]],
                 doubling_constant: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Set each cube's doubling flag, ``mass(100B) <= C mass(B)``, and return
    its ``theta(2B)``, its ``mass(100B)`` and the atoms of its 2B as
    ``Lattice.atoms2b`` and ``atoms2b_start``, from one distance row per
    cube.

    The balls B, 2B = 56 r and 100B share their centre, so the row needs
    only the atoms of 100B.  A cube reads the atoms of its parent's 100B
    when that ball holds its own with room for rounding, and all atoms
    otherwise; either way each mass sums the same atoms, in index order,
    as ``mu.mass_in`` of the ball.
    """
    pts, w = mu.points, mu.weights
    theta2b, mass100b = np.empty(len(cubes)), np.empty(len(cubes))
    in_2b: list[np.ndarray] = []  # in cube id order, which is level order
    in_100b: dict[int, np.ndarray] = {}
    every = np.arange(len(mu))
    for lvl in levels:
        prev, in_100b = in_100b, {}
        for qid in lvl:
            q = cubes[qid]
            idx = every
            if q.parent is not None:
                p = cubes[q.parent]
                if abs(q.center - p.center) + 100 * q.radius <= 100 * p.radius * (1 - 1e-9):
                    idx = prev[q.parent]
            d = np.abs(pts[idx] - q.center)
            near = d < 100 * q.radius
            idx, d = idx[near], d[near]
            in_100b[qid] = idx
            mass100b[qid] = w[idx].sum()
            q.doubling = bool(mass100b[qid] <= doubling_constant * w[idx[d < q.radius]].sum())
            big = 2.0 * BIG_BALL_FACTOR * q.radius
            in_2b.append(idx[d < big])
            theta2b[qid] = float(w[in_2b[-1]].sum()) / big
    start = np.zeros(len(cubes) + 1, dtype=np.intp)
    np.cumsum([a.size for a in in_2b], out=start[1:])
    atoms = np.concatenate(in_2b)
    atoms.flags.writeable = False
    return theta2b, mass100b, atoms, start


def _fit_lines(mu: DiscreteMeasure, atoms: np.ndarray, start: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The best line (anchor and unit direction), the mass and the smallest
    scatter eigenvalue (clipped at 0) of each non-empty atom set
    ``atoms[start[k]:start[k + 1]]``, the sorted indices of some of
    ``mu``'s atoms, as one array each.

    Each set's moments are summed over its own atoms, one numpy sum per
    moment; the scatter matrices of all sets go to one stacked
    ``np.linalg.eigh``, which decomposes each matrix as a call of its own
    does.
    """
    w, pts = mu.weights[atoms], mu.points[atoms]
    bounds = start.tolist()
    masses, centroids, scatter = [], [], []
    for a, b in zip(bounds, bounds[1:]):
        ws, xs, ys = w[a:b], pts.real[a:b], pts.imag[a:b]
        mass = float(ws.sum())
        cx = float((ws * xs).sum()) / mass
        cy = float((ws * ys).sum()) / mass
        dx, dy = xs - cx, ys - cy
        wdx = ws * dx
        sxy = float((wdx * dy).sum())
        scatter.append([[float((wdx * dx).sum()), sxy], [sxy, float((ws * dy * dy).sum())]])
        masses.append(mass)
        centroids.append(complex(cx, cy))
    evals, evecs = np.linalg.eigh(np.array(scatter))
    directions = []
    for vx, vy in zip(evecs[:, 0, 1].tolist(), evecs[:, 1, 1].tolist()):
        if vx == 0.0 and vy == 0.0:
            vx, vy = 1.0, 0.0
        direction = complex(vx, vy) / abs(complex(vx, vy))
        if direction.imag < 0 or (direction.imag == 0 and direction.real < 0):
            direction = -direction
        directions.append(direction)
    return (np.array(centroids, dtype=complex), np.array(directions, dtype=complex),
            np.array(masses), np.array([max(e, 0.0) for e in evals[:, 0].tolist()]))


def _own_measure(lattice: Lattice, mu: DiscreteMeasure) -> None:
    """Reject a measure other than the one the lattice was built on: the
    lattice's densities, masses, atom tables and lines are those of
    ``lattice.mu``."""
    if mu is not lattice.mu and not (np.array_equal(mu.points, lattice.mu.points)
                                     and np.array_equal(mu.weights, lattice.mu.weights)):
        raise ValueError("mu must be the lattice's own measure, lattice.mu")


def _build_report(lattice: Lattice) -> dict:
    mu = lattice.mu
    report = {
        "sibling_5b_violations": [],
        "level_5b_violations": [],
        "core_ball_leaks": [],
        "member_radius_violations": [],
        "n_cubes": len(lattice.cubes),
        "n_levels": len(lattice.levels),
    }
    for lvl in lattice.levels:
        cubes = [lattice.cubes[qid] for qid in lvl]
        for q in cubes:
            pts = mu.points[q.members]
            if pts.size and np.max(np.abs(pts - q.center)) > BIG_BALL_FACTOR * q.radius:
                report["member_radius_violations"].append(q.id)
            inside = np.flatnonzero(np.abs(mu.points - q.center) < q.radius)
            if not np.all(np.isin(inside, q.members)):
                report["core_ball_leaks"].append(q.id)
        centers = np.array([q.center for q in cubes], dtype=complex)
        radii = np.array([q.radius for q in cubes])
        # candidate pairs, row-major over the strict upper triangle; each
        # is confirmed with the scalar test, so numpy's complex abs need
        # not round like Python's
        for start, d in _distance_rows(centers):
            near = d < 5 * (radii[start:start + _ROWS, None] + radii[None, :]) * (1 + 1e-12)
            for i, j in zip(*np.nonzero(np.triu(near, start + 1))):
                qa, qb = cubes[start + i], cubes[j]
                if abs(qa.center - qb.center) < 5 * (qa.radius + qb.radius):
                    report["level_5b_violations"].append((qa.id, qb.id))
                    if qa.parent == qb.parent:
                        report["sibling_5b_violations"].append((qa.id, qb.id))
    return report


def maximal_doubling(lattice: Lattice, qid: int) -> list[int]:
    """Maximal doubling cubes inside ``qid`` (including itself)."""
    out: list[int] = []
    stack = [qid]
    while stack:
        cur = stack.pop()
        if lattice.cubes[cur].doubling:
            out.append(cur)
        else:
            stack.extend(lattice.cubes[cur].children)
    return sorted(out)


def first_doubling_ancestor(lattice: Lattice, qid: int) -> int:
    cur: int | None = qid
    while cur is not None:
        if lattice.cubes[cur].doubling:
            return cur
        cur = lattice.cubes[cur].parent
    raise ValueError("no doubling ancestor (the root is not doubling)")


def density_chain_report(lattice: Lattice, qid: int, pid: int) -> dict:
    """Densities of the 100-fold balls along a chain of non-doubling
    intermediate cubes, with the summed-density ratio to the top cube.
    The 100B masses are read from the build's table."""
    chain = lattice.chain(qid, pid)
    for mid in chain[1:-1]:
        if lattice.cubes[mid].doubling:
            raise ValueError(f"intermediate cube {mid} is doubling")
    thetas = [float(lattice.mass100b[c]) / (100 * lattice.cubes[c].radius) for c in chain]
    theta_top = thetas[-1]
    level_gap = lattice.cubes[qid].level - lattice.cubes[pid].level
    mass_q, mass_p = float(lattice.mass100b[qid]), float(lattice.mass100b[pid])
    bound_rhs = lattice.a0 ** (-20 * (level_gap - 1)) * mass_p
    sum_thetas = math.fsum(thetas)
    return {
        "chain": chain,
        "thetas": thetas,
        "sum_thetas": sum_thetas,
        "ratio": sum_thetas / theta_top if theta_top > 0 else np.inf,
        "mass_bound_lhs": mass_q,
        "mass_bound_rhs": bound_rhs,
        "mass_bound_holds": mass_q <= bound_rhs,
    }


def small_boundary_report(lattice: Lattice, qid: int, l: int) -> dict:
    """Masses of the interior/exterior collars of width A0^(-k-l) and the
    reference bound with unit implicit constant.  Diagnostic only: atomic
    measures generically violate the bound at fine l."""
    _check_count("l", l, least=0)
    mu = lattice.mu
    q = lattice.cubes[qid]
    width = lattice.a0 ** (-(q.level + l)) * lattice.rescale
    below_resolution = width < mu.scale
    inside = np.zeros(len(mu), dtype=bool)
    inside[q.members] = True
    pts_in = mu.points[inside]
    pts_out = mu.points[~inside]
    if pts_in.size and pts_out.size:
        cross = np.abs(pts_out[:, None] - pts_in[None, :])
        ext_mass = float(mu.weights[~inside][cross.min(axis=1) < width].sum())
        int_mass = float(mu.weights[inside][cross.min(axis=0) < width].sum())
    else:
        ext_mass = 0.0
        int_mass = 0.0
    rhs_base = lattice.c0 ** (-7) * lattice.a0  # unit implicit constant
    # the build keeps no 90B masses, so this ball scans every atom
    rhs = rhs_base ** (-l) * mu.mass_in(lattice.ball(qid).scaled(90))
    return {
        "cube": qid,
        "l": l,
        "width": width,
        "ext_mass": ext_mass,
        "int_mass": int_mass,
        "bound_rhs": rhs,
        "holds": ext_mass + int_mass <= rhs,
        "below_resolution": below_resolution,
    }


def delta_mu(lattice: Lattice, qid: int, tid: int) -> float:
    """Weighted sum of reciprocal distances to the small cube's center over
    the annulus between the doubled companion balls."""
    if not lattice.is_ancestor(tid, qid):
        raise ValueError("second cube must contain the first")
    mu = lattice.mu
    annulus = np.setdiff1d(lattice.atoms_2b(tid), lattice.atoms_2b(qid))
    dist = np.abs(mu.points[annulus] - lattice.cubes[qid].center)
    return math.fsum(mu.weights[annulus] / dist)
