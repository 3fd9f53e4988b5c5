"""Stopping-time trees and the corona decomposition of a lattice.

Each doubling root grows a tree that stops at the maximal cubes where one
of the stopping conditions fires: high or low density, unbalanced mass,
accumulated truncated permutations, best-line slope, or atoms far from
the approximating lines of the surviving doubling ancestors.  The stopped
cubes are replaced by disjoint doubling cubes, which seed the next
generation of roots.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .graphfit import balanced_ball_test
from .kernels import K_INF, K_ZERO, Line, angle_between, theta_vertical
from .lattice import (
    DEFAULT_DOUBLING_CONSTANT,
    DEFAULT_SEPARATION,
    Lattice,
    _own_measure,
    build as build_lattice,
    maximal_doubling,
)
from .measure import DiscreteMeasure
from .permutations import (
    _WindowEngine,
    _kernel_matrix,
    _physical_memory,
    curvature_squared,
    perm_measure,
)

__all__ = [
    "Params",
    "StopVerdict",
    "TreeDecomposition",
    "CoronaDecomposition",
    "lattice_for",
    "build_tree",
    "build_top",
    "theta_r_rule",
    "packing_sum",
    "beta_packing_sum",
    "stop_mass_report",
]

LABELS = ("HD", "LD", "UB", "BP", "BS", "F")
K_MAX = 64  # generations of trees build_top grows at most
# build_top's peak memory in units of one n x n array of doubles: the whole
# measure's K_0, and the product and its transpose of an engine over every
# atom (3.3 units were measured at 4096 and 10^4 atoms)
N2_ARRAYS = 4
# fitted lines per block of the far-from-lines distances
_LINE_BLOCK = 256


@dataclass(frozen=True)
class Params:
    """Threshold bundle for the stopping conditions.

    The ordering relations are asserted on construction: the high-density
    threshold must dominate the low-density one quadratically and the
    balance parameter must be cubically small.
    """

    tau: float = 0.1
    a: float = 256.0
    theta0: float = 0.05
    gamma: float = 1e-3
    eps0: float = 1e-2
    alpha: float = 1e-3
    delta: float = 1e-3
    c0: float = 2.0
    a0: float = 8.0
    c_f: float = 1.0
    c2: float | None = None
    separation: float = DEFAULT_SEPARATION
    doubling_constant: float = DEFAULT_DOUBLING_CONSTANT

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            # bool is a numbers.Real, so True would pass as 1
            if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if not (0 < self.tau < 1):
            raise ValueError("tau must lie in (0, 1)")
        if not (0 < 1.0 / self.a <= self.tau**2):
            raise ValueError("need 1/a <= tau^2")
        if not (0 < self.gamma <= self.tau**3):
            raise ValueError("need gamma <= tau^3")
        for name in ("theta0", "eps0", "alpha", "delta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")

    @property
    def c2_value(self) -> float:
        """Far-point cutoff; the default scaling is heuristic."""
        if self.c2 is not None:
            return self.c2
        return self.eps0 * self.tau**2 * self.gamma**2

    def to_dict(self) -> dict:
        return {**asdict(self), "c2": self.c2_value}


def lattice_for(mu: DiscreteMeasure, params: Params) -> Lattice:
    """The cube lattice of ``mu`` under the lattice constants of ``params``."""
    return build_lattice(mu, c0=params.c0, a0=params.a0,
                         separation=params.separation,
                         doubling_constant=params.doubling_constant)


def theta_r_rule(theta_v: float, params: Params) -> tuple[bool, float]:
    """Slope budget for a root: roots whose best line is far from vertical
    get the tight budget, the others twice the inflated one."""
    gate = (1 + params.c_f) * params.theta0
    if theta_v >= gate:
        return True, params.theta0
    return False, 2 * gate


@dataclass(frozen=True)
class StopVerdict:
    label: str
    evidence: float


@dataclass
class TreeDecomposition:
    root_id: int
    params: Params
    line: Line
    in_t_vf: bool
    theta_r: float
    theta_density: float
    tree_ids: list[int]
    stop: dict[int, StopVerdict]
    dbtree_ids: list[int]
    g_r: np.ndarray
    r_far: np.ndarray
    next_ids: list[int]
    perm_sq: dict[int, float]
    dropped_atoms: np.ndarray

    def family(self, label: str) -> list[int]:
        return sorted(q for q, v in self.stop.items() if v.label == label)


def _engine_rows(sub: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Rows of the slot-one ``atoms`` in an engine over the atoms ``sub``.
    A tree cube's 2B lies in its root's 2B whenever separation + 56 / a0
    <= 56 (17 at the defaults); atoms outside are rejected rather than
    summed against a partial ball."""
    rows = np.searchsorted(sub, atoms)
    if not (np.all(rows < sub.size) and np.array_equal(sub[rows], atoms)):
        raise ValueError("slot-one atoms must lie in the root's doubled ball")
    return rows


def _replacement(lattice: Lattice, qid: int) -> list[int]:
    """Disjoint doubling cubes standing in for a stopped cube: maximal
    doubling descendants of its children, or the cube itself at a leaf."""
    q = lattice.cubes[qid]
    if not q.children:
        return [qid] if q.doubling else []
    out: list[int] = []
    for c in q.children:
        out.extend(maximal_doubling(lattice, c))
    return sorted(out)


class _TreeBuilder:
    def __init__(self, lattice: Lattice, root_id: int, params: Params):
        if not lattice.cubes[root_id].doubling:
            raise ValueError("tree roots must be doubling cubes")
        self.lattice = lattice
        # build_top and build_tree have checked their mu against this one
        self.mu = lattice.mu
        self.root_id = root_id
        self.params = params
        # slot-one atoms and their windowed point sums, and the normalized
        # permutation, per tree cube
        self.sums: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.perm: dict[int, float] = {}
        self.theta_density = lattice.theta_2b(root_id)
        self.line = lattice.line_2b(root_id)
        self.in_t_vf, self.theta_r = theta_r_rule(
            theta_vertical(self.line), params
        )

    def cube_line(self, qid: int) -> Line | None:
        """Best line of the doubled companion ball of the doubling cube
        ``qid``; None when the ball holds fewer than two atoms and every
        line is a minimizer."""
        return self.lattice.line_2b(qid) if self.lattice.atoms_2b(qid).size >= 2 else None

    def perm_sq(self, qid: int) -> float:
        q = self.lattice.cubes[qid]
        slot1 = self.lattice.atoms_2b(qid)
        rows = _engine_rows(self.sub, slot1)
        sums = self.engine.point_sums(rows, q.radius, self.params.delta)
        self.sums[qid] = (slot1, sums)
        p = math.fsum(self.mu.weights[slot1] * sums)
        # the flat kernel is outside the sign-changing parameter range, so
        # its permutation is pointwise nonnegative; negative totals are
        # cancellation roundoff
        p = max(p, 0.0)
        denom = self.theta_density**2 * self.lattice.mass(qid)
        return p / denom if denom > 0 else 0.0

    def verdict(self, qid: int, chain: dict[int, float]) -> StopVerdict | None:
        """The first of HD, LD, UB, BP and BS to fire at the tree cube
        ``qid``, or None.  Adds the cube's accumulated permutation to
        ``chain``, which holds its ancestors'."""
        lat, par = self.lattice, self.params
        q = lat.cubes[qid]
        self.perm[qid] = self.perm_sq(qid)
        chain[qid] = chain.get(q.parent, 0.0) + self.perm[qid]
        theta_q = lat.theta_2b(qid)
        if q.doubling and theta_q > par.a * self.theta_density:
            return StopVerdict("HD", theta_q / self.theta_density)
        if theta_q < par.tau * self.theta_density:
            return StopVerdict("LD", theta_q / self.theta_density)
        if q.doubling:
            bal = balanced_ball_test(lat, self.mu, qid, par.gamma)
            if not bal.balanced:
                return StopVerdict("UB", bal.family_strength)
        if chain[qid] > par.alpha**2:
            return StopVerdict("BP", chain[qid])
        if q.doubling and qid != self.root_id:
            l_q = self.cube_line(qid)
            if l_q is not None:
                ang = angle_between(l_q, self.line)
                if ang > self.theta_r:
                    return StopVerdict("BS", ang)
        return None

    def build(self, engine_for: Callable[[np.ndarray], _WindowEngine]) -> TreeDecomposition:
        """Grow and stop the tree; ``engine_for`` maps the root's 2B atoms
        to the engine of the windowed sums."""
        lat = self.lattice
        order = sorted(lat.descendants(self.root_id))  # ids run level by level
        if lat.cubes[self.root_id].n_members < 2:
            # a point mass has no sub-structure to stop on
            return self._decomposition(dict.fromkeys(order))
        self.sub = lat.atoms_2b(self.root_id)
        self.engine = engine_for(self.sub)
        # top down: a cube is in the tree when its parent is and did not stop
        chain: dict[int, float] = {}
        stop: dict[int, StopVerdict] = {}
        for qid in order:
            parent = lat.cubes[qid].parent
            if qid == self.root_id or (parent in chain and parent not in stop):
                v = self.verdict(qid, chain)
                if v is not None:
                    stop[qid] = v

        stop.update(self.far_stops([q for q in chain if q not in stop]))

        # maximality: keep a cube when its parent is kept and not stopped
        kept: dict[int, StopVerdict | None] = {}
        for qid in chain:
            parent = lat.cubes[qid].parent
            if qid == self.root_id or (parent in kept and kept[parent] is None):
                kept[qid] = stop.get(qid)
        return self._decomposition(kept)

    def far_stops(self, open_ids: list[int]) -> dict[int, StopVerdict]:
        """The F verdicts among the tree cubes ``open_ids`` that no other
        rule stopped: a cube stops when more than ``sqrt(alpha)`` of its
        mass lies beyond ``5 sqrt(eps0)`` times the companion radius from
        the line of some fitted cube of ``open_ids`` whose 2B holds its 2B.

        Which root members each fitted line leaves beyond its tolerance is
        one (fitted x members) array, from ``Line.distance``'s expression on
        the fit table, a block of lines at a time."""
        lat, mu, par = self.lattice, self.mu, self.params
        fitted = [q for q in open_ids
                  if lat.cubes[q].doubling and self.cube_line(q) is not None]
        members_r = lat.cubes[self.root_id].members
        pts_r = mu.points[members_r]
        anchors, directions, _ = lat._fit_2b
        lim = 5 * math.sqrt(par.eps0) * np.array([lat.big_ball(q).radius for q in fitted])
        beyond = np.zeros((len(fitted), members_r.size), dtype=bool)
        for s in range(0, len(fitted), _LINE_BLOCK):
            q = fitted[s:s + _LINE_BLOCK]
            rel = pts_r - anchors[q, None]
            beyond[s:s + _LINE_BLOCK] = (np.abs((rel * np.conj(directions[q, None])).imag)
                                         > lim[s:s + _LINE_BLOCK, None])
        cols = np.flatnonzero(beyond.any(axis=0))
        if not cols.size:
            return {}
        # the 2B of the cubes and of the fitted ones; candidate pairs come
        # from one broadcast at a margin numpy's complex abs cannot cross,
        # and each is confirmed with Python's abs, as the scalar test rounds
        (c_open, r_open), (c_fit, r_fit) = (
            (np.array([lat.cubes[q].center for q in ids], dtype=complex),
             np.array([lat.big_ball(q, 2.0).radius for q in ids]))
            for ids in (open_ids, fitted))
        holds = (np.abs(c_open[:, None] - c_fit[None, :]) * (1 - 1e-12)
                 <= r_fit[None, :] - r_open[:, None])
        for i, j in zip(*np.nonzero(holds)):
            holds[i, j] = abs(complex(c_fit[j] - c_open[i])) <= r_fit[j] - r_open[i]
        # a member is far when some holding line leaves it beyond: one 0/1
        # product, and only the cubes with such members are visited
        hits = holds.astype(np.float32) @ beyond[:, cols].astype(np.float32) > 0
        out: dict[int, StopVerdict] = {}
        for i in np.flatnonzero(hits.any(axis=1)):
            qid = open_ids[i]
            members = lat.cubes[qid].members
            far = np.isin(members, members_r[cols[hits[i]]])
            far_mass = float(mu.weights[members[far]].sum())
            if far_mass > math.sqrt(par.alpha) * lat.mass(qid):
                out[qid] = StopVerdict("F", far_mass / lat.mass(qid))
        return out

    def _decomposition(self, kept: dict[int, StopVerdict | None]) -> TreeDecomposition:
        """The tree of the cubes ``kept``, each with its stop verdict or
        None, and the generation its stopped cubes seed."""
        lat, mu, par = self.lattice, self.mu, self.params
        stop = {q: v for q, v in kept.items() if v is not None}
        members_r = lat.cubes[self.root_id].members
        next_ids: set[int] = set()
        if not self.sums:
            # a point-mass root: nothing stops and no atom has a point sum
            g_r, r_far, dropped = members_r.copy(), members_r[:0], members_r[:0]
        else:
            stopped_atoms = np.zeros(len(mu), dtype=bool)
            for q in stop:
                stopped_atoms[lat.cubes[q].members] = True
            for qid, v in stop.items():
                if v.label in ("HD", "BS"):
                    next_ids.add(qid)
                else:
                    next_ids.update(_replacement(lat, qid))
            next_ids.discard(self.root_id)
            next_atoms = np.zeros(len(mu), dtype=bool)
            for q in next_ids:
                next_atoms[lat.cubes[q].members] = True
            dropped = members_r[stopped_atoms[members_r] & ~next_atoms[members_r]]

            # far atoms: a large windowed point sum at some surviving cube
            # (the root always counts) whose doubled ball holds the atom
            cut = par.c2_value * self.theta_density**2
            far = np.zeros(len(mu), dtype=bool)
            for qid, (atoms, sums) in self.sums.items():
                if qid == self.root_id or (qid in kept and kept[qid] is None):
                    far[atoms[sums >= cut]] = True
            g_r = members_r[~stopped_atoms[members_r]]
            r_far = members_r[far[members_r]]

        return TreeDecomposition(
            root_id=self.root_id,
            params=par,
            line=self.line,
            in_t_vf=self.in_t_vf,
            theta_r=self.theta_r,
            theta_density=self.theta_density,
            tree_ids=list(kept),
            stop=stop,
            dbtree_ids=[q for q, v in kept.items()
                        if v is None and lat.cubes[q].doubling],
            g_r=g_r,
            r_far=r_far,
            next_ids=sorted(next_ids),
            # a single-atom root computes no point sums: its cubes carry 0
            perm_sq={q: self.perm.get(q, 0.0) for q in kept},
            dropped_atoms=dropped,
        )


def build_tree(
    lattice: Lattice, mu: DiscreteMeasure, root_id: int, params: Params
) -> TreeDecomposition:
    """Grow and stop one tree, then derive its replacement generation.
    ``mu`` must be ``lattice.mu``, or have its points and weights."""
    _own_measure(lattice, mu)
    return _TreeBuilder(lattice, root_id, params).build(
        lambda sub: _WindowEngine(K_ZERO, mu._view(sub)))


@dataclass
class CoronaDecomposition:
    params: Params
    generations: list[list[int]]
    trees: dict[int, TreeDecomposition]

    @property
    def top_ids(self) -> list[int]:
        return [q for gen in self.generations for q in gen]


def build_top(
    lattice: Lattice,
    mu: DiscreteMeasure,
    params: Params,
) -> CoronaDecomposition:
    """Iterate tree building from the root until no replacements remain,
    for at most ``K_MAX`` generations.

    The K_0 matrix of the whole measure is evaluated once; each engine
    takes its root's block of it, a slice when the root's 2B atoms are
    consecutive.  Consecutive trees whose roots' 2B hold
    the same atoms share one engine, and only one engine is alive at a
    time.  An atom reads its point sum from the engine's whole-row totals
    when the bounds from the spacing ``mu.min_spacing`` and the root ball's
    bounding box certify that its window ``[delta r, r / delta]`` holds
    every other atom of the root's 2B, unless one atom may dominate a row
    of ``|K| w`` and the engine's cancellation guard is on.  Every other
    atom is summed on its window, and an engine forms the O(m^3) product
    ``C W C`` only for such an atom.

    Every tree reads the atoms of each cube's 2B from the lattice's table
    (``Lattice.atoms_2b``) and the best line of each cube's 2B from the
    lattice's fit table (``Lattice.line_2b``), which fits every cube once,
    in one batch, on its first read: the roots, the slope rule and the
    far-from-lines pass read it.  A root with one atom costs a table
    lookup and builds no engine.

    ``mu`` must be ``lattice.mu``, or have its points and weights.  A
    measure whose ``N2_ARRAYS`` n x n arrays would not fit in physical
    memory is rejected before anything is allocated.
    """
    _own_measure(lattice, mu)
    n = len(mu)
    need, have = N2_ARRAYS * 8 * n * n, _physical_memory()
    if need > have:
        raise ValueError(f"build_top on {n} atoms needs about {need} bytes "
                         f"({N2_ARRAYS} n x n arrays of doubles); physical "
                         f"memory is {have} bytes")
    root = lattice.root
    if not root.doubling:
        raise ValueError("the support cube is not doubling")
    kmat = _kernel_matrix(K_ZERO, mu.points, mu.points)
    last: tuple[np.ndarray, _WindowEngine] | None = None

    def engine_for(sub: np.ndarray) -> _WindowEngine:
        nonlocal last
        if last is None or not np.array_equal(last[0], sub):
            last = None  # free the old engine before building the next
            lo, hi = sub[0], sub[-1] + 1
            if sub.size == len(mu):
                c = kmat
            elif hi - lo == sub.size:  # consecutive atoms: a block, copied whole
                c = kmat[lo:hi, lo:hi].copy()
            else:  # one take of flat indices, quicker than np.ix_ indexing
                c = kmat.take((sub * n)[:, None] + sub)
            last = sub, _WindowEngine(K_ZERO, mu._view(sub), c)
        return last[1]

    generations = [[root.id]]
    trees: dict[int, TreeDecomposition] = {}
    seen = {root.id}
    for _ in range(K_MAX):
        nxt: list[int] = []
        for rid in generations[-1]:
            tree = _TreeBuilder(lattice, rid, params).build(engine_for)
            trees[rid] = tree
            for q in tree.next_ids:
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        if not nxt:
            break
        generations.append(sorted(nxt))
    return CoronaDecomposition(params, generations, trees)


@dataclass(frozen=True)
class PackingReport:
    top_sum: float
    p0: float
    p_inf: float
    growth_term: float
    ratio_upper: float  # top_sum / (p0 + growth term)
    ratio_lower: float  # p_inf / top_sum


def packing_sum(
    lattice: Lattice, corona: CoronaDecomposition, mu: DiscreteMeasure,
    workers: int = 1,
) -> PackingReport:
    """Both sides of the packing sandwich for the top cubes."""
    top_sum = math.fsum(
        [
            lattice.theta_2b(q) ** 2 * lattice.mass(q)
            for q in corona.top_ids
        ]
    )
    p0 = perm_measure(K_ZERO, mu, workers=workers).value
    p_inf = perm_measure(K_INF, mu, workers=workers).value
    growth = mu.linear_growth_constant() ** 2 * mu.total_mass
    return PackingReport(
        top_sum,
        p0,
        p_inf,
        growth,
        top_sum / (p0 + growth) if p0 + growth > 0 else math.inf,
        p_inf / top_sum if top_sum > 0 else math.inf,
    )


@dataclass(frozen=True)
class BetaPackingReport:
    beta_sum: float
    curvature: float
    mass: float
    ratio: float


def beta_packing_sum(
    lattice: Lattice, mu: DiscreteMeasure, workers: int = 1
) -> BetaPackingReport:
    """Summed squared beta numbers weighted by density and mass over every
    cube, against the curvature-plus-mass budget."""
    _own_measure(lattice, mu)
    beta_sum = math.fsum([lattice.beta_2b(q) ** 2 * lattice.theta_2b(q) * lattice.mass(q)
                          for q in range(len(lattice.cubes))])
    c2 = curvature_squared(mu, workers=workers)
    denom = c2 + mu.total_mass
    return BetaPackingReport(beta_sum, c2, mu.total_mass,
                             beta_sum / denom if denom > 0 else math.inf)


@dataclass(frozen=True)
class StopMassReport:
    masses: dict
    ratios: dict
    bounds: dict
    flags: dict
    bp_rhs: float
    bp_holds: bool


def stop_mass_report(lattice: Lattice, tree: TreeDecomposition) -> StopMassReport:
    """Stopped-family masses against their expected bounds.

    The accumulated-permutation family bound is algebraic (a direct
    consequence of the stopping rule) and is reported as an exact check;
    the density and slope bounds are diagnostics.
    """
    par = tree.params
    mass_r = lattice.mass(tree.root_id)
    masses = {lab: sum(lattice.mass(q) for q in tree.family(lab)) for lab in LABELS}
    ratios = {lab: masses[lab] / mass_r if mass_r else 0.0 for lab in LABELS}
    bounds = {
        "LD": math.sqrt(par.tau) / 3,
        "BS": math.sqrt(par.tau) / 3,
        "F": math.sqrt(par.alpha),
        "BP": None,
    }
    flags = {
        "LD": ratios["LD"] <= bounds["LD"],
        "BS": ratios["BS"] <= bounds["BS"],
        "F": ratios["F"] <= bounds["F"],
    }
    # perm_sq already carries the Theta^2 mass(Q) normalization; undoing the
    # mass factor gives the literal permutation sum over the tree
    lhs = masses["BP"]
    rhs = math.fsum(
        [tree.perm_sq[q] * lattice.mass(q) for q in tree.tree_ids]
    ) / par.alpha**2
    return StopMassReport(masses, ratios, bounds, flags, rhs, lhs <= rhs * (1 + 1e-9))
