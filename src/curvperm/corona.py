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
from dataclasses import dataclass, fields

import numpy as np

from .graphfit import balanced_ball_test, beta2
from .kernels import K_INF, K_ZERO, Line, angle_between, kernel_values, theta_vertical
from .lattice import Lattice, build as build_lattice, maximal_doubling
from .measure import DiscreteMeasure
from .permutations import perm_measure
from .reduction import deterministic_sum

__all__ = [
    "Params",
    "StopVerdict",
    "TreeDecomposition",
    "CoronaDecomposition",
    "lattice_for",
    "build_tree",
    "build_top",
    "theta_r_rule",
    "id_classify",
    "packing_sum",
    "beta_packing_sum",
    "stop_mass_report",
    "density_band_report",
]

LABELS = ("HD", "LD", "UB", "BP", "BS", "F")


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
    separation: float = 10.0
    doubling_constant: float = 128.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ValueError(f"{f.name} must be a finite number")
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
        return {
            "tau": self.tau, "a": self.a, "theta0": self.theta0,
            "gamma": self.gamma, "eps0": self.eps0, "alpha": self.alpha,
            "delta": self.delta, "c0": self.c0, "a0": self.a0,
            "c_f": self.c_f, "c2": self.c2_value,
            "separation": self.separation,
            "doubling_constant": self.doubling_constant,
        }


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


# slot-one atoms per block of the windowed sums: bounds the temporaries to
# _ROW_BLOCK x m floats for an engine of m atoms
_ROW_BLOCK = 64


class _PermEngine:
    """Windowed permutation sums of one tree, against the root's doubled
    companion ball, via precomputed kernel matrices."""

    def __init__(self, lattice: Lattice, mu: DiscreteMeasure, root_id: int):
        self.sub = np.flatnonzero(lattice.big_ball(root_id, 2.0).contains(mu.points))
        self.pts = mu.points[self.sub]
        self.w = mu.weights[self.sub]
        self.c = kernel_values(K_ZERO, self.pts[:, None] - self.pts[None, :])
        self.cw = self.c @ self.w
        self.g = self.c @ (self.w[:, None] * self.c)

    def point_sums(self, atoms: np.ndarray, q_radius: float,
                   delta: float) -> np.ndarray:
        """Double sums of the flat-kernel permutation with the first point at
        each atom and the first pair windowed to [delta r, r / delta].

        A tree cube's 2B lies in its root's 2B whenever separation + 56 / a0
        <= 56 (17 at the defaults), so its atoms are engine atoms; others
        are rejected rather than summed against a partial ball.
        """
        rows = np.searchsorted(self.sub, atoms)
        if not (np.all(rows < self.sub.size) and np.array_equal(self.sub[rows], atoms)):
            raise ValueError("slot-one atoms must lie in the root's doubled ball")
        lo, hi = delta * q_radius, q_radius / delta
        w = self.w
        out = np.empty(rows.size)
        for start in range(0, rows.size, _ROW_BLOCK):
            j = rows[start:start + _ROW_BLOCK]
            dist = np.abs(self.pts[j, None] - self.pts[None, :])
            # columns of C and C W C, copied into C-contiguous rows so each
            # row reduces like a vector; C W C is not bit-symmetric
            g_col = np.ascontiguousarray(self.g[:, j].T)
            c_col = np.ascontiguousarray(self.c[:, j].T)
            u = self.cw - c_col * w[j, None]
            win = (dist >= lo) & (dist <= hi) & (dist > 0)
            wc = w * self.c[j]
            alpha = np.where(win, wc, 0.0)
            wb = np.where(dist > 0, wc, 0.0)
            t1 = alpha.sum(axis=1) * wb.sum(axis=1) - (alpha * wb).sum(axis=1)
            t2 = -(alpha * u).sum(axis=1)
            t3 = (np.where(win, w, 0.0) * -g_col).sum(axis=1)
            out[start:start + j.size] = t1 + t2 + t3
        return out


def _ball_contains(lattice: Lattice, outer: int, inner: int) -> bool:
    bo = lattice.big_ball(outer, 2.0)
    bi = lattice.big_ball(inner, 2.0)
    return abs(bo.center - bi.center) <= bo.radius - bi.radius


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
    def __init__(self, lattice: Lattice, mu: DiscreteMeasure, root_id: int,
                 params: Params):
        if not lattice.cubes[root_id].doubling:
            raise ValueError("tree roots must be doubling cubes")
        self.lattice = lattice
        self.mu = mu
        self.root_id = root_id
        self.params = params
        # slot-one atoms and their windowed point sums, per cube
        self.sums: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.theta_density = lattice.theta_2b(root_id)
        self.lines: dict[int, Line | None] = {}
        self.thetas: dict[int, float] = {}
        root_fit = beta2(mu, lattice.big_ball(root_id, 2.0))
        self.line = root_fit.line
        self.line_degenerate = root_fit.mass == 0 or lattice.cubes[root_id].n_members < 2
        self.in_t_vf, self.theta_r = theta_r_rule(
            theta_vertical(self.line), params
        )

    def theta_2b(self, qid: int) -> float:
        v = self.thetas.get(qid)
        if v is None:
            v = self.lattice.theta_2b(qid)
            self.thetas[qid] = v
        return v

    def cube_line(self, qid: int) -> Line | None:
        """Best line of the doubled companion ball; None when the ball holds
        fewer than two atoms and every line is a minimizer."""
        if qid in self.lines:
            return self.lines[qid]
        ball = self.lattice.big_ball(qid, 2.0)
        n_atoms = np.count_nonzero(ball.contains(self.mu.points))
        line = beta2(self.mu, ball).line if n_atoms >= 2 else None
        self.lines[qid] = line
        return line

    def perm_sq(self, qid: int) -> float:
        q = self.lattice.cubes[qid]
        slot1 = np.flatnonzero(self.lattice.big_ball(qid, 2.0).contains(self.mu.points))
        sums = self.engine.point_sums(slot1, q.radius, self.params.delta)
        self.sums[qid] = (slot1, sums)
        p = deterministic_sum(self.mu.weights[slot1] * sums)
        # the flat kernel is outside the sign-changing parameter range, so
        # its permutation is pointwise nonnegative; negative totals are
        # cancellation roundoff
        p = max(p, 0.0)
        denom = self.theta_density**2 * self.lattice.mass(qid)
        return p / denom if denom > 0 else 0.0

    def build(self) -> TreeDecomposition:
        lat, mu, par = self.lattice, self.mu, self.params
        if lat.cubes[self.root_id].n_members < 2:
            # a point mass has no sub-structure to stop on
            chain = sorted(
                lat.descendants(self.root_id),
                key=lambda q: (lat.cubes[q].level, q),
            )
            return TreeDecomposition(
                root_id=self.root_id,
                params=par,
                line=self.line,
                in_t_vf=self.in_t_vf,
                theta_r=self.theta_r,
                theta_density=self.theta_density,
                tree_ids=chain,
                stop={},
                dbtree_ids=[q for q in chain if lat.cubes[q].doubling],
                g_r=lat.cubes[self.root_id].members,
                r_far=np.zeros(0, dtype=int),
                next_ids=[],
                perm_sq={q: 0.0 for q in chain},
                dropped_atoms=np.zeros(0, dtype=int),
            )
        self.engine = _PermEngine(lat, mu, self.root_id)
        order = sorted(
            lat.descendants(self.root_id),
            key=lambda q: (lat.cubes[q].level, q),
        )
        pruned: set[int] = set()
        stop: dict[int, StopVerdict] = {}
        chain: dict[int, float] = {}
        perm_table: dict[int, float] = {}
        s1s3: dict[int, bool] = {}
        tree_ids: list[int] = []
        deferred_f: list[int] = []

        for qid in order:
            parent = lat.cubes[qid].parent
            if qid != self.root_id and (parent in pruned or parent in stop):
                pruned.add(qid)
                continue
            tree_ids.append(qid)
            theta_q = self.theta_2b(qid)
            doubling = lat.cubes[qid].doubling
            verdict: StopVerdict | None = None

            if doubling and theta_q > par.a * self.theta_density:
                verdict = StopVerdict("HD", theta_q / self.theta_density)
            elif theta_q < par.tau * self.theta_density:
                verdict = StopVerdict("LD", theta_q / self.theta_density)
            elif doubling:
                bal = balanced_ball_test(lat, mu, qid, par.gamma)
                if not bal.balanced:
                    verdict = StopVerdict("UB", bal.family_strength)

            p_sq = self.perm_sq(qid)
            perm_table[qid] = p_sq
            up = chain[parent] if qid != self.root_id else 0.0
            chain[qid] = up + p_sq
            if verdict is None and chain[qid] > par.alpha**2:
                verdict = StopVerdict("BP", chain[qid])

            if verdict is None and doubling and qid != self.root_id:
                l_q = self.cube_line(qid)
                if l_q is not None and not self.line_degenerate:
                    ang = angle_between(l_q, self.line)
                    if ang > self.theta_r:
                        verdict = StopVerdict("BS", ang)

            if verdict is not None:
                stop[qid] = verdict
                s1s3[qid] = True
            else:
                s1s3[qid] = False
                deferred_f.append(qid)

        # far-from-lines pass: needs the earlier families everywhere
        clean: dict[int, bool] = {}
        for qid in tree_ids:
            parent = lat.cubes[qid].parent
            inherited = clean.get(parent, True) if qid != self.root_id else True
            clean[qid] = inherited and not s1s3[qid]
        candidates = [
            q for q in tree_ids
            if clean[q] and lat.cubes[q].doubling and self.cube_line(q) is not None
        ]
        tol = 5 * math.sqrt(par.eps0)
        for qid in deferred_f:
            members = lat.cubes[qid].members
            pts = mu.points[members]
            far = np.zeros(members.size, dtype=bool)
            for tid in candidates:
                if not _ball_contains(lat, tid, qid):
                    continue
                line = self.cube_line(tid)
                lim = tol * lat.big_ball(tid).radius
                far |= np.atleast_1d(line.distance(pts)) > lim
            far_mass = float(mu.weights[members[far]].sum())
            if far_mass > math.sqrt(par.alpha) * lat.mass(qid):
                stop[qid] = StopVerdict("F", far_mass / lat.mass(qid))

        # resolve maximality: keep stop verdicts with no stopped proper ancestor
        final_stop: dict[int, StopVerdict] = {}
        kept_tree: list[int] = []
        blocked: set[int] = set()
        for qid in tree_ids:
            parent = lat.cubes[qid].parent
            if qid != self.root_id and (parent in blocked):
                blocked.add(qid)
                continue
            kept_tree.append(qid)
            if qid in stop:
                final_stop[qid] = stop[qid]
                blocked.add(qid)

        dbtree = [
            q for q in kept_tree
            if lat.cubes[q].doubling and q not in final_stop
        ]
        members_r = lat.cubes[self.root_id].members
        stopped_atoms = np.zeros(len(mu), dtype=bool)
        for q in final_stop:
            stopped_atoms[lat.cubes[q].members] = True
        g_r = members_r[~stopped_atoms[members_r]]

        next_ids: list[int] = []
        for qid, v in final_stop.items():
            if v.label in ("HD", "BS"):
                next_ids.append(qid)
            else:
                next_ids.extend(_replacement(lat, qid))
        next_ids = sorted(set(next_ids) - {self.root_id})
        next_atoms = np.zeros(len(mu), dtype=bool)
        for q in next_ids:
            next_atoms[lat.cubes[q].members] = True
        dropped = members_r[stopped_atoms[members_r] & ~next_atoms[members_r]]

        # far atoms: a large windowed point sum at some surviving cube (the
        # root always counts) whose doubled ball holds the atom
        cut = par.c2_value * self.theta_density**2
        far = np.zeros(len(mu), dtype=bool)
        for qid in kept_tree:
            if qid == self.root_id or qid not in final_stop:
                atoms, sums = self.sums[qid]
                far[atoms[sums >= cut]] = True

        return TreeDecomposition(
            root_id=self.root_id,
            params=par,
            line=self.line,
            in_t_vf=self.in_t_vf,
            theta_r=self.theta_r,
            theta_density=self.theta_density,
            tree_ids=kept_tree,
            stop=final_stop,
            dbtree_ids=dbtree,
            g_r=g_r,
            r_far=members_r[far[members_r]],
            next_ids=next_ids,
            perm_sq={q: perm_table[q] for q in kept_tree},
            dropped_atoms=dropped,
        )


def build_tree(
    lattice: Lattice, mu: DiscreteMeasure, root_id: int, params: Params
) -> TreeDecomposition:
    """Grow and stop one tree, then derive its replacement generation."""
    return _TreeBuilder(lattice, mu, root_id, params).build()


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
    k_max: int = 64,
) -> CoronaDecomposition:
    """Iterate tree building from the root until no replacements remain."""
    root = lattice.root
    if not root.doubling:
        raise ValueError("the support cube is not doubling")
    generations = [[root.id]]
    trees: dict[int, TreeDecomposition] = {}
    seen = {root.id}
    for _ in range(k_max):
        nxt: list[int] = []
        for rid in generations[-1]:
            tree = build_tree(lattice, mu, rid, params)
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
class IdFlags:
    id_h: bool
    id_u: bool
    hd_mass: float
    ub_mass: float
    root_mass: float
    next_density_sum: float
    root_density_term: float


def id_classify(lattice: Lattice, tree: TreeDecomposition) -> IdFlags:
    """Increasing-density flags: a quarter of the root mass in high-density
    stop cubes, or in the unbalanced replacements."""
    mass_r = lattice.mass(tree.root_id)
    hd_mass = sum(lattice.mass(q) for q in tree.family("HD"))
    ub_repl: set[int] = set()
    for q in tree.family("UB"):
        ub_repl.update(_replacement(lattice, q))
    ub_mass = sum(lattice.mass(q) for q in ub_repl)
    next_sum = deterministic_sum(
        [lattice.theta_2b(q) ** 2 * lattice.mass(q) for q in tree.next_ids]
    )
    return IdFlags(
        hd_mass >= mass_r / 4,
        ub_mass >= mass_r / 4,
        hd_mass,
        ub_mass,
        mass_r,
        next_sum,
        tree.theta_density**2 * mass_r,
    )


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
    top_sum = deterministic_sum(
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
    terms = []
    for q in lattice.cubes:
        ball = lattice.big_ball(q.id, 2.0)
        b = beta2(mu, ball)
        theta = lattice.theta_2b(q.id)
        terms.append(b.beta**2 * theta * lattice.mass(q.id))
    beta_sum = deterministic_sum(terms)
    c2 = 4.0 * perm_measure(K_INF, mu, workers=workers).value
    denom = c2 + mu.total_mass
    return BetaPackingReport(beta_sum, c2, mu.total_mass,
                             beta_sum / denom if denom > 0 else math.inf)


def density_band_report(lattice: Lattice, tree: TreeDecomposition) -> dict:
    """Density ratios of tree cubes outside the density stopping families:
    the lower band is exact by the stopping rule, the upper one is reported
    with its observed constant."""
    par = tree.params
    ratios = []
    for q in tree.tree_ids:
        theta = lattice.theta_2b(q)
        ratio = theta / tree.theta_density
        doubling = lattice.cubes[q].doubling
        if (doubling and ratio > par.a) or ratio < par.tau:
            continue  # in a density family
        ratios.append(ratio)
    return {
        "n_cubes": len(ratios),
        "min_ratio": min(ratios) if ratios else math.inf,
        "max_ratio": max(ratios) if ratios else 0.0,
        "lower_ok": all(r >= par.tau for r in ratios),
        "observed_upper_over_a": (max(ratios) / par.a) if ratios else 0.0,
    }


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
    rhs = deterministic_sum(
        [tree.perm_sq[q] * lattice.mass(q) for q in tree.tree_ids]
    ) / par.alpha**2
    return StopMassReport(masses, ratios, bounds, flags, rhs, lhs <= rhs * (1 + 1e-9))
