"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: plain loops, textbook formulas, and
dense scans.  The per-term kernel arithmetic mirrors the library's scalar
formula step for step so that order-matched summations can be compared
bit for bit; the looping, truncation, and minimization logic is written
from scratch.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from curvperm.graphfit import LENGTH_RULE, BetaResult, WhitneyCover, beta2
from curvperm.kernels import KernelParam, Line, kernel_values
from curvperm.lattice import BIG_BALL_FACTOR, first_doubling_ancestor
from curvperm.permutations import SignScanResult


def kernel_t(t, z: complex) -> float:
    """t is a float or None for the reciprocal-modulus kernel."""
    x = z.real
    r2 = x * x + z.imag * z.imag
    if t is None:
        return x / r2
    return (x * x * x) / (r2 * r2) + t * (x / r2)


def perm_term(t, a: complex, b: complex, c: complex) -> float:
    return (
        kernel_t(t, a - b) * kernel_t(t, a - c)
        + kernel_t(t, b - a) * kernel_t(t, b - c)
        + kernel_t(t, c - a) * kernel_t(t, c - b)
    )


def circumradius(a: complex, b: complex, c: complex) -> float:
    la, lb, lc = abs(b - c), abs(a - c), abs(a - b)
    s = (la + lb + lc) / 2
    area = math.sqrt(max(s * (s - la) * (s - lb) * (s - lc), 0.0))
    if area == 0.0:
        return math.inf
    return la * lb * lc / (4 * area)


def naive_perm_triple(t, points, weights, eps: float = 0.0) -> float:
    """Plain lexicographic triple loop with sequential accumulation."""
    n = len(points)
    total = 0.0
    lo = max(eps, np.finfo(float).tiny)
    for i in range(n):
        for j in range(n):
            if abs(points[i] - points[j]) < lo:
                continue
            for l in range(n):
                if abs(points[i] - points[l]) < lo or abs(points[j] - points[l]) < lo:
                    continue
                term = perm_term(t, points[i], points[j], points[l])
                total = total + weights[i] * weights[j] * weights[l] * term
    return total


def _exact_kernel(t, dx, r2):
    """The kernel at a difference with real part ``dx`` and squared modulus
    ``r2``, in the rationals of its arguments."""
    return dx / r2 if t is None else dx**3 / r2**2 + t * dx / r2


def exact_perm_triple(t, points, weights, eps=0, window=None):
    """Triple sum of the permutation over one measure in exact rationals.

    ``t`` is a rational parameter or None for the reciprocal-modulus
    kernel; points, weights, ``eps`` and the ``window`` ``(lo, hi)`` are
    converted exactly.  A triple counts when its three pairwise distances
    are >= eps and nonzero and, with a window, the distance of its pair
    (1, 2) lies in ``[lo, hi]``.
    Returns the sum, its total variation (the three products summed in
    absolute value) and the number of triples.
    """
    xy = [(Fraction(z.real), Fraction(z.imag)) for z in map(complex, points)]
    w = [Fraction(float(v)) for v in weights]
    t = None if t is None else Fraction(t)
    eps2 = Fraction(eps) ** 2
    lo2, hi2 = (Fraction(b) ** 2 for b in window) if window else (0, None)
    n = len(xy)
    kern = [[None] * n for _ in range(n)]  # None marks an inadmissible pair
    in_window = [[False] * n for _ in range(n)]
    for i, (xi, yi) in enumerate(xy):
        for j, (xj, yj) in enumerate(xy):
            dx, dy = xi - xj, yi - yj
            r2 = dx * dx + dy * dy
            if r2 == 0 or r2 < eps2:
                continue
            kern[i][j] = _exact_kernel(t, dx, r2)
            in_window[i][j] = hi2 is None or lo2 <= r2 <= hi2
    value = total = Fraction(0)
    count = 0
    for i in range(n):
        for j in range(n):
            if not in_window[i][j]:
                continue
            for l in range(n):
                if kern[i][l] is None or kern[j][l] is None:
                    continue
                terms = (kern[i][j] * kern[i][l], kern[j][i] * kern[j][l],
                         kern[l][i] * kern[l][j])
                wt = w[i] * w[j] * w[l]
                value += wt * sum(terms)
                total += wt * sum(abs(a) for a in terms)
                count += 1
    return value, total, count


def exact_t1(t, points, weights, eps):
    """The truncated transform of 1 at every atom in exact rationals.

    ``t``, points, weights and ``eps`` convert as in ``exact_perm_triple``;
    atom y counts at atom x when ``0 < |x - y|`` and ``|x - y| >= eps``.
    Returns per atom the sum of ``K(x - y) w_y`` and of its absolute
    values.
    """
    xy = [(Fraction(z.real), Fraction(z.imag)) for z in map(complex, points)]
    w = [Fraction(float(v)) for v in weights]
    t = None if t is None else Fraction(t)
    eps2 = Fraction(eps) ** 2
    values, totals = [], []
    for xi, yi in xy:
        value = total = Fraction(0)
        for (xj, yj), wj in zip(xy, w):
            dx, dy = xi - xj, yi - yj
            r2 = dx * dx + dy * dy
            if r2 == 0 or r2 < eps2:
                continue
            term = _exact_kernel(t, dx, r2) * wj
            value += term
            total += abs(term)
        values.append(value)
        totals.append(total)
    return values, totals


def row_sums(k, p1, mu2, mu3, ranges):
    """Per first-slot point, the double sum of the permutation against
    ``mu2 x mu3`` and the number of admissible pairs: one dense row at a
    time.

    ``ranges`` holds the closed admissible distance interval ``(lo, hi)`` of
    the pairs (1, 2), (1, 3) and (2, 3); a triple counts when all three
    pairs are admissible.
    """
    p2, w2 = mu2.points, mu2.weights
    p3, w3 = mu3.points, mu3.weights
    diffs = (p1[:, None] - p2[None, :], p1[:, None] - p3[None, :],
             p2[:, None] - p3[None, :])
    k12, k13, k23 = (kernel_values(k, d) for d in diffs)
    m12, m13, m23 = (
        (a >= lo) & (a <= hi) for a, (lo, hi) in zip(map(np.abs, diffs), ranges)
    )
    m23 = m23.astype(float)
    sums = np.empty(len(p1))
    counts = np.zeros(len(p1), dtype=np.int64)
    for i in range(len(p1)):
        row2 = np.where(m12[i], w2, 0.0)
        row3 = np.where(m13[i], w3, 0.0)
        t1 = np.outer(k12[i] * row2, k13[i] * row3)
        t2 = (-k12[i] * row2)[:, None] * (k23 * row3[None, :])
        t3 = (k13[i] * row3)[None, :] * (k23 * row2[:, None])
        sums[i] = float(((t1 + t2 + t3) * m23).sum())
        counts[i] = np.count_nonzero(m23[np.ix_(m12[i], m13[i])])
    return sums, counts


def near_pairs_two_trees(p, lo):
    """The strict upper triangle of the pairs of ``p`` closer than ``lo``,
    as a sparse 0/1 ``csr_array``: every pair from a KD-tree against itself
    at an inflated radius, filtered with ``< lo`` and cut with ``triu``."""
    from scipy.sparse import csr_array, triu
    from scipy.spatial import cKDTree

    ta, tb = (cKDTree(np.column_stack([p.real, p.imag])) for _ in range(2))
    found = ta.sparse_distance_matrix(tb, lo * (1.0 + 1e-9), output_type="ndarray")
    near = np.abs(p[found["i"]] - p[found["j"]]) < lo
    rows, cols = found["i"][near], found["j"][near]
    pairs = csr_array((np.ones(len(rows)), (rows, cols)), shape=(len(p), len(p)))
    return triu(pairs, k=1, format="csr")


def sign_scan_scipy(t, n_samples, seed) -> SignScanResult:
    """``sign_scan`` with its best sample polished by
    ``scipy.optimize.minimize(method="Nelder-Mead")``, and each permutation
    from three ``kernel_values`` calls: the same samples, scipy's search."""
    from scipy.optimize import minimize

    k = KernelParam(t)
    rng = np.random.default_rng(seed)

    def perm(z1, z2, z3):
        a, b, c = (kernel_values(k, d) for d in (z1 - z2, z1 - z3, z2 - z3))
        return a * b - a * c + b * c

    def sample_disc(n):
        rho = np.sqrt(rng.uniform(0, 1, n))
        ang = rng.uniform(0, 2 * np.pi, n)
        return 0j + rho * np.exp(1j * ang)

    n_free = n_samples // 2
    n_thin = n_samples - n_free
    free = [sample_disc(n_free) for _ in range(3)]
    base = sample_disc(n_thin)
    direc = np.exp(1j * rng.uniform(0, 2 * np.pi, n_thin))
    span = rng.uniform(0.05, 1.0, n_thin)
    frac = rng.uniform(0.1, 0.9, n_thin)
    height = span * 10.0 ** rng.uniform(-4, -0.3, n_thin)
    thin = [base, base + span * direc, base + frac * span * direc + 1j * height * direc]
    z1, z2, z3 = (np.concatenate(pair) for pair in zip(free, thin))
    good = (np.abs(z1 - z2) > 1e-12) & (np.abs(z1 - z3) > 1e-12) & (np.abs(z2 - z3) > 1e-12)
    vals = np.where(good, perm(z1, z2, z3), np.inf)
    best = int(np.argmin(vals))
    best_val = float(vals[best])
    triple = (complex(z1[best]), complex(z2[best]), complex(z3[best]))

    def objective(v):
        a, b, d = complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5])
        if min(abs(a - b), abs(a - d), abs(b - d)) < 1e-12:
            return np.inf
        return float(perm(a, b, d))

    v0 = np.array([c for z in triple for c in (z.real, z.imag)])
    res = minimize(objective, v0, method="Nelder-Mead",
                   options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-14})
    if np.isfinite(res.fun) and res.fun < best_val:
        best_val = float(res.fun)
        triple = tuple(complex(res.x[i], res.x[i + 1]) for i in (0, 2, 4))
    return SignScanResult(best_val, triple, n_samples)


def naive_perm_window(t, pts1, w1, pts2, w2, pts3, w3, delta, q_radius) -> float:
    """Triple loop with the first pair windowed, other pairs distinct."""
    lo, hi = delta * q_radius, q_radius / delta
    total = 0.0
    for i in range(len(pts1)):
        for j in range(len(pts2)):
            d = abs(pts1[i] - pts2[j])
            if d < lo or d > hi:
                continue
            for l in range(len(pts3)):
                if pts3[l] == pts1[i] or pts3[l] == pts2[j]:
                    continue
                total += (
                    w1[i] * w2[j] * w3[l]
                    * perm_term(t, pts1[i], pts2[j], pts3[l])
                )
    return total


def naive_t1_norm(t, points, weights, eps: float) -> float:
    acc = 0.0
    for i in range(len(points)):
        v = 0.0
        for j in range(len(points)):
            dz = points[i] - points[j]
            if abs(dz) >= eps:
                v += kernel_t(t, dz) * weights[j]
        acc += v * v * weights[i]
    return math.sqrt(acc)


def growth_constant_scan(points, weights, scale, n_radii: int = 4000) -> float:
    """Dense radius sweep of open-ball mass over radius, atom centers."""
    pts = np.asarray(points)
    w = np.asarray(weights)
    dmax = float(np.max(np.abs(pts[:, None] - pts[None, :]))) if len(pts) > 1 else scale
    radii = np.geomspace(scale, max(dmax * 1.5, scale * 2), n_radii)
    best = 0.0
    for z in pts:
        d = np.abs(pts - z)
        for r in radii:
            best = max(best, float(w[d < r].sum()) / r)
    return best


def growth_constant_per_atom(points, weights, scale) -> float:
    """Closed-ball mass over radius, one centre at a time, at the scale and
    at every distinct distance from the centre at or above it."""
    pts, w = np.asarray(points), np.asarray(weights)
    best = 0.0
    for z in pts:
        d = np.abs(pts - z)
        order = np.argsort(d, kind="stable")
        d_sorted = d[order]
        cum = np.cumsum(w[order])
        radii = np.unique(np.concatenate([[scale], d_sorted[d_sorted >= scale]]))
        mass_at = cum[np.searchsorted(d_sorted, radii, side="right") - 1]
        best = max(best, float(np.max(mass_at / radii)))
    return best


def growth_constant_exact_sq(points, weights, scale) -> Fraction:
    """The squared growth constant in exact arithmetic: the largest
    ``m² / max(q, scale²)`` over atom centres, where q runs over the squared
    distances from the centre and m is the mass within distance sqrt(q).
    Exact for atoms, weights and scale that are floats."""
    xy = [(Fraction(z.real), Fraction(z.imag)) for z in map(complex, points)]
    w = [Fraction(float(v)) for v in weights]
    s2 = Fraction(float(scale)) ** 2
    best = Fraction(0)
    for cx, cy in xy:
        mass_at: dict[Fraction, Fraction] = {}
        for (x, y), m in zip(xy, w):
            q = (x - cx) ** 2 + (y - cy) ** 2
            mass_at[q] = mass_at.get(q, Fraction(0)) + m
        cum = Fraction(0)
        for q in sorted(mass_at):
            cum += mass_at[q]
            best = max(best, cum * cum / max(q, s2))
    return best


def golden_section_line(points, weights, radius, tol: float = 1e-14) -> float:
    """Golden-section refinement of the best line angle (nested from a
    coarse grid); returns the squared beta value."""
    pts = np.asarray(points)
    w = np.asarray(weights)
    cx = float((w * pts.real).sum() / w.sum())
    cy = float((w * pts.imag).sum() / w.sum())
    dx = pts.real - cx
    dy = pts.imag - cy

    def cost(phi):
        nx, ny = -math.sin(phi), math.cos(phi)
        return float((w * (nx * dx + ny * dy) ** 2).sum())

    grid = np.linspace(0, math.pi, 181, endpoint=False)
    vals = [cost(p) for p in grid]
    k = int(np.argmin(vals))
    step = math.pi / 181
    a = grid[k] - step  # the cost is pi-periodic, so the bracket may wrap
    b = grid[k] + step
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while abs(b - a) > tol:
        if cost(c) < cost(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return cost((a + b) / 2) / radius**3


def greedy_net_1d(coords, sep):
    """Independent farthest-point net on sorted 1-d coordinates."""
    order = np.argsort(coords, kind="stable")
    xs = np.asarray(coords)[order]
    chosen = [0]
    dist = np.abs(xs - xs[0])
    while True:
        far = int(np.argmax(dist))
        if dist[far] < sep:
            break
        chosen.append(far)
        dist = np.minimum(dist, np.abs(xs - xs[far]))
    return len(chosen)


def beta2_scan(mu, ball) -> BetaResult:
    """The least-squares line of one ball, scanning every atom: each moment
    one numpy sum over the ball's atoms and one 2 x 2 ``eigh``."""
    keep = ball.contains(mu.points)
    if not np.any(keep):
        return BetaResult(0.0, Line(ball.center, 1 + 0j), ball, 0.0, True)
    w, pts = mu.weights[keep], mu.points[keep]
    mass = float(w.sum())
    cx = float((w * pts.real).sum()) / mass
    cy = float((w * pts.imag).sum()) / mass
    dx, dy = pts.real - cx, pts.imag - cy
    sxx = float((w * dx * dx).sum())
    sxy = float((w * dx * dy).sum())
    syy = float((w * dy * dy).sum())
    evals, evecs = np.linalg.eigh(np.array([[sxx, sxy], [sxy, syy]]))
    vx, vy = evecs[0, 1], evecs[1, 1]
    if vx == 0.0 and vy == 0.0:
        vx, vy = 1.0, 0.0
    direction = complex(vx, vy) / abs(complex(vx, vy))
    if direction.imag < 0 or (direction.imag == 0 and direction.real < 0):
        direction = -direction
    beta = math.sqrt(max(float(evals[0]), 0.0) / ball.radius**3)
    return BetaResult(beta, Line(complex(cx, cy), direction), ball, mass, False)


def delta_mu_scan(lattice, qid: int, tid: int) -> float:
    """``lattice.delta_mu`` with the annulus between the two 2B balls found
    by a distance scan of every atom."""
    mu = lattice.mu
    outer, inner = lattice.big_ball(tid, 2.0), lattice.big_ball(qid, 2.0)
    in_annulus = ((np.abs(mu.points - outer.center) < outer.radius)
                  & ~(np.abs(mu.points - inner.center) < inner.radius))
    if not np.any(in_annulus):
        return 0.0
    dist = np.abs(mu.points[in_annulus] - lattice.cubes[qid].center)
    return math.fsum(mu.weights[in_annulus] / dist)


def density_chain_scan(lattice, qid: int, pid: int) -> dict:
    """``density_chain_report`` with every 100B mass scanned over all atoms
    by ``mu.mass_in``."""
    mu = lattice.mu
    chain = lattice.chain(qid, pid)
    for mid in chain[1:-1]:
        if lattice.cubes[mid].doubling:
            raise ValueError(f"intermediate cube {mid} is doubling")
    balls = [lattice.ball(c).scaled(100) for c in chain]
    thetas = [mu.mass_in(b) / b.radius for b in balls]
    level_gap = lattice.cubes[qid].level - lattice.cubes[pid].level
    mass_q, mass_p = mu.mass_in(balls[0]), mu.mass_in(balls[-1])
    bound_rhs = lattice.a0 ** (-20 * (level_gap - 1)) * mass_p
    sum_thetas = math.fsum(thetas)
    return {
        "chain": chain,
        "thetas": thetas,
        "sum_thetas": sum_thetas,
        "ratio": sum_thetas / thetas[-1] if thetas[-1] > 0 else np.inf,
        "mass_bound_lhs": mass_q,
        "mass_bound_rhs": bound_rhs,
        "mass_bound_holds": mass_q <= bound_rhs,
    }


def doubling_raw(lattice, qid) -> bool:
    """A cube's doubling flag from its own balls, ``mass(100B) <= C
    mass(B)``, each mass a scan of every atom."""
    mu = lattice.mu
    b = lattice.ball(qid)
    return mu.mass_in(b.scaled(100)) <= lattice.doubling_constant * mu.mass_in(b)


def finite_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


class DenseEngine:
    """The corona's windowed point sums as first written: a fresh K_0
    matrix of the root's 2B atoms, and the columns of ``C`` and ``C W C``
    gathered as strided copies.  Each row also gets the sum of its
    products in absolute value, from ``|C|`` and ``|C| W |C|``, and
    whether its window holds every other atom."""

    def __init__(self, points, weights, sub):
        self.sub = sub
        self.pts = points[sub]
        self.w = weights[sub]
        dz = self.pts[:, None] - self.pts[None, :]
        x = dz.real
        r2 = x * x + dz.imag * dz.imag
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c = (x * x * x) / (r2 * r2) + 0.0 * (x / r2)
            # where |z|^4 is not a normal double, (x / |z|)^3 / |z|
            r = np.abs(dz)
            c = np.where((r2 >= 2.0**-511) & (r2 < 2.0**512), c, (x / r) ** 3 / r)
        self.c = np.where(dz == 0, 0.0, c)
        self.cw = self.c @ self.w
        self.g = self.c @ (self.w[:, None] * self.c)
        self.abs_cw = np.abs(self.c) @ self.w
        self.abs_g = np.abs(self.c) @ (self.w[:, None] * np.abs(self.c))

    def point_sums(self, atoms, q_radius, delta, block=64):
        """Per atom: the windowed sum, its absolute products, and whether
        the window holds every atom at a positive distance."""
        rows = np.searchsorted(self.sub, atoms)
        lo, hi = delta * q_radius, q_radius / delta
        w = self.w
        out, mag = np.empty(rows.size), np.empty(rows.size)
        whole = np.empty(rows.size, dtype=bool)
        for start in range(0, rows.size, block):
            j = rows[start:start + block]
            dist = np.abs(self.pts[j, None] - self.pts[None, :])
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
            aa, win_w = np.abs(alpha), np.where(win, w, 0.0)
            mag[start:start + j.size] = (
                aa.sum(axis=1) * np.abs(wb).sum(axis=1)
                + (aa * (self.abs_cw + np.abs(c_col) * w[j, None])).sum(axis=1)
                + (win_w * self.abs_g[:, j].T).sum(axis=1))
            whole[start:start + j.size] = win.sum(axis=1) == (dist > 0).sum(axis=1)
        return out, mag, whole


def far_stops_loop(builder, open_ids) -> dict:
    """``_TreeBuilder.far_stops`` one (cube, holding line) pair at a time:
    each fitted cube's ``Line`` measures the cube's members, and the
    containment of the 2B balls is the scalar test."""
    from curvperm.corona import StopVerdict

    lat, mu, par = builder.lattice, builder.mu, builder.params
    fitted = [q for q in open_ids if lat.cubes[q].doubling and builder.cube_line(q) is not None]
    out = {}
    for qid in open_ids:
        members = lat.cubes[qid].members
        ball = lat.big_ball(qid, 2.0)
        far = np.zeros(members.size, dtype=bool)
        for tid in fitted:
            outer = lat.big_ball(tid, 2.0)
            if abs(complex(outer.center - ball.center)) <= outer.radius - ball.radius:
                lim = 5 * math.sqrt(par.eps0) * lat.big_ball(tid).radius
                far |= np.atleast_1d(builder.cube_line(tid).distance(mu.points[members])) > lim
        far_mass = float(mu.weights[members[far]].sum())
        if far_mass > math.sqrt(par.alpha) * lat.mass(qid):
            out[qid] = StopVerdict("F", far_mass / lat.mass(qid))
    return out


def level_5b_pairs(lattice):
    """Same-level cube pairs whose 5-fold balls meet, in level order, and
    the sibling pairs among them: a plain loop over every pair."""
    level, sibling = [], []
    for lvl in lattice.levels:
        for i, a in enumerate(lvl):
            for b in lvl[i + 1:]:
                qa, qb = lattice.cubes[a], lattice.cubes[b]
                if abs(qa.center - qb.center) < 5 * (qa.radius + qb.radius):
                    level.append((a, b))
                    if qa.parent == qb.parent:
                        sibling.append((a, b))
    return level, sibling


def partition_of_unity_dense(cover, u):
    """The Whitney partition of unity as first written: every bump at every
    sample in a dense samples × intervals matrix, normalised by row sums."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    c = (cover.lo + cover.hi) / 2
    half = (cover.hi - cover.lo) / 2
    dist = np.abs(u[:, None] - c[None, :])
    t = np.clip((3.0 * half[None, :] - dist) / half[None, :], 0.0, 1.0)
    raw = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
    total = raw.sum(axis=1)
    return raw / np.where(total > 0, total, 1.0)[:, None], total


def blend_loop(cover, u):
    """The blend as first written: a loop over the intervals that adds each
    in-window piece times its column of dense weights."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    weights, _ = partition_of_unity_dense(cover, u)
    vals = np.zeros_like(u)
    for i in range(cover.n):
        if cover.in_window[i] and cover.coeffs[i] is not None:
            a, slope = cover.coeffs[i]
            vals += weights[:, i] * (a + slope * (u - cover.lo[i]))
    return vals


def balanced_pair_dense(lattice, mu, qid, gamma):
    """``balanced_ball_test``'s witness search as first written, over the
    dense member distance matrix: the first separated pair of heavy balls'
    centres, or None."""
    q = lattice.cubes[qid]
    pts = mu.points[q.members]
    w = mu.weights[q.members]
    ball_r = gamma / 4 * q.radius
    sep = gamma * BIG_BALL_FACTOR * q.radius
    dmat = np.abs(pts[:, None] - pts[None, :])
    in_ball = dmat <= ball_r
    heavy = np.flatnonzero(in_ball @ w >= gamma * gamma * float(w.sum()))
    for ii, a in enumerate(heavy):
        for b in heavy[ii + 1:]:
            if dmat[a, b] < sep:
                continue
            if (dmat[a, b] >= sep + 2 * ball_r
                    or dmat[np.ix_(in_ball[a], in_ball[b])].min() >= sep):
                return complex(pts[a]), complex(pts[b])
    return None


def whitney_cover_recursive(field, mu, root_id, line, diam):
    """The Whitney cover as first written: a depth-first recursion that
    takes one interval's infimum at a time, then a scalar cube pick, fit
    and affine piece for each in-window interval.  The costs repeat the
    projected field's formula over its pooled atoms."""
    lattice = field.lattice
    proj = field.project(line)

    def costs(lo, hi):
        gap = np.maximum(0.0, np.maximum(lo - proj.coords, proj.coords - hi))
        return gap + proj.offsets

    def select(lo, hi):
        per_cube = np.minimum.reduceat(costs(lo, hi), proj.starts)
        pick = int(np.argmax(per_cube <= 2.0 * per_cube.min()))
        while field.diameters[pick] < hi - lo:
            parent = lattice.cubes[field.cube_ids[pick]].parent
            try:
                pick = field.index[first_doubling_ancestor(lattice, parent)]
            except (ValueError, KeyError):
                break
        return field.cube_ids[pick]

    members = lattice.cubes[root_id].members
    x0 = mu.points[members[int(np.argmin(line.distance(mu.points[members])))]]
    u0 = float(line.project(x0))
    window, work, floor = 10.0 * diam, 16.0 * diam, mu.scale / LENGTH_RULE
    top_len = 2.0 ** math.ceil(math.log2(4.0 * diam))
    intervals, unresolved = [], []

    def recurse(lo, hi):
        length = hi - lo
        if length <= float(np.min(costs(lo, hi))) / LENGTH_RULE:
            intervals.append((lo, hi))
        elif length < floor or length < diam * 2.0**-42:
            unresolved.append((lo, hi))
        else:
            mid = (lo + hi) / 2
            recurse(lo, mid)
            recurse(mid, hi)

    for m in range(math.floor(-work / top_len), math.ceil(work / top_len)):
        recurse(u0 + m * top_len, u0 + (m + 1) * top_len)

    intervals.sort()
    lo = np.array([a for a, _ in intervals])
    hi = np.array([b for _, b in intervals])
    in_window = (hi > u0 - window) & (lo < u0 + window)
    cube_of, coeffs, fits = [], [], {}
    for a, b, flag in zip(lo, hi, in_window):
        if not flag:
            cube_of.append(None)
            coeffs.append(None)
            continue
        qid = select(a, b)
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
    return WhitneyCover(u0, lo, hi, in_window, cube_of, coeffs, unresolved, window)
