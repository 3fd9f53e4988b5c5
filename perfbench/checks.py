"""Output checks, written independently of the library's code paths.

Every check returns a list of problems; an empty list is a pass.  Counts
and structures must match exactly.  Floats are compared with a tolerance
scaled by the pre-cancellation magnitude of the sum (the same sum taken
over absolute values), because odd kernels cancel and a relative error
against the cancelled value says nothing.  All checks hold for any seed.

The reference kernel uses the complex form
``K_t(z) = 1/4 Re(conj(z)/z^2) + (3/4 + t) Re(1/z)`` and ``K_inf(z) = Re(1/z)``
rather than the library's real-coordinate formula, and the reference
triple sum is three matrix products rather than a row loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

# a float result may differ from its reference by this share of the
# pre-cancellation magnitude; the paths' own rounding sits near 1e-14
REL_TOL = 1e-10
TINY = np.finfo(float).tiny
LABELS = ("HD", "LD", "UB", "BP", "BS", "F")
# the lattice's companion balls: 2B(Q) has radius 2 * 28 * r(Q)
BIG_BALL_FACTOR = 28
# the fitted graph's Lipschitz constant, on its samples
LIPSCHITZ = 1.0
# a Whitney interval is at most the projected distance field over this
WHITNEY_RULE = 20.0
# an estimate_c1 witness's K_inf permutation must exceed this
P_INF_FLOOR = 1e-9


def ref_kernel(t: float | None, dz) -> np.ndarray:
    """Kernel ``K_t`` (``t=None`` for ``K_inf``) with 0 at the origin."""
    dz = np.asarray(dz, dtype=complex)
    inv = np.divide(1.0, dz, out=np.zeros_like(dz), where=dz != 0)
    if t is None:
        return inv.real
    return 0.25 * (np.conj(dz) * inv * inv).real + (0.75 + t) * inv.real


def kernel_scale(t: float | None, dz) -> np.ndarray:
    """Bound on |K_t(z)|: (1 + |t|) / |z|, 0 at the origin."""
    a = np.abs(np.asarray(dz, dtype=complex))
    inv = np.divide(1.0, a, out=np.zeros_like(a), where=a != 0)
    return (1.0 + (0.0 if t is None else abs(t))) * inv


def check_kernel_values(t, dz, values) -> list[str]:
    ref = ref_kernel(t, dz)
    if np.shape(values) != ref.shape:
        return [f"kernel values shape {np.shape(values)} != {ref.shape}"]
    err = np.abs(values - ref) - 1e-12 * kernel_scale(t, dz)
    bad = int(np.count_nonzero(err > 0))
    return [f"{bad} kernel values off the complex-form reference"] if bad else []


@dataclasses.dataclass(frozen=True)
class TripleRef:
    value: float
    magnitude: float
    count: int


def _masked_rows(w2, w3, ks, masks) -> tuple[np.ndarray, np.ndarray]:
    """Per first point, the masked double sum of the permutation over the
    second and third points and its pre-cancellation magnitude, given the
    kernel matrices ``ks`` and admissible-pair matrices ``masks`` of the
    pairs (1,2), (1,3) and (2,3).  The three permutation terms are
    ``K12 K13``, ``-K12 K23`` and ``K13 K23``, each summed by matrix products."""
    m12, m13, m23 = masks

    def terms(k12, k13, k23):
        a = k12 * m12 * w2
        b = k13 * m13 * w3
        g = k23 * m23
        t1 = ((a @ m23) * b).sum(axis=1)
        t2 = (a * ((m13 * w3) @ g.T)).sum(axis=1)
        t3 = ((m12 * w2) * (b @ g.T)).sum(axis=1)
        return t1, t2, t3

    t1, t2, t3 = terms(*ks)
    a1, a2, a3 = terms(*(np.abs(k) for k in ks))
    return t1 - t2 + t3, a1 + a2 + a3


def triple_reference(t, mus, masks) -> TripleRef:
    """Masked triple sum of the permutation over three measures, with the
    number of admissible triples."""
    (p1, w1), (p2, w2), (p3, w3) = ((m.points, m.weights) for m in mus)
    m12, m13, m23 = (np.asarray(m, dtype=float) for m in masks)
    ks = (
        ref_kernel(t, p1[:, None] - p2[None, :]),
        ref_kernel(t, p1[:, None] - p3[None, :]),
        ref_kernel(t, p2[:, None] - p3[None, :]),
    )
    rows, mags = _masked_rows(w2, w3, ks, (m12, m13, m23))
    count = int((m12 * (m13 @ m23.T)).sum())
    return TripleRef(float(w1 @ rows), float(w1 @ mags), count)


def eps_masks(mus, eps: float):
    lo = max(eps, TINY)
    p1, p2, p3 = (m.points for m in mus)
    return (
        np.abs(p1[:, None] - p2[None, :]) >= lo,
        np.abs(p1[:, None] - p3[None, :]) >= lo,
        np.abs(p2[:, None] - p3[None, :]) >= lo,
    )


def window_masks(mus, delta: float, q_radius: float):
    p1, p2, p3 = (m.points for m in mus)
    a12 = np.abs(p1[:, None] - p2[None, :])
    return (
        (a12 >= delta * q_radius) & (a12 <= q_radius / delta),
        np.abs(p1[:, None] - p3[None, :]) >= TINY,
        np.abs(p2[:, None] - p3[None, :]) >= TINY,
    )


def check_triple(result, ref: TripleRef) -> list[str]:
    out = []
    if result.triples_counted != ref.count:
        out.append(f"triples_counted {result.triples_counted} != {ref.count}")
    if not abs(result.value - ref.value) <= REL_TOL * ref.magnitude:
        out.append(
            f"triple value {result.value!r} != reference {ref.value!r} "
            f"(magnitude {ref.magnitude:.3e})"
        )
    return out


def _t1(t, mu, eps):
    dz = mu.points[:, None] - mu.points[None, :]
    keep = np.abs(dz) >= eps
    k = np.where(keep, ref_kernel(t, dz), 0.0)
    return k @ mu.weights, np.abs(k) @ mu.weights


def check_sup_l2(t, mu, epsilons, result) -> list[str]:
    value, eps = result
    norms, mags = [], []
    for e in epsilons:
        t1, a1 = _t1(t, mu, e)
        norms.append(math.sqrt(float(mu.weights @ (t1 * t1))))
        mags.append(math.sqrt(float(mu.weights @ (a1 * a1))))
    best = max(norms)
    tol = REL_TOL * max(mags)
    out = []
    if not abs(value - best) <= tol:
        out.append(f"sup norm {value!r} != reference {best!r}")
    if eps not in epsilons:
        out.append(f"attaining cutoff {eps!r} is not on the grid")
    elif not norms[list(epsilons).index(eps)] >= best - tol:
        out.append(f"cutoff {eps!r} does not attain the sup")
    return out


def check_cauchy_l2(mu, eps, value) -> list[str]:
    dz = mu.points[:, None] - mu.points[None, :]
    keep = np.abs(dz) >= eps
    inv = np.divide(np.conj(dz), np.abs(dz) ** 2, out=np.zeros_like(dz), where=keep)
    t1 = inv @ mu.weights
    ref = math.sqrt(float(mu.weights @ (np.abs(t1) ** 2)))
    a1 = np.abs(inv) @ mu.weights
    mag = math.sqrt(float(mu.weights @ (a1 * a1)))
    if not abs(value - ref) <= REL_TOL * mag:
        return [f"Cauchy norm {value!r} != reference {ref!r}"]
    return []


def _perm_point(t, z1, z2, z3):
    k = lambda z: float(ref_kernel(t, z))  # noqa: E731
    terms = (k(z1 - z2) * k(z1 - z3), k(z2 - z1) * k(z2 - z3), k(z3 - z1) * k(z3 - z2))
    return sum(terms), sum(abs(x) for x in terms)


def check_sign_scan(t, n_samples, result) -> list[str]:
    out = []
    val, mag = _perm_point(t, *result.argmin_triple)
    if not abs(val - result.min_value) <= 1e-9 * mag:
        out.append(f"minimum {result.min_value!r} != value {val!r} at its witness")
    if -1.0 <= t < 0.0 and not result.min_value < 0:
        out.append(f"no negative permutation found for t={t} in the sign-changing range")
    if result.samples != n_samples:
        out.append(f"samples {result.samples} != {n_samples}")
    return out


def check_c1(theta, result) -> list[str]:
    out = []
    z1, z2, z3 = result.witness
    p0, m0 = _perm_point(0.0, z1, z2, z3)
    pinf, _ = _perm_point(None, z1, z2, z3)
    if not pinf > P_INF_FLOOR:
        out.append("witness has p_inf below the floor")
    elif not abs(p0 / pinf - result.value) <= 1e-9 * m0 / pinf:
        out.append(f"c1 {result.value!r} != ratio {p0 / pinf!r} at its witness")
    angles = sum(
        math.acos(min(1.0, abs(d.imag) / abs(d))) for d in (z1 - z2, z1 - z3, z2 - z3)
    )
    if not angles >= theta * (1 - 1e-12):
        out.append("witness is not far from vertical")
    if result.admissible < 1:
        out.append("no admissible samples")
    return out


def check_restrict(mu, ball, sub) -> list[str]:
    keep = np.abs(mu.points - ball.center) < ball.radius
    if not (
        np.array_equal(sub.points, mu.points[keep])
        and np.array_equal(sub.weights, mu.weights[keep])
        and sub.scale == mu.scale
    ):
        return [f"restriction to {ball} differs from the atoms inside it"]
    return []


def check_beta2(mu, ball, res) -> list[str]:
    keep = np.abs(mu.points - ball.center) < ball.radius
    w, p = mu.weights[keep], mu.points[keep]
    if w.size == 0:
        return [] if (res.degenerate and res.beta == 0.0) else ["empty ball not degenerate"]
    mass = float(w.sum())
    c = complex(w @ p) / mass
    d = p - c
    sxx, syy, sxy = (float(w @ v) for v in (d.real**2, d.imag**2, d.real * d.imag))
    lam = (sxx + syy) / 2 - math.hypot((sxx - syy) / 2, sxy)
    out = []
    if not abs(res.mass - mass) <= 1e-12 * mass:
        out.append(f"ball mass {res.mass!r} != {mass!r}")
    lam = max(lam, 0.0)
    if not abs(res.beta**2 * ball.radius**3 - lam) <= REL_TOL * (sxx + syy) + 1e-300:
        out.append(f"beta {res.beta!r} != reference {math.sqrt(lam / ball.radius**3)!r}")
    return out


def check_lattice(lat) -> list[str]:
    """Ids, levels and the nesting: every level and every family of
    children partitions its parent's atoms."""
    out = []
    n = len(lat.mu)
    cubes = lat.cubes
    if [q.id for q in cubes] != list(range(len(cubes))):
        out.append("cube ids are not their positions")
    if sum(len(lv) for lv in lat.levels) != len(cubes):
        out.append("levels do not hold every cube once")
    for k, lv in enumerate(lat.levels):
        if any(cubes[q].level != k for q in lv):
            out.append(f"level {k} holds a cube of another level")
        atoms = np.sort(np.concatenate([cubes[q].members for q in lv]))
        if not np.array_equal(atoms, np.arange(n)):
            out.append(f"level {k} does not partition the atoms")
    for q in cubes:
        if q.children:
            kids = np.sort(np.concatenate([cubes[c].members for c in q.children]))
            if not np.array_equal(kids, q.members):
                out.append(f"children of cube {q.id} do not partition it")
            if any(cubes[c].parent != q.id for c in q.children):
                out.append(f"children of cube {q.id} name another parent")
    for q in cubes:
        d = np.abs(lat.mu.points - q.center)
        inner = lat.mu.weights[d < q.radius].sum()
        outer = lat.mu.weights[d < 100 * q.radius].sum()
        if bool(outer <= lat.doubling_constant * inner) != q.doubling:
            out.append(f"doubling flag of cube {q.id} is wrong")
    return out


def _in_2b(lat, qid) -> np.ndarray:
    """Atoms of the doubled companion ball 2B(Q)."""
    q = lat.cubes[qid]
    return np.flatnonzero(np.abs(lat.mu.points - q.center) < 2 * BIG_BALL_FACTOR * q.radius)


def _theta_2b(lat, qid):
    return float(lat.mu.weights[_in_2b(lat, qid)].sum()) / (
        2 * BIG_BALL_FACTOR * lat.cubes[qid].radius)


def _balanced(lat, qid, gamma) -> bool:
    """Whether two balls of radius gamma/4 r(Q) round atoms of Q, each with
    gamma^2 of its mass, have every cross pair gamma 28 r(Q) apart.  A
    single atom is balanced."""
    q = lat.cubes[qid]
    if q.members.size == 1:
        return True
    pts, w = lat.mu.points[q.members], lat.mu.weights[q.members]
    d = np.abs(pts[:, None] - pts[None, :])
    ball = d <= gamma / 4 * q.radius
    heavy = np.flatnonzero(ball @ w >= gamma**2 * w.sum())
    sep = gamma * BIG_BALL_FACTOR * q.radius
    return any(
        d[np.ix_(ball[a], ball[b])].min() >= sep
        for i, a in enumerate(heavy) for b in heavy[i + 1:]
    )


def check_corona(lat, corona) -> list[str]:
    """Structure of a corona: one tree per top cube, disjoint stops whose
    labels are backed by their evidence, and replacements inside the stops."""
    out = []
    top = corona.top_ids
    if corona.generations[0] != [lat.root.id]:
        out.append("the first generation is not the root")
    if len(set(top)) != len(top) or set(top) != set(corona.trees):
        out.append("trees and top cubes differ")
    n = len(lat.mu)
    for rid, tree in corona.trees.items():
        par = tree.params
        members = lat.cubes[rid].members
        if not math.isclose(tree.theta_density, _theta_2b(lat, rid)):
            out.append(f"tree {rid}: density {tree.theta_density!r} is not the root's")
        stopped = np.zeros(n, dtype=bool)
        for q, v in tree.stop.items():
            if v.label not in LABELS:
                out.append(f"tree {rid}: unknown label {v.label!r}")
            if q not in tree.tree_ids:
                out.append(f"tree {rid}: stop cube {q} outside the tree")
            m = lat.cubes[q].members
            if np.any(stopped[m]):
                out.append(f"tree {rid}: stop cube {q} overlaps another")
            stopped[m] = True
            # the rules compare products; their quotients may round onto the bound
            lo, hi = 1 - 1e-12, 1 + 1e-12
            ratio = _theta_2b(lat, q) / tree.theta_density
            ok = {
                "HD": v.evidence > par.a * lo and math.isclose(v.evidence, ratio),
                "LD": v.evidence < par.tau * hi and math.isclose(v.evidence, ratio),
                "BP": v.evidence > par.alpha**2 and v.evidence == _chain_perm(lat, tree, q),
                "BS": v.evidence > tree.theta_r,
                "F": v.evidence > math.sqrt(par.alpha) * lo,
                "UB": lat.cubes[q].doubling and v.evidence >= 0
                and not _balanced(lat, q, par.gamma),
            }.get(v.label, False)
            if not ok:
                out.append(f"tree {rid}: {v.label} stop of cube {q} "
                           f"not backed by {v.evidence!r}")
        nxt = np.zeros(n, dtype=bool)
        for q in tree.next_ids:
            if q == rid or not lat.cubes[q].doubling:
                out.append(f"tree {rid}: replacement {q} is the root or not doubling")
            nxt[lat.cubes[q].members] = True
        if np.any(nxt[members] & ~stopped[members]):
            out.append(f"tree {rid}: replacements leave the stopped cubes")
        dropped = members[stopped[members] & ~nxt[members]]
        if not np.array_equal(np.sort(tree.dropped_atoms), dropped):
            out.append(f"tree {rid}: dropped atoms are not the uncovered stopped atoms")
    return out + check_perm_sq(lat, corona)


def check_perm_sq(lat, corona) -> list[str]:
    """Every tree cube's ``perm_sq`` and every tree's ``r_far`` against the
    masked point sums of the flat kernel K_0: first point in 2B(Q), second
    and third in the root's 2B, the first pair at distance in
    [delta r(Q), r(Q) / delta], no two points coinciding.  ``perm_sq`` is
    their mass-weighted total clamped at 0 over Theta^2 mass(Q); ``r_far``
    holds the root's atoms whose point sum reaches c2 Theta^2 at the root
    or an unstopped cube (an atom within rounding of that cut may go either
    way).  A tree whose root is a single atom has no stops and every
    ``perm_sq`` 0.

    The kernel and distance matrices of the whole measure are computed
    once; each cube takes its rows and columns from them."""
    mu = lat.mu
    dz = mu.points[:, None] - mu.points[None, :]
    dist = np.abs(dz)
    kern = ref_kernel(0.0, dz)
    apart = (dist >= TINY).astype(float)
    out = []
    for rid, tree in corona.trees.items():
        if lat.cubes[rid].n_members < 2:
            if tree.stop or any(tree.perm_sq[q] != 0.0 for q in tree.tree_ids):
                out.append(f"tree {rid}: a single-atom root with stops or permutations")
            continue
        if set(tree.perm_sq) != set(tree.tree_ids):
            out.append(f"tree {rid}: perm_sq is not keyed by the tree cubes")
            continue
        root = _in_2b(lat, rid)
        w = mu.weights[root]
        k23, m23 = kern[np.ix_(root, root)], apart[np.ix_(root, root)]
        # over the root and its unstopped cubes, each atom's largest point
        # sum less and plus its rounding allowance
        low = np.full(len(mu), -np.inf)
        high = np.full(len(mu), -np.inf)
        for q in tree.tree_ids:
            s = _in_2b(lat, q)
            r, delta = lat.cubes[q].radius, tree.params.delta
            d12 = dist[np.ix_(s, root)]
            m12 = ((d12 >= delta * r) & (d12 <= r / delta)).astype(float)
            k12, m13 = kern[np.ix_(s, root)], apart[np.ix_(s, root)]
            rows, mags = _masked_rows(w, w, (k12, k12, k23), (m12, m13, m23))
            if q == rid or q not in tree.stop:
                low[s] = np.maximum(low[s], rows - REL_TOL * mags)
                high[s] = np.maximum(high[s], rows + REL_TOL * mags)
            denom = tree.theta_density**2 * float(mu.weights[lat.cubes[q].members].sum())
            ref = tol = 0.0
            if denom > 0:
                ref = max(float(mu.weights[s] @ rows), 0.0) / denom
                tol = REL_TOL * float(mu.weights[s] @ mags) / denom
            if not abs(tree.perm_sq[q] - ref) <= tol:
                out.append(f"tree {rid}: perm_sq of cube {q} {tree.perm_sq[q]!r} "
                           f"!= reference {ref!r}")
        members = lat.cubes[rid].members
        cut = tree.params.c2_value * tree.theta_density**2
        flagged = np.isin(members, tree.r_far)
        if np.any(flagged & (high[members] < cut)) or np.any(~flagged & (low[members] >= cut)):
            out.append(f"tree {rid}: r_far differs from the atoms whose point sum "
                       f"reaches {cut!r}")
    return out


def _chain_perm(lat, tree, qid):
    chain = []
    cur = qid
    while cur is not None:
        chain.append(cur)
        if cur == tree.root_id:
            break
        cur = lat.cubes[cur].parent
    total = 0.0
    for q in reversed(chain):
        total = total + tree.perm_sq[q]
    return total


def _projected_field(lat, dbtree_ids, line):
    coords, offs = [], []
    for q in dbtree_ids:
        pts = lat.mu.points[lat.cubes[q].members]
        diam = float(np.abs(pts[:, None] - pts[None, :]).max()) if pts.size > 1 else 0.0
        d = line.direction
        coords.append(((pts - line.anchor) * np.conj(d)).real)
        offs.append(np.full(pts.size, diam))
    return np.concatenate(coords), np.concatenate(offs)


def check_cover(lat, dbtree_ids, line, cover) -> list[str]:
    """Intervals sorted, disjoint, dyadic relative to the anchor grid and
    dominated by the projected distance field (``len <= inf D / 20``)."""
    out = []
    lo, hi = cover.lo, cover.hi
    if lo.size and not (np.all(hi > lo) and np.all(hi[:-1] <= lo[1:])):
        out.append("cover intervals overlap or are unsorted")
    length = hi - lo
    exps = np.log2(length)
    if not np.allclose(exps, np.round(exps), rtol=0, atol=1e-9):
        out.append("cover interval lengths are not powers of two")
    coords, offs = _projected_field(lat, dbtree_ids, line)
    gap = np.maximum(0.0, np.maximum(lo[:, None] - coords[None, :],
                                     coords[None, :] - hi[:, None]))
    inf_d = (gap + offs[None, :]).min(axis=1)
    bad = int(np.count_nonzero(length > inf_d / WHITNEY_RULE * (1 + 1e-9)))
    if bad:
        out.append(f"{bad} cover intervals break the Whitney length rule")
    used = [c for c in cover.cube_of if c is not None]
    if len(used) != int(np.count_nonzero(cover.in_window)):
        out.append("in-window intervals without a cube")
    return out


def check_graph(g, pou) -> list[str]:
    """The fitted graph is Lipschitz on its samples (up to roundoff between
    near-coincident samples), vanishes off the 12-diameter window, and its
    partition of unity sums to one wherever some bump is on."""
    out = []
    du = np.diff(g.sample_u)
    dv = np.abs(np.diff(g.sample_v))
    slack = 1e-12 * max(g.diam, float(np.max(np.abs(g.sample_v), initial=0.0)))
    if np.any(dv > LIPSCHITZ * du + slack):
        out.append(f"graph is not {LIPSCHITZ}-Lipschitz on its samples")
    wide = np.linspace(g.u0 - 16 * g.diam, g.u0 + 16 * g.diam, 1024)
    off = np.abs(wide - g.u0) > 12 * g.diam
    if np.any(g.eval(wide)[off] != 0):
        out.append("graph does not vanish off its window")
    if pou is not None:
        weights, total = pou
        sums = weights.sum(axis=1)[total > 0]
        if sums.size and np.max(np.abs(sums - 1)) > 1e-12:
            out.append("partition of unity does not sum to one")
    return out


def check_blend(cover, u, values) -> list[str]:
    """The blend is a convex combination of the affine pieces whose
    tripled interval holds the point, so it lies within their range."""
    c = (cover.lo + cover.hi) / 2
    half = (cover.hi - cover.lo) / 2
    on = np.abs(u[:, None] - c[None, :]) < 3 * half[None, :]
    live = np.array(
        [cover.in_window[i] and cover.coeffs[i] is not None for i in range(cover.n)]
    )
    a = np.array([cf[0] if cf is not None else 0.0 for cf in cover.coeffs])
    s = np.array([cf[1] if cf is not None else 0.0 for cf in cover.coeffs])
    piece = a[None, :] + s[None, :] * (u[:, None] - cover.lo[None, :])
    piece = np.where(on & live[None, :], piece, 0.0)
    lo = np.minimum(piece.min(axis=1, initial=0.0), 0.0)
    hi = np.maximum(piece.max(axis=1, initial=0.0), 0.0)
    slack = 1e-12 * max(1.0, float(np.abs(piece).max(initial=0.0)))
    bad = int(np.count_nonzero((values < lo - slack) | (values > hi + slack)))
    return [f"{bad} blend values outside the range of their pieces"] if bad else []


def fingerprint(obj) -> str:
    """Digest of a result's numbers and structure, for comparing passes."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x):
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            h.update(type(x).__name__.encode())
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            h.update(b"{")
            for k, v in x.items():
                feed(k)
                feed(v)
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + str(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())
        h.update(b";")

    feed(obj)
    return h.hexdigest()
