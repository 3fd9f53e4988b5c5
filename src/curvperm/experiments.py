"""Named, reproducible experiments tying the modules together.

Every acceptance check is backed by exactly one named experiment spec; a
spec plus a worker count determines the report bit-for-bit (wall times
excluded).  Reports carry the records, the pass/fail flags of asserted
invariants, and the observed constants of reported ratios.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .corona import (
    CoronaDecomposition,
    Params,
    beta_packing_sum,
    build_top,
    lattice_for,
    packing_sum,
    stop_mass_report,
)
from .graphfit import build_lipschitz_F, partition_of_unity, DistanceField
from .kernels import K_INF, K_ZERO, KernelParam, kernel_values, kt, zero_lines
from .measure import Ball, DiscreteMeasure, generate, pushforward
from .permutations import (
    estimate_c1,
    menger_curvature,
    perm_measure,
    perm_pointwise,
    perm_values,
    sign_scan,
)
from .sio import default_grid, l2_norm_T1, mv_identity_report, theorem1_ratios

__all__ = [
    "ExperimentSpec",
    "Report",
    "corpus",
    "line_corpus",
    "corona_corpus",
    "run",
    "EXPERIMENTS",
    "ACCEPTANCE_SPECS",
    "bilipschitz_experiment",
    "t0_bracket",
    "cantor_growth",
]


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    seed: int = 0
    n_samples: int = 100_000
    workers: int = 1
    params: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "workers": self.workers,
            "params": dict(self.params),
            "options": dict(self.options),
        }


@dataclass
class Report:
    spec: dict
    records: dict
    flags: dict
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def to_json(self, include_times: bool = True) -> str:
        payload = {
            "spec": self.spec,
            "records": self.records,
            "flags": self.flags,
        }
        if include_times:
            payload["wall_time"] = self.wall_time
        return json.dumps(payload, sort_keys=True, default=jsonable)


def jsonable(x):
    """``default=`` encoder for ``json``: numpy scalars and arrays as plain
    values, complex numbers as ``[re, im]``."""
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"not JSON serializable: {type(x)}")


def corpus() -> dict[str, DiscreteMeasure]:
    """Measures hitting every branch of the stopping logic: lines for the
    vanishing cases, graphs for slope control, circles and Cantor dust for
    curvature, plus perturbed variants."""
    out = {
        "segment": generate("segment", n=100),
        "vline": generate("segment", n=64, end=1j),
        "tilted": generate("segment", n=64, end=np.exp(0.3j)),
        "circle": generate("circle", n=128),
        "cantor4_1": generate("cantor4", level=1),
        "cantor4_2": generate("cantor4", level=2),
        "cantor4_3": generate("cantor4", level=3),
        "perturbed_segment": generate("perturbed", base="segment", n=100,
                                      amplitude=1e-3, seed=11),
        "perturbed_graph": generate("perturbed", base="lipschitz_graph", n=128,
                                    slope=0.2, teeth=1, amplitude=2e-4, seed=12),
    }
    for s in (0.0, 0.1, 0.2, 0.3):
        out[f"graph_{s:g}"] = generate("lipschitz_graph", n=128, slope=s, teeth=1)
    return out


def line_corpus() -> dict[str, DiscreteMeasure]:
    c = corpus()
    return {k: c[k] for k in ("segment", "vline", "tilted", "graph_0")}


def corona_corpus() -> dict[str, DiscreteMeasure]:
    c = corpus()
    c.pop("cantor4_1")
    return c


def _random_triples(rng, n, min_angle_sine: float = 0.0):
    """Random triples in a square; ``min_angle_sine`` rejects thin triangles
    (non-degenerate means every triangle angle has sine above the cut)."""
    def sample(m):
        return rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)

    m = int(n * 1.05) + 16
    z1, z2, z3 = sample(m), sample(m), sample(m)
    a = np.abs(z2 - z1)
    b = np.abs(z3 - z1)
    c = np.abs(z3 - z2)
    ok = (a > 1e-9) & (b > 1e-9) & (c > 1e-9)
    if min_angle_sine > 0:
        area2 = np.abs(
            (z2 - z1).real * (z3 - z1).imag - (z2 - z1).imag * (z3 - z1).real
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            minsin = np.minimum(
                np.minimum(area2 / (a * b), area2 / (a * c)), area2 / (b * c)
            )
        ok &= minsin >= min_angle_sine
    return z1[ok][:n], z2[ok][:n], z3[ok][:n]


def _curvature_arrays(z1, z2, z3):
    a = np.abs(z1 - z2)
    b = np.abs(z1 - z3)
    c = np.abs(z2 - z3)
    area2 = np.abs(
        (z2 - z1).real * (z3 - z1).imag - (z2 - z1).imag * (z3 - z1).real
    )
    return 2.0 * area2 / (a * b * c)


def _exp_curvature_identity(spec: ExperimentSpec):
    rng = np.random.default_rng(spec.seed)
    z1, z2, z3 = _random_triples(rng, spec.n_samples, min_angle_sine=1e-2)
    p = perm_values(K_INF, z1, z2, z3)
    c = _curvature_arrays(z1, z2, z3)
    ref = 0.25 * c * c
    denom = np.maximum(np.abs(ref), 1e-300)
    rel = np.abs(p - ref) / denom
    anchor_p = perm_pointwise(K_INF, 0, 1, 1j)
    anchor_c = menger_curvature(0, 1, 1j)
    records = {
        "n_triples": int(z1.size),
        "max_rel_err": float(rel.max()),
        "anchor_p": anchor_p,
        "anchor_c": anchor_c,
    }
    flags = {
        "identity_1e10": bool(rel.max() <= 1e-10),
        "anchor": abs(anchor_p - 0.5) < 1e-14
        and abs(anchor_c - math.sqrt(2)) < 1e-14,
    }
    return records, flags


def _exp_p0_vs_pinf(spec: ExperimentSpec):
    rng = np.random.default_rng(spec.seed)
    z1, z2, z3 = _random_triples(rng, spec.n_samples)
    p0 = perm_values(K_ZERO, z1, z2, z3)
    pinf = perm_values(K_INF, z1, z2, z3)
    slack = 1e-12 * np.maximum(1.0, np.abs(pinf))
    bad = int(np.count_nonzero(p0 > 2 * pinf + slack))
    records = {
        "n_triples": int(z1.size),
        "violations": bad,
        "max_excess": float(np.max(p0 - 2 * pinf)),
    }
    return records, {"p0_le_2pinf": bad == 0}


def _exp_sign_dichotomy(spec: ExperimentSpec):
    records = {}
    flags = {}
    for t in (-3.0, -2.0, 0.0, 0.5, 1.0, 5.0):
        r = sign_scan(t, Ball(0j, 1.0), spec.n_samples, seed=spec.seed)
        records[f"min_t_{t:g}"] = r.min_value
        flags[f"nonneg_t_{t:g}"] = bool(r.min_value >= -1e-10)
    for t in (-1.0, -0.75, -0.5):
        r = sign_scan(t, Ball(0j, 1.0), spec.n_samples, seed=spec.seed)
        records[f"min_t_{t:g}"] = r.min_value
        records[f"witness_t_{t:g}"] = [
            [z.real, z.imag] for z in r.argmin_triple
        ]
        check = perm_pointwise(kt(t), *r.argmin_triple)
        flags[f"negative_t_{t:g}"] = bool(r.min_value < 0 and check < 0)
    return records, flags


ZERO_LINE_SWEEP = (-3.0, -2.0, -1.5, -1.0, -0.9, -0.5, -0.1, 0.0, 1.0, 5.0)
ZERO_LINE_EXPECTED = (1, 1, 1, 2, 3, 3, 3, 1, 1, 1)


def _exp_zero_lines(spec: ExperimentSpec):
    counts = [len(zero_lines(t)) for t in ZERO_LINE_SWEEP]
    records = {"sweep": list(ZERO_LINE_SWEEP), "counts": counts}
    return records, {"counts_match": tuple(counts) == ZERO_LINE_EXPECTED}


def _collinear_tolerance(mu: DiscreteMeasure) -> float:
    growth = mu.linear_growth_constant()
    return 1e-14 * max(1.0, growth**2 * mu.total_mass)


def _exp_collinear(spec: ExperimentSpec):
    records = {}
    flags = {}
    ts = [None, 0.0, -1.0, 0.5, -0.5, 2.0]
    for name, mu in line_corpus().items():
        tol = _collinear_tolerance(mu)
        worst = 0.0
        for t in ts:
            k = K_INF if t is None else kt(t)
            v = perm_measure(k, mu, workers=spec.workers).value
            worst = max(worst, abs(v))
        records[name] = {"worst_abs": worst, "tol": tol}
        flags[f"collinear_{name}"] = bool(worst <= tol)
    return records, flags


def _exp_mv_refinement(spec: ExperimentSpec):
    eps = spec.options.get("eps", 0.05)
    records = {}
    flags = {}
    for label, maker in (
        ("segment", lambda n: generate("segment", n=n)),
        ("graph", lambda n: generate("lipschitz_graph", n=n, slope=0.2, teeth=1)),
    ):
        sizes = (100, 200, 400) if label == "segment" else (128, 256, 512)
        rems = []
        for n in sizes:
            mu = maker(n)
            mv = mv_identity_report(K_INF, mu, eps)
            rems.append(mv.normalized_remainder)
        records[label] = {"sizes": list(sizes), "normalized_remainders": rems}
        finite = all(math.isfinite(r) for r in rems)
        drift = max(
            abs(b) / max(abs(a), 1e-12) for a, b in zip(rems, rems[1:])
        )
        drift = max(drift, max(abs(a) / max(abs(b), 1e-12)
                               for a, b in zip(rems, rems[1:])))
        records[label]["max_drift"] = drift
        flags[f"mv_{label}_finite"] = finite
        flags[f"mv_{label}_stable"] = bool(drift <= 2.0)
    return records, flags


def _naive_total_variation(k: KernelParam, mu: DiscreteMeasure) -> float:
    """Pre-cancellation magnitude of the triple sum: absolute values of the
    three kernel products are summed separately, so the outcome bounds the
    roundoff scale even when the permutation cancels pointwise."""
    p = mu.points
    kmat = np.abs(kernel_values(k, p[:, None] - p[None, :]))
    wk = kmat * mu.weights[None, :]
    per_pair = wk @ mu.weights  # sum_l |K(z_i - z_l)| w_l
    total = 3.0 * float((mu.weights * (wk * per_pair[:, None]).sum(axis=1)).sum())
    return total


def _exp_oracle_equivalence(spec: ExperimentSpec):
    records = {}
    flags = {}
    for name, mu in corpus().items():
        small = mu if len(mu) <= 30 else mu.subset(
            np.linspace(0, len(mu) - 1, 24).astype(int)
        )
        for t in (None, 0.0, -1.0):
            k = K_INF if t is None else kt(t)
            fast = perm_measure(k, small, workers=spec.workers).value
            slow = perm_measure(k, small, method="ordered").value
            # collinear sums cancel to zero, so agreement is judged against
            # the total variation of the summed terms
            tv = _naive_total_variation(k, small)
            scalebar = max(abs(slow), 1e-12 * max(tv, 1.0))
            rel = abs(fast - slow) / scalebar
            key = f"{name}_t_{'inf' if t is None else t}"
            records[key] = {"fast": fast, "ordered": slow, "rel": rel, "tv": tv}
            flags[f"perm_{key}"] = bool(abs(fast - slow) <= 1e-10 * max(abs(slow), tv, 1e-12))
        # operator values against a per-point loop
        eps = max(small.scale * 2, small.diameter / 7)
        fast_norm = l2_norm_T1(K_ZERO, small, eps)
        acc = 0.0
        for i in range(len(small)):
            t1 = 0.0
            for j in range(len(small)):
                dz = small.points[i] - small.points[j]
                if abs(dz) >= eps:
                    x = dz.real
                    r2 = x * x + dz.imag * dz.imag
                    t1 += (x * x * x) / (r2 * r2) * small.weights[j]
            acc += t1 * t1 * small.weights[i]
        slow_norm = math.sqrt(acc)
        rel = abs(fast_norm - slow_norm) / max(slow_norm, 1e-12)
        records[f"{name}_l2"] = {"fast": fast_norm, "ordered": slow_norm, "rel": rel}
        flags[f"l2_{name}"] = bool(rel <= 1e-10)
    return records, flags


def _corona_for(mu: DiscreteMeasure, params: Params):
    lat = lattice_for(mu, params)
    return lat, build_top(lat, mu, params)


def _check_corona_structure(lat, corona: CoronaDecomposition):
    """Exact structural assertions shared by the corona experiments."""
    ok_disjoint = True
    ok_next = True
    ok_newgood = True
    ok_bp = True
    for rid, tree in corona.trees.items():
        seen = np.zeros(len(lat.mu), dtype=bool)
        for q in tree.stop:
            m = lat.cubes[q].members
            if np.any(seen[m]):
                ok_disjoint = False
            seen[m] = True
        for q in tree.next_ids:
            if q == rid or not lat.cubes[q].doubling:
                ok_next = False
        stop_atoms = np.zeros(len(lat.mu), dtype=bool)
        for q in tree.stop:
            stop_atoms[lat.cubes[q].members] = True
        next_atoms = np.zeros(len(lat.mu), dtype=bool)
        for q in tree.next_ids:
            next_atoms[lat.cubes[q].members] = True
        members = lat.cubes[rid].members
        if not np.array_equal(stop_atoms[members], next_atoms[members]):
            ok_newgood = False
        rep = stop_mass_report(lat, tree)
        if not rep.bp_holds:
            ok_bp = False
    return ok_disjoint, ok_next, ok_newgood, ok_bp


def _exp_corona_structure(spec: ExperimentSpec):
    params = Params(**spec.params)
    records = {}
    flags = {}
    for name, mu in corona_corpus().items():
        lat, corona = _corona_for(mu, params)
        d, n, g, b = _check_corona_structure(lat, corona)
        records[name] = {
            "generations": [len(g) for g in corona.generations],
            "n_trees": len(corona.trees),
            "stop_labels": sorted(
                {v.label for t in corona.trees.values() for v in t.stop.values()}
            ),
        }
        flags[f"{name}_stop_disjoint"] = d
        flags[f"{name}_next_doubling"] = n
        flags[f"{name}_replacement_identity"] = g
        flags[f"{name}_bp_bound"] = b
        if name == "segment":
            root_tree = corona.trees[lat.root.id]
            flags["segment_empty_stop"] = len(root_tree.stop) == 0
            graph = build_lipschitz_F(lat, mu, lat.root.id, root_tree.dbtree_ids)
            flags["segment_flat_graph"] = bool(
                np.max(np.abs(graph.sample_v)) == 0.0
            )
    return records, flags


def _exp_graph_fit(spec: ExperimentSpec):
    params = Params(**spec.params)
    mu = generate("lipschitz_graph", n=128, slope=0.2, teeth=1)
    lat, corona = _corona_for(mu, params)
    records = {"trees": []}
    lip_ok = True
    support_ok = True
    partition_ok = True
    whitney_ok = True
    for rid, tree in sorted(corona.trees.items()):
        if lat.cubes[rid].n_members < 2:
            continue
        g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
        rec = {
            "root": rid,
            "level": lat.cubes[rid].level,
            "lipschitz": g.lipschitz_estimate,
            "budget": params.c_f * tree.theta_r,
            "cover_n": 0 if g.cover is None else g.cover.n,
        }
        if g.lipschitz_estimate > 1.0:
            lip_ok = False
        wide = np.linspace(g.u0 - 16 * g.diam, g.u0 + 16 * g.diam, 1024)
        vals = g.eval(wide)
        out = np.abs(wide - g.u0) > 12 * g.diam
        if np.any(np.abs(vals[out]) > 0):
            support_ok = False
        if g.cover is not None and g.cover.n:
            us = np.linspace(g.u0 - 10 * g.diam, g.u0 + 10 * g.diam, 512)
            w, tot = partition_of_unity(g.cover, us)
            sums = w.sum(axis=1)[tot > 0]
            if sums.size and np.max(np.abs(sums - 1)) > 1e-12:
                partition_ok = False
            field = DistanceField(lat, tree.dbtree_ids).project(g.line)
            for lo, hi in zip(g.cover.lo, g.cover.hi):
                l = hi - lo
                c = (lo + hi) / 2
                ss = np.linspace(c - 7.5 * l, c + 7.5 * l, 31)
                dv = np.atleast_1d(field.value(ss))
                if np.any(dv < 5 * l - 1e-12) or np.any(dv > 50 * l + 1e-12):
                    whitney_ok = False
                    rec["whitney_violated"] = True
                    break
        records["trees"].append(rec)
    flags = {
        "lipschitz_le_1": lip_ok,
        "support_window": support_ok,
        "partition_sums": partition_ok,
        "whitney_bounds": whitney_ok,
    }
    return records, flags


def _exp_packing(spec: ExperimentSpec):
    params = Params(**spec.params)
    records = {}
    flags = {}
    for name, mu in corona_corpus().items():
        lat, corona = _corona_for(mu, params)
        rep = packing_sum(lat, corona, mu, workers=spec.workers)
        records[name] = {
            "top_sum": rep.top_sum,
            "p0": rep.p0,
            "p_inf": rep.p_inf,
            "growth_term": rep.growth_term,
            "ratio_upper": rep.ratio_upper,
            "ratio_lower": rep.ratio_lower,
        }
        flags[f"{name}_finite"] = bool(
            math.isfinite(rep.ratio_upper)
            and (rep.top_sum == 0 or math.isfinite(rep.ratio_lower))
        )
    # refinement stability on the graph family
    drifts = []
    base = None
    for n in (128, 256):
        mu = generate("lipschitz_graph", n=n, slope=0.2, teeth=1)
        lat, corona = _corona_for(mu, params)
        rep = packing_sum(lat, corona, mu, workers=spec.workers)
        if base is not None:
            drifts.append(
                max(rep.ratio_upper, base) / max(min(rep.ratio_upper, base), 1e-12)
            )
        base = rep.ratio_upper
    records["graph_refinement_drift"] = drifts
    flags["refinement_stable"] = all(d <= 2.0 for d in drifts)
    return records, flags


def _exp_beta_packing(spec: ExperimentSpec):
    params = Params(**spec.params)
    records = {}
    flags = {}
    for name, mu in corona_corpus().items():
        lat = lattice_for(mu, params)
        rep = beta_packing_sum(lat, mu, workers=spec.workers)
        records[name] = {
            "beta_sum": rep.beta_sum,
            "curvature": rep.curvature,
            "ratio": rep.ratio,
        }
        flags[f"{name}_finite"] = bool(math.isfinite(rep.ratio))
        if name in ("segment", "vline", "tilted", "graph_0"):
            # numerically zero: eigenvalue roundoff of exactly collinear
            # scatter matrices enters at the 1e-18 scale
            flags[f"{name}_zero"] = bool(
                rep.beta_sum <= 1e-12 * max(1.0, mu.total_mass)
            )
    return records, flags


def cantor_growth(n_max: int = 4, workers: int = 1) -> dict:
    """Limiting-kernel permutations of the corner-Cantor family, with a
    collinear control at each level."""
    if n_max > 5:
        raise ValueError("resource cap: level 5 is the largest supported")
    values = []
    controls = []
    for n in range(1, n_max + 1):
        mu = generate("cantor4", level=n)
        values.append(perm_measure(K_INF, mu, workers=workers).value)
        line = generate("segment", n=4**n if n <= 3 else 256)
        controls.append(perm_measure(K_INF, line, workers=workers).value)
    return {"levels": list(range(1, n_max + 1)), "p_inf": values,
            "controls": controls}


def _exp_cantor_growth(spec: ExperimentSpec):
    n_max = spec.options.get("n_max", 4)
    rec = cantor_growth(n_max, workers=spec.workers)
    vals = rec["p_inf"]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    control_zero = all(abs(c) <= 1e-10 for c in rec["controls"])
    return rec, {"strictly_increasing": increasing, "collinear_control": control_zero}


def _shear_for(l_const: float):
    s = l_const - 1.0 / l_const

    def mapping(z):
        return z.real + 1j * (z.imag + s * z.real)

    return mapping


def bilipschitz_experiment(
    mu: DiscreteMeasure, l_consts=(1.1, 1.2, 1.5), workers: int = 1
) -> dict:
    """Curvature of shear images against the curvature-plus-mass budget,
    with an isometry control."""
    c2 = 4.0 * perm_measure(K_INF, mu, workers=workers).value
    budget = c2 + mu.total_mass
    rows = []
    for l_const in l_consts:
        img = pushforward(mu, _shear_for(l_const), l_const)
        c2_img = 4.0 * perm_measure(K_INF, img, workers=workers).value
        rows.append({"L": l_const, "c2_image": c2_img, "ratio": c2_img / budget})
    rot = pushforward(mu, lambda z: z * np.exp(0.37j), 1.0)
    c2_rot = 4.0 * perm_measure(K_INF, rot, workers=workers).value
    return {
        "c2": c2,
        "budget": budget,
        "rows": rows,
        "isometry_c2": c2_rot,
        "isometry_rel_err": abs(c2_rot - c2) / max(abs(c2), 1e-300),
    }


def _exp_bilip(spec: ExperimentSpec):
    records = {}
    flags = {}
    for name in ("graph_0.2", "cantor4_2"):
        mu = (
            generate("lipschitz_graph", n=128, slope=0.2, teeth=1)
            if name == "graph_0.2"
            else generate("cantor4", level=2)
        )
        rep = bilipschitz_experiment(mu, workers=spec.workers)
        records[name] = rep
        flags[f"{name}_finite"] = all(
            math.isfinite(r["ratio"]) for r in rep["rows"]
        )
        flags[f"{name}_isometry"] = bool(rep["isometry_rel_err"] <= 1e-12)
    # a line maps to a line under shears: the image curvature stays zero
    seg = generate("segment", n=64)
    img = pushforward(seg, _shear_for(1.2), 1.2)
    v = 4.0 * perm_measure(K_INF, img, workers=spec.workers).value
    records["sheared_segment_c2"] = v
    flags["line_to_line"] = bool(abs(v) <= _collinear_tolerance(img))
    return records, flags


def t0_bracket(measures: dict[str, DiscreteMeasure], workers: int = 1) -> dict:
    """Empirical brackets standing in for the comparison constants: the
    permutation ratio and the operator-norm ratio across a corpus."""
    rows = {}
    best_perm = 0.0
    best_fwd = 0.0
    for name, mu in measures.items():
        p0 = perm_measure(K_ZERO, mu, workers=workers).value
        pinf = perm_measure(K_INF, mu, workers=workers).value
        growth = mu.linear_growth_constant()
        denom = p0 + growth**2 * mu.total_mass
        ratio = pinf / denom if denom > 0 else math.inf
        r = theorem1_ratios(mu, default_grid(mu))
        rows[name] = {
            "p0": p0,
            "p_inf": pinf,
            "perm_ratio": ratio,
            "ratio_fwd": r.ratio_fwd,
            "ratio_bwd": r.ratio_bwd,
        }
        best_perm = max(best_perm, ratio)
        best_fwd = max(best_fwd, r.ratio_fwd)
    return {"rows": rows, "max_perm_ratio": best_perm, "max_ratio_fwd": best_fwd}


def _exp_t0_bracket(spec: ExperimentSpec):
    rec = t0_bracket(corpus(), workers=spec.workers)
    flags = {
        "finite": bool(
            math.isfinite(rec["max_perm_ratio"]) and math.isfinite(rec["max_ratio_fwd"])
        )
    }
    return rec, flags


def _exp_theorem1(spec: ExperimentSpec):
    records = {}
    flags = {}
    for name, mu in corpus().items():
        r = theorem1_ratios(mu, default_grid(mu))
        records[name] = asdict(r)
        flags[f"{name}_finite"] = bool(
            math.isfinite(r.ratio_fwd) and math.isfinite(r.ratio_bwd)
        )
    # on a horizontal line the two kernels coincide, so the backward ratio
    # sits far below its generic cap
    flags["segment_bwd_cap"] = bool(
        records["segment"]["ratio_bwd"] <= math.sqrt(2) + 1e-9
    )
    return records, flags


def _exp_identity_suite(spec: ExperimentSpec):
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    z = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    z = z[np.abs(z) > 1e-9]
    lam = rng.uniform(0.1, 10, z.size)
    records = {}
    flags = {}
    base0 = np.abs(kernel_values(K_ZERO, z))
    base_inf = np.abs(kernel_values(K_INF, z))
    for t in (None, 0.0, -1.0, 0.7, -0.3):
        k = K_INF if t is None else kt(t)
        v = kernel_values(k, z)
        # near the zero lines the two kernel terms cancel, so errors are
        # judged against the pre-cancellation term magnitude
        mag = base_inf if t is None else base0 + abs(t) * base_inf
        scale = np.maximum(np.abs(v), mag)
        odd = np.max(np.abs(kernel_values(k, -z) + v) / scale)
        hom = np.max(np.abs(kernel_values(k, lam * z) - v / lam) / (scale / lam))
        label = "inf" if t is None else f"{t:g}"
        records[f"odd_{label}"] = float(odd)
        records[f"hom_{label}"] = float(hom)
        flags[f"odd_{label}"] = bool(odd <= 1e-15 * 10)
        flags[f"hom_{label}"] = bool(hom <= 1e-12)
        if t is not None:
            split = kernel_values(K_ZERO, z) + t * kernel_values(K_INF, z)
            dec = np.max(np.abs(split - v) / scale)
            records[f"decomp_{label}"] = float(dec)
            flags[f"decomp_{label}"] = bool(dec <= 1e-14)
    # full symmetry of the pointwise permutation, judged against the
    # pre-cancellation term magnitude
    rng2 = np.random.default_rng(spec.seed + 1)
    z1, z2, z3 = _random_triples(rng2, 2000)
    base = perm_values(K_ZERO, z1, z2, z3)
    mag = (
        np.abs(kernel_values(K_ZERO, z1 - z2) * kernel_values(K_ZERO, z1 - z3))
        + np.abs(kernel_values(K_ZERO, z2 - z1) * kernel_values(K_ZERO, z2 - z3))
        + np.abs(kernel_values(K_ZERO, z3 - z1) * kernel_values(K_ZERO, z3 - z2))
    )
    scale = np.maximum(np.abs(base), mag)
    worst = 0.0
    for order in ((z1, z3, z2), (z2, z1, z3), (z2, z3, z1), (z3, z1, z2), (z3, z2, z1)):
        v = perm_values(K_ZERO, *order)
        worst = max(worst, float(np.max(np.abs(v - base) / scale)))
    records["symmetry"] = worst
    flags["symmetry"] = bool(worst <= 1e-13)
    return records, flags


def _exp_c1(spec: ExperimentSpec):
    theta = spec.options.get("theta", 0.1)
    est = estimate_c1(theta, spec.n_samples, seed=spec.seed)
    records = {
        "theta": theta,
        "estimate": est.value,
        "witness": [[z.real, z.imag] for z in est.witness],
        "admissible": est.admissible,
    }
    flags = {"in_range": bool(0 < est.value <= 2.0)}
    return records, flags


EXPERIMENTS = {
    "curvature-identity": _exp_curvature_identity,
    "p0-vs-pinf": _exp_p0_vs_pinf,
    "sign-dichotomy": _exp_sign_dichotomy,
    "zero-lines": _exp_zero_lines,
    "collinear-suite": _exp_collinear,
    "mv-refinement": _exp_mv_refinement,
    "oracle-equivalence": _exp_oracle_equivalence,
    "corona-structure": _exp_corona_structure,
    "graph-fit": _exp_graph_fit,
    "packing-sandwich": _exp_packing,
    "beta-packing": _exp_beta_packing,
    "cantor-growth": _exp_cantor_growth,
    "bilip": _exp_bilip,
    "t0-bracket": _exp_t0_bracket,
    "theorem1-corpus": _exp_theorem1,
    "identity-suite": _exp_identity_suite,
    "c1-estimate": _exp_c1,
}

ACCEPTANCE_SPECS = {
    1: ExperimentSpec("curvature-identity"),
    2: ExperimentSpec("p0-vs-pinf"),
    3: ExperimentSpec("sign-dichotomy"),
    4: ExperimentSpec("zero-lines"),
    5: ExperimentSpec("collinear-suite"),
    6: ExperimentSpec("mv-refinement"),
    7: ExperimentSpec("oracle-equivalence"),
    8: ExperimentSpec("corona-structure"),
    9: ExperimentSpec("graph-fit"),
    10: ExperimentSpec("packing-sandwich"),
    11: ExperimentSpec("beta-packing"),
    12: ExperimentSpec("cantor-growth"),
    13: ExperimentSpec("bilip"),
}


def run(spec: ExperimentSpec) -> Report:
    """Execute a named experiment; deterministic for a fixed spec."""
    fn = EXPERIMENTS.get(spec.name)
    if fn is None:
        raise ValueError(f"unknown experiment {spec.name!r}")
    t0 = time.time()
    records, flags = fn(spec)
    return Report(spec.to_dict(), records, flags, time.time() - t0)
