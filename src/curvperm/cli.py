"""Command-line front end.

Measures are given either as a JSON file path or as a recipe string like
``segment:n=200`` / ``cantor4:level=3`` / ``lipschitz_graph:slope=0.2,n=128``.
Exit code 0 means every asserted invariant of the invoked command passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .corona import Params, build_top, packing_sum, stop_mass_report
from .experiments import (
    ACCEPTANCE_SPECS,
    ExperimentSpec,
    bilipschitz_experiment,
    cantor_growth,
    corpus,
    jsonable,
    run,
    t0_bracket,
)
from .graphfit import build_lipschitz_F
from .kernels import K_INF, kt
from .lattice import build as build_lattice
from .measure import Ball, DiscreteMeasure, generate, load_json, save_json
from .permutations import curvature_squared, perm_measure, sign_scan, estimate_c1
from .sio import default_grid, l2_norm_T1, mv_identity_report, sup_l2_norm

RECIPE_KINDS = ("segment", "lipschitz_graph", "circle", "cantor4", "perturbed")


def parse_measure(text: str, seed: int = 0) -> DiscreteMeasure:
    if os.path.exists(text):
        return load_json(text)
    kind, _, rest = text.partition(":")
    if kind not in RECIPE_KINDS:
        raise SystemExit(f"unknown measure recipe or missing file: {text!r}")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            try:
                params[key] = int(val)
            except ValueError:
                try:
                    params[key] = float(val)
                except ValueError:
                    params[key] = val
    return generate(kind, seed=seed, **params)


def parse_kernel(text: str):
    if text in ("inf", "infinity"):
        return K_INF
    return kt(float(text))


def _params(args) -> Params:
    if getattr(args, "params", None):
        return Params(**json.loads(args.params))
    return Params()


def emit(payload: dict, args) -> None:
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        for key, value in sorted(_flatten(payload).items()):
            writer.writerow([key, value])
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, default=jsonable))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.command}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, default=jsonable)


def _flatten(d, prefix=""):
    out = {}
    if isinstance(d, dict):
        for k, v in d.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(d, (list, tuple)):
        for i, v in enumerate(d):
            out.update(_flatten(v, f"{prefix}{i}."))
    else:
        out[prefix.rstrip(".")] = d
    return out


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="directory for report files")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=int, default=1)

    ap = argparse.ArgumentParser(prog="curvperm")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="generate a measure and write it as JSON")
    p.add_argument("--measure", required=True)
    p.add_argument("--to", required=True)

    for name in ("perm", "curv", "sio", "mv-check"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--measure", required=True)
        p.add_argument("--t", default="inf")
        # perm and curv read eps 0 as no truncation; sio and mv-check need
        # eps > 0 and fall back to a sup norm or a default eps without one
        p.add_argument("--eps", type=float,
                       default=0.0 if name in ("perm", "curv") else None)

    for name in ("lattice", "corona", "graph-fit"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--measure", required=True)
        p.add_argument("--params", default=None)

    p = sub.add_parser("verify", parents=[common],
                       help="run the acceptance experiments")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")

    p = sub.add_parser("scan-sign", parents=[common])
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=100000)

    p = sub.add_parser("c1-estimate", parents=[common])
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--samples", type=int, default=20000)

    sub.add_parser("t0-bracket", parents=[common])

    p = sub.add_parser("bilip", parents=[common])
    p.add_argument("--measure", required=True)

    p = sub.add_parser("cantor-growth", parents=[common])
    p.add_argument("--n-max", type=int, default=4)

    p = sub.add_parser("report", parents=[common],
                       help="run every named experiment")

    args = ap.parse_args(argv)
    ok = True
    if (args.command in ("sio", "mv-check")
            and not (args.eps is None or args.eps > 0)):
        raise SystemExit(f"{args.command}: --eps must be positive")

    if args.command == "gen":
        mu = parse_measure(args.measure, seed=args.seed)
        save_json(mu, args.to)
        emit({"atoms": len(mu), "mass": mu.total_mass, "scale": mu.scale,
              "path": args.to}, args)

    elif args.command == "perm":
        mu = parse_measure(args.measure, seed=args.seed)
        k = parse_kernel(args.t)
        res = perm_measure(k, mu, eps=args.eps, workers=args.workers)
        emit({"kernel": str(k), "value": res.value,
              "triples": res.triples_counted, "truncation": res.truncation}, args)

    elif args.command == "curv":
        mu = parse_measure(args.measure, seed=args.seed)
        emit({"c2": curvature_squared(mu, eps=args.eps,
                                      workers=args.workers)}, args)

    elif args.command == "sio":
        mu = parse_measure(args.measure, seed=args.seed)
        k = parse_kernel(args.t)
        if args.eps is None:
            val, eps = sup_l2_norm(k, mu, default_grid(mu))
            emit({"kernel": str(k), "sup_l2_norm": val, "argmax_eps": eps}, args)
        else:
            emit({"kernel": str(k), "eps": args.eps,
                  "l2_norm_T1": l2_norm_T1(k, mu, args.eps)}, args)

    elif args.command == "mv-check":
        mu = parse_measure(args.measure, seed=args.seed)
        k = parse_kernel(args.t)
        eps = max(mu.scale * 4, mu.diameter / 20) if args.eps is None else args.eps
        mv = mv_identity_report(k, mu, eps)
        emit({"kernel": str(k), "eps": eps, "lhs": mv.lhs, "p_third": mv.p_third,
              "remainder": mv.remainder,
              "normalized_remainder": mv.normalized_remainder}, args)

    elif args.command == "lattice":
        mu = parse_measure(args.measure, seed=args.seed)
        par = _params(args)
        lat = build_lattice(mu, c0=par.c0, a0=par.a0,
                            separation=par.separation,
                            doubling_constant=par.doubling_constant)
        payload = json.loads(lat.to_json())
        payload["report"] = {
            k: (len(v) if isinstance(v, list) else v)
            for k, v in lat.report.items()
        }
        emit(payload, args)

    elif args.command == "corona":
        mu = parse_measure(args.measure, seed=args.seed)
        par = _params(args)
        lat = build_lattice(mu, c0=par.c0, a0=par.a0,
                            separation=par.separation,
                            doubling_constant=par.doubling_constant)
        cor = build_top(lat, mu, par)
        pack = packing_sum(lat, cor, mu, workers=args.workers)
        trees = []
        order = sorted(cor.trees, key=lambda r: (lat.cubes[r].level, r))
        for rid in order:
            tree = cor.trees[rid]
            rep = stop_mass_report(lat, tree)
            trees.append({
                "root": rid,
                "level": lat.cubes[rid].level,
                "stop": [[q, tree.stop[q].label] for q in sorted(tree.stop)],
                "n_tree": len(tree.tree_ids),
                "n_dbtree": len(tree.dbtree_ids),
                "g_r_atoms": int(tree.g_r.size),
                "r_far_atoms": int(tree.r_far.size),
                "bp_bound_holds": rep.bp_holds,
            })
            ok = ok and rep.bp_holds
        emit({"params": par.to_dict(),
              "generations": [len(g) for g in cor.generations],
              "packing": {"top_sum": pack.top_sum, "p0": pack.p0,
                          "p_inf": pack.p_inf,
                          "ratio_upper": pack.ratio_upper,
                          "ratio_lower": pack.ratio_lower},
              "trees": trees}, args)

    elif args.command == "graph-fit":
        mu = parse_measure(args.measure, seed=args.seed)
        par = _params(args)
        lat = build_lattice(mu, c0=par.c0, a0=par.a0,
                            separation=par.separation,
                            doubling_constant=par.doubling_constant)
        cor = build_top(lat, mu, par)
        rows = []
        for rid, tree in sorted(cor.trees.items()):
            if lat.cubes[rid].n_members < 2:
                continue
            g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids)
            rows.append({"root": rid, "lipschitz": g.lipschitz_estimate,
                         "budget": par.c_f * tree.theta_r,
                         "cover_n": 0 if g.cover is None else g.cover.n})
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out, f"graph_{rid}.csv")
                with open(path, "w", newline="") as fh:
                    wtr = csv.writer(fh)
                    wtr.writerow(["u", "F"])
                    for u, v in zip(g.sample_u, g.sample_v):
                        wtr.writerow([u, v])
                table = []
                if g.cover is not None:
                    for i in range(g.cover.n):
                        table.append({
                            "lo": g.cover.lo[i],
                            "hi": g.cover.hi[i],
                            "in_window": bool(g.cover.in_window[i]),
                            "cube": g.cover.cube_of[i],
                            "coeffs": g.cover.coeffs[i],
                        })
                ipath = os.path.join(args.out, f"intervals_{rid}.json")
                with open(ipath, "w") as fh:
                    json.dump(table, fh, sort_keys=True, default=jsonable)
        emit({"trees": rows}, args)

    elif args.command == "verify":
        nums = (
            sorted(ACCEPTANCE_SPECS)
            if not args.criteria
            else [int(x) for x in args.criteria.split(",")]
        )
        results = {}
        for num in nums:
            rep = run(ACCEPTANCE_SPECS[num])
            results[str(num)] = {
                "experiment": rep.spec["name"],
                "passed": rep.passed,
                "failed_flags": sorted(k for k, v in rep.flags.items() if not v),
                "seconds": round(rep.wall_time, 2),
            }
            ok = ok and rep.passed
            print(f"criterion {num:2d} [{rep.spec['name']}]: "
                  f"{'PASS' if rep.passed else 'FAIL'}", file=sys.stderr)
        emit(results, args)

    elif args.command == "scan-sign":
        r = sign_scan(args.t, Ball(0j, 1.0), args.samples, seed=args.seed)
        emit({"t": args.t, "min": r.min_value,
              "witness": [[z.real, z.imag] for z in r.argmin_triple],
              "samples": r.samples}, args)
        if args.t not in (-2.0, 0.0) and -2.0 < args.t < 0.0:
            ok = ok and r.min_value < 0
        else:
            ok = ok and r.min_value >= -1e-10

    elif args.command == "c1-estimate":
        est = estimate_c1(args.theta, args.samples, seed=args.seed)
        emit({"theta": args.theta, "estimate": est.value,
              "admissible": est.admissible,
              "witness": [[z.real, z.imag] for z in est.witness]}, args)
        ok = ok and 0 < est.value <= 2.0

    elif args.command == "t0-bracket":
        emit(t0_bracket(corpus(), workers=args.workers), args)

    elif args.command == "bilip":
        mu = parse_measure(args.measure, seed=args.seed)
        emit(bilipschitz_experiment(mu, workers=args.workers), args)

    elif args.command == "cantor-growth":
        rec = cantor_growth(args.n_max, workers=args.workers)
        vals = rec["p_inf"]
        ok = ok and all(b > a for a, b in zip(vals, vals[1:]))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "cantor_growth.dat")
            with open(path, "w") as fh:
                fh.write("# level p_inf collinear_control\n")
                for lvl, v, c in zip(rec["levels"], vals, rec["controls"]):
                    fh.write(f"{lvl} {v!r} {c!r}\n")
        emit(rec, args)

    elif args.command == "report":
        from .experiments import _EXPERIMENTS

        results = {}
        for name in sorted(_EXPERIMENTS):
            rep = run(ExperimentSpec(name, seed=args.seed, workers=args.workers))
            results[name] = json.loads(rep.to_json(include_times=False))
            ok = ok and rep.passed
        emit(results, args)

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
