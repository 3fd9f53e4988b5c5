"""Command-line front end.

Measures are given either as a JSON file path or as a recipe string like
``segment:n=200`` / ``cantor4:level=3`` / ``lipschitz_graph:slope=0.2,n=128``.
Exit code 0 means every asserted invariant of the invoked command passed,
1 that one failed, and 2 that an argument or input file was rejected.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

from .corona import Params, build_top, lattice_for, packing_sum, stop_mass_report
from .experiments import (
    ACCEPTANCE_SPECS,
    EXPERIMENTS,
    ExperimentSpec,
    bilipschitz_experiment,
    jsonable,
    run,
)
from .graphfit import build_lipschitz_F
from .kernels import K_INF, kt
from .measure import Ball, DiscreteMeasure, generate, load_json, save_json
from .permutations import curvature_squared, perm_measure, sign_scan
from .sio import default_grid, l2_norm_T1, mv_identity_report, sup_l2_norm

RECIPE_KINDS = ("segment", "lipschitz_graph", "circle", "cantor4", "perturbed")


def parse_measure(text: str, seed: int = 0) -> DiscreteMeasure:
    if os.path.exists(text):
        return load_json(text)
    kind, _, rest = text.partition(":")
    if kind not in RECIPE_KINDS:
        raise ValueError(f"unknown measure recipe or missing file: {text!r}")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not (key and eq):
                raise ValueError(f"recipe item {item!r} is not key=value")
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
    try:
        return kt(float(text))
    except ValueError:
        raise ValueError(f"--t must be a finite number or 'inf', got {text!r}") from None


def _params(text: str | None) -> Params:
    try:
        spec = json.loads(text) if text else {}
    except ValueError as exc:
        raise ValueError(f"--params is not valid JSON: {exc}") from None
    names = {f.name for f in fields(Params)}
    if not (isinstance(spec, dict) and set(spec) <= names):
        raise ValueError("--params must be a JSON object with keys among: "
                         f"{', '.join(sorted(names))}")
    return Params(**spec)


def _criteria(text: str | None) -> list[int]:
    if not text:
        return sorted(ACCEPTANCE_SPECS)
    try:
        nums = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--criteria takes comma-separated numbers, got {text!r}") from None
    for num in nums:
        if num not in ACCEPTANCE_SPECS:
            raise ValueError(f"no criterion {num}; criteria are 1-{max(ACCEPTANCE_SPECS)}")
    return nums


def _positive_eps(args) -> None:
    if not (args.eps is None or args.eps > 0):
        raise ValueError("--eps must be positive")


def emit(payload: dict, args) -> None:
    # the report file first, so a rejected --out prints no payload
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.command}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, default=jsonable)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        for key, value in sorted(_flatten(payload).items()):
            writer.writerow([key, value])
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, default=jsonable))


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


def _gen(args, mu):
    """generate a measure and write it as JSON"""
    save_json(mu, args.to)
    return {"atoms": len(mu), "mass": mu.total_mass, "scale": mu.scale,
            "path": args.to}, True


def _perm(args, mu):
    k = parse_kernel(args.t)
    res = perm_measure(k, mu, eps=args.eps, workers=args.workers)
    return {"kernel": str(k), "value": res.value,
            "triples": res.triples_counted, "truncation": res.truncation}, True


def _curv(args, mu):
    return {"c2": curvature_squared(mu, eps=args.eps, workers=args.workers)}, True


def _sio(args, mu):
    _positive_eps(args)
    k = parse_kernel(args.t)
    if args.eps is None:
        val, eps = sup_l2_norm(k, mu, default_grid(mu))
        return {"kernel": str(k), "sup_l2_norm": val, "argmax_eps": eps}, True
    return {"kernel": str(k), "eps": args.eps,
            "l2_norm_T1": l2_norm_T1(k, mu, args.eps)}, True


def _mv_check(args, mu):
    _positive_eps(args)
    k = parse_kernel(args.t)
    eps = max(mu.scale * 4, mu.diameter / 20) if args.eps is None else args.eps
    mv = mv_identity_report(k, mu, eps)
    return {"kernel": str(k), "eps": eps, "lhs": mv.lhs, "p_third": mv.p_third,
            "remainder": mv.remainder,
            "normalized_remainder": mv.normalized_remainder}, True


def _lattice(args, mu):
    lat = lattice_for(mu, _params(args.params))
    payload = json.loads(lat.to_json())
    payload["report"] = {
        k: (len(v) if isinstance(v, list) else v) for k, v in lat.report.items()
    }
    return payload, True


def _corona(args, mu):
    par = _params(args.params)
    lat = lattice_for(mu, par)
    cor = build_top(lat, mu, par)
    pack = packing_sum(lat, cor, mu, workers=args.workers)
    trees = []
    for rid in sorted(cor.trees, key=lambda r: (lat.cubes[r].level, r)):
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
    return {"params": par.to_dict(),
            "generations": [len(g) for g in cor.generations],
            "packing": {k: getattr(pack, k) for k in
                        ("top_sum", "p0", "p_inf", "ratio_upper", "ratio_lower")},
            "trees": trees}, all(t["bp_bound_holds"] for t in trees)


def _graph_fit(args, mu):
    par = _params(args.params)
    lat = lattice_for(mu, par)
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
            with open(os.path.join(args.out, f"graph_{rid}.csv"), "w", newline="") as fh:
                wtr = csv.writer(fh)
                wtr.writerow(["u", "F"])
                for u, v in zip(g.sample_u, g.sample_v):
                    wtr.writerow([u, v])
            cover = g.cover
            table = [] if cover is None else [
                {"lo": cover.lo[i], "hi": cover.hi[i],
                 "in_window": bool(cover.in_window[i]),
                 "cube": cover.cube_of[i], "coeffs": cover.coeffs[i]}
                for i in range(cover.n)
            ]
            with open(os.path.join(args.out, f"intervals_{rid}.json"), "w") as fh:
                json.dump(table, fh, sort_keys=True, default=jsonable)
    return {"trees": rows}, True


def _verify(args):
    """run the acceptance experiments"""
    results = {}
    for num in _criteria(args.criteria):
        rep = run(ACCEPTANCE_SPECS[num])
        results[str(num)] = {
            "experiment": rep.spec["name"],
            "passed": rep.passed,
            "failed_flags": sorted(k for k, v in rep.flags.items() if not v),
            "seconds": round(rep.wall_time, 2),
        }
        print(f"criterion {num:2d} [{rep.spec['name']}]: "
              f"{'PASS' if rep.passed else 'FAIL'}", file=sys.stderr)
    return results, all(r["passed"] for r in results.values())


def _scan_sign(args):
    r = sign_scan(args.t, Ball(0j, 1.0), args.samples, seed=args.seed)
    # the permutation takes negative values exactly for -2 < t < 0
    ok = r.min_value < 0 if -2.0 < args.t < 0.0 else r.min_value >= -1e-10
    return {"t": args.t, "min": r.min_value,
            "witness": [[z.real, z.imag] for z in r.argmin_triple],
            "samples": r.samples}, ok


def _c1_estimate(args):
    rep = run(ExperimentSpec("c1-estimate", seed=args.seed, n_samples=args.samples,
                             options={"theta": args.theta}))
    return rep.records, rep.passed


def _t0_bracket(args):
    rep = run(ExperimentSpec("t0-bracket", workers=args.workers))
    return rep.records, rep.passed


def _cantor_growth(args):
    rep = run(ExperimentSpec("cantor-growth", workers=args.workers,
                             options={"n_max": args.n_max}))
    rec = rep.records
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "cantor_growth.dat"), "w") as fh:
            fh.write("# level p_inf collinear_control\n")
            for lvl, v, c in zip(rec["levels"], rec["p_inf"], rec["controls"]):
                fh.write(f"{lvl} {v!r} {c!r}\n")
    return rec, rep.passed


def _bilip(args, mu):
    return bilipschitz_experiment(mu, workers=args.workers), True


def _report(args):
    """run every named experiment"""
    reps = {name: run(ExperimentSpec(name, seed=args.seed, workers=args.workers))
            for name in sorted(EXPERIMENTS)}
    return ({name: json.loads(rep.to_json(include_times=False))
             for name, rep in reps.items()}, all(r.passed for r in reps.values()))


_T = ("--t", {"default": "inf"})
_PARAMS = ("--params", {"default": None})
# perm and curv read eps 0 as no truncation; sio and mv-check need eps > 0
# and fall back to a sup norm or a default eps without one
_EPS_OFF = ("--eps", {"type": float, "default": 0.0})
_EPS_OPT = ("--eps", {"type": float, "default": None})

# name -> (handler, takes --measure, extra arguments).  A handler gets the
# parsed arguments, then the measure if it takes one, and returns the payload
# and whether every asserted invariant held; its docstring is the help line.
COMMANDS = {
    "gen": (_gen, True, [("--to", {"required": True})]),
    "perm": (_perm, True, [_T, _EPS_OFF]),
    "curv": (_curv, True, [_T, _EPS_OFF]),
    "sio": (_sio, True, [_T, _EPS_OPT]),
    "mv-check": (_mv_check, True, [_T, _EPS_OPT]),
    "lattice": (_lattice, True, [_PARAMS]),
    "corona": (_corona, True, [_PARAMS]),
    "graph-fit": (_graph_fit, True, [_PARAMS]),
    "verify": (_verify, False, [("--criteria", {
        "default": None, "help": "comma-separated criterion numbers (default: all)"})]),
    "scan-sign": (_scan_sign, False, [("--t", {"type": float, "required": True}),
                                      ("--samples", {"type": int, "default": 100000})]),
    "c1-estimate": (_c1_estimate, False, [("--theta", {"type": float, "required": True}),
                                          ("--samples", {"type": int, "default": 20000})]),
    "t0-bracket": (_t0_bracket, False, []),
    "bilip": (_bilip, True, []),
    "cantor-growth": (_cantor_growth, False, [("--n-max", {"type": int, "default": 4})]),
    "report": (_report, False, []),
}


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="directory for report files")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=int, default=1)

    ap = argparse.ArgumentParser(prog="curvperm")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, takes_measure, extra) in COMMANDS.items():
        # argparse lists a subcommand under its commands only when given help
        helps = {"help": handler.__doc__} if handler.__doc__ else {}
        p = sub.add_parser(name, parents=[common], **helps)
        if takes_measure:
            p.add_argument("--measure", required=True)
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)

    args = ap.parse_args(argv)
    handler, takes_measure, _ = COMMANDS[args.command]
    try:
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
        mu = [parse_measure(args.measure, seed=args.seed)] if takes_measure else []
        payload, ok = handler(args, *mu)
        emit(payload, args)
    except (ValueError, OSError) as exc:
        print(f"curvperm {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
