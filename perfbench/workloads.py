"""The three workloads: inputs drawn from a seed, a fixed task list, and
the per-layer counts read off their outputs.

A task is one step of the closed loop: the next task starts when the
previous one returns.  Each task makes one or more calls into curvperm,
each under a span named ``<module>.<call>``, and every call passes
``workers=1`` where the function takes it.  Each task carries the check
that its output must pass.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from curvperm import K_INF, K_ZERO, generate, kt
from curvperm.corona import Params, build_top
from curvperm.graphfit import beta2, build_lipschitz_F, partition_of_unity, whitney_cover
from curvperm.kernels import kernel_values
from curvperm.lattice import build as build_lattice
from curvperm.permutations import estimate_c1, perm_measure, perm_truncated_window, sign_scan
from curvperm.sio import cauchy_l2_norm, default_grid, sup_l2_norm

import checks


@dataclass(frozen=True)
class Task:
    id: str
    run: Callable  # (tracer, earlier outputs of the pass) -> output
    check: Callable  # (output, outputs of the pass) -> problems


def _construct(tr, kind, **params):
    return tr.call("measure.construct", generate, kind, **params)


def _subseed(rng) -> int:
    return int(rng.integers(2**31))


def _corona(tr, mu, par):
    lat = tr.call(
        "lattice.build", build_lattice, mu, c0=par.c0, a0=par.a0,
        separation=par.separation, doubling_constant=par.doubling_constant,
    )
    return lat, tr.call("corona.build_top", build_top, lat, mu, par)


def _restrict_all(tr, mu, lat):
    balls = [lat.big_ball(q.id, 2.0) for q in lat.cubes]
    return [tr.call("measure.restrict", mu.restrict, b) for b in balls]


def _check_restrict_all(mu, lat, subs):
    out = []
    for q, sub in zip(lat.cubes, subs):
        out += checks.check_restrict(mu, lat.big_ball(q.id, 2.0), sub)
    return out


def _lattice_counts(lats) -> dict:
    cubes = sum(len(lat.cubes) for lat in lats)
    return {
        "lattice.cubes": cubes,
        "lattice.levels": sum(len(lat.levels) for lat in lats),
        "lattice.doubling_frac": sum(q.doubling for lat in lats for q in lat.cubes) / cubes,
    }


def _corona_counts(pairs) -> dict:
    """Tree and stop counts, and the windowed point sums the trees imply:
    one per atom of 2B(Q) for every tree cube Q, and one engine of the
    root's 2B atoms per tree."""
    out = {f"corona.stops_{lab}": 0 for lab in checks.LABELS}
    trees = tree_cubes = sums = engine = 0
    for lat, cor in pairs:
        pts = lat.mu.points

        def in_2b(q):
            b = lat.big_ball(q, 2.0)
            return int(np.count_nonzero(np.abs(pts - b.center) < b.radius))

        for rid, tree in cor.trees.items():
            trees += 1
            tree_cubes += len(tree.tree_ids)
            sums += sum(in_2b(q) for q in tree.tree_ids)
            engine += in_2b(rid)
            for v in tree.stop.values():
                out[f"corona.stops_{v.label}"] += 1
    out.update({
        "corona.trees": trees,
        "corona.tree_cubes": tree_cubes,
        "corona.window_point_sums": sums,
        "corona.engine_atoms": engine,
    })
    return out


class TripleDense:
    """Dense triple integrals, truncated operator norms and the Monte Carlo
    pointwise scans."""

    name = "triple-dense"
    MC_SAMPLES = 100_000
    C1_SAMPLES = 20_000

    def setup(self, seed: int, tr) -> dict:
        rng = np.random.default_rng(seed)
        slope = float(rng.uniform(0.15, 0.3))
        graph = _construct(tr, "lipschitz_graph", n=512, slope=slope, teeth=2)
        circle = _construct(tr, "perturbed", seed=_subseed(rng), base="circle",
                            n=384, amplitude=1e-3)
        cantor = _construct(tr, "cantor4", level=4)
        window = [
            _construct(tr, "perturbed", seed=_subseed(rng), base="lipschitz_graph",
                       n=256, slope=slope, teeth=1, amplitude=1e-4),
            _construct(tr, "perturbed", seed=_subseed(rng), base="circle", n=256,
                       radius=0.5, center=0.5 + 0.1j, amplitude=1e-3),
            _construct(tr, "cantor4", level=4),
        ]
        cases = [
            ("graph_inf", None, graph, 0.0),
            ("graph_zero_eps", 0.0, graph, 0.05 * graph.diameter),
            ("circle_-0.5", -0.5, circle, 0.0),
            ("cantor_inf_eps", None, cantor, 0.05 * cantor.diameter),
        ]
        pair_diffs = {
            name: mu.points[:, None] - mu.points[None, :] for name, _, mu, _ in cases
        }
        z = rng.uniform(-1, 1, self.MC_SAMPLES) + 1j * rng.uniform(-1, 1, self.MC_SAMPLES)
        grid = default_grid(graph, 16)
        return {
            "graph": graph, "cases": cases, "pair_diffs": pair_diffs,
            "window": window, "window_delta": 0.25, "window_radius": 0.1,
            "pointwise": z, "grid": grid, "cauchy_eps": grid.epsilons[4],
            "mc_seed": _subseed(rng), "c1_seed": _subseed(rng), "c1_theta": 0.5,
        }

    @staticmethod
    def _k(t):
        return K_INF if t is None else kt(t)

    def tasks(self, inp: dict) -> list[Task]:
        out: list[Task] = []
        for name, t, mu, _ in inp["cases"]:
            dz = inp["pair_diffs"][name]
            out.append(Task(
                f"matrix:{name}",
                lambda tr, outs, t=t, dz=dz: tr.call(
                    "kernels.matrix", kernel_values, self._k(t), dz),
                lambda v, outs, t=t, dz=dz: checks.check_kernel_values(t, dz, v),
            ))
        z = inp["pointwise"]
        for t in (None, 0.0, -0.5):
            out.append(Task(
                f"pointwise:{t}",
                lambda tr, outs, t=t: tr.call("kernels.pointwise", kernel_values, self._k(t), z),
                lambda v, outs, t=t: checks.check_kernel_values(t, z, v),
            ))
        for name, t, mu, eps in inp["cases"]:
            out.append(Task(
                f"perm:{name}",
                lambda tr, outs, t=t, mu=mu, eps=eps: tr.call(
                    "permutations.perm_measure", perm_measure, self._k(t), mu,
                    eps=eps, workers=1),
                lambda r, outs, t=t, mu=mu, eps=eps: checks.check_triple(
                    r, checks.triple_reference(
                        t, (mu, mu, mu), checks.eps_masks((mu, mu, mu), eps))),
            ))
        win, delta, rad = inp["window"], inp["window_delta"], inp["window_radius"]
        out.append(Task(
            "window",
            lambda tr, outs: tr.call("permutations.window", perm_truncated_window,
                               *win, delta, rad, kernel=K_ZERO, workers=1),
            lambda r, outs: checks.check_triple(
                r, checks.triple_reference(0.0, win, checks.window_masks(win, delta, rad))),
        ))
        graph, grid = inp["graph"], inp["grid"]
        for t in (None, 0.0):
            out.append(Task(
                f"sup_l2:{t}",
                lambda tr, outs, t=t: tr.call("sio.sup_l2", sup_l2_norm, self._k(t), graph, grid),
                lambda r, outs, t=t: checks.check_sup_l2(t, graph, grid.epsilons, r),
            ))
        ceps = inp["cauchy_eps"]
        out.append(Task(
            "cauchy_l2",
            lambda tr, outs: tr.call("sio.cauchy_l2", cauchy_l2_norm, graph, ceps),
            lambda v, outs: checks.check_cauchy_l2(graph, ceps, v),
        ))
        out.append(Task(
            "sign_scan",
            lambda tr, outs: tr.call("permutations.mc", sign_scan, -0.5,
                               n_samples=self.MC_SAMPLES, seed=inp["mc_seed"]),
            lambda r, outs: checks.check_sign_scan(-0.5, self.MC_SAMPLES, r),
        ))
        theta = inp["c1_theta"]
        out.append(Task(
            "estimate_c1",
            lambda tr, outs: tr.call("permutations.mc", estimate_c1, theta,
                               n_samples=self.C1_SAMPLES, seed=inp["c1_seed"]),
            lambda r, outs: checks.check_c1(theta, r),
        ))
        return out

    def check_setup(self, inp: dict) -> list[str]:
        return []

    def counts(self, inp: dict, outs: dict) -> dict:
        triples = sum(outs[f"perm:{name}"].triples_counted for name, *_ in inp["cases"])
        n = len(inp["graph"])
        return {
            "kernels.matrix_evals": sum(d.size for d in inp["pair_diffs"].values()),
            "permutations.triples": triples,
            "permutations.window_triples": outs["window"].triples_counted,
            "sio.t1_evals": n * n * (2 * len(inp["grid"].epsilons) + 1),
        }

    def largest_pair_atoms(self, inp: dict) -> int:
        return max(len(mu) for _, _, mu, _ in inp["cases"])

    def probes(self, inp: dict, outs: dict) -> dict:
        """perm_measure on the largest measure at workers=1 over workers=2,
        medians of three alternating calls each."""
        mu = max((c[2] for c in inp["cases"]), key=len)
        times: dict[int, list[float]] = {1: [], 2: []}
        for _ in range(3):
            for workers in (1, 2):
                t0 = time.perf_counter()
                perm_measure(K_INF, mu, workers=workers)
                times[workers].append(time.perf_counter() - t0)
        ratio = statistics.median(times[1]) / statistics.median(times[2])
        return {"reduction.w2_speedup": ratio}


class CoronaBuild:
    """Lattice and stopping-time corona on four measures of different shape."""

    name = "corona-build"

    def setup(self, seed: int, tr) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "params": Params(),
            "measures": {
                "graph": _construct(tr, "lipschitz_graph", n=1024),
                "circle": _construct(tr, "circle", n=512),
                "cantor": _construct(tr, "cantor4", level=5),
                "perturbed": _construct(tr, "perturbed", seed=_subseed(rng),
                                        base="lipschitz_graph", n=512, amplitude=1e-4),
            },
        }

    def tasks(self, inp: dict) -> list[Task]:
        par = inp["params"]
        out: list[Task] = []
        for name, mu in inp["measures"].items():
            out.append(Task(
                f"corona:{name}",
                lambda tr, outs, mu=mu: _corona(tr, mu, par),
                lambda r, outs: checks.check_lattice(r[0]) + checks.check_corona(*r),
            ))
            out.append(Task(
                f"restrict:{name}",
                lambda tr, outs, mu=mu, key=f"corona:{name}":
                    _restrict_all(tr, mu, outs[key][0]),
                lambda r, outs, mu=mu, key=f"corona:{name}":
                    _check_restrict_all(mu, outs[key][0], r),
            ))
        return out

    def check_setup(self, inp: dict) -> list[str]:
        return []

    def counts(self, inp: dict, outs: dict) -> dict:
        pairs = [outs[f"corona:{name}"] for name in inp["measures"]]
        return {**_lattice_counts([lat for lat, _ in pairs]), **_corona_counts(pairs)}

    def largest_pair_atoms(self, inp: dict) -> int:
        return max(len(mu) for mu in inp["measures"].values())

    def probes(self, inp: dict, outs: dict) -> dict:
        return {}


class GraphExtension:
    """Whitney cover and blended Lipschitz extension over every tree of one
    graph's corona, and the best-line fit of every lattice cube."""

    name = "graph-extension"
    N_SAMPLES = 4096

    def setup(self, seed: int, tr) -> dict:
        rng = np.random.default_rng(seed)
        slope = float(rng.uniform(0.15, 0.3))
        mu = _construct(tr, "lipschitz_graph", n=256, slope=slope, teeth=1)
        par = Params()
        lat, corona = _corona(tr, mu, par)
        fits = [
            (rid, tree) for rid, tree in sorted(corona.trees.items())
            if lat.cubes[rid].n_members >= 2
        ]
        return {"mu": mu, "lattice": lat, "corona": corona, "fits": fits}

    def tasks(self, inp: dict) -> list[Task]:
        mu, lat = inp["mu"], inp["lattice"]
        balls = [lat.big_ball(q.id, 2.0) for q in lat.cubes]
        out = [
            Task("restrict",
                 lambda tr, outs: _restrict_all(tr, mu, lat),
                 lambda r, outs: _check_restrict_all(mu, lat, r)),
            Task("beta2",
                 lambda tr, outs: [tr.call("graphfit.beta2", beta2, mu, b) for b in balls],
                 lambda r, outs: [p for b, res in zip(balls, r)
                                  for p in checks.check_beta2(mu, b, res)]),
        ]
        for rid, tree in inp["fits"]:
            out.append(Task(
                f"fit:{rid}",
                lambda tr, outs, rid=rid, tree=tree: self._fit(tr, mu, lat, rid, tree),
                lambda r, outs, tree=tree: self._check_fit(lat, tree, *r),
            ))
        return out

    def _fit(self, tr, mu, lat, rid, tree):
        """The extension, then its blend evaluated on the sample grid."""
        g = tr.call("graphfit.build_F", build_lipschitz_F, lat, mu, rid,
                    tree.dbtree_ids, n_samples=self.N_SAMPLES)
        if g.cover is None:
            return g, None
        return g, tr.call("graphfit.blend", g.blend, g.sample_u)

    @staticmethod
    def _check_fit(lat, tree, g, blend) -> list[str]:
        if g.cover is None:
            return checks.check_graph(g, None)
        out = checks.check_graph(g, partition_of_unity(g.cover, g.sample_u))
        out += checks.check_cover(lat, tree.dbtree_ids, g.line, g.cover)
        return out + checks.check_blend(g.cover, g.sample_u, blend)

    def check_setup(self, inp: dict) -> list[str]:
        return checks.check_lattice(inp["lattice"]) + checks.check_corona(
            inp["lattice"], inp["corona"])

    def counts(self, inp: dict, outs: dict) -> dict:
        intervals = attempts = bumps = 0
        used: set[int] = set()
        for rid, _ in inp["fits"]:
            g, _ = outs[f"fit:{rid}"]
            cover = g.cover
            if cover is None:
                continue
            intervals += cover.n
            cubes = [c for c in cover.cube_of if c is not None]
            attempts += len(cubes)
            used.update(cubes)
            bumps += g.sample_u.size * cover.n
        return {
            **_lattice_counts([inp["lattice"]]),
            **_corona_counts([(inp["lattice"], inp["corona"])]),
            "graphfit.cover_intervals": intervals,
            "graphfit.cover_distinct_cubes": len(used),
            "graphfit.cube_reuse": len(used) / attempts if attempts else 0.0,
            "graphfit.bump_evals": bumps,
        }

    def largest_pair_atoms(self, inp: dict) -> int:
        return len(inp["mu"])

    def probes(self, inp: dict, outs: dict) -> dict:
        """Time of whitney_cover alone on every fitted tree.  It runs inside
        build_lipschitz_F too; called here outside the timed passes, it
        shows the cover's share without adding it to every pass."""
        mu, lat = inp["mu"], inp["lattice"]
        total = 0.0
        for rid, tree in inp["fits"]:
            g = outs[f"fit:{rid}"][0]
            if g.cover is None:
                continue
            t0 = time.perf_counter()
            whitney_cover(lat, mu, rid, tree.dbtree_ids, g.line)
            total += time.perf_counter() - t0
        return {"graphfit.whitney_cover_s": total}


WORKLOADS = {w.name: w for w in (TripleDense(), CoronaBuild(), GraphExtension())}
