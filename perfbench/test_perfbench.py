"""Tests of the benchmark itself: its schema, its output checks and its spans.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Task  # noqa: E402

from curvperm import K_INF, generate, kt  # noqa: E402
from curvperm.corona import StopVerdict, build_top  # noqa: E402
from curvperm.corona import Params  # noqa: E402
from curvperm.graphfit import beta2, build_lipschitz_F, partition_of_unity  # noqa: E402
from curvperm.kernels import kernel_values  # noqa: E402
from curvperm.lattice import build as build_lattice  # noqa: E402
from curvperm.permutations import (  # noqa: E402
    estimate_c1, perm_measure, perm_truncated_window, sign_scan,
)
from curvperm.sio import cauchy_l2_norm, default_grid, sup_l2_norm  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_schema():
    b = _bench()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(b["paths"]) <= 16
    for p in b["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
    assert 1 <= len(b["command"]) <= 32 and all(len(c) <= 200 for c in b["command"])
    assert not any(c.startswith("/") or ".." in c for c in b["command"])
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert 2 <= len(b["workloads"]) <= 8
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(b["end_to_end"]) <= 16 and 1 <= len(b["per_layer"]) <= 128
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in b["end_to_end"] + b["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [
        w["name"] for w in b["workloads"]]
    assert len(names) == len(set(names))
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_names_the_workloads():
    b = _bench()
    assert [w["name"] for w in b["workloads"]] == list(WORKLOADS)
    assert b["command"][:2] == ["python3", "perfbench/run.py"]


def _validate_result(result: dict, names: set[str]):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == names
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))


class _Tiny:
    """A small workload over the real library, for exercising the harness."""

    name = "tiny"

    def setup(self, seed, tr):
        return {"mu": tr.call("measure.construct", generate, "lipschitz_graph", n=24 + seed)}

    def tasks(self, inp):
        mu = inp["mu"]
        ref = checks.triple_reference(None, (mu, mu, mu), checks.eps_masks((mu, mu, mu), 0.0))
        return [
            Task("perm", lambda tr, outs: tr.call(
                "permutations.perm_measure", perm_measure, K_INF, mu, workers=1),
                lambda r, outs: checks.check_triple(r, ref)),
            Task("nap", lambda tr, outs: tr.call("kernels.pointwise", time.sleep, 0.001),
                 lambda r, outs: []),
        ]

    def check_setup(self, inp):
        return []

    def counts(self, inp, outs):
        return {"permutations.triples": outs["perm"].triples_counted}

    def largest_pair_atoms(self, inp):
        return len(inp["mu"])

    def probes(self, inp, outs):
        return {}


@pytest.mark.parametrize("trace", [0, 1])
def test_result_file_schema(tmp_path, monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(WORKLOADS, "tiny", _Tiny())
    code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0.2",
                     "--trace", str(trace)])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    names = {m["name"] for m in _bench()["per_layer" if trace else "end_to_end"]}
    _validate_result(json.loads(last), names)
    record = json.loads((tmp_path / f"tiny-seed1-trace{trace}.json").read_text())
    assert record["result"] == json.loads(last)
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "openblas", "nproc", "l2_bytes_per_core",
                "l3_bytes", "git_commit", "largest_pair_matrix"):
        assert key in env
    assert env["largest_pair_matrix"]["complex128_bytes_computed"] == 16 * 25**2
    if trace:
        metrics = json.loads(last)["metrics"]
        assert metrics["permutations.triples"]["value"] == 25 * 24 * 23
        assert metrics["permutations.perm_measure_s"]["value"] > 0
        assert {"id", "name", "parent", "start", "end", "self"} <= set(record["spans"][0])


def test_failed_check_makes_the_run_fail(tmp_path, monkeypatch, capsys):
    class Broken(_Tiny):
        def tasks(self, inp):
            t = super().tasks(inp)
            return [dataclasses.replace(t[0], check=lambda r, outs: ["off"]), t[1]]

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(WORKLOADS, "tiny", Broken())
    assert run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_span_self_times_sum_to_the_traced_wall_time():
    wl = _Tiny()
    tr = Tracer(True)
    inp = wl.setup(0, Tracer(False))
    _, _, times = run.run_pass(wl.tasks(inp), tr)
    root = tr.spans[0]
    assert root["parent"] is None and all(s["parent"] is not None for s in tr.spans[1:])
    total = sum(self_times(tr.spans))
    assert total == pytest.approx(root["end"] - root["start"], rel=1e-9, abs=1e-12)
    assert 0 < sum(times.values()) <= root["end"] - root["start"] + 1e-3
    assert all(t >= -1e-9 for t in self_times(tr.spans))


def test_untraced_tracer_records_nothing():
    tr = Tracer(False)
    with tr.span("bench.pass"):
        assert tr.call("x.y", lambda: 3) == 3
    assert tr.spans == []


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        _bench()["command"] + ["--workload", "triple-dense", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# --- each output check fails on a deliberately perturbed result ---------------


@pytest.fixture(scope="module")
def graph():
    return generate("lipschitz_graph", n=48, slope=0.25, teeth=2)


def _mus(graph):
    return (graph, graph, graph)


def test_kernel_check(graph):
    dz = graph.points[:, None] - graph.points[None, :]
    for t in (None, 0.0, -0.5):
        k = K_INF if t is None else kt(t)
        v = kernel_values(k, dz)
        assert checks.check_kernel_values(t, dz, v) == []
        bad = v.copy()
        bad[3, 7] *= 1 + 1e-9
        assert checks.check_kernel_values(t, dz, bad)


@pytest.mark.parametrize("t,eps", [(None, 0.0), (0.0, 0.1), (-0.5, 0.0)])
def test_triple_check(graph, t, eps):
    k = K_INF if t is None else kt(t)
    r = perm_measure(k, graph, eps=eps, workers=1)
    ref = checks.triple_reference(t, _mus(graph), checks.eps_masks(_mus(graph), eps))
    assert checks.check_triple(r, ref) == []
    assert checks.check_triple(dataclasses.replace(r, triples_counted=r.triples_counted + 1), ref)
    moved = dataclasses.replace(r, value=r.value + 1e-8 * ref.magnitude)
    assert checks.check_triple(moved, ref)


def test_window_check():
    mus = (generate("lipschitz_graph", n=30), generate("circle", n=30, radius=0.4),
           generate("cantor4", level=2))
    r = perm_truncated_window(*mus, 0.25, 0.1, workers=1)
    ref = checks.triple_reference(0.0, mus, checks.window_masks(mus, 0.25, 0.1))
    assert checks.check_triple(r, ref) == []
    assert checks.check_triple(dataclasses.replace(r, value=r.value * (1 + 1e-6) + 1e-9), ref)


def test_sio_checks(graph):
    grid = default_grid(graph, 8)
    res = sup_l2_norm(K_INF, graph, grid)
    assert checks.check_sup_l2(None, graph, grid.epsilons, res) == []
    assert checks.check_sup_l2(None, graph, grid.epsilons, (res[0] * (1 + 1e-6), res[1]))
    assert checks.check_sup_l2(None, graph, grid.epsilons, (res[0], res[1] * 1.5))
    eps = grid.epsilons[2]
    v = cauchy_l2_norm(graph, eps)
    assert checks.check_cauchy_l2(graph, eps, v) == []
    assert checks.check_cauchy_l2(graph, eps, v * (1 + 1e-6))


def test_monte_carlo_checks():
    r = sign_scan(-0.5, n_samples=2000, seed=3)
    assert checks.check_sign_scan(-0.5, 2000, r) == []
    assert checks.check_sign_scan(-0.5, 2000, dataclasses.replace(r, min_value=r.min_value * 1.01))
    assert checks.check_sign_scan(-0.5, 2000, dataclasses.replace(r, samples=1999))
    c = estimate_c1(0.5, n_samples=2000, seed=3)
    assert checks.check_c1(0.5, c) == []
    assert checks.check_c1(0.5, dataclasses.replace(c, value=c.value * 1.01 + 1e-9))


@pytest.fixture(scope="module")
def corona_case():
    mu = generate("lipschitz_graph", n=96, slope=0.2, teeth=1)
    lat = build_lattice(mu)
    return mu, lat, build_top(lat, mu, Params())


def test_restrict_and_beta2_checks(corona_case):
    mu, lat, _ = corona_case
    ball = lat.big_ball(lat.levels[2][0], 2.0)
    sub = mu.restrict(ball)
    assert checks.check_restrict(mu, ball, sub) == []
    assert checks.check_restrict(mu, ball, sub.subset(np.arange(len(sub) - 1)))
    res = beta2(mu, ball)
    assert checks.check_beta2(mu, ball, res) == []
    assert checks.check_beta2(mu, ball, dataclasses.replace(res, beta=res.beta * 1.01 + 1e-6))


def test_lattice_check(corona_case):
    mu, lat, _ = corona_case
    assert checks.check_lattice(lat) == []
    q = lat.cubes[lat.levels[1][0]]
    q.doubling = not q.doubling
    try:
        assert checks.check_lattice(lat)
    finally:
        q.doubling = not q.doubling
    members = q.members
    q.members = members[:-1]
    try:
        assert checks.check_lattice(lat)
    finally:
        q.members = members


def test_corona_check(corona_case):
    _, lat, corona = corona_case
    assert checks.check_corona(lat, corona) == []
    tree = next(t for t in corona.trees.values() if t.stop)
    qid, verdict = next(iter(tree.stop.items()))
    for label in ("HD", "UB"):
        tree.stop[qid] = StopVerdict(label, verdict.evidence)
        try:
            assert checks.check_corona(lat, corona)
        finally:
            tree.stop[qid] = verdict
    # the UB label is refused on the balance test, not on the doubling flag
    assert lat.cubes[qid].doubling and checks._balanced(lat, qid, tree.params.gamma)
    corona.generations.append([corona.generations[0][0]])
    try:
        assert checks.check_corona(lat, corona)
    finally:
        corona.generations.pop()


def test_perm_sq_check(corona_case):
    _, lat, corona = corona_case
    assert checks.check_perm_sq(lat, corona) == []
    tree, qid = next((t, q) for t in corona.trees.values() for q in t.tree_ids
                     if t.perm_sq[q] > 0)
    saved = tree.perm_sq[qid]
    tree.perm_sq[qid] = saved * (1 + 1e-6)
    try:
        assert checks.check_perm_sq(lat, corona)
        assert checks.check_corona(lat, corona)
    finally:
        tree.perm_sq[qid] = saved
    # c2 Theta^2 sits within rounding of the unflagged atoms' point sums,
    # so only a flagged atom clearly above it can be told missing
    tree = next(t for t in corona.trees.values() if len(t.r_far))
    saved, tree.r_far = tree.r_far, tree.r_far[:0]
    try:
        assert checks.check_perm_sq(lat, corona)
    finally:
        tree.r_far = saved


def test_graph_cover_and_blend_checks(corona_case):
    mu, lat, corona = corona_case
    rid, tree = next(
        (rid, t) for rid, t in sorted(corona.trees.items())
        if t.dbtree_ids and lat.cubes[rid].n_members >= 2)
    g = build_lipschitz_F(lat, mu, rid, tree.dbtree_ids, n_samples=512)
    pou = partition_of_unity(g.cover, g.sample_u)
    assert checks.check_graph(g, pou) == []
    assert checks.check_cover(lat, tree.dbtree_ids, g.line, g.cover) == []
    blend = g.blend(g.sample_u)
    assert checks.check_blend(g.cover, g.sample_u, blend) == []

    spiked = dataclasses.replace(g, sample_v=g.sample_v.copy())
    spiked.sample_v[len(spiked.sample_v) // 2] += 0.1 * g.diam
    assert checks.check_graph(spiked, pou)
    assert checks.check_graph(g, (pou[0] * 1.01, pou[1]))
    assert checks.check_blend(g.cover, g.sample_u, blend + 1.0)

    wide = dataclasses.replace(g.cover, hi=g.cover.hi.copy())
    wide.hi[0] = wide.lo[0] + 2 * (wide.hi[0] - wide.lo[0])
    assert checks.check_cover(lat, tree.dbtree_ids, g.line, wide)


def test_fingerprint_sees_every_number(graph):
    r = perm_measure(K_INF, graph, workers=1)
    assert checks.fingerprint(r) == checks.fingerprint(perm_measure(K_INF, graph, workers=1))
    assert checks.fingerprint(r) != checks.fingerprint(
        dataclasses.replace(r, value=np.nextafter(r.value, np.inf)))
