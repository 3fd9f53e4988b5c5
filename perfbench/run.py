"""Benchmark of curvperm's batch computations.

    python3 perfbench/run.py --workload triple-dense --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/``.
The run sets up its inputs from the seed, repeats the workload's task
list until ``--seconds`` have passed, checks every output and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (median pass wall
time, set-up time, peak RSS); with ``--trace 1`` they are the per-layer
ones from traced passes interleaved with untraced passes.  The full
record, with the environment, per-pass times, check problems and (when
traced) every span, goes to ``perfbench/out/``.  The exit code is 0 only
when every output passed its check.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# layers whose tracemalloc peak is reported as <layer>.peak_alloc_mb
PEAK_LAYERS = ("permutations", "sio", "lattice", "corona", "graphfit")
MIN_PASSES = 3
IMPORTS_PER_PASS = 2
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import curvperm, curvperm.corona, curvperm.graphfit, curvperm.sio; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics in
    ``BENCHMARK.json``, in its order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def import_seconds() -> float:
    """Time to import curvperm in a fresh interpreter, numpy and scipy
    included, as a user's process pays it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _openblas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = int(fn())
                return out
    return out


def _getconf(name: str):
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True,
                              timeout=10, check=True)
        return int(done.stdout.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def _git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=True)
        return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(largest_pair_atoms: int) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "l2_bytes_per_core": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_commit": _git_commit(),
        # a size computed from the input, not a measured bandwidth
        "largest_pair_matrix": {
            "atoms": largest_pair_atoms,
            "complex128_bytes_computed": 16 * largest_pair_atoms**2,
        },
    }


def run_pass(tasks, tr):
    """Issue every task after the previous one returns; a task that raises
    records the exception as its output."""
    outs: dict = {}
    errors: dict = {}
    times: dict = {}
    with tr.span("bench.pass"):
        for task in tasks:
            t0 = time.perf_counter()
            with tr.span("bench.task"):
                try:
                    outs[task.id] = task.run(tr, outs)
                except Exception as exc:  # a failing task is counted, not fatal
                    errors[task.id] = f"{type(exc).__name__}: {exc}"
            times[task.id] = time.perf_counter() - t0
    return outs, errors, times


class Passes:
    """Outputs of the first pass, kept for the checks, and a fingerprint of
    every pass's outputs; later passes' outputs are dropped, so memory does
    not grow with the number of passes."""

    def __init__(self):
        self.first: dict = {}
        self.errors: list[dict] = []
        self.prints: list[dict] = []

    def add(self, outs: dict, errors: dict):
        from checks import fingerprint

        if not self.errors:
            self.first = outs
        self.errors.append(errors)
        self.prints.append({k: fingerprint(v) for k, v in outs.items()})

    def __len__(self):
        return len(self.errors)

    def problems(self, tasks) -> dict[str, list[str]]:
        """Problems per task and pass: the first pass's outputs against the
        checks; a later pass's output must match the first exactly, and
        then shares its verdict."""
        problems: dict[str, list[str]] = {}
        for task in tasks:
            if task.id in self.errors[0]:
                problems[task.id] = [self.errors[0][task.id]]
                continue
            try:
                problems[task.id] = task.check(self.first[task.id], self.first)
            except Exception as exc:  # a check that cannot run is a failed check
                problems[task.id] = [f"check raised {type(exc).__name__}: {exc}"]
        for i in range(1, len(self)):
            for task in tasks:
                key = f"{task.id}@{i + 1}"
                if task.id in self.errors[i]:
                    problems[key] = [self.errors[i][task.id]]
                elif self.prints[i][task.id] != self.prints[0].get(task.id):
                    problems[key] = [f"pass {i + 1} output differs from pass 1"]
                else:
                    problems[key] = problems[task.id]
        return problems


def typical_pass(task_times: list[dict]) -> float:
    """Time to run the task list once: each task's median over the passes,
    summed.  A burst of contention on a shared machine then costs one
    task one sample instead of shifting a whole pass."""
    return sum(statistics.median(t[k] for t in task_times) for k in task_times[0])


def another_round(rounds: int, started: float, last: float, seconds: float) -> bool:
    """At least ``MIN_PASSES`` rounds; after that, one more only if it
    should end within ``seconds`` of the start, judging by the last one."""
    return rounds < MIN_PASSES or time.perf_counter() - started + last <= seconds


def timed_run(workload, seed: int, seconds: float):
    from spans import Tracer

    tr = Tracer(False)
    imports, builds, task_times, passes = [], [], [], Passes()
    inp = tasks = None
    started = time.perf_counter()
    last = 0.0
    while another_round(len(passes), started, last, seconds):
        t0 = time.perf_counter()
        # set-up samples before every pass, so that they spread over the run
        # as the passes do; the first set-up's inputs serve every pass.  The
        # import is the noisier part, so it gets more samples.
        imports += [import_seconds() for _ in range(IMPORTS_PER_PASS)]
        t1 = time.perf_counter()
        built = workload.setup(seed, tr)
        builds.append(time.perf_counter() - t1)
        if inp is None:
            inp, tasks = built, workload.tasks(built)
        del built
        outs, errors, times = run_pass(tasks, tr)
        task_times.append(times)
        passes.add(outs, errors)
        del outs
        last = time.perf_counter() - t0
    values = {
        "wall_s": typical_pass(task_times),
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in metric_units("end_to_end").items()
    }
    record = {"pass_walls_s": [sum(t.values()) for t in task_times],
              "task_times_s": task_times, "import_s": imports, "input_build_s": builds}
    return inp, tasks, passes, metrics, record


def traced_run(workload, seed: int, seconds: float):
    from spans import Tracer, counts_by_name, peaks_by_layer, self_times, totals_by_name

    setup_tr = Tracer(True)
    with setup_tr.span("bench.setup"):
        inp = workload.setup(seed, setup_tr)
    tasks = workload.tasks(inp)
    plain, traced, passes, tracers = [], [], Passes(), []
    started = time.perf_counter()
    last = 0.0
    while another_round(len(tracers), started, last, seconds):
        t0 = time.perf_counter()
        outs, errors, times = run_pass(tasks, Tracer(False))
        plain.append(times)
        passes.add(outs, errors)
        tr = Tracer(True)
        outs, errors, times = run_pass(tasks, tr)
        traced.append(times)
        passes.add(outs, errors)
        tracers.append(tr)
        del outs
        last = time.perf_counter() - t0
    # allocation peaks come from one more set-up and pass under tracemalloc,
    # which slows Python-heavy layers several-fold and so stays out of the times
    mem_tr = Tracer(True)
    tracemalloc.start()
    try:
        with mem_tr.span("bench.setup"):
            mem_inp = workload.setup(seed, mem_tr)
        outs, errors, _ = run_pass(workload.tasks(mem_inp), mem_tr)
    finally:
        tracemalloc.stop()
    passes.add(outs, errors)

    setup_times = totals_by_name(setup_tr.spans)
    pass_times = [totals_by_name(t.spans) for t in tracers]
    names = set(setup_times).union(*pass_times)
    values: dict[str, float] = {}
    for name in names:
        per_pass = statistics.median(p.get(name, 0.0) for p in pass_times)
        values[f"{name}_s"] = setup_times.get(name, 0.0) + per_pass
    # the harness's own share: pass and task spans outside any library call
    values["bench.self_s"] = statistics.median(
        sum(v for k, v in p.items() if k.startswith("bench.")) for p in pass_times
    )
    calls = counts_by_name(tracers[0].spans)
    values["measure.restrict_calls"] = calls.get("measure.restrict", 0)
    peaks = peaks_by_layer(mem_tr.spans)
    for layer in PEAK_LAYERS:
        values[f"{layer}.peak_alloc_mb"] = peaks.get(layer, 0.0)
    values.update(workload.counts(inp, passes.first))
    perm_s = values.get("permutations.perm_measure_s", 0.0)
    values["permutations.triples_per_s"] = (
        values.get("permutations.triples", 0) / perm_s if perm_s else 0.0
    )
    values.update(workload.probes(inp, passes.first))
    values["bench.trace_overhead"] = typical_pass(traced) / typical_pass(plain) - 1
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in metric_units("per_layer").items()
    }
    spans = [
        {**s, "self": own, "trace": i}
        for i, t in enumerate([setup_tr] + tracers + [mem_tr])
        for s, own in zip(t.spans, self_times(t.spans))
    ]
    record = {"pass_walls_s": [sum(t.values()) for t in plain],
              "traced_pass_walls_s": [sum(t.values()) for t in traced], "spans": spans}
    return inp, tasks, passes, metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curvperm" / "__init__.py").is_file():
        print(f"error: no curvperm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    inp, tasks, passes, metrics, record = run(workload, args.seed, args.seconds)

    problems = passes.problems(tasks)
    setup_problems = workload.check_setup(inp)
    problems["setup"] = setup_problems
    failed = sum(1 for p in problems.values() if p)
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(workload.largest_pair_atoms(inp)),
            "result": result,
            "problems": {k: v for k, v in problems.items() if v},
            **record,
        }, fh, indent=1)
    for task_id, probs in problems.items():
        for p in probs:
            print(f"FAIL {task_id}: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, record in {path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
