"""Importing curvperm, and computing lattices, coronas, Lipschitz fits and
truncated norms, loads numpy but not scipy.

Each case runs in a fresh interpreter, since this process has scipy loaded
by other tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "curvperm").glob("*.py")
                 if p.stem != "__init__")

CASES = {
    "import": "\n".join(["import curvperm"] + [f"import curvperm.{m}" for m in MODULES]),
    "corona-and-graph": """
from curvperm import generate
from curvperm.corona import Params, build_top
from curvperm.graphfit import build_lipschitz_F
from curvperm.lattice import build
mu = generate("lipschitz_graph", n=128, slope=0.2, teeth=1)
lat = build(mu)
corona = build_top(lat, mu, Params())
tree = corona.trees[lat.root.id]
graph = build_lipschitz_F(lat, mu, lat.root.id, tree.dbtree_ids)
assert graph.sample_v.size > 0
""",
    "norms": """
from curvperm import K_ZERO, generate
from curvperm.sio import cauchy_l2_norm, default_grid, sup_l2_norm
mu = generate("cantor4", level=3)
assert sup_l2_norm(K_ZERO, mu, default_grid(mu))[0] > 0
assert cauchy_l2_norm(mu, mu.scale) > 0
""",
}

PROBE = """
import sys
{body}
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(len(loaded), loaded[:5])
"""


def test_every_module_is_listed():
    assert {"cli", "experiments", "permutations", "sio"} <= set(MODULES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_scipy_loaded(case):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=CASES[case])],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[0] == "0", res.stdout
