"""Importing curvperm, and computing lattices, coronas, Lipschitz fits,
truncated norms, eps-0 triple integrals and sign scans, loads numpy but
not scipy; a triple integral whose cutoff exceeds the atom spacing loads
scipy.sparse alone.

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
    "eps0-triples-and-scan": """
from curvperm import K_INF, K_ZERO, generate
from curvperm.permutations import curvature_squared, perm_measure, sign_scan
mu = generate("lipschitz_graph", n=300, slope=0.2)
assert perm_measure(K_ZERO, mu).triples_counted > 0
assert perm_measure(K_INF, mu, eps=mu.min_spacing, workers=2).value > 0
assert curvature_squared(generate("cantor4", level=2)) > 0
assert sign_scan(-0.5, 2000, seed=1).min_value < 0
""",
}

# a cutoff above the spacing builds the near pairs as a scipy.sparse matrix
SPARSE_ONLY = """
from curvperm import K_INF, generate
from curvperm.permutations import perm_measure
mu = generate("lipschitz_graph", n=300, slope=0.2)
assert perm_measure(K_INF, mu, eps=0.05 * mu.diameter).triples_counted > 0
"""

PROBE = """
import sys
{body}
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_modules(body: str) -> set[str]:
    """The scipy modules loaded after running ``body`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def test_every_module_is_listed():
    assert {"cli", "experiments", "permutations", "sio"} <= set(MODULES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_scipy_loaded(case):
    loaded = _scipy_modules(CASES[case])
    assert not loaded, sorted(loaded)[:5]


def test_near_pairs_load_scipy_sparse_only():
    loaded = _scipy_modules(SPARSE_ONLY)
    assert "scipy.sparse" in loaded
    # scipy's package modules and scipy.sparse's, none of another subpackage
    others = {m for m in loaded if m not in ("scipy", "scipy.__config__", "scipy.version")
              and not m.startswith(("scipy._", "scipy.sparse"))}
    assert not others, sorted(others)
