"""Every public name of the library has a caller in the library or the
benchmark.

A public module-level function or class, or a public method, must be
referenced somewhere in ``src/`` outside its own definition, or in
``perfbench/*.py``.  Demos and tests do not count as callers.  The only
exceptions are the diagnostics below, which implement lemmas of the paper
or are the documented entry point for a single tree.  The signature of
``perm_truncated_window``, which the benchmark calls, is pinned too.
"""

import ast
import inspect
from pathlib import Path

from curvperm.kernels import K_ZERO
from curvperm.permutations import perm_truncated_window

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvperm"

KEPT = {
    "density_chain_report",
    "small_boundary_report",
    "delta_mu",
    "beta_perm_comparison",
    "graph_closeness_report",
    "build_tree",
}


def _public_definitions(tree: ast.Module):
    """``(name, node)`` of each public top-level function and class and of
    each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


def _referenced(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers that ``node`` reads, imports or looks up as attributes,
    leaving out the subtree ``skip``."""
    names: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            names.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            names.add(cur.attr)
        elif isinstance(cur, ast.alias):
            names.add(cur.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(cur))
    return names


def _unreferenced() -> set[str]:
    modules = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    bench: set[str] = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= _referenced(ast.parse(path.read_text()))
    out = set()
    for module in modules:
        for name, node in _public_definitions(module):
            if name in bench:
                continue
            if not any(name in _referenced(m, skip=node) for m in modules):
                out.add(name)
    return out


def test_every_public_name_has_a_caller():
    unused = _unreferenced()
    extra = sorted(unused - KEPT)
    assert not extra, f"public names that nothing in src/ or perfbench/ uses: {extra}"
    stale = sorted(KEPT - unused)
    assert not stale, f"kept names that are now used or gone: {stale}"


def test_perm_truncated_window_signature():
    # the benchmark's window task passes three measures by position and
    # kernel and workers by name
    params = inspect.signature(perm_truncated_window).parameters
    assert list(params) == ["mu1", "mu2", "mu3", "delta", "q_radius", "kernel", "workers"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    assert params["kernel"].default is K_ZERO and params["workers"].default == 1
    assert all(params[n].default is inspect.Parameter.empty for n in list(params)[:5])
