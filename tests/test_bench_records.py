"""The committed ``BENCH_*.json`` records: before and after numbers of one
change, each pair measured on one machine."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _numbers(v) -> list:
    vals = v if isinstance(v, list) else [v]
    assert vals and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and x >= 0 for x in vals
    )
    return vals


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    rec = json.loads(path.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
             for m in bench[kind]}
    assert {"change", "before", "environment", "runs"} <= set(rec)
    assert {"python", "numpy", "nproc"} <= set(rec["environment"])
    assert rec["runs"]
    for run in rec["runs"]:
        assert isinstance(run["command"], str) and run["command"]
        assert run["metrics"]
        for name, m in run["metrics"].items():
            assert set(m) == {"unit", "before", "after"}
            assert m["unit"] == units.get(name, m["unit"])
            assert len(_numbers(m["before"])) == len(_numbers(m["after"]))
