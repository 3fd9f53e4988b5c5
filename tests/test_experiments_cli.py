import csv
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from curvperm.experiments import (
    ACCEPTANCE_SPECS,
    ExperimentSpec,
    bilipschitz_experiment,
    cantor_growth,
    corpus,
    jsonable,
    run,
    t0_bracket,
)
from curvperm.measure import DiscreteMeasure, generate, load_json


class TestHarness:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run(ExperimentSpec("does-not-exist"))

    def test_report_reproducible_byte_identical(self):
        spec = ExperimentSpec("curvature-identity", n_samples=20000)
        a = run(spec).to_json(include_times=False)
        b = run(spec).to_json(include_times=False)
        assert a == b

    def test_corona_report_reproducible(self):
        spec = ExperimentSpec("corona-structure")
        assert run(spec).to_json(include_times=False) == run(spec).to_json(
            include_times=False
        )

    def test_worker_count_tolerance(self):
        base = run(ExperimentSpec("collinear-suite", workers=1))
        multi = run(ExperimentSpec("collinear-suite", workers=4))
        assert multi.records == base.records

    def test_every_acceptance_row_named(self):
        assert sorted(ACCEPTANCE_SPECS) == list(range(1, 14))
        names = [s.name for s in ACCEPTANCE_SPECS.values()]
        assert len(set(names)) == len(names)

    def test_corpus_covers_branches(self):
        c = corpus()
        assert {"segment", "vline", "tilted", "circle", "cantor4_3",
                "graph_0.2", "perturbed_segment"} <= set(c)

    def test_t0_bracket_vline_row(self):
        # both kernels vanish identically on vertical differences, so the
        # vertical line contributes zero permutations and a zero ratio
        rec = t0_bracket({"vline": generate("segment", n=32, end=1j)})
        row = rec["rows"]["vline"]
        assert row["p0"] == 0.0 and row["p_inf"] == 0.0
        assert row["perm_ratio"] == 0.0

    def test_bilip_rows_monotone_trend(self):
        mu = generate("cantor4", level=2)
        rep = bilipschitz_experiment(mu, l_consts=(1.1, 1.2, 1.5))
        ratios = [r["ratio"] for r in rep["rows"]]
        assert all(np.isfinite(ratios))
        assert rep["isometry_rel_err"] <= 1e-12

    def test_bilip_rejects_empty_measure(self):
        empty = DiscreteMeasure(np.zeros(0, complex), np.zeros(0), 1.0)
        with pytest.raises(ValueError, match="empty measure"):
            bilipschitz_experiment(empty)

    def test_cantor_growth_cap(self):
        with pytest.raises(ValueError):
            cantor_growth(6)

    @pytest.mark.parametrize("n_max", [True, 2.5, 0])
    def test_cantor_growth_level_must_be_a_count(self, n_max):
        with pytest.raises(ValueError, match=rf"^n_max must be an integer >= 1, got {n_max!r}$"):
            cantor_growth(n_max)

    def test_identity_suite_passes(self):
        rep = run(ExperimentSpec("identity-suite", n_samples=20000))
        assert rep.passed

    def test_c1_experiment(self):
        rep = run(ExperimentSpec("c1-estimate", n_samples=5000,
                                 options={"theta": 0.3}))
        assert rep.passed
        assert 0 < rep.records["estimate"] <= 2.0

    def test_theorem1_experiment(self):
        rep = run(ExperimentSpec("theorem1-corpus"))
        assert rep.passed
        assert rep.records["vline"]["sup_0"] == 0.0


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "curvperm.cli", *args],
            # a hung command fails its test instead of stalling the suite
            capture_output=True, text=True, timeout=300,
        )

    def test_gen_round_trip(self, tmp_path):
        out = tmp_path / "m.json"
        res = self.run_cli("gen", "--measure", "cantor4:level=2",
                           "--to", str(out))
        assert res.returncode == 0
        mu = load_json(out)
        assert len(mu) == 16

    def test_perm_command(self):
        res = self.run_cli("perm", "--measure", "cantor4:level=1", "--t", "inf")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["triples"] == 24
        assert data["value"] > 0

    def test_curv_matches_perm(self):
        r1 = json.loads(self.run_cli("perm", "--measure", "cantor4:level=1",
                                     "--t", "inf").stdout)
        r2 = json.loads(self.run_cli("curv", "--measure",
                                     "cantor4:level=1").stdout)
        assert r2["c2"] == pytest.approx(4 * r1["value"])

    def test_sio_command(self):
        res = self.run_cli("sio", "--measure", "segment:n=32", "--t", "0",
                           "--eps", "0.1")
        data = json.loads(res.stdout)
        assert res.returncode == 0
        assert data["l2_norm_T1"] >= 0

    def test_mv_check(self):
        res = self.run_cli("mv-check", "--measure", "segment:n=64",
                           "--t", "inf", "--eps", "0.05")
        data = json.loads(res.stdout)
        assert abs(data["lhs"] - data["p_third"] - data["remainder"]) < 1e-12

    def test_lattice_dump(self):
        res = self.run_cli("lattice", "--measure", "segment:n=32")
        data = json.loads(res.stdout)
        assert data["cubes"][0]["level"] == 0
        assert res.returncode == 0

    # SHA-256 of the lattice stdout, pinned byte for byte so that a change in
    # how the payload is encoded shows
    LATTICE_STDOUT = {
        "segment:n=50": "0ba8d23e73104cc1df510dc1fead3404673f3c348e9d56cb6f9859ac03785b2d",
        "cantor4:level=2": "e2ce269bf7c38514072efb9a2bc229a4c9d3fcd9beb4d22d26573a30b2dc22ff",
    }

    @pytest.mark.parametrize("measure", sorted(LATTICE_STDOUT))
    def test_lattice_stdout_is_pinned(self, measure):
        res = self.run_cli("lattice", "--measure", measure)
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == self.LATTICE_STDOUT[measure]

    def test_corona_segment(self):
        res = self.run_cli("corona", "--measure", "segment:n=64")
        data = json.loads(res.stdout)
        assert data["generations"] == [1]
        assert data["trees"][0]["stop"] == []
        # dump ordering is (level, cube id)
        keys = [(t["level"], t["root"]) for t in data["trees"]]
        assert keys == sorted(keys)
        assert res.returncode == 0

    def test_scan_sign_exit_codes(self):
        good = self.run_cli("scan-sign", "--t", "-0.75", "--samples", "20000")
        assert good.returncode == 0
        outside = self.run_cli("scan-sign", "--t", "1.0", "--samples", "5000")
        assert outside.returncode == 0

    def test_c1_command(self):
        res = self.run_cli("c1-estimate", "--theta", "0.4",
                           "--samples", "4000")
        data = json.loads(res.stdout)
        assert 0 < data["estimate"] <= 2.0
        assert res.returncode == 0

    def test_verify_subset(self):
        res = self.run_cli("verify", "--criteria", "4,5")
        assert res.returncode == 0
        assert "PASS" in res.stderr

    def test_verify_honours_workers_and_seed(self, monkeypatch):
        from curvperm import cli
        from curvperm.experiments import Report

        specs = []
        monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or Report(
            spec.to_dict(), {}, {"held": True}, 0.0))
        assert cli.main(["verify", "--criteria", "5,8", "--workers", "2", "--seed", "3"]) == 0
        assert [(s.name, s.workers, s.seed) for s in specs] == [
            ("collinear-suite", 2, 3), ("corona-structure", 2, 3)]
        res = self.run_cli("verify", "--criteria", "5", "--workers", "2")
        assert res.returncode == 0 and "PASS" in res.stderr

    def test_cantor_growth_dat(self, tmp_path):
        res = self.run_cli("cantor-growth", "--n-max", "2",
                           "--out", str(tmp_path))
        assert res.returncode == 0
        dat = (tmp_path / "cantor_growth.dat").read_text().splitlines()
        assert dat[0].startswith("#")
        assert len(dat) == 3  # header plus one row per level

    def test_graph_fit_csv(self, tmp_path):
        res = self.run_cli("graph-fit", "--measure",
                           "lipschitz_graph:n=64,slope=0.2,teeth=1",
                           "--out", str(tmp_path))
        assert res.returncode == 0
        assert any(p.suffix == ".csv" for p in tmp_path.iterdir())
        tables = [p for p in tmp_path.iterdir()
                  if p.name.startswith("intervals_")]
        assert tables
        rows = json.loads(tables[0].read_text())
        if rows:
            assert {"lo", "hi", "in_window", "cube", "coeffs"} <= set(rows[0])

    def test_eps_zero_rejected_by_sio_and_mv_check(self):
        for cmd in ("sio", "mv-check"):
            res = self.run_cli(cmd, "--measure", "segment:n=16", "--eps", "0")
            assert res.returncode == 2
            assert "eps must be a finite number > 0, got 0.0" in res.stderr

    def test_bad_measure(self):
        res = self.run_cli("perm", "--measure", "nonsense:n=2")
        assert res.returncode == 2

    @pytest.mark.parametrize("args", [
        ("lattice", "--measure", "segment:n=8", "--params", "{bad"),
        ("lattice", "--measure", "segment:n=8", "--params", '{"bogus": 1}'),
        ("corona", "--measure", "segment:n=8", "--params", '{"tau": 2}'),
        ("corona", "--measure", "segment:n=8", "--params", '{"c2": true}'),
        ("graph-fit", "--measure", "segment:n=8", "--params", "[1]"),
        ("verify", "--criteria", "99"),
        ("verify", "--criteria", "x"),
        ("perm", "--measure", "segment:n=8", "--t", "abc"),
        ("perm", "--measure", "segment:n=8", "--t", "nan"),
        ("scan-sign", "--t", "nan"),
        ("perm", "--measure", "segment:n"),
        ("curv", "--measure", "segment:n=8", "--workers", "0"),
        ("perm", "--measure", "segment:bogus=1,n=4"),
        ("corona", "--measure", "cantor4:level=2.5"),
        ("corona", "--measure", "cantor4:level=True"),
        ("perm", "--measure", "segment:n=100.7"),
        ("scan-sign", "--t", "abc"),
        ("scan-sign",),
        ("curv", "--measure", "segment:n=8", "--workers", "x"),
        ("scan-sign", "--t", "-0.5", "--samples", "x"),
        ("cantor-growth", "--n-max", "x"),
        ("cantor-growth", "--n-max", "0"),
        ("cantor-growth", "--n-max", "-3"),
        ("c1-estimate", "--theta", "nan"),
        ("lattice", "--measure", "segment:n=5", "--params", '{"separation": 0}'),
        ("perm", "--measure", "segment:n=8", "--eps", "inf"),
    ])
    def test_rejected_argument_exits_2(self, args):
        res = self.run_cli(*args)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"curvperm {args[0]}: ")
        assert res.stdout == ""

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"scale": 0.5, "atoms": 3}',
        '{"scale": 0.5, "atoms": [{"x": "a", "y": 0.0, "w": 1.0}]}',
        '{"scale": 0.5, "atoms": [{"x": true, "y": 0.0, "w": 1.0}]}',
        '{"scale": 0.5, "atoms": [{"x": 0.0, "y": 0.0, "w": "a"}]}',
    ])
    def test_malformed_measure_file_exits_2(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        res = self.run_cli("perm", "--measure", str(path))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("curvperm perm: measure JSON ")
        assert res.stdout == ""

    def test_bilip_on_an_empty_measure_file_exits_2(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"scale": 1, "atoms": []}')
        res = self.run_cli("bilip", "--measure", str(path))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "curvperm bilip: bilipschitz experiment on the empty measure\n"

    def test_out_onto_a_file_is_rejected(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        res = self.run_cli("curv", "--measure", "segment:n=4", "--out", str(taken))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("curvperm curv: ")

    def test_rejection_names_the_culprit(self):
        assert "no criterion 99" in self.run_cli("verify", "--criteria", "4,99").stderr
        res = self.run_cli("lattice", "--measure", "segment:n=8",
                           "--params", '{"bogus": 1}')
        assert "keys among" in res.stderr and "tau" in res.stderr
        assert "c2 must be a finite number, got True" in self.run_cli(
            "corona", "--measure", "segment:n=8", "--params", '{"c2": true}').stderr
        assert "theta must be a finite number > 0, got nan" in self.run_cli(
            "c1-estimate", "--theta", "nan").stderr
        assert "n_max must be an integer >= 1, got 0" in self.run_cli(
            "cantor-growth", "--n-max", "0").stderr

    def test_failed_invariant_exits_1(self, monkeypatch, capsys):
        from curvperm import cli
        from curvperm.experiments import Report

        monkeypatch.setattr(cli, "run", lambda spec: Report(
            spec.to_dict(), {"value": 0.5}, {"held": False}, 0.0))
        assert cli.main(["t0-bracket"]) == 1
        assert json.loads(capsys.readouterr().out) == {"value": 0.5}

    def test_csv_format(self):
        flat = self.run_cli("perm", "--measure", "cantor4:level=1",
                            "--format", "csv")
        assert flat.returncode == 0
        rows = dict(csv.reader(io.StringIO(flat.stdout)))
        data = json.loads(self.run_cli("perm", "--measure",
                                       "cantor4:level=1").stdout)
        trunc = data.pop("truncation")
        assert rows == {**{k: str(v) for k, v in data.items()},
                        **{f"truncation.{k}": str(v) for k, v in trunc.items()}}
        nested = self.run_cli("c1-estimate", "--theta", "0.4", "--samples",
                              "4000", "--format", "csv")
        keys = [row[0] for row in csv.reader(io.StringIO(nested.stdout))]
        assert keys == sorted(keys)
        assert {"witness.0.0", "witness.2.1", "estimate"} <= set(keys)

    def test_t0_bracket_command(self):
        res = self.run_cli("t0-bracket")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert set(data["rows"]) == set(corpus())
        assert data["max_perm_ratio"] == max(
            r["perm_ratio"] for r in data["rows"].values())

    def test_bilip_command(self):
        res = self.run_cli("bilip", "--measure", "cantor4:level=2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert [r["L"] for r in data["rows"]] == [1.1, 1.2, 1.5]
        assert data["isometry_rel_err"] <= 1e-12

    def test_c1_payload_is_experiment_records(self):
        res = self.run_cli("c1-estimate", "--theta", "0.4", "--samples", "4000",
                           "--seed", "3")
        rep = run(ExperimentSpec("c1-estimate", seed=3, n_samples=4000,
                                 options={"theta": 0.4}))
        assert json.loads(res.stdout) == json.loads(
            json.dumps(rep.records, default=jsonable))
