import csv
import json

import numpy as np
import pytest

import sada.bench
import sada.cli
from sada.citest import GSquaredOracle, PartialCorrelationOracle
from sada.cli import main
from sada.framework import SadaConfig
from sada.graph import Dag, load_dag, save_dag
from sada.synth import SampleMatrix, generate_linear_nongaussian, load_samples, save_samples

from conftest import NINE_NODE_EDGES


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def truth_file(tmp_path, nine_node):
    p = tmp_path / "truth.edges"
    p.write_text("".join(f"{u} {v}\n" for u, v in sorted(NINE_NODE_EDGES)))
    return p


@pytest.fixture
def data_file(tmp_path, truth_file):
    p = tmp_path / "data.csv"
    assert run("gen-data", "--truth", truth_file, "--samples", 400,
               "--seed", 5, "--out", p) == 0
    return p


class TestGenDag:
    def test_two_node_forced_edge(self, tmp_path):
        out = tmp_path / "g.edges"
        assert run("gen-dag", "--n", 2, "--degree", 1, "--seed", 7,
                   "--out", out) == 0
        assert out.read_text() == "0 1\n"

    def test_idempotent_under_seed(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        run("gen-dag", "--n", 20, "--degree", 1.25, "--seed", 9, "--out", a)
        run("gen-dag", "--n", 20, "--degree", 1.25, "--seed", 9, "--out", b)
        assert a.read_text() == b.read_text()

    def test_missing_seed_is_drawn_and_printed(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        assert run("gen-dag", "--n", 5, "--degree", 1, "--out", out) == 0
        assert "seed=" in capsys.readouterr().err

    def test_bad_n_fails_with_diagnostic(self, tmp_path, capsys):
        assert run("gen-dag", "--n", 0, "--degree", 1, "--seed", 1,
                   "--out", tmp_path / "g.edges") == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("degree", ["inf", "nan"])
    def test_non_finite_degree_fails_with_diagnostic(self, tmp_path, capsys, degree):
        out = tmp_path / "g.edges"
        assert run("gen-dag", "--n", 5, "--degree", degree, "--seed", 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert "average in-degree must be a finite real number" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestGenData:
    def test_continuous_roundtrip(self, data_file):
        sm = load_samples(data_file)
        assert sm.kind == "continuous"
        assert (sm.m, sm.n) == (400, 9)

    def test_discrete(self, tmp_path, truth_file):
        out = tmp_path / "d.csv"
        assert run("gen-data", "--truth", truth_file, "--samples", 100,
                   "--states", 3, "--seed", 2, "--out", out) == 0
        sm = load_samples(out)
        assert sm.kind == "discrete"
        assert sm.num_states == 3

    def test_default_noise_weight_is_the_generators(self, tmp_path, truth_file):
        # without --noise-weight the CSV is the generator's own default draw
        out, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
        assert run("gen-data", "--truth", truth_file, "--samples", 60,
                   "--seed", 4, "--out", out) == 0
        save_samples(generate_linear_nongaussian(load_dag(truth_file), 60, seed=4), ref)
        assert out.read_text() == ref.read_text()

    def test_noise_weight_conflicts_with_states(self, tmp_path, truth_file, capsys):
        assert run("gen-data", "--truth", truth_file, "--samples", 50,
                   "--states", 3, "--noise-weight", 0.5, "--seed", 1,
                   "--out", tmp_path / "d.csv") == 1
        assert "--noise-weight" in capsys.readouterr().err

    def test_missing_truth_file(self, tmp_path, capsys):
        assert run("gen-data", "--truth", tmp_path / "nope.edges",
                   "--samples", 50, "--seed", 1, "--out", tmp_path / "d.csv") == 1
        assert "error:" in capsys.readouterr().err


class TestDiscover:
    def test_report_schema_with_truth(self, data_file, truth_file, capsys):
        # continuous data pick the solver and the CI test
        assert run("discover", "--data", data_file,
                   "--theta", 10, "--seed", 1, "--truth", truth_file) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solver"] == "lingam"
        assert report["oracle"] == "pcorr"
        assert set(report["metrics"]) == {"recall", "precision", "f1",
                                          "cut_error_ratio"}
        assert "cuts" not in report

    def test_config_flags_reach_the_run_and_the_report(self, data_file, monkeypatch, capsys):
        # the oracle is built at --alpha, the run gets the four flags as one
        # SadaConfig, and the report's config restates exactly that config
        handed = []
        real_discover = sada.cli.discover

        def spy(data, variables, cfg, solver, oracle, rng):
            handed.append((cfg, oracle))
            return real_discover(data, variables, cfg, solver, oracle, rng)

        monkeypatch.setattr(sada.cli, "discover", spy)
        assert run("discover", "--data", data_file, "--theta", 5, "--k", 2,
                   "--max-cond", 2, "--alpha", 0.01, "--seed", 1) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert list(config.items()) == [("theta", 5), ("k", 2), ("max_cond", 2),
                                        ("alpha_level", 0.01)]
        [(cfg, oracle)] = handed
        assert cfg == SadaConfig(theta=5, k=2, max_cond=2, alpha_level=0.01)
        assert type(oracle) is PartialCorrelationOracle and oracle.alpha_level == 0.01

    def test_replays_under_seed(self, data_file, truth_file, capsys):
        # theta 5 makes the run cut, so the seed pairs come from --seed
        reports = []
        for _ in range(2):
            assert run("discover", "--data", data_file, "--theta", 5, "--seed", 3,
                       "--truth", truth_file, "--trace") == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["cuts"]

    def test_trace_flag_adds_cuts(self, data_file, truth_file, capsys):
        assert run("discover", "--data", data_file, "--theta", 5, "--seed", 1,
                   "--truth", truth_file, "--trace") == 0
        report = json.loads(capsys.readouterr().out)
        for rec in report["cuts"]:
            pieces = rec["left"] + rec["cut"] + rec["right"]
            assert sorted(pieces) == rec["variables"]

    def test_oracle_pipeline_is_exact(self, tmp_path, capsys):
        truth = tmp_path / "g.edges"
        data = tmp_path / "g.csv"
        assert run("gen-dag", "--n", 14, "--degree", 1.25, "--seed", 4,
                   "--out", truth) == 0
        assert run("gen-data", "--truth", truth, "--samples", 50,
                   "--seed", 4, "--out", data) == 0
        assert run("discover", "--data", data, "--truth", truth, "--theta", 6,
                   "--max-cond", "none", "--seed", 0,
                   "--oracle-ci", "--oracle-solver") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metrics"]["recall"] == 1.0
        assert report["metrics"]["precision"] == 1.0
        assert report["oracle"] == "exact"
        assert report["solver"] == "oracle"

    def test_oracle_result_follows_a_relabelling(self, tmp_path, capsys):
        # permuting the CSV columns and relabelling the truth the same way
        # relabels the result: the answer does not depend on variable order
        truth = tmp_path / "g.edges"
        data = tmp_path / "g.csv"
        assert run("gen-dag", "--n", 24, "--degree", 1.25, "--seed", 8, "--out", truth) == 0
        assert run("gen-data", "--truth", truth, "--samples", 20, "--seed", 8, "--out", data) == 0
        perm = np.random.default_rng(8).permutation(24)
        moved_truth = tmp_path / "moved.edges"
        moved_data = tmp_path / "moved.csv"
        save_dag(Dag(24, [(perm[u], perm[v]) for u, v in load_dag(truth).edges]), moved_truth)
        sm = load_samples(data)
        save_samples(SampleMatrix(sm.values[:, np.argsort(perm)], sm.kind), moved_data)
        found = []
        for d, t in ((data, truth), (moved_data, moved_truth)):
            assert run("discover", "--data", d, "--truth", t, "--theta", 6, "--max-cond", "none",
                       "--seed", 2, "--oracle-ci", "--oracle-solver") == 0
            found.append({(u, v) for u, v, _ in json.loads(capsys.readouterr().out)["edges"]})
        assert found[0] == load_dag(truth).edges
        assert found[1] == {(perm[u], perm[v]) for u, v in found[0]}

    def test_out_prefix_writes_edge_list_and_report(self, data_file, truth_file,
                                                    tmp_path, capsys):
        prefix = tmp_path / "found"
        assert run("discover", "--data", data_file, "--seed", 1,
                   "--truth", truth_file, "--out", prefix) == 0
        stdout_report = json.loads(capsys.readouterr().out)
        file_report = json.loads((tmp_path / "found.json").read_text())
        assert file_report == stdout_report
        g = load_dag(tmp_path / "found.edges")
        assert g.n == 9
        assert sorted(g.edges) == sorted((u, v) for u, v, _ in stdout_report["edges"])

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_fails_with_line(self, data_file, tmp_path, cell, capsys):
        lines = data_file.read_text().splitlines()
        cells = lines[5].split(",")
        cells[2] = cell
        lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run("discover", "--data", bad, "--seed", 1) == 1
        captured = capsys.readouterr()
        assert "line 6" in captured.err
        assert captured.out == ""

    def test_overflowing_column_fails_naming_it(self, tmp_path, capsys):
        # squares of 1e200 over 40 samples overflow float64; the column is
        # refused rather than read as independent of every other
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 40)).tolist()
        bad = tmp_path / "huge.csv"
        bad.write_text("v0,v1,v2\n" + "".join(
            f"{a!r},{b * 1e200!r},{a + b!r}\n" for a, b in zip(x, y)))
        assert run("discover", "--data", bad, "--seed", 1) == 1
        captured = capsys.readouterr()
        assert "column 1" in captured.err
        assert captured.out == ""

    def test_underflowing_column_fails_naming_it(self, tmp_path, capsys):
        # the squared deviations of a 1e-170 column underflow while its
        # cross terms do not; the column is refused rather than read as
        # dependent on every other
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 40)).tolist()
        bad = tmp_path / "tiny.csv"
        bad.write_text("v0,v1,v2\n" + "".join(
            f"{a!r},{b * 1e-170!r},{a + b!r}\n" for a, b in zip(x, y)))
        assert run("discover", "--data", bad, "--seed", 1) == 1
        captured = capsys.readouterr()
        assert "column 1 deviates from its mean" in captured.err
        assert captured.out == ""

    def test_oracle_ci_requires_truth(self, data_file, capsys):
        assert run("discover", "--data", data_file, "--oracle-ci") == 1
        assert "--truth" in capsys.readouterr().err

    def test_oracle_solver_requires_truth(self, data_file, capsys):
        assert run("discover", "--data", data_file, "--oracle-solver") == 1
        assert "--truth" in capsys.readouterr().err

    def test_solver_flag_is_gone(self, data_file, capsys):
        # the data kind picks the solver; --oracle-solver is the one override
        with pytest.raises(SystemExit) as exc:
            run("discover", "--data", data_file, "--solver", "lingam", "--seed", 1)
        assert exc.value.code == 2
        assert "--solver" in capsys.readouterr().err

    def test_truth_size_mismatch(self, data_file, tmp_path, capsys):
        small = tmp_path / "small.edges"
        small.write_text("0 1\n")
        assert run("discover", "--data", data_file, "--truth", small) == 1
        assert "columns" in capsys.readouterr().err

    def test_discrete_output_is_acyclic(self, tmp_path, truth_file, capsys):
        d = tmp_path / "d.csv"
        run("gen-data", "--truth", truth_file, "--samples", 500, "--states", 3,
            "--seed", 2, "--out", d)
        prefix = tmp_path / "found"
        assert run("discover", "--data", d, "--theta", 12, "--seed", 1,
                   "--out", prefix) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solver"] == "anm"
        assert report["oracle"] == "g2"
        load_dag(tmp_path / "found.edges")  # Dag constructor rejects cycles


class TestBounds:
    def test_report_fields(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(
            {"n": 100, "d": 1.25, "alpha": 0.05, "beta": 0.05,
             "epsilon": 0.05, "nc": 10, "r": 0.1}))
        assert run("bounds", model) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cut_error_bound"] == 3
        assert report["min_delta_for_recall"] == pytest.approx(0.0404, abs=5e-4)

    def test_out_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"n": 100, "d": 1.25}))
        out = tmp_path / "report.json"
        assert run("bounds", model, "--out", out) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)

    def test_unknown_field(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"n": 100, "dd": 1.25}))
        assert run("bounds", model) == 1
        assert "dd" in capsys.readouterr().err

    @pytest.mark.parametrize("field, bad", [("e1", [1]), ("alpha", "0.5"), ("alpha", True),
                                            ("n1", 2.0)])
    def test_wrong_type_names_field(self, tmp_path, field, bad, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"n": 100, "d": 1.25, field: bad}))
        assert run("bounds", model) == 1
        out = capsys.readouterr()
        assert field in out.err and out.out == ""

    def test_malformed_json_names_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("{")
        assert run("bounds", model) == 1
        assert "model.json" in capsys.readouterr().err


class TestBench:
    def test_sweep_outputs(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"variable_sizes": [12], "sample_sizes": [150], "replicates": 2}))
        prefix = tmp_path / "sweep"
        assert run("bench", grid, "--theta", 6, "--seed", 11,
                   "--out", prefix) == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"sada", "baseline"}
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert summary["seed"] == 11
        assert summary["grid_points"][0]["n"] == 12

    @pytest.mark.parametrize("model, oracle_cls, cleanups", [
        ("continuous", PartialCorrelationOracle, 0), ("discrete", GSquaredOracle, 2)])
    def test_alpha_builds_every_oracle(self, tmp_path, monkeypatch, model, oracle_cls,
                                       cleanups):
        # each replicate's run and, for discrete data, its flat baseline's
        # cleanup each get their own oracle at --alpha
        runs, cleaned = [], []
        real_discover = sada.bench.discover
        real_cleanup = sada.bench.remove_conflicts_and_redundancy

        def discover_spy(data, variables, cfg, solver, oracle, rng):
            runs.append((cfg, oracle))
            return real_discover(data, variables, cfg, solver, oracle, rng)

        def cleanup_spy(edges, oracle, max_cond):
            cleaned.append((oracle, max_cond))
            return real_cleanup(edges, oracle, max_cond=max_cond)

        monkeypatch.setattr(sada.bench, "discover", discover_spy)
        monkeypatch.setattr(sada.bench, "remove_conflicts_and_redundancy", cleanup_spy)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"variable_sizes": [8], "sample_sizes": [600],
                                    "replicates": 2, "model": model}))
        assert run("bench", grid, "--theta", 5, "--max-cond", 2, "--alpha", 0.02,
                   "--seed", 12, "--out", tmp_path / "s") == 0
        assert [cfg for cfg, _ in runs] == [SadaConfig(theta=5, max_cond=2, alpha_level=0.02)] * 2
        assert [max_cond for _, max_cond in cleaned] == [2] * cleanups
        oracles = [oracle for _, oracle in runs] + [oracle for oracle, _ in cleaned]
        assert len({id(oracle) for oracle in oracles}) == 2 + cleanups
        for oracle in oracles:
            assert type(oracle) is oracle_cls and oracle.alpha_level == 0.02

    def test_bad_grid_key(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"variable_size": [12]}))
        assert run("bench", grid, "--seed", 1, "--out", tmp_path / "s") == 1
        assert "variable_size" in capsys.readouterr().err

    @pytest.mark.parametrize("field, bad", [("variable_sizes", ["10"]), ("replicates", "3"),
                                            ("replicates", 3.0)])
    def test_wrong_type_names_field(self, tmp_path, field, bad, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({field: bad}))
        assert run("bench", grid, "--seed", 1, "--out", tmp_path / "s") == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_non_object_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text("[1, 2]")
        assert run("bench", grid, "--seed", 1, "--out", tmp_path / "s") == 1
        assert "object" in capsys.readouterr().err


class TestParser:
    def test_version_is_bare(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out.count(".") == 2
        assert all(part.isdigit() for part in out.split("."))

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            run("--help")
        out = capsys.readouterr().out
        for name in ("gen-dag", "gen-data", "discover", "bounds", "bench"):
            assert name in out

    @pytest.mark.parametrize("seed", ["-3", "x", "1.5"])
    def test_bad_seed_names_flag(self, data_file, truth_file, tmp_path, seed, capsys):
        # argparse refuses the value, naming the flag, before numpy sees it
        for argv in (("gen-dag", "--n", 5, "--degree", 1, "--out", tmp_path / "g.txt"),
                     ("gen-data", "--truth", truth_file, "--samples", 50,
                      "--out", tmp_path / "d.csv"),
                     ("discover", "--data", data_file),
                     ("bench", tmp_path / "grid.json", "--out", tmp_path / "s")):
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--seed", seed)
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err

    def test_bad_max_cond(self, data_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run("discover", "--data", data_file, "--max-cond", "few")
        assert exc.value.code == 2

    @pytest.mark.parametrize("cap", ["-1", "1.5"])
    def test_bad_max_cond_names_flag(self, data_file, tmp_path, cap, capsys):
        # argparse refuses the value, naming the flag, before SadaConfig sees it
        for argv in (("discover", "--data", data_file),
                     ("bench", tmp_path / "grid.json", "--out", tmp_path / "s")):
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--max-cond", cap, "--seed", 1)
            assert exc.value.code == 2
            assert "--max-cond" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--theta", "1"), ("--theta", "2.5"),
                                             ("--k", "0"), ("--alpha", "nan"),
                                             ("--alpha", "1"), ("--alpha", "x")])
    def test_bad_config_flag_names_flag(self, data_file, tmp_path, flag, value, capsys):
        # SadaConfig's own rule refuses the value inside argparse (exit 2)
        for argv in (("discover", "--data", data_file),
                     ("bench", tmp_path / "grid.json", "--out", tmp_path / "s")):
            with pytest.raises(SystemExit) as exc:
                run(*argv, flag, value, "--seed", 1)
            assert exc.value.code == 2
            assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3", "x"])
    def test_bad_threads_names_flag(self, tmp_path, threads, capsys):
        # no sequential run stands in for a worker count that cannot be
        with pytest.raises(SystemExit) as exc:
            run("bench", tmp_path / "grid.json", "--threads", threads,
                "--seed", 1, "--out", tmp_path / "s")
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()
