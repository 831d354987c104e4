"""tools/compare_bench.py on synthetic benchmark records."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_bench.py"
spec = importlib.util.spec_from_file_location("compare_bench", TOOL)
compare_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_bench)


def _record(solve_ref, failed, digests, seed=2026):
    return {"workload": "discrete-n60", "seed": seed, "trace": 0,
            "attempted": len(digests), "failed": failed,
            "metrics": {"solve_ref": {"value": solve_ref, "unit": "ref"}},
            "rows": [{"replicate": r, "digest": d, "baseline_digest": d + "b",
                      "half_digest": None} for r, d in enumerate(digests)]}


def _write(directory, name, record):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(record))


def test_medians_failures_and_digests(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / ".bench_out"
    for i, ref in enumerate((1.6, 1.7, 1.8)):
        _write(parent, f"run{i}.json", _record(ref, 0, ["a", "b"]))
    for i, ref in enumerate((1.1, 1.2)):
        _write(change, f"run{i}.json", _record(ref, 1, ["a", "b", "c"]))
    # a checkout is read through its .bench_out directory
    assert compare_bench.main([str(parent), str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "parent 3 runs, change 2 runs" in out
    assert "solve_ref" in out and "1.7" in out and "1.15" in out and "0.676" in out
    assert "failed: parent 0 of 6, change 2 of 6" in out
    # replicate 2 ran on the change side only; half digests are absent
    assert "both sides ran: 4, identical 4, different 0" in out

    _write(change, "run2.json", _record(1.3, 0, ["a", "x"]))
    assert compare_bench.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "digest differs: seed 2026 replicate 1 digest" in out
    assert "identical 2, different 2" in out


def test_missing_records_exit_2(tmp_path, capsys):
    _write(tmp_path / "parent", "run.json", _record(1.0, 0, ["a"]))
    (tmp_path / "empty").mkdir()
    assert compare_bench.main([str(tmp_path / "parent"), str(tmp_path / "empty")]) == 2
    assert "no benchmark records" in capsys.readouterr().err
    assert compare_bench.main([str(tmp_path / "parent")]) == 2


def _replicate_record(rows, seed=2026):
    return {"workload": "continuous-n30", "seed": seed, "trace": 0,
            "attempted": len(rows), "failed": 0, "metrics": {},
            "rows": [dict(replicate=r, digest=f"d{r}", **row) for r, row in enumerate(rows)]}


def test_quality_and_paired_times_over_shared_replicates(tmp_path, capsys):
    # the parent reached replicates 0-1, the change 0-2: replicate 2 counts
    # on neither side, so equal per-replicate quality reads equal
    row = lambda f1, cut, ref: {"f1": f1, "baseline_f1": f1 / 2, "cut_error": cut,
                                "sada_ref": ref, "baseline_ref": 2 * ref}
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "a.json", _replicate_record([row(0.4, 0.1, 2.0), row(0.6, 0.3, 4.0)]))
    _write(parent, "b.json", _replicate_record([row(0.4, 0.1, 4.0)]))
    _write(change, "a.json", _replicate_record(
        [row(0.4, 0.1, 1.5), row(0.6, 0.3, 3.6), row(0.0, 1.0, 9.0)]))
    assert compare_bench.main([str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()

    def line(label):
        return next(x.split() for x in lines if x.strip().startswith(label))

    assert line("f1")[1:] == ["0.5", "0.5", "mean", "of", "2"]
    assert line("baseline_f1")[1:3] == ["0.25", "0.25"]
    assert line("1 - cut_error")[3:5] == ["0.8", "0.8"]
    # replicate 0 pairs 1.5 with the parent's median 3.0, replicate 1 pairs
    # 3.6 with 4.0: ratios 0.5 and 0.9
    assert line("sada_ref change/parent")[2:] == ["0.700", "median", "of", "2"]
    assert line("baseline_ref change/parent")[2] == "0.700"
    assert not any("half_ref" in x for x in lines)
