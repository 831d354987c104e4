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
