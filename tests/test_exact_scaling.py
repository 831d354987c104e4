"""tools/exact_scaling.py at small sizes."""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "exact_scaling.py"


def test_small_sizes_are_exact_and_recorded(tmp_path):
    out = tmp_path / "BENCH_exact.json"
    done = subprocess.run([sys.executable, str(TOOL), "--sizes", "20", "40", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert record["seed"] == 2026 and record["machine"]["nproc"] >= 1
    assert record["runs"] == 3
    rows = record["sizes"]
    assert [r["n"] for r in rows] == [20, 40]
    for r in rows:
        assert r["exact"] and r["error"] is None
        walls = r["wall_s_runs"]
        assert len(walls) == 3 and min(walls) > 0
        assert r["wall_s"] == {"median": statistics.median(walls), "min": min(walls),
                               "max": max(walls)}
        rss = r["peak_rss_mb"]
        assert 0 < rss["min"] <= rss["median"] <= rss["max"]
        assert r["dsep_cache_entries"] > 0
        assert r["edges"] > 0 and len(r["digest"]) == 16
    [e] = record["exponents"]
    assert (e["from"], e["to"]) == (20, 40) and isinstance(e["exponent"], float)
    # the exponent is taken from the medians
    a, b = (r["wall_s"]["median"] for r in rows)
    assert e["exponent"] == round(math.log(b / a) / math.log(2), 2)


@pytest.mark.parametrize("sizes", [["20", "20"], ["40", "20"], ["20", "40", "30"]])
def test_sizes_not_strictly_increasing_are_refused_before_any_run(tmp_path, sizes):
    out = tmp_path / "BENCH_exact.json"
    done = subprocess.run([sys.executable, str(TOOL), "--sizes", *sizes, "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "--sizes must be strictly increasing" in done.stderr
    # no size was solved and no record written
    assert done.stdout == "" and not out.exists()
