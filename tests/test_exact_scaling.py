"""tools/exact_scaling.py at small sizes."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "exact_scaling.py"


def test_small_sizes_are_exact_and_recorded(tmp_path):
    out = tmp_path / "BENCH_exact.json"
    done = subprocess.run([sys.executable, str(TOOL), "--sizes", "20", "40", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert record["seed"] == 2026 and record["machine"]["nproc"] >= 1
    rows = record["sizes"]
    assert [r["n"] for r in rows] == [20, 40]
    for r in rows:
        assert r["exact"] and r["error"] is None
        assert r["wall_s"] > 0 and r["peak_rss_mb"] > 0 and r["dsep_cache_entries"] > 0
        assert r["edges"] > 0 and len(r["digest"]) == 16
    [e] = record["exponents"]
    assert (e["from"], e["to"]) == (20, 40) and isinstance(e["exponent"], float)
