"""The benchmark under perfbench/ drives the package through `run_sada`'s
`trace=`, the oracles' `separable` and `find_separator`, and the rebinding
of `sada.framework.find_causal_cut` and `merge_results`. Its self-test runs
both modes of every workload at tiny sizes and exits non-zero when a source
change breaks one of them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
