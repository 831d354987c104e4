"""A fixed calibration computation that does not use the program under test.

The machine this benchmark was tuned on runs the same code up to 1.8 times
slower for stretches of tens of seconds to minutes. Timing this kernel next
to each replicate and dividing by it cancels most of that drift. Measured as
interquartile distance / median:

- over 36-second windows in a 5-minute run, a fixed `run_sada` instance
  varied by 0.13 in seconds but by 0.018 in kernel units (a 10-variable
  version of this kernel);
- over ten consecutive benchmark runs per workload, mean solve time varied
  by 0.10 to 0.23 in seconds and by 0.04 to 0.10 in kernel units.

The kernel imitates the program's mix: Fisher-z partial-correlation tests
over small subsets (a small matrix inverse and a scipy p-value each, cached
in a dict), then bitset reachability in plain Python. It takes about 50 ms.
"""

import itertools
from time import perf_counter

import numpy as np
from scipy import stats

VARIABLES = 8
SAMPLES = 60
MAX_COND = 2
NODES = 200


def _kernel() -> int:
    x = np.random.default_rng(0).standard_normal((SAMPLES, VARIABLES))
    corr = np.corrcoef(x, rowvar=False)
    verdicts = {}
    for u, v in itertools.combinations(range(VARIABLES), 2):
        rest = [w for w in range(VARIABLES) if w not in (u, v)]
        for size in range(MAX_COND + 1):
            for z in itertools.combinations(rest, size):
                idx = (u, v) + z
                prec = np.linalg.inv(corr[np.ix_(idx, idx)])
                r = -prec[0, 1] / np.sqrt(prec[0, 0] * prec[1, 1])
                stat = np.sqrt(SAMPLES - size - 3) * np.arctanh(r)
                verdicts[(u, v, z)] = float(2 * stats.norm.sf(abs(stat))) > 0.05
    reach = [0] * NODES
    for i in range(NODES - 1, -1, -1):
        for c in (i + 1, i + 7, i + 31):
            if c < NODES:
                reach[i] |= reach[c] | (1 << c)
    return len(verdicts) + sum(r.bit_count() for r in reach)


def reference_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start
