"""Scalable causal structure learning by recursive causal cuts.

The package splits a large discovery problem into overlapping subproblems
along causal cuts, solves the small pieces with an exchangeable solver, and
merges the partial graphs back together with conflict and redundancy
cleanup. Error bounds for the whole pipeline live in `bounds`, benchmark
plumbing in `bench`, and a command-line front end in `cli`.
"""

__version__ = "0.1.0"
