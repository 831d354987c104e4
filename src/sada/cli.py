"""Command-line front end: DAG generation, data synthesis, discovery,
error-bound tables, and benchmark sweeps, one subcommand each."""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .bench import ExperimentGrid, cut_error_ratio, run_experiment, score, \
    write_rows_csv, write_summary_json
from .bounds import ErrorModel, bounds_report
from .citest import ExactCiOracle, GSquaredOracle, PartialCorrelationOracle
from .framework import SadaConfig, clean_unmerged, run_sada
from .graph import Dag, generate_random_dag, load_dag, save_dag
from .solvers import make_oracle_solver, solve_discrete_anm, solve_lingam
from .synth import generate_discrete, generate_linear_nongaussian, \
    load_samples, save_samples

from . import __version__


class CliError(ValueError):
    pass


def _int_at_least(floor):
    """argparse type of an integer >= floor: 0 for a seed (the range numpy's
    seeding takes) or a conditioning cap, 1 for a worker count."""
    def parse(text):
        if not text.isdecimal() or int(text) < floor:
            raise argparse.ArgumentTypeError(f"expected an integer >= {floor}, got {text!r}")
        return int(text)
    return parse


def _max_cond_arg(text):
    """Conditioning-set cap: a nonnegative integer, or 'none' for unlimited."""
    return None if text.lower() == "none" else _int_at_least(0)(text)


def _resolve_seed(seed):
    # every run stays reproducible: without --seed we draw one and say so
    if seed is not None:
        return seed
    drawn = int.from_bytes(os.urandom(4), "big")
    print(f"seed={drawn}", file=sys.stderr)
    return drawn


def _load_mapping(path):
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: {exc}") from None
    if not isinstance(loaded, dict):
        raise CliError(f"{path}: expected a JSON object at top level")
    return loaded


def _add_sada_flags(sp):
    # the defaults are SadaConfig's own
    cfg = SadaConfig()
    sp.add_argument("--theta", type=int, default=cfg.theta,
                    help="largest subproblem handed to the solver (default %(default)s)")
    sp.add_argument("--k", type=int, default=cfg.k,
                    help="causal-cut restarts per split (default %(default)s)")
    sp.add_argument("--max-cond", type=_max_cond_arg, default=cfg.max_cond, metavar="C",
                    help="conditioning-set cap, or 'none' (default %(default)s)")
    sp.add_argument("--alpha", type=float, default=cfg.alpha_level,
                    help="independence-test level (default %(default)s)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sada",
        description="Causal structure discovery by recursive causal cuts.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen-dag", help="sample a random DAG into an edge-list file")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--degree", type=float, required=True,
                   help="average in-degree of the sampled graph")
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--out", required=True, help="edge-list output path")
    p.set_defaults(func=_cmd_gen_dag)

    p = sub.add_parser("gen-data", help="draw samples from a DAG into a CSV")
    p.add_argument("--truth", required=True, help="edge-list file of the DAG")
    p.add_argument("--samples", type=int, required=True, help="rows to draw")
    p.add_argument("--noise-weight", type=float, default=None,
                   help="noise share for continuous data (default 0.3)")
    p.add_argument("--states", type=int, default=None,
                   help="state count; switches generation to discrete")
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--out", required=True, help="sample CSV output path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("discover", help="infer a causal structure from samples")
    p.add_argument("--data", required=True, help="sample CSV")
    _add_sada_flags(p)
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--truth", help="edge-list file to score the result against")
    p.add_argument("--trace", action="store_true",
                   help="include the accepted cuts in the report")
    p.add_argument("--oracle-ci", action="store_true",
                   help="answer independence queries from --truth instead of data")
    p.add_argument("--oracle-solver", action="store_true",
                   help="answer subproblems from --truth instead of data")
    p.add_argument("--out", help="prefix for <out>.edges and <out>.json")
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("bounds", help="evaluate error bounds for a model file")
    p.add_argument("model", help="JSON file of error-model fields")
    p.add_argument("--out", help="write the JSON table here as well")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("bench", help="run a benchmark sweep from a grid file")
    p.add_argument("grid", help="JSON file of grid fields")
    _add_sada_flags(p)
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--threads", type=_int_at_least(1), default=None,
                   help="worker processes for replicates (default sequential)")
    p.add_argument("--out", required=True,
                   help="prefix for <out>.csv and <out>.json")
    p.set_defaults(func=_cmd_bench)
    return parser


def _cmd_gen_dag(args):
    seed = _resolve_seed(args.seed)
    save_dag(generate_random_dag(args.n, args.degree, seed=seed), args.out)
    return 0


def _cmd_gen_data(args):
    g = load_dag(args.truth)
    if args.states is not None and args.noise_weight is not None:
        raise CliError("--noise-weight applies to continuous generation; "
                       "drop it when --states is set")
    seed = _resolve_seed(args.seed)
    if args.states is not None:
        sm = generate_discrete(g, args.samples, num_states=args.states, seed=seed)
    else:
        w = 0.3 if args.noise_weight is None else args.noise_weight
        sm = generate_linear_nongaussian(g, args.samples, noise_weight=w, seed=seed)
    save_samples(sm, args.out)
    return 0


def _cmd_discover(args):
    data = load_samples(args.data)
    truth = load_dag(args.truth) if args.truth else None
    if truth is not None and truth.n != data.n:
        raise CliError(f"truth graph has {truth.n} variables "
                       f"but the data has {data.n} columns")
    if args.oracle_ci and truth is None:
        raise CliError("--oracle-ci answers queries from the true graph; "
                       "it needs --truth")
    if args.oracle_solver and truth is None:
        raise CliError("--oracle-solver answers subproblems from the true graph; "
                       "it needs --truth")

    if args.oracle_ci:
        oracle, oracle_name = ExactCiOracle(truth), "exact"
    elif data.kind == "discrete":
        oracle, oracle_name = GSquaredOracle(data, alpha_level=args.alpha), "g2"
    else:
        oracle, oracle_name = PartialCorrelationOracle(data, alpha_level=args.alpha), "pcorr"

    if args.oracle_solver:
        solver, solver_name = make_oracle_solver(truth), "oracle"
    elif data.kind == "discrete":
        solver, solver_name = solve_discrete_anm, "anm"
    else:
        solver, solver_name = solve_lingam, "lingam"

    seed = _resolve_seed(args.seed)
    cfg = SadaConfig(theta=args.theta, k=args.k, max_cond=args.max_cond,
                     alpha_level=args.alpha)
    trace = []
    edges = run_sada(data, range(data.n), cfg, solver, oracle,
                     np.random.default_rng(seed), trace=trace)
    if solver_name == "anm":
        edges = clean_unmerged(edges, trace, oracle, max_cond=cfg.max_cond)

    result = Dag(data.n, edges.pairs())
    report = {
        "n": data.n,
        "m": data.m,
        "kind": data.kind,
        "solver": solver_name,
        "oracle": oracle_name,
        "seed": seed,
        "config": {"theta": cfg.theta, "k": cfg.k, "max_cond": cfg.max_cond,
                   "alpha_level": cfg.alpha_level},
        "edges": [[e.parent, e.child, e.significance] for e in edges],
    }
    if truth is not None:
        metrics = score(edges, truth)
        report["metrics"] = {
            "recall": metrics.recall,
            "precision": metrics.precision,
            "f1": metrics.f1,
            "cut_error_ratio": cut_error_ratio(trace, truth),
        }
    if args.trace:
        report["cuts"] = [
            {"variables": sorted(cut.left | cut.cut_set | cut.right),
             "left": sorted(cut.left),
             "cut": sorted(cut.cut_set),
             "right": sorted(cut.right)}
            for cut in trace
        ]
    text = json.dumps(report, indent=2)
    if args.out:
        save_dag(result, f"{args.out}.edges")
        with open(f"{args.out}.json", "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_bounds(args):
    mapping = _load_mapping(args.model)
    known = {f.name for f in dataclasses.fields(ErrorModel)}
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise CliError(f"unknown model field(s): {', '.join(unknown)}")
    text = json.dumps(bounds_report(ErrorModel(**mapping)), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_bench(args):
    grid = ExperimentGrid.from_mapping(_load_mapping(args.grid))
    cfg = SadaConfig(theta=args.theta, k=args.k, max_cond=args.max_cond,
                     alpha_level=args.alpha)
    seed = _resolve_seed(args.seed)
    rows, summary = run_experiment(grid, cfg, seed=seed, workers=args.threads)
    write_rows_csv(rows, f"{args.out}.csv")
    write_summary_json(summary, f"{args.out}.json")
    print(f"wrote {args.out}.csv and {args.out}.json ({len(rows)} rows)",
          file=sys.stderr)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
