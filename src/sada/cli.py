"""Command-line front end: DAG generation, data synthesis, discovery,
error-bound tables, and benchmark sweeps, one subcommand each."""

import argparse
import dataclasses
import inspect
import json
import os
import sys

import numpy as np

from .bench import ExperimentGrid, methods, run_experiment, score, write_rows_csv
from .bounds import ErrorModel, bounds_report
from .citest import G2_SAMPLES_PER_DOF, ExactCiOracle
from .framework import FrameworkError, SadaConfig, discover
from .graph import Dag, generate_random_dag, load_dag, save_dag
from .solvers import make_oracle_solver
from .synth import generate_discrete, generate_linear_nongaussian, \
    load_samples, save_samples

from . import __version__


class CliError(ValueError):
    pass


def _int_at_least(floor):
    """argparse type of an integer >= floor: 0 for a seed (the range numpy's
    seeding takes), 1 for a worker count."""
    def parse(text):
        if not text.isdecimal() or int(text) < floor:
            raise argparse.ArgumentTypeError(f"expected an integer >= {floor}, got {text!r}")
        return int(text)
    return parse


def _config_arg(field, parse):
    """argparse type of one SadaConfig field: the text as `parse` reads it,
    or the bare text when it cannot, checked by SadaConfig's own rule."""
    def check(text):
        try:
            value = parse(text)
        except ValueError:
            value = text
        try:
            SadaConfig(**{field: value})
        except FrameworkError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return check


def _resolve_seed(seed):
    # every run stays reproducible: without --seed we draw one and say so
    if seed is not None:
        return seed
    drawn = int.from_bytes(os.urandom(4), "big")
    print(f"seed={drawn}", file=sys.stderr)
    return drawn


def _load_fields(path, cls):
    """The dataclass cls built from the JSON object in path, whose keys must
    be fields of cls; cls itself checks each value."""
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: {exc}") from None
    if not isinstance(loaded, dict):
        raise CliError(f"{path}: expected a JSON object at top level")
    unknown = sorted(set(loaded) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise CliError(f"{path}: unknown field(s): {', '.join(unknown)}")
    return cls(**loaded)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _config(args):
    return SadaConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SadaConfig)})


def _add_sada_flags(sp):
    # the defaults are SadaConfig's own
    cfg = SadaConfig()
    sp.add_argument("--theta", type=_config_arg("theta", int), default=cfg.theta,
                    help="largest subproblem handed to the solver (default %(default)s)")
    sp.add_argument("--k", type=_config_arg("k", int), default=cfg.k,
                    help="causal-cut restarts per split (default %(default)s)")
    sp.add_argument("--max-cond", default=cfg.max_cond, metavar="C",
                    type=_config_arg("max_cond", lambda t: None if t.lower() == "none" else int(t)),
                    help="conditioning-set cap, or 'none' (default %(default)s)")
    sp.add_argument("--alpha", type=_config_arg("alpha_level", float), default=cfg.alpha_level,
                    dest="alpha_level", metavar="ALPHA",
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
    noise = inspect.signature(generate_linear_nongaussian).parameters["noise_weight"]
    p.add_argument("--noise-weight", type=float, default=None,
                   help=f"noise share for continuous data (default {noise.default})")
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
        given = {} if args.noise_weight is None else {"noise_weight": args.noise_weight}
        sm = generate_linear_nongaussian(g, args.samples, seed=seed, **given)
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

    if data.kind == "discrete" and not (args.oracle_ci and args.oracle_solver):
        # m below the G2 floor at |z| = 0 leaves every G2 test undecidable, and
        # the G2Kernel that the oracle and the ANM leaves build grows as k^4
        need = G2_SAMPLES_PER_DOF * (data.num_states - 1) ** 2
        if data.m < need:
            raise CliError(f"discrete data with k={data.num_states} states needs m >= {need} "
                           f"samples for a G-squared test to decide, got m={data.m}")

    cfg = _config(args)
    oracle_name, oracle_cls, solver_name, solver = methods(data.kind)
    if args.oracle_ci:
        oracle_name, oracle = "exact", ExactCiOracle(truth)
    else:
        oracle = oracle_cls(data, alpha_level=cfg.alpha_level)
    if args.oracle_solver:
        solver_name, solver = "oracle", make_oracle_solver(truth)

    seed = _resolve_seed(args.seed)
    edges, cuts = discover(data, range(data.n), cfg, solver, oracle,
                           np.random.default_rng(seed))

    result = Dag(data.n, edges.pairs())
    report = {
        "n": data.n,
        "m": data.m,
        "kind": data.kind,
        "solver": solver_name,
        "oracle": oracle_name,
        "seed": seed,
        "config": dataclasses.asdict(cfg),
        "edges": [[e.parent, e.child, e.significance] for e in edges],
    }
    if truth is not None:
        report["metrics"] = dataclasses.asdict(score(edges, truth, cuts))
    if args.trace:
        report["cuts"] = [
            {"variables": sorted(cut.left | cut.cut_set | cut.right),
             "left": sorted(cut.left),
             "cut": sorted(cut.cut_set),
             "right": sorted(cut.right)}
            for cut in cuts
        ]
    if args.out:
        save_dag(result, f"{args.out}.edges")
        _write_json(f"{args.out}.json", report)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_bounds(args):
    report = bounds_report(_load_fields(args.model, ErrorModel))
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_bench(args):
    grid = _load_fields(args.grid, ExperimentGrid)
    cfg = _config(args)
    seed = _resolve_seed(args.seed)
    rows, summary = run_experiment(grid, cfg, seed=seed, workers=args.threads)
    write_rows_csv(rows, f"{args.out}.csv")
    _write_json(f"{args.out}.json", summary)
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
