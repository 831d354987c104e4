"""The count rule, once across its callers: each refuses a value that is no
integer of at least its floor with the one message `check_count` words,
raising its own error class, and stores a numpy count as a Python int."""

import dataclasses
import json

import numpy as np
import pytest

from sada.bench import BenchError, ExperimentGrid, run_experiment
from sada.bounds import BoundsError, ErrorModel
from sada.citest import ExactCiOracle, PartialCorrelationOracle
from sada.framework import FrameworkError, SadaConfig, run_sada
from sada.graph import Dag, GraphError, generate_random_dag
from sada.solvers import EdgeSet, SolverError, make_oracle_solver
from sada.synth import (CPT_FLOOR, SampleMatrix, SynthError, draw_random_cpts,
                        generate_linear_nongaussian, sample_from_cpts)

from conftest import value_id

CHAIN = Dag(3, [(0, 1), (1, 2)])
CHAIN_DATA = generate_linear_nongaussian(CHAIN, 30, seed=0)
CHAIN_CPTS = draw_random_cpts(CHAIN, 3, np.random.default_rng(0))
STATES = np.zeros((4, 3), dtype=np.int64)
TINY_GRID = dict(variable_sizes=(4,), sample_sizes=(30,), in_degrees=(1.0,), replicates=1)


def _leaf_ids(variables):
    """The ids run_sada hands its one leaf solve over CHAIN_DATA."""
    seen = []

    def solver(data, vs):
        seen.extend(vs)
        return EdgeSet()

    run_sada(CHAIN_DATA, variables, SadaConfig(), solver, PartialCorrelationOracle(CHAIN_DATA),
             rng=np.random.default_rng(0))
    return seen


def _bench(**kwargs):
    _, summary = run_experiment(ExperimentGrid(**TINY_GRID), SadaConfig(theta=2),
                                **{"seed": 0, **kwargs})
    return summary


# caller: (name, floor, error class, call(x) -> what the caller stored of x,
# a good value, whether None means "not given" there)
COUNT_CALLERS = {
    "SadaConfig.theta": ("theta", 2, FrameworkError, lambda x: SadaConfig(theta=x).theta, 4,
                         False),
    "SadaConfig.k": ("k", 1, FrameworkError, lambda x: SadaConfig(k=x).k, 2, False),
    "run_sada": ("variable id", 0, FrameworkError, lambda x: _leaf_ids([x, 1, 2])[0], 0, False),
    "EdgeSet.parent": ("variable id", 0, SolverError,
                       lambda x: next(iter(EdgeSet([(x, 9, 1.0)]))).parent, 3, False),
    "EdgeSet.child": ("variable id", 0, SolverError,
                      lambda x: next(iter(EdgeSet([(9, x, 1.0)]))).child, 3, False),
    "Dag": ("n", 0, GraphError, lambda x: Dag(x).n, 3, False),
    "generate_random_dag": ("n", 1, GraphError,
                            lambda x: generate_random_dag(x, 1.0, seed=0).n, 3, False),
    "SampleMatrix": ("num_states", 2, SynthError,
                     lambda x: SampleMatrix(STATES, "discrete", num_states=x).num_states, 3,
                     False),
    "generate_linear_nongaussian": ("m", 2, SynthError,
                                    lambda x: generate_linear_nongaussian(CHAIN, x, seed=0).m,
                                    5, False),
    "sample_from_cpts.m": ("m", 1, SynthError, lambda x: sample_from_cpts(
        CHAIN, CHAIN_CPTS, 3, x, np.random.default_rng(0)).m, 5, False),
    "sample_from_cpts.num_states": ("num_states", 2, SynthError, lambda x: sample_from_cpts(
        CHAIN, CHAIN_CPTS, x, 5, np.random.default_rng(0)).num_states, 3, False),
    "ExperimentGrid.variable_sizes": ("variable_sizes entry", 1, BenchError, lambda x:
                                      ExperimentGrid(variable_sizes=(100, x)).variable_sizes[1],
                                      100, False),
    "ExperimentGrid.sample_sizes": ("sample_sizes entry", 1, BenchError,
                                    lambda x: ExperimentGrid(sample_sizes=(x,)).sample_sizes[0],
                                    200, False),
    "ExperimentGrid.replicates": ("replicates", 1, BenchError,
                                  lambda x: ExperimentGrid(replicates=x).replicates, 20, False),
    "run_experiment.seed": ("seed", 0, BenchError, lambda x: _bench(seed=x)["seed"], 7, False),
    # workers is not stored: a numpy count must still run the grid
    "run_experiment.workers": ("workers", 1, BenchError,
                               lambda x: _bench(workers=x)["replicates"], 1, True),
    "ErrorModel.n": ("n", 1, BoundsError, lambda x: ErrorModel(n=x).n, 10, False),
    "ErrorModel.n1": ("n1", 0, BoundsError, lambda x: ErrorModel(n=10, n1=x).n1, 4, True),
    "ErrorModel.n2": ("n2", 0, BoundsError, lambda x: ErrorModel(n=10, n2=x).n2, 4, True),
    "ErrorModel.nc": ("nc", 0, BoundsError, lambda x: ErrorModel(n=10, nc=x).nc, 2, True),
}

BAD_COUNTS = [True, 2.5, 3.0, np.float64(3.0), "3", None]

# every bad value for every caller, and the integer just under its floor;
# None is left out where it means "not given"
BAD_CASES = [pytest.param(caller, bad, id=f"{caller}-{value_id(bad)}")
             for caller, (_, floor, _, _, _, none_is_absent) in COUNT_CALLERS.items()
             for bad in (*BAD_COUNTS, floor - 1) if not (bad is None and none_is_absent)]


class TestCountRule:
    @pytest.mark.parametrize("caller, bad", BAD_CASES)
    def test_bad_count_is_refused_in_one_wording(self, caller, bad):
        name, floor, error, call, _, _ = COUNT_CALLERS[caller]
        with pytest.raises(error) as refused:
            call(bad)
        assert type(refused.value) is error
        assert str(refused.value) == f"{name} must be an integer >= {floor}, got {bad!r}"

    @pytest.mark.parametrize("kind", [np.int64, np.uint8], ids=lambda t: t.__name__)
    @pytest.mark.parametrize("caller", COUNT_CALLERS)
    def test_numpy_count_is_stored_as_an_int(self, caller, kind):
        _, _, _, call, good, _ = COUNT_CALLERS[caller]
        stored = call(kind(good))
        assert type(stored) is int and stored == good

    def test_numpy_variable_count_runs_exactly(self):
        # before, Dag kept an np.int64 n and the exact oracle's `bits >> n`
        # overflowed a C long
        g = generate_random_dag(np.int64(80), 1.25, seed=0)
        got = run_sada(None, range(g.n), SadaConfig(max_cond=None), make_oracle_solver(g),
                       ExactCiOracle(g), rng=np.random.default_rng(0))
        assert got.pairs() == g.edges

    def test_numpy_counts_serialize_to_json(self):
        cfg = SadaConfig(theta=np.int64(10), k=np.uint8(1), max_cond=np.int64(3))
        assert json.loads(json.dumps(dataclasses.asdict(cfg))) == dataclasses.asdict(SadaConfig())
        _, summary = run_experiment(ExperimentGrid(**{**TINY_GRID, "replicates": np.int64(1)}),
                                    SadaConfig(theta=2), seed=np.int64(0))
        assert json.loads(json.dumps(summary))["replicates"] == 1


class TestCptStateRule:
    """The CPT state rule, once across ExperimentGrid and draw_random_cpts:
    one refusal text, and a numpy state count stored as a Python int."""

    @pytest.mark.parametrize("bad", [1, 20, np.int64(20), 2.0, True, "3", None], ids=value_id)
    def test_bad_state_count_is_refused_in_one_wording(self, bad):
        want = (f"num_states must be an integer >= 2 that CPT_FLOOR={CPT_FLOOR} "
                f"leaves mass for, got {bad!r}")
        for error, call in ((BenchError, lambda: ExperimentGrid(model="discrete", num_states=bad)),
                            (SynthError, lambda: draw_random_cpts(CHAIN, bad,
                                                                  np.random.default_rng(0)))):
            with pytest.raises(error) as refused:
                call()
            assert type(refused.value) is error and str(refused.value) == want

    def test_numpy_state_count_is_stored_as_an_int(self):
        grid = ExperimentGrid(model="discrete", num_states=np.int64(3))
        assert type(grid.num_states) is int and grid.num_states == 3
        cpts = draw_random_cpts(CHAIN, np.uint8(3), np.random.default_rng(0))
        assert all(table.shape[1] == 3 for table in cpts.values())

    def test_grid_with_a_numpy_state_count_serializes_to_json(self):
        grid = ExperimentGrid(model="discrete", num_states=np.int64(3))
        assert json.loads(json.dumps(dataclasses.asdict(grid)))["num_states"] == 3
