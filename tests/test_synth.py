import hashlib

import numpy as np
import pytest

from sada.graph import Dag, generate_random_dag
from sada.synth import (
    CPT_FLOOR,
    SampleFormatError,
    SampleMatrix,
    SynthError,
    draw_random_cpts,
    generate_discrete,
    generate_linear_nongaussian,
    load_samples,
    sample_from_cpts,
    save_samples,
)

from conftest import relabelled


def pinned_dag():
    """A seeded n = 40 DAG whose ids are relabelled, so the generators'
    order and parent lists are not the identity's."""
    return relabelled(generate_random_dag(40, 1.5, seed=11), np.random.default_rng(40))


def sha256_of(values):
    return hashlib.sha256(values.tobytes()).hexdigest()


class TestContinuous:
    def test_columns_normalized_tightly(self):
        g = generate_random_dag(30, 1.5, seed=4)
        sm = generate_linear_nongaussian(g, m=500, seed=9)
        assert np.all(np.abs(sm.values.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(sm.values.var(axis=0) - 1.0) < 1e-9)

    def test_root_column_is_standardized_noise(self):
        # variable 0 is a root of the chain and consumes the first draws, so
        # its column must match the single-variable generation bit for bit
        chain = Dag(2, [(0, 1)])
        single = Dag(1)
        a = generate_linear_nongaussian(chain, m=100, seed=42)
        b = generate_linear_nongaussian(single, m=100, seed=42)
        assert np.array_equal(a.values[:, 0], b.values[:, 0])

    def test_pair_correlation_matches_model(self):
        # b = normalize(a + w e) gives corr(a, b) = 1/sqrt(1 + w^2)
        chain = Dag(2, [(0, 1)])
        w = 0.3
        sm = generate_linear_nongaussian(chain, m=20000, noise_weight=w, seed=1)
        rho = float(np.corrcoef(sm.values.T)[0, 1])
        assert abs(rho - 1 / np.sqrt(1 + w * w)) < 0.01

    def test_regression_residual_is_noise_sized(self):
        chain = Dag(2, [(0, 1)])
        w = 0.3
        sm = generate_linear_nongaussian(chain, m=20000, noise_weight=w, seed=2)
        a, b = sm.values[:, 0], sm.values[:, 1]
        beta = float(a @ b / (a @ a))
        resid = b - beta * a
        assert abs(resid.var() - w * w / (1 + w * w)) < 0.01

    def test_deterministic(self):
        g = generate_random_dag(10, 1.25, seed=0)
        x = generate_linear_nongaussian(g, m=64, seed=5)
        y = generate_linear_nongaussian(g, m=64, seed=5)
        assert np.array_equal(x.values, y.values)

    def test_pinned_bits(self):
        # each column sums its parents in the order parents() lists them,
        # over variables in topological order; float sums change with either
        sm = generate_linear_nongaussian(pinned_dag(), m=50, seed=12)
        assert sha256_of(sm.values) == (
            "8dec3cc8349f531f6c1b85dfba7bb861c167a79be65e83f8fec070dece50d290")

    def test_bad_arguments(self):
        g = Dag(2, [(0, 1)])
        with pytest.raises(SynthError):
            generate_linear_nongaussian(g, m=1, seed=0)
        # a sample count follows the integer rule, naming m, rather than
        # ending in numpy's bare TypeError or passing as a bool
        for bad in (10.5, np.float64(10.0), True, "10", None):
            with pytest.raises(SynthError, match="m must be an integer >= 2"):
                generate_linear_nongaussian(g, m=bad, seed=0)
        assert generate_linear_nongaussian(g, m=np.int64(10), seed=0).m == 10
        # a weight follows the real-number rule: True is not read as 1
        for bad in (0.0, 1.5, True, "0.3", None, float("nan")):
            with pytest.raises(SynthError, match=r"noise_weight must be a real number in \(0, 1\]"):
                generate_linear_nongaussian(g, m=10, noise_weight=bad, seed=0)

    def test_cancelling_column_is_refused(self):
        # at m = 2 every standardized column is (1, -1) or (-1, 1) up to
        # rounding; at weight 1 a child whose noise is its parent's negation
        # sums to a constant column, which cannot be normalized
        with pytest.raises(SynthError, match="cannot normalize a constant column"):
            generate_linear_nongaussian(Dag(2, [(0, 1)]), m=2, noise_weight=1.0, seed=2)

    def test_seed_is_required(self):
        # no silent OS-entropy draw: data without a seed cannot be redrawn
        g = Dag(2, [(0, 1)])
        with pytest.raises(TypeError, match="seed"):
            generate_linear_nongaussian(g, m=10)
        with pytest.raises(TypeError):
            generate_linear_nongaussian(g, 10, 0.3, 0)


class TestDiscrete:
    def test_values_in_range(self):
        g = generate_random_dag(12, 1.25, seed=1)
        sm = generate_discrete(g, m=300, num_states=3, seed=3)
        assert sm.kind == "discrete" and sm.num_states == 3
        assert sm.values.dtype == np.int64
        assert sm.values.min() >= 0 and sm.values.max() <= 2

    def test_cpt_floor_applied(self):
        g = generate_random_dag(8, 1.5, seed=2)
        rng = np.random.default_rng(0)
        cpts = draw_random_cpts(g, 3, rng)
        for table in cpts.values():
            assert np.all(table >= CPT_FLOOR - 1e-12)
            assert np.allclose(table.sum(axis=1), 1.0)

    def test_forced_near_deterministic_cpt(self):
        # chain 0 -> 1 with a handcrafted table: value 1 copies value 0
        # with probability 0.9, so the copy rate must sit near 0.9
        g = Dag(2, [(0, 1)])
        k = 3
        root = np.full((1, k), 1.0 / k)
        copy = np.full((k, k), 0.05)
        np.fill_diagonal(copy, 0.9)
        rng = np.random.default_rng(7)
        sm = sample_from_cpts(g, {0: root, 1: copy}, k, m=5000, rng=rng)
        rate = float(np.mean(sm.values[:, 0] == sm.values[:, 1]))
        assert abs(rate - 0.9) < 0.03

    def test_root_marginal_matches_cpt(self):
        g = Dag(1)
        row = np.array([[0.7, 0.2, 0.1]])
        rng = np.random.default_rng(11)
        sm = sample_from_cpts(g, {0: row}, 3, m=20000, rng=rng)
        freq = np.bincount(sm.values[:, 0], minlength=3) / sm.m
        assert np.all(np.abs(freq - row[0]) < 0.02)

    def test_deterministic(self):
        g = generate_random_dag(9, 1.0, seed=6)
        x = generate_discrete(g, m=120, seed=8)
        y = generate_discrete(g, m=120, seed=8)
        assert np.array_equal(x.values, y.values)

    def test_pinned_bits(self):
        # each row of a table is picked by the parent configuration, read in
        # the order parents() lists them, and variables draw in topological
        # order; a change to either redraws the samples
        sm = generate_discrete(pinned_dag(), m=50, seed=13)
        assert sha256_of(sm.values) == (
            "497eb008b37f9c1c6872bda3d8a07db362e4d6c0ff9cacb8ad35a8dcfb9c4255")

    def test_bad_arguments(self):
        g = Dag(1)
        with pytest.raises(SynthError):
            generate_discrete(g, m=10, num_states=1, seed=0)
        with pytest.raises(SynthError):
            draw_random_cpts(g, 30, np.random.default_rng(0))
        for bad in (0, 10.5, np.float64(10.0), True, "10", None):
            with pytest.raises(SynthError, match="m must be an integer >= 1"):
                generate_discrete(g, m=bad, seed=0)
        assert generate_discrete(g, m=np.int64(10), seed=0).m == 10
        for bad in (3.0, 2.5, True, "3"):
            with pytest.raises(SynthError, match="num_states must be an integer >= 2"):
                generate_discrete(g, m=10, num_states=bad, seed=0)
            with pytest.raises(SynthError, match="num_states must be an integer >= 2"):
                sample_from_cpts(Dag(2, [(0, 1)]), {}, bad, m=10, rng=np.random.default_rng(0))
        assert generate_discrete(g, m=10, num_states=np.int64(4), seed=0).num_states == 4

    def test_table_of_the_wrong_shape_is_refused(self):
        # a child of one parent over 3 states takes a 3 x 3 table
        g = Dag(2, [(0, 1)])
        root = np.full((1, 3), 1 / 3)
        with pytest.raises(SynthError, match="table for variable 1 has shape"):
            sample_from_cpts(g, {0: root, 1: np.full((1, 3), 1 / 3)}, 3, m=10,
                             rng=np.random.default_rng(0))

    def test_seed_is_required(self):
        g = Dag(2, [(0, 1)])
        with pytest.raises(TypeError, match="seed"):
            generate_discrete(g, m=10)
        with pytest.raises(TypeError):
            generate_discrete(g, 10, 3, 0)


class TestCsv:
    def test_continuous_roundtrip_exact(self, tmp_path):
        g = generate_random_dag(6, 1.25, seed=3)
        sm = generate_linear_nongaussian(g, m=40, seed=4)
        p = tmp_path / "cont.csv"
        save_samples(sm, p)
        back = load_samples(p)
        assert back.kind == "continuous"
        assert np.array_equal(back.values, sm.values)

    def test_discrete_roundtrip(self, tmp_path):
        g = generate_random_dag(5, 1.0, seed=5)
        sm = generate_discrete(g, m=50, num_states=4, seed=6)
        p = tmp_path / "disc.csv"
        save_samples(sm, p)
        back = load_samples(p)
        assert back.kind == "discrete"
        assert back.num_states == sm.values.max() + 1 or back.num_states == 4
        assert np.array_equal(back.values, sm.values)

    def test_format_errors(self, tmp_path):
        cases = [
            ("", 1),
            ("\n1,2\n", 1),
            ("v0,v1\n", 2),
            ("v0,v1\n1.0\n", 2),
            ("v0,v1\n1.0,x\n", 2),
            ("v0,v1\n0.5,1.5\n0.25,nan\n1.0,2.0\n", 3),
            ("v0,v1\n0.5,inf\n", 2),
            ("v0,v1\n1,-inf\n", 2),
        ]
        for text, line_no in cases:
            p = tmp_path / "bad.csv"
            p.write_text(text)
            with pytest.raises(SampleFormatError) as err:
                load_samples(p)
            assert err.value.line_no == line_no

    def test_discrete_state_past_int64_names_its_line(self, tmp_path):
        # 1e20 is a whole number, so the table reads as discrete; the cast to
        # int64 would overflow (a RuntimeWarning) into a negative state
        p = tmp_path / "huge.csv"
        p.write_text("v0,v1\n0,1\n\n2,1e20\n1,9223372036854775807\n")
        with pytest.raises(SampleFormatError, match="'1e20' does not fit in int64") as err:
            load_samples(p)
        assert err.value.line_no == 4
        # the largest float below 2**63 still casts exactly
        p.write_text("v0,v1\n0,1\n2,9223372036854774784\n")
        back = load_samples(p)
        assert back.kind == "discrete" and back.values[1, 1] == 2 ** 63 - 1024
        # a fractional cell elsewhere makes the table continuous, where 1e20 is a value
        p.write_text("v0,v1\n0.5,1\n2,1e20\n")
        assert load_samples(p).kind == "continuous"

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("v0,v1\n0.5,1.0\n\n-0.25,2.0\n\n")
        back = load_samples(p)
        assert back.kind == "continuous"
        assert back.values.tolist() == [[0.5, 1.0], [-0.25, 2.0]]

    def test_kind_validation(self):
        with pytest.raises(SynthError):
            SampleMatrix(np.zeros((2, 2)), "weird")
        with pytest.raises(SynthError, match="2-dimensional"):
            SampleMatrix(np.zeros(3), "continuous")
        with pytest.raises(SynthError):
            SampleMatrix(np.zeros((2, 2), dtype=np.int64), "discrete")
        # discrete states must be integers in [0, num_states); the message
        # names the offending column
        vals = generate_discrete(generate_random_dag(4, 1.0, seed=1), m=60, num_states=3, seed=2).values
        high = vals.copy()
        high[high[:, 2] == 0, 0] = 3
        low = vals.copy()
        low[5, 3] = -1
        cases = [(high, "column 0"), (low, "column 3"),
                 (vals.astype(float), "column 0"), (vals + 0.5, "column 0")]
        for values, column in cases:
            with pytest.raises(SynthError, match=column):
                SampleMatrix(values, "discrete", num_states=3)
        assert SampleMatrix(vals, "discrete", num_states=3).num_states == 3
        # a state count follows the integer rule: 2.5 is not read as 2 states
        for bad in (2.5, 3.0, np.float64(3.0), True, "3", None, 1):
            with pytest.raises(SynthError, match="num_states must be an integer >= 2"):
                SampleMatrix(vals, "discrete", num_states=bad)
        # continuous values must be finite: a NaN would leave every query
        # on its column undecidable
        cont = np.random.default_rng(0).random((20, 4))
        for bad in (np.nan, np.inf, -np.inf):
            values = cont.copy()
            values[7, 2] = bad
            with pytest.raises(SynthError, match="column 2 holds a non-finite value"):
                SampleMatrix(values, "continuous")


class TestSampleMatrix:
    def test_equality_is_identity(self):
        # two matrices compare and hash as objects, not by their arrays,
        # whose elementwise == has no truth value
        a = SampleMatrix(np.zeros((3, 2)), "continuous")
        b = SampleMatrix(np.zeros((3, 2)), "continuous")
        assert a == a and a != b
        assert a in [a] and a not in [b]
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_zero_rows_are_refused(self, kind):
        values = np.zeros((0, 3), dtype=float if kind == "continuous" else np.int64)
        with pytest.raises(SynthError, match="no sample rows"):
            SampleMatrix(values, kind, num_states=None if kind == "continuous" else 3)

    def test_constant_columns(self):
        # by max == min: the std of a column of 0.1 is rounding noise, not
        # 0, and a column that differs in its last bit is not constant
        tenth = np.full(50, 0.1)
        last_bit = np.full(50, 1.0)
        last_bit[17] = np.nextafter(1.0, 2.0)
        rng = np.random.default_rng(3)
        assert tenth.std() != 0
        cont = SampleMatrix(np.column_stack([rng.random(50), tenth, last_bit]), "continuous")
        assert cont.constant.tolist() == [False, True, False]
        disc = np.column_stack([rng.integers(0, 3, 50), np.full(50, 2)])
        assert SampleMatrix(disc, "discrete", num_states=3).constant.tolist() == [False, True]
        # one sample makes every column constant
        one = SampleMatrix(rng.random((1, 4)), "continuous")
        assert one.constant.tolist() == [True] * 4
