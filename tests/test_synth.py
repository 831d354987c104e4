import numpy as np
import pytest

from sada.graph import Dag, generate_random_dag
from sada.synth import (
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

    def test_bad_arguments(self):
        g = Dag(2, [(0, 1)])
        with pytest.raises(SynthError):
            generate_linear_nongaussian(g, m=1, seed=0)
        with pytest.raises(SynthError):
            generate_linear_nongaussian(g, m=10, noise_weight=0.0, seed=0)
        with pytest.raises(SynthError):
            generate_linear_nongaussian(g, m=10, noise_weight=1.5, seed=0)

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
            assert np.all(table >= 0.05 - 1e-12)
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

    def test_bad_arguments(self):
        g = Dag(1)
        with pytest.raises(SynthError):
            generate_discrete(g, m=10, num_states=1, seed=0)
        with pytest.raises(SynthError):
            draw_random_cpts(g, 30, np.random.default_rng(0), floor=0.05)

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

    def test_num_states_override(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("v0,v1\n0,1\n1,0\n")
        back = load_samples(p, num_states=5)
        assert back.num_states == 5

    def test_format_errors(self, tmp_path):
        cases = [
            ("", 1),
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

    def test_kind_validation(self):
        with pytest.raises(SynthError):
            SampleMatrix(np.zeros((2, 2)), "weird")
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
