import numpy as np
import pytest

from sada.citest import CiOracle
from sada.graph import Dag

# 9-variable reference graph: two valid 3/3/3 causal cuts, a collider chain
# through the middle layer, and marginally independent roots.
NINE_NODE_EDGES = [
    (0, 2), (0, 3), (1, 3), (1, 4),
    (2, 5), (2, 6), (3, 6), (3, 7), (4, 7), (4, 8),
]


def bits(ids):
    """The bitset of a collection of ids: bit w stands for variable w."""
    return sum(1 << int(w) for w in set(ids))


@pytest.fixture
def nine_node():
    return Dag(9, NINE_NODE_EDGES)


@pytest.fixture
def chain3():
    return Dag(3, [(0, 1), (1, 2)])


class TableOracle(CiOracle):
    """Scripted CI verdicts over ids 0..n-1: (u, v, z) triples listed in
    `independent` come back independent (p-value 1), everything else
    dependent (p-value 0). Order of u, v is ignored."""

    def __init__(self, independent=(), n=64):
        super().__init__(n)
        self._table = {(min(u, v), max(u, v), tuple(sorted(set(z)))) for u, v, z in independent}

    def _p_value(self, u, v, zt):
        return 1.0 if (u, v, zt) in self._table else 0.0


def random_small_dags(count=24, max_n=7, seed=20240817):
    """A spread of small DAGs across sizes and densities, for oracle checks."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, max_n + 1))
        edges = []
        for v in range(1, n):
            for u in range(v):
                if rng.random() < 0.4:
                    edges.append((u, v))
        out.append(Dag(n, edges))
    return out


def value_id(x):
    """A parametrize id naming a value and its type, so that 1.0 and
    np.float64(1.0), or True and np.True_, stay apart."""
    return f"{type(x).__module__}.{type(x).__name__}:{x}"


def relabelled(g, rng):
    """The same graph under a random permutation of the ids, so that the
    identity is no longer a topological order."""
    perm = rng.permutation(g.n)
    return Dag(g.n, [(int(perm[a]), int(perm[b])) for a, b in g.edges])
