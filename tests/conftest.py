import numpy as np
import pytest

from sada.citest import CiOracle, CiVerdict
from sada.graph import Dag

# 9-variable reference graph: two valid 3/3/3 causal cuts, a collider chain
# through the middle layer, and marginally independent roots.
NINE_NODE_EDGES = [
    (0, 2), (0, 3), (1, 3), (1, 4),
    (2, 5), (2, 6), (3, 6), (3, 7), (4, 7), (4, 8),
]


@pytest.fixture
def nine_node():
    return Dag(9, NINE_NODE_EDGES)


@pytest.fixture
def chain3():
    return Dag(3, [(0, 1), (1, 2)])


class TableOracle(CiOracle):
    """Scripted CI verdicts: (u, v, z) triples listed in `independent` come
    back independent, everything else dependent. Order of u, v is ignored."""

    def __init__(self, independent=()):
        self._table = {(min(u, v), max(u, v), frozenset(z)) for u, v, z in independent}

    def query(self, u, v, z=()):
        hit = (min(u, v), max(u, v), frozenset(z)) in self._table
        return CiVerdict(hit, 1.0 if hit else 0.0)


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


def relabelled(g, rng):
    """The same graph under a random permutation of the ids, so that the
    identity is no longer a topological order."""
    perm = rng.permutation(g.n)
    return Dag(g.n, [(int(perm[a]), int(perm[b])) for a, b in g.edges])
