"""Directed acyclic graphs: construction, random generation, reachability,
d-separation, and a plain-text edge-list format.

Variable ids are dense 0-based integers everywhere, files included.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np

VariableId = int


class GraphError(ValueError):
    """Structural problem with a graph or a query against it."""


class CycleError(GraphError):
    """Edge set contains a directed cycle."""


class EdgeListParseError(GraphError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def is_count(x, floor) -> bool:
    """True for an integral number (numpy integers included) of at least
    floor; a float is refused even when whole, and a bool is no count."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= floor


def check_id(w, n, error) -> None:
    """Raise `error` unless w is a variable id in 0..n-1. An id follows the
    count rule: a bool or a float, even a whole one, is refused rather than
    truncated."""
    if not is_count(w, -math.inf):
        raise error(f"variable id must be an integer, got {w!r}")
    if not 0 <= w < n:
        raise error(f"variable id {w} out of range for n={n}")


def bit_ids(bits: int) -> list:
    """The ids of a bitset's members (bit w for variable w), ascending."""
    ids = []
    while bits:
        low = bits & -bits
        ids.append(low.bit_length() - 1)
        bits ^= low
    return ids


@dataclass(frozen=True)
class CausalCut:
    """A partition (left, cut_set, right) of a variable set.

    Every path between left and right passes through cut_set; the two sides
    share no variable with each other or with the cut set.
    """

    left: frozenset
    cut_set: frozenset
    right: frozenset

    def __post_init__(self):
        if self.left & self.right or self.left & self.cut_set or self.right & self.cut_set:
            raise GraphError("cut blocks must be pairwise disjoint")

    @property
    def min_side(self) -> int:
        return min(len(self.left), len(self.right))


class Dag:
    """Immutable DAG over variables 0..n-1 with bitset-backed queries.

    Parent and neighbour (parent or child) sets are also kept as Python ints
    used as bitsets, and so is the ancestor closure, which is built lazily
    and shared by every d-separation query on the instance.
    """

    __slots__ = ("n", "edges", "_parents", "_children", "_pa_bits", "_nb_bits",
                 "_anc", "_dsep_cache")

    def __init__(self, n: int, edges=()):
        if not is_count(n, 0):
            raise GraphError(f"variable count must be a nonnegative integer, got {n!r}")
        edge_list = []
        seen = set()
        for u, v in edges:
            check_id(u, n, GraphError)
            check_id(v, n, GraphError)
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self loop at {u}")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            edge_list.append((u, v))
        parents = [[] for _ in range(n)]
        children = [[] for _ in range(n)]
        for u, v in edge_list:
            parents[v].append(u)
            children[u].append(v)
        self.n = n
        self.edges = frozenset(edge_list)
        self._parents = tuple(tuple(sorted(p)) for p in parents)
        self._children = tuple(tuple(sorted(c)) for c in children)
        self._pa_bits = [sum(1 << p for p in ps) for ps in parents]
        # parents and children: a node's neighbours in the skeleton
        self._nb_bits = [pb | sum(1 << c for c in cs)
                         for pb, cs in zip(self._pa_bits, children)]
        self._anc = None
        self._dsep_cache = {}
        self.topological_order()  # rejects cycles at construction time

    def parents(self, v: VariableId) -> tuple:
        return self._parents[v]

    def topological_order(self) -> list:
        """Kahn's algorithm; ties broken by smallest id, so the order is
        deterministic for a given edge set."""
        indeg = [len(self._parents[v]) for v in range(self.n)]
        ready = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) != self.n:
            raise CycleError("edge set contains a directed cycle")
        return order

    def _ancestor_bits(self):
        if self._anc is None:
            anc = [0] * self.n
            for v in self.topological_order():
                a = 0
                for p in self._parents[v]:
                    a |= anc[p] | (1 << p)
                anc[v] = a
            self._anc = anc
        return self._anc

    def d_separated(self, u: VariableId, v: VariableId, z) -> bool:
        """Lauritzen's moral-graph criterion: u and v are d-separated by z
        exactly when they are disconnected in the moral graph of the
        ancestral set An({u, v} | z) once z is removed. The search runs on
        bitset frontiers confined to that set, so a query costs time in its
        size rather than in n.
        """
        zs = tuple(z)
        for w in (u, v, *zs):
            check_id(w, self.n, GraphError)
        u, v, zs = int(u), int(v), {int(w) for w in zs}
        if u == v:
            raise GraphError("d-separation query needs two distinct variables")
        z_bits = sum(1 << w for w in zs)
        if (z_bits >> u) & 1 or (z_bits >> v) & 1:
            raise GraphError("conditioning set must exclude the queried pair")
        return self._d_separated_bits(u, v, z_bits)

    def _d_separated_bits(self, u: int, v: int, z_bits: int) -> bool:
        if u > v:
            u, v = v, u
        key = (u, v, z_bits)
        cached = self._dsep_cache.get(key)
        if cached is None:
            cached = self._dsep_cache[key] = not self._connected_bits(u, 1 << v, z_bits)
        return cached

    def _ancestral_set(self, u: int, bits: int) -> int:
        """An({u} | bits), the nodes and their ancestors, as a bitset."""
        anc = self._ancestor_bits()
        inside = (1 << u) | anc[u]
        # a node already inside brings no new ancestors
        rest = bits & ~inside
        while rest:
            w = rest.bit_length() - 1
            inside |= anc[w] | (1 << w)
            rest &= ~inside
        return inside

    def _connected_bits(self, u: int, targets: int, z_bits: int, inside=None) -> int:
        """The members of the bitset `targets` that u reaches in the moral
        graph of An({u} | targets | z) with z removed, by breadth-first
        search; it stops once every target is reached. z must hold neither
        u nor a target. `inside` is that ancestral set, if the caller has it.

        A moral edge through a common child outside z is never needed: the
        path through that child is open too. So a node reaches its
        neighbours inside the ancestral set, and the parents of each child
        of a reached node that lies in z.
        """
        if inside is None:
            inside = self._ancestral_set(u, targets | z_bits)
        pa, nb = self._pa_bits, self._nb_bits
        allowed = inside & ~z_bits
        seen = frontier = 1 << u
        married = 0  # members of z whose parents have joined the search
        while frontier:
            step = 0
            rest = frontier
            while rest:
                low = rest & -rest
                rest ^= low
                step |= nb[low.bit_length() - 1]
            # a child of the frontier that lies in z is blocked, but its
            # parents are moral neighbours of the frontier
            rest = step & z_bits & ~married
            while rest:
                low = rest & -rest
                rest ^= low
                c = low.bit_length() - 1
                if pa[c] & frontier:
                    married |= low
                    step |= pa[c]
            frontier = step & allowed & ~seen
            seen |= frontier
            if not targets & ~seen:
                break
        return seen & targets

    def __eq__(self, other):
        return isinstance(other, Dag) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Dag(n={self.n}, edges={sorted(self.edges)})"


def generate_random_dag(n: int, avg_in_degree: float, seed) -> Dag:
    """Random DAG in which variable i draws its parent count from the two-point
    distribution on {floor(d), ceil(d)} with mean d = avg_in_degree, capped at
    i, and picks that many parents uniformly without replacement from 0..i-1.

    The identity permutation is the topological order by construction.
    """
    if not is_count(n, 1):
        raise GraphError(f"need at least one variable, got n={n!r}")
    if not math.isfinite(avg_in_degree):
        raise GraphError(f"average in-degree must be finite, got {avg_in_degree}")
    if avg_in_degree < 0:
        raise GraphError(f"average in-degree must be nonnegative, got {avg_in_degree}")
    rng = np.random.default_rng(seed)
    lo = math.floor(avg_in_degree)
    hi = math.ceil(avg_in_degree)
    p_hi = avg_in_degree - lo
    edges = []
    for child in range(1, n):
        r = hi if (p_hi > 0 and rng.random() < p_hi) else lo
        k = min(r, child)
        if k > 0:
            for p in rng.choice(child, size=k, replace=False):
                edges.append((int(p), child))
    return Dag(n, edges)


def save_dag(g: Dag, path) -> None:
    """Write one `parent child` pair per line, sorted. The `n=<count>` header
    appears only when the edges alone underdetermine the variable count."""
    top = max((max(u, v) for u, v in g.edges), default=-1)
    with open(path, "w") as fh:
        if top + 1 != g.n:
            fh.write(f"n={g.n}\n")
        for u, v in sorted(g.edges):
            fh.write(f"{u} {v}\n")


def load_dag(path) -> Dag:
    """Parse the edge-list format; the `n=` header is optional and the count
    defaults to max id + 1. A malformed line, a negative count, an id at or
    past the header's count, a self loop or a repeated edge raises
    EdgeListParseError with the line number; a cycle, which no one line
    holds, raises CycleError."""
    n = None
    edges = {}  # the edges in file order, as an ordered set
    max_id = -1
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("n="):
                if n is not None:
                    raise EdgeListParseError("repeated n= header", line_no)
                if edges:
                    raise EdgeListParseError("n= header must precede edges", line_no)
                try:
                    n = int(line[2:])
                except ValueError:
                    raise EdgeListParseError(f"bad count {line[2:]!r}", line_no) from None
                if n < 0:
                    raise EdgeListParseError(f"negative count {n}", line_no)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListParseError(f"expected two ids, got {len(parts)}", line_no)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(f"non-integer id in {line!r}", line_no) from None
            if u < 0 or v < 0:
                raise EdgeListParseError(f"negative id in {line!r}", line_no)
            if n is not None and max(u, v) >= n:
                raise EdgeListParseError(f"id {max(u, v)} out of range for n={n}", line_no)
            if u == v:
                raise EdgeListParseError(f"self loop at {u}", line_no)
            if (u, v) in edges:
                raise EdgeListParseError(f"duplicate edge ({u}, {v})", line_no)
            edges[u, v] = None
            max_id = max(max_id, u, v)
    if n is None:
        n = max_id + 1
    return Dag(n, edges)
