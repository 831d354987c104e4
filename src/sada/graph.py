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
    if type(x) is int:
        return x >= floor
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= floor


def check_count(x, floor, name, error) -> int:
    """x as an int; raise `error` unless `is_count(x, floor)`: the one
    wording of every count refusal, so a numpy count is stored as an int."""
    if type(x) is int and x >= floor:
        return x
    if not is_count(x, floor):
        raise error(f"{name} must be an integer >= {floor}, got {x!r}")
    return int(x)


def check_cap(x, error):
    """x as an int, or None for no cap; raise `error` unless it is None or a
    count of at least 0: the conditioning-size caps SadaConfig, the
    separator searches and the cleanup accept."""
    if not (x is None or is_count(x, 0)):
        raise error(f"max_cond must be None or an integer >= 0, got {x!r}")
    return x if x is None else int(x)


def is_real(x) -> bool:
    """True for a finite real number (numpy's included) that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def check_alpha_level(a, error):
    """a, as given; raise `error` unless it is a real number, not a bool,
    strictly between 0 and 1: the levels a CI test and SadaConfig accept."""
    if not (is_real(a) and 0.0 < a < 1.0):
        raise error(f"alpha_level must be a real number in (0, 1), got {a!r}")
    return a


def check_id(w, n, error) -> int:
    """w as an int; raise `error` unless it is a variable id in 0..n-1. An
    id follows the count rule: a bool or a float, even a whole one, is
    refused rather than truncated."""
    if not is_count(w, -math.inf):
        raise error(f"variable id must be an integer, got {w!r}")
    if not 0 <= w < n:
        raise error(f"variable id {w} out of range for n={n}")
    return int(w)


def checked_ids(u, v, z, n, error) -> tuple:
    """(u, v, zt) as ints, zt the distinct ids of z ascending, once u, v and
    every member of z are variable ids of 0..n-1 by `check_id`, u and v are
    distinct and z holds neither; otherwise raise `error`. z is an iterable
    of ids: an int is refused, not read as a bitset.

    The ids a scan builds, u and v distinct ints in range and z a tuple of
    strictly ascending ints in range that holds neither, are returned as
    they are: the full rule would give the same value."""
    if (type(u) is int and type(v) is int and type(z) is tuple and u != v
            and 0 <= u < n and 0 <= v < n):
        last = -1
        for w in z:
            if type(w) is not int or w <= last or w == u or w == v:
                break
            last = w
        else:
            if last < n:
                return u, v, z
    try:
        zt = tuple(z)
    except TypeError:
        hint = ", not a bitset" if isinstance(z, numbers.Integral) else ""
        raise error(f"z must be an iterable of variable ids{hint}, got {z!r}") from None
    u, v, *zt = [check_id(x, n, error) for x in (u, v) + zt]
    if u == v:
        raise error("need two distinct variables")
    zt = tuple(sorted(set(zt)))
    if u in zt or v in zt:
        raise error("conditioning set must exclude the queried pair")
    return u, v, zt


def bit_ids(bits: int) -> list:
    """The ids of a bitset's members (bit w for variable w), ascending."""
    ids = []
    while bits:
        low = bits & -bits
        ids.append(low.bit_length() - 1)
        bits ^= low
    return ids


def pair_ids(flat, n) -> tuple:
    """The pairs (i, j), i < j < n, at the indices `flat` of their row-major
    order, as two int64 arrays. Row i starts at index i * (2n - 1 - i) / 2,
    so i is the floor of the smaller root of that quadratic: the root is
    exact at a row start and lies over 1/n from an integer elsewhere, far
    beyond its float error while n < 10^7."""
    flat = np.asarray(flat, dtype=np.int64)
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8 * flat)) / 2).astype(np.int64)
    return i, flat - i * (b - i) // 2 + i + 1


def kahn_sweep(children, size, nodes):
    """Kahn's algorithm over ids 0..size-1: `children` maps a node to its
    children (one with none may be missing), and the sweep starts from the
    members of `nodes` that are no one's child, smallest ready id first.
    Indegrees are counted from `children`, so the sweep's steps follow its
    edges and `nodes`, not every id below `size`. Returns (order, anc),
    anc[x] the bitset of the nodes that reach x, whole once x is placed and
    pushed to its children then, or None when a cycle leaves an indegree
    undrained."""
    indegree = [0] * size
    for kids in children.values():
        for y in kids:
            indegree[y] += 1
    anc = [0] * size
    ready = [x for x in nodes if not indegree[x]]
    heapq.heapify(ready)
    order = []
    while ready:
        x = heapq.heappop(ready)
        order.append(x)
        up = anc[x] | (1 << x)
        for y in children.get(x, ()):
            anc[y] |= up
            indegree[y] -= 1
            if not indegree[y]:
                heapq.heappush(ready, y)
    return None if any(indegree) else (order, anc)


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
    """Immutable DAG over variables 0..n-1, complete at construction.

    Parent and neighbour (parent or child) sets are Python ints used as
    bitsets. The topological order and the ancestor and descendant closures
    are built once, in the constructor, and shared by every query on the
    instance. The one cache, `_dsep_cache`, maps (u, z & An(u)) to u's
    moral component there and its descendants (see `_separated_side`).
    """

    __slots__ = ("n", "edges", "_order", "_pa_bits", "_nb_bits", "_anc", "_desc",
                 "_dsep_cache")

    def __init__(self, n: int, edges=()):
        n = check_count(n, 0, "n", GraphError)
        pairs = set()
        pa = [0] * n
        # parents and children: a node's neighbours in the skeleton
        nb = [0] * n
        children = {}
        for u, v in edges:
            u, v = check_id(u, n, GraphError), check_id(v, n, GraphError)
            if u == v:
                raise GraphError(f"self loop at {u}")
            if (u, v) in pairs:
                raise GraphError(f"duplicate edge ({u}, {v})")
            pairs.add((u, v))
            pa[v] |= 1 << u
            nb[u] |= 1 << v
            nb[v] |= 1 << u
            children.setdefault(u, []).append(v)
        swept = kahn_sweep(children, n, range(n))
        if swept is None:
            raise CycleError("edge set contains a directed cycle")
        order, anc = swept
        self.n = n
        self.edges = frozenset(pairs)
        self._order = tuple(order)
        self._pa_bits = pa
        self._nb_bits = nb
        self._anc = anc
        self._desc = desc = [0] * n
        for v in reversed(order):
            for c in children.get(v, ()):
                desc[v] |= desc[c] | (1 << c)
        self._dsep_cache = {}

    def parents(self, v: int) -> tuple:
        return tuple(bit_ids(self._pa_bits[check_id(v, self.n, GraphError)]))

    def topological_order(self) -> list:
        """Kahn's order with ties broken by smallest id, as a new list."""
        return list(self._order)

    def d_separated(self, u: int, v: int, z) -> bool:
        """Lauritzen's moral-graph criterion: u and v are d-separated by z
        exactly when they are disconnected in the moral graph of the
        ancestral set An({u, v} | z) once z is removed. The ids pass
        `checked_ids` first. A z within An(u) | An(v) is the side test of
        {v}; any other z takes one search on bitset frontiers confined to
        that set, so a query costs time in its size rather than in n.
        """
        u, v, zt = checked_ids(u, v, z, self.n, GraphError)
        z_bits = sum(1 << w for w in zt)
        if z_bits & ~(self._anc[u] | self._anc[v]):
            return not self._connected_bits(u, 1 << v, z_bits)
        return self._separated_side(u, 1 << v, z_bits)

    def _separated_side(self, u: int, vs: int, candidates: int) -> bool:
        """Whether u is d-separated from every member v of the bitset vs by
        zu | zv, zu = candidates & An(u) and zv = candidates & An(v); vs and
        candidates are disjoint and hold no u.

        With An*(x) for x and its ancestors, the moral graph of An*(u) |
        An*(v) is the union of those of An*(u) and An*(v): each edge and
        marriage lies in its child's ancestral set. R_u is u's component in
        the first without zu, D_u is R_u and its descendants, one cached
        read for the whole side. A member adjacent to u or in R_u is
        connected, so one bitset test refuses the side from u's part alone.
        A u-v path leaves R_u by an edge of the second, from a node of
        An*(v); so v outside D_u (or u outside D_v) means separated, and R_u
        meeting R_v means connected. Anything else takes one search from u
        to v.
        """
        anc, cache = self._anc, self._dsep_cache
        zu = candidates & anc[u]
        ru, du = cache.get((u, zu)) or self._component(u, zu)
        if vs & (self._nb_bits[u] | ru):
            return False
        todo = vs & du
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            zv = candidates & anc[v]
            rv, dv = cache.get((v, zv)) or self._component(v, zv)
            if (dv >> u) & 1 and (ru & rv or self._connected_bits(u, low, zu | zv)):
                return False
        return True

    def _component(self, u: int, z_bits: int) -> tuple:
        """(R_u, D_u) for z_bits within An(u): u's component in the moral
        graph of An*(u) without z_bits, and it with all its descendants,
        cached under (u, z_bits)."""
        hit = self._dsep_cache.get((u, z_bits))
        if hit is None:
            inside = self._anc[u] | (1 << u)
            comp = self._connected_bits(u, inside & ~z_bits, z_bits, inside)
            desc, below, rest = self._desc, 0, comp
            while rest:
                low = rest & -rest
                rest ^= low
                # a member below one already taken adds no descendant
                if not below & low:
                    below |= desc[low.bit_length() - 1]
            hit = self._dsep_cache[u, z_bits] = (comp, comp | below)
        return hit

    def _ancestral_set(self, u: int, bits: int) -> int:
        """An({u} | bits), the nodes and their ancestors, as a bitset."""
        anc = self._anc
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
    n = check_count(n, 1, "n", GraphError)
    if not (is_real(avg_in_degree) and avg_in_degree >= 0):
        raise GraphError(f"average in-degree must be a finite real number >= 0, "
                         f"got {avg_in_degree!r}")
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
