import itertools

import numpy as np
import pytest

from sada.graph import (
    CausalCut,
    CycleError,
    Dag,
    EdgeListParseError,
    GraphError,
    bit_ids,
    generate_random_dag,
    kahn_sweep,
    load_dag,
    save_dag,
)
from sada.citest import ExactCiOracle

from conftest import random_small_dags, relabelled, value_id
from oracles import (
    brute_force_d_separated,
    closure_by_squaring,
    descendants,
    expected_edge_count,
    kahn_sweep_reference,
    moral_d_separated,
    moral_reached,
)


class TestConstruction:
    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Dag(2, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            Dag(2, [(0, 1), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Dag(2, [(0, 5)])

    @pytest.mark.parametrize("bad", [0.9, 1.0, np.float64(2.0), True, np.bool_(True), "1", None],
                             ids=value_id)
    def test_non_integral_id_is_refused(self, bad):
        # an id is an int or a numpy integer; anything else is refused, not
        # truncated, in an edge, a d-separation pair or its conditioning set
        g = Dag(3, [(0, 1)])
        for call in (lambda: Dag(3, [(bad, 2)]), lambda: Dag(3, [(2, bad)]),
                     lambda: g.d_separated(bad, 2, []), lambda: g.d_separated(2, bad, []),
                     lambda: g.d_separated(0, 2, [bad])):
            with pytest.raises(GraphError, match="variable id must be an integer"):
                call()
        assert g.d_separated(np.int64(0), np.int32(2), [np.int64(1)])
        assert Dag(3, [(np.int64(0), np.uint8(2))]).edges == {(0, 2)}

    @pytest.mark.parametrize("bad", [-1, 3, True, 1.0, "1"], ids=value_id)
    def test_parents_refuses_a_bad_id(self, bad):
        # before, -1 wrapped round to node 2's parents, True answered for
        # node 1 and 1.0 raised a bare TypeError
        g = Dag(3, [(0, 2)])
        with pytest.raises(GraphError, match="variable id"):
            g.parents(bad)
        assert g.parents(np.int64(2)) == (0,) and g.parents(1) == ()

    def test_non_integral_count_is_refused(self):
        for bad in (2.0, True, "3"):
            with pytest.raises(GraphError, match="n must be an integer >= 0"):
                Dag(bad)
            with pytest.raises(GraphError, match="n must be an integer >= 1"):
                generate_random_dag(bad, 1.0, seed=0)

    def test_empty_graph(self):
        g = Dag(4)
        assert len(g.edges) == 0
        assert g.topological_order() == [0, 1, 2, 3]

    def test_cut_blocks_must_be_disjoint(self):
        with pytest.raises(GraphError):
            CausalCut(frozenset({0, 1}), frozenset({1}), frozenset({2}))
        cut = CausalCut(frozenset({0}), frozenset({1}), frozenset({2, 3}))
        assert cut.min_side == 1


class TestGenerator:
    def test_single_node(self):
        g = generate_random_dag(1, 3.0, seed=0)
        assert g.n == 1 and len(g.edges) == 0

    def test_two_nodes_degree_one(self):
        # the cap min(r, i) forces the single possible edge
        g = generate_random_dag(2, 1.0, seed=7)
        assert g.edges == frozenset({(0, 1)})

    def test_identity_is_topological(self):
        g = generate_random_dag(40, 1.5, seed=3)
        assert all(u < v for u, v in g.edges)

    def test_deterministic_given_seed(self):
        a = generate_random_dag(30, 1.25, seed=11)
        b = generate_random_dag(30, 1.25, seed=11)
        c = generate_random_dag(30, 1.25, seed=12)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_in_degree_two_point_support(self):
        g = generate_random_dag(200, 1.5, seed=5)
        degrees = [len(g.parents(v)) for v in range(2, 200)]
        assert set(degrees) <= {1, 2}

    def test_mean_edge_count_matches_exact_expectation(self):
        # frozen from the expectation oracle: 0 + 1 + 98 * 1.25
        exact = expected_edge_count(100, 1.25)
        assert exact == 123.5
        counts = [len(generate_random_dag(100, 1.25, seed=s).edges) for s in range(600)]
        mean = float(np.mean(counts))
        # SE of the mean is about 0.18 here; 0.6 is a 3.4-sigma gate
        assert abs(mean - exact) < 0.6
        assert 122.0 <= mean <= 128.0

    def test_bad_arguments(self):
        with pytest.raises(GraphError):
            generate_random_dag(0, 1.0, seed=0)
        # a negative or non-finite in-degree is refused, naming it; inf and
        # nan would otherwise fail inside math.floor
        # a bool or a non-number is refused by type rather than read as
        # 1.0 or left to fail inside math with a bare TypeError
        for bad in (-0.5, float("inf"), float("-inf"), float("nan"), True, "1", None, [1]):
            with pytest.raises(GraphError, match="in-degree must be a finite real number >= 0"):
                generate_random_dag(5, bad, seed=0)


class TestTopologicalOrder:
    def test_chain(self, chain3):
        assert chain3.topological_order() == [0, 1, 2]

    def test_parents_precede_children(self):
        for g in random_small_dags(12):
            pos = {v: i for i, v in enumerate(g.topological_order())}
            for u, v in g.edges:
                assert pos[u] < pos[v]


def smallest_ready_order(n, edges):
    """The topological order from the edge set alone: at each step, the
    smallest id whose parents are all placed."""
    parents = [{u for u, w in edges if w == v} for v in range(n)]
    order, placed = [], set()
    while len(order) < n:
        v = min(v for v in range(n) if v not in placed and parents[v] <= placed)
        order.append(v)
        placed.add(v)
    return order


class TestKahnSweep:
    """`kahn_sweep` counts indegrees from its children map and returns what
    the sweep over every id's parent bitset returns: the same order and
    closure, or None for a cycle."""

    def _case(self, rng, cyclic):
        """(edges, size): a random edge set over a few ids spread below a
        high size, acyclic along a random order unless `cyclic` adds back
        edges."""
        size = int(rng.integers(1, 600))
        ids = [int(x) for x in rng.choice(size, int(rng.integers(1, min(size, 30) + 1)),
                                          replace=False)]
        p = float(rng.uniform(0.05, 0.4))
        edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < p]
        if cyclic:
            edges += [(b, a) for a, b in edges if rng.random() < 0.1]
        rng.shuffle(edges)
        return edges, size

    @pytest.mark.parametrize("kind", ["dag", "cleanup"])
    def test_matches_the_sweep_over_every_id(self, kind):
        rng = np.random.default_rng([2032, kind == "dag"])
        outcomes = set()
        for case in range(300):
            edges, size = self._case(rng, cyclic=case % 2 == 1)
            children, parents = {}, [0] * size
            for a, b in edges:
                if kind == "dag":
                    # as Dag builds them: child lists in edge order
                    children.setdefault(a, []).append(b)
                else:
                    # as the merge cleanup builds them: child sets
                    children.setdefault(a, set()).add(b)
                parents[b] |= 1 << a
            nodes = range(size) if kind == "dag" else children
            want = kahn_sweep_reference(children, parents, nodes)
            assert kahn_sweep(children, size, nodes) == want, (case, edges, size)
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_orders_every_dag_as_before(self):
        rng = np.random.default_rng(2033)
        for g in random_small_dags(count=30, max_n=12):
            g = relabelled(g, rng)
            children, parents = {}, [0] * g.n
            for a, b in sorted(g.edges):
                children.setdefault(a, []).append(b)
                parents[b] |= 1 << a
            order, anc = kahn_sweep_reference(children, parents, range(g.n))
            assert g.topological_order() == order and g._anc == anc


class TestBuiltFacts:
    """What a Dag builds at construction, against references from its edges:
    the order and its tie-break, the parents and the ancestor closure."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 200])
    def test_match_references(self, n):
        rng = np.random.default_rng(n)
        for seed in range(4):
            g = relabelled(generate_random_dag(n, 1.5, seed=seed), rng) if n else Dag(0)
            assert g.topological_order() == smallest_ready_order(n, g.edges)
            closure = closure_by_squaring(g)
            anc = g._anc
            for v in range(n):
                assert anc[v] == sum(1 << u for u in range(n) if closure[u, v])
                assert g.parents(v) == tuple(sorted(u for u, w in g.edges if w == v))

    def test_returned_order_is_a_copy(self):
        g = relabelled(generate_random_dag(7, 1.5, seed=1), np.random.default_rng(2))
        order = g.topological_order()
        want = list(order)
        order.reverse()
        order.append(99)
        assert g.topological_order() == want == smallest_ready_order(7, g.edges)

    def test_cycle_behind_a_root_raises(self):
        # the order places 0 before it stalls on the cycle 1 -> 2 -> 3 -> 1
        with pytest.raises(CycleError):
            Dag(4, [(0, 1), (1, 2), (2, 3), (3, 1)])


class TestReachable:
    """Directed reachability in the brute-force d-separation reference: its
    descendants walk against the matrix closure."""

    def test_chain(self, chain3):
        assert descendants(chain3, 0) == {1, 2}
        assert descendants(chain3, 2) == set()
        assert 0 not in descendants(chain3, 0)

    def test_matches_matrix_closure(self):
        for g in random_small_dags(20):
            closure = closure_by_squaring(g)
            for u in range(g.n):
                assert descendants(g, u) == {v for v in range(g.n) if v != u and closure[u, v]}


class TestDSeparation:
    def test_chain_blocked_by_middle(self, chain3):
        assert not chain3.d_separated(0, 2, ())
        assert chain3.d_separated(0, 2, (1,))

    def test_fork(self):
        g = Dag(3, [(1, 0), (1, 2)])
        assert not g.d_separated(0, 2, ())
        assert g.d_separated(0, 2, (1,))

    def test_collider(self):
        g = Dag(3, [(0, 1), (2, 1)])
        assert g.d_separated(0, 2, ())
        assert not g.d_separated(0, 2, (1,))

    def test_collider_descendant_opens(self):
        g = Dag(4, [(0, 1), (2, 1), (1, 3)])
        assert g.d_separated(0, 2, ())
        assert not g.d_separated(0, 2, (3,))

    def test_adjacent_never_separated(self, nine_node):
        for u, v in nine_node.edges:
            others = set(range(9)) - {u, v}
            for size in range(3):
                for z in itertools.combinations(sorted(others), size):
                    assert not nine_node.d_separated(u, v, z)

    def test_nine_node_reference_facts(self, nine_node):
        g = nine_node
        # roots collide at 3, so they are marginally independent
        assert g.d_separated(0, 1, ())
        assert not g.d_separated(0, 1, (3,))
        # 6 and 1: chain through 3 blocked, but conditioning on 3 opens the
        # collider route through 2 and 0, so no subset of {3} separates
        assert not g.d_separated(6, 1, ())
        assert not g.d_separated(6, 1, (3,))
        assert g.d_separated(6, 1, (2, 3))
        # far corners separate marginally
        assert g.d_separated(5, 8, ())
        assert g.d_separated(2, 1, ())
        assert g.d_separated(4, 0, ())

    def test_validation(self, chain3):
        with pytest.raises(GraphError):
            chain3.d_separated(0, 0, ())
        with pytest.raises(GraphError):
            chain3.d_separated(0, 2, (0,))
        with pytest.raises(GraphError):
            chain3.d_separated(0, 9, ())

    @pytest.mark.parametrize("z", [2, np.int64(2), True], ids=value_id)
    def test_bitset_conditioning_set_is_refused(self, chain3, z):
        # z is an iterable of ids; the bitset form the searches take is refused
        with pytest.raises(GraphError, match="z must be an iterable of variable ids, not a bitset"):
            chain3.d_separated(0, 2, z)
        assert not chain3._dsep_cache

    def test_agrees_with_path_enumeration_exhaustively(self, nine_node):
        graphs = random_small_dags(24) + [
            Dag(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
            Dag(5, [(0, 2), (1, 2), (2, 3), (2, 4)]),
            Dag(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]),
        ]
        for g in graphs:
            for u, v in itertools.combinations(range(g.n), 2):
                others = sorted(set(range(g.n)) - {u, v})
                for size in range(len(others) + 1):
                    for z in itertools.combinations(others, size):
                        assert g.d_separated(u, v, z) == brute_force_d_separated(g, u, v, z), (
                            g, u, v, z)
        # spot-check the nine-node reference graph against the enumerator as well
        for u, v in itertools.combinations(range(9), 2):
            for z in ((), (3,), (2, 3), (3, 6)):
                if u in z or v in z:
                    continue
                assert nine_node.d_separated(u, v, z) == brute_force_d_separated(
                    nine_node, u, v, z)


class TestConnectedBits:
    def test_matches_moral_graph_search(self):
        # the set search returns exactly the targets u reaches in the moral
        # graph of An({u} | targets | z) without z, with z drawn both from
        # the ancestors of u and the targets and from anywhere else. That
        # holds every target d-connected to u given z, and maybe more: the
        # other targets' ancestors add moral edges. Alone, a target is
        # reached exactly when it is d-connected to u.
        rng = np.random.default_rng(1990)
        graphs = random_small_dags(24, max_n=9, seed=11) + [
            relabelled(generate_random_dag(40, 1.5, seed=s), rng) for s in range(3)]
        z_outside = {True: 0, False: 0}
        reached = {True: 0, False: 0}
        extra = 0
        for g in graphs:
            anc = g._anc
            for trial in range(40):
                u = int(rng.integers(g.n))
                others = [w for w in range(g.n) if w != u]
                targets = [int(x) for x in rng.choice(
                    others, int(rng.integers(0, len(others) + 1)), replace=False)]
                t_bits = sum(1 << t for t in targets)
                cover = anc[u] | t_bits
                for t in targets:
                    cover |= anc[t]
                free = [w for w in others if w not in targets]
                if trial % 2:
                    free = [w for w in free if (cover >> w) & 1]
                z = [int(x) for x in rng.choice(
                    free, int(rng.integers(0, len(free) + 1)), replace=False)] if free else []
                z_bits = sum(1 << w for w in z)
                got = g._connected_bits(u, t_bits, z_bits)
                assert got == sum(1 << t for t in moral_reached(g, u, targets, z)), (
                    g, u, targets, z)
                for t in targets:
                    connected = not moral_d_separated(g, u, t, z)
                    assert g._connected_bits(u, 1 << t, z_bits) == connected << t
                    assert not connected or (got >> t) & 1
                    reached[connected] += 1
                    extra += not connected and (got >> t) & 1
                z_outside[any(not (cover >> w) & 1 for w in z)] += 1
        assert z_outside[True] and z_outside[False]
        assert reached[True] and reached[False] and extra


class TestDSeparationAtScale:
    """The bitset moral-graph search against the independent reference, on
    larger relabelled graphs than path enumeration can handle."""

    @pytest.mark.parametrize("n", [30, 120])
    def test_agrees_with_ancestral_moral_graph(self, n):
        rng = np.random.default_rng(1990 + n)
        through_collider = {True: 0, False: 0}
        for d in (1.25, 2.0):
            g = relabelled(generate_random_dag(n, d, seed=rng), rng)
            assert g.topological_order() != list(range(n))
            queries = []
            for _ in range(150):
                u, v = (int(x) for x in rng.choice(n, 2, replace=False))
                others = [w for w in range(n) if w not in (u, v)]
                k = int(rng.integers(0, 7))
                queries.append((u, v, [int(x) for x in rng.choice(others, k, replace=False)]))
            # a parent of a collider against its co-parent or a node outside
            # the collider's descendants, given a strict descendant of the
            # collider and possibly more: the collider opens only through z
            below_of = [descendants(g, c) for c in range(n)]
            colliders = [c for c in range(n) if len(g.parents(c)) >= 2 and below_of[c]]
            for j in range(100):
                c = colliders[int(rng.integers(len(colliders)))]
                u, v = (int(x) for x in rng.choice(g.parents(c), 2, replace=False))
                if j % 2:
                    v = int(rng.choice([w for w in range(n)
                                        if w not in (u, c) and w not in below_of[c]]))
                below = sorted(below_of[c] - {u, v})
                z = {below[int(rng.integers(len(below)))]}
                others = [w for w in range(n) if w not in (u, v) and w not in z]
                z.update(int(x) for x in rng.choice(others, int(rng.integers(0, 6)), replace=False))
                queries.append((u, v, sorted(z)))
            for i, (u, v, z) in enumerate(queries):
                got = g.d_separated(u, v, z)
                assert got == moral_d_separated(g, u, v, z), (n, d, u, v, z)
                if i >= 150:
                    through_collider[got] += 1
        # the collider queries exercise both verdicts
        assert through_collider[True] and through_collider[False]


def _component_reference(g, u, z):
    """u's component in the moral graph of An*(u) without z (z within An(u)),
    and that component with its descendants, as bitsets, from the
    reference search."""
    inside = [w for w in range(g.n) if (g._anc[u] >> w) & 1 and w not in z]
    comp = {u} | moral_reached(g, u, inside, z)
    below = set(comp)
    for w in comp:
        below |= descendants(g, w)
    return sum(1 << w for w in comp), sum(1 << w for w in below)


class TestComponentDSeparation:
    """`d_separated` decides a z within An(u) | An(v) by `_separated_side`,
    from cached moral components of u and v in their own ancestral sets,
    and any other z by one pair search."""

    @pytest.mark.parametrize("n", [30, 120])
    def test_matches_moral_graph_reference(self, n):
        # z from An(u) | An(v), from anywhere, and for adjacent pairs; each
        # query within the ancestors is classed by the reference components,
        # and pinned to the cache entries it adds
        rng = np.random.default_rng(2026 + n)
        outcomes = dict.fromkeys(("outside", "adjacent", "in R_u", "u side", "v side",
                                  "shared", "pair search"), 0)
        for d in (1.25, 2.0):
            g = relabelled(generate_random_dag(n, d, seed=rng), rng)
            anc = g._anc
            for trial in range(600):
                if trial % 3 == 2:
                    u, v = (int(x) for x in sorted(g.edges)[int(rng.integers(len(g.edges)))])
                else:
                    u, v = (int(x) for x in rng.choice(n, 2, replace=False))
                pool = [w for w in range(n) if w not in (u, v)
                        and (trial % 3 == 1 or (anc[u] | anc[v]) >> w & 1)]
                k = int(rng.integers(0, len(pool) + 1)) if pool else 0
                z = [int(x) for x in rng.choice(pool, k, replace=False)] if k else []
                z_bits = sum(1 << w for w in z)
                before = set(g._dsep_cache)
                got = g.d_separated(u, v, z)
                assert got == moral_d_separated(g, u, v, z), (n, d, u, v, z)
                added = set(g._dsep_cache) - before
                if z_bits & ~(anc[u] | anc[v]):
                    outcomes["outside"] += 1
                    assert not added
                    continue
                ku, kv = (u, z_bits & anc[u]), (v, z_bits & anc[v])
                ru, du = _component_reference(g, u, {w for w in z if anc[u] >> w & 1})
                rv, dv = _component_reference(g, v, {w for w in z if anc[v] >> w & 1})
                assert g._dsep_cache[ku] == (ru, du) and added <= {ku, kv}
                if (u, v) in g.edges or (v, u) in g.edges or ru >> v & 1:
                    outcomes["in R_u" if ru >> v & 1 else "adjacent"] += 1
                    assert not got and kv not in added
                    continue
                if not du >> v & 1:
                    outcomes["u side"] += 1
                    assert got and kv not in added
                    continue
                assert g._dsep_cache[kv] == (rv, dv)
                if not dv >> u & 1:
                    outcomes["v side"] += 1
                    assert got
                elif ru & rv:
                    outcomes["shared"] += 1
                    assert not got
                else:
                    outcomes["pair search"] += 1
        assert all(outcomes.values()), outcomes

    @pytest.mark.parametrize("n", [30, 120])
    def test_side_matches_per_member_reference(self, n):
        # a side is separated exactly when every member is, each by zu | zv;
        # sides mix neighbours of u, members of R_u, members inside D_u and
        # members outside it, on cold and warm caches. A neighbour or a
        # member of R_u refuses the side from u's component alone.
        rng = np.random.default_rng(1990 + n)
        kinds = dict.fromkeys(("neighbour", "in R_u", "in D_u", "outside D_u"), 0)
        verdicts = {True: 0, False: 0}
        for d in (1.25, 2.0):
            g = relabelled(generate_random_dag(n, d, seed=rng), rng)
            anc, nb = g._anc, g._nb_bits
            for _ in range(300):
                perm = [int(x) for x in rng.permutation(n)]
                u, k = perm[0], int(rng.integers(2, 6))
                members = perm[1:1 + k]
                if rng.random() < 0.5:
                    # a neighbour or an ancestor of u, so both refusals occur
                    near = [w for w in range(n) if (nb[u] | anc[u]) >> w & 1
                            and w not in members]
                    members += [int(x) for x in rng.choice(near, min(2, len(near)),
                                                           replace=False)] if near else []
                vs = sum(1 << w for w in members)
                candidates = sum(1 << w for w in range(n)
                                 if w != u and not vs >> w & 1 and rng.random() < 0.5)
                want, refused = True, False
                zu = candidates & anc[u]
                ru, du = _component_reference(g, u, set(bit_ids(zu)))
                for v in members:
                    zv = candidates & anc[v]
                    sep = moral_d_separated(g, u, v, bit_ids(zu | zv))
                    want = want and sep
                    kind = ("neighbour" if (u, v) in g.edges or (v, u) in g.edges
                            else "in R_u" if ru >> v & 1
                            else "in D_u" if du >> v & 1 else "outside D_u")
                    kinds[kind] += 1
                    if kind in ("neighbour", "in R_u"):
                        refused = True
                        assert not sep, (u, v)
                    elif kind == "outside D_u":
                        assert sep, (u, v)
                cold = Dag(g.n, g.edges)
                assert cold._separated_side(u, vs, candidates) == want, (n, d, u, members)
                if refused:
                    assert list(cold._dsep_cache) == [(u, zu)], (n, d, u, members)
                assert g._separated_side(u, vs, candidates) == want, (n, d, u, members)
                verdicts[want] += 1
        assert min(kinds.values()) > 50 and min(verdicts.values()) > 50, (kinds, verdicts)

    def test_cache_keys_and_repeated_sides(self):
        # every key is (u, z & An(u)), and asking the same sides again adds
        # no entry
        rng = np.random.default_rng(1990)
        g = relabelled(generate_random_dag(80, 1.5, seed=3), rng)
        o = ExactCiOracle(g)
        calls = []
        for _ in range(200):
            perm = [int(x) for x in rng.permutation(g.n)]
            k = int(rng.integers(1, 12))
            pool = sum(1 << w for w in perm[1 + k:] if rng.random() < 0.5)
            calls.append((perm[0], sum(1 << w for w in perm[1:1 + k]), pool,
                          [None, 0, 1, 2, 3][int(rng.integers(5))]))
        for call in calls:
            o.separable(*call)
        size = len(g._dsep_cache)
        assert size and all(z & ~g._anc[u] == 0 for u, z in g._dsep_cache)
        for call in calls:
            o.separable(*call)
        assert len(g._dsep_cache) == size


class TestEdgeListFormat:
    def test_headerless_chain(self, tmp_path):
        p = tmp_path / "chain.txt"
        p.write_text("0 1\n1 2\n")
        g = load_dag(p)
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_roundtrip(self, tmp_path):
        g = generate_random_dag(25, 1.25, seed=2)
        p = tmp_path / "g.txt"
        save_dag(g, p)
        assert load_dag(p) == g

    @pytest.mark.parametrize("g, text", [
        (Dag(5, [(0, 1)]), "n=5\n0 1\n"),
        (Dag(1), "n=1\n"),
    ], ids=["isolated-tail", "single-node"])
    def test_header_roundtrip(self, tmp_path, g, text):
        # the edges alone would give too few variables, so the count is written
        p = tmp_path / "g.txt"
        save_dag(g, p)
        assert p.read_text() == text
        assert load_dag(p) == g

    def test_header_allows_isolated_tail(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("n=5\n0 1\n")
        g = load_dag(p)
        assert g.n == 5
        assert len(g.edges) == 1

    def test_header_only_edgeless(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("n=3\n")
        g = load_dag(p)
        assert g.n == 3 and len(g.edges) == 0

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("0 1\n1 2 3\n", 2),
            ("0 x\n", 1),
            ("n=3\nn=4\n", 2),
            ("0 1\nn=3\n", 2),
            ("0 -1\n", 1),
        ]
        for text, line_no in cases:
            p = tmp_path / "bad.txt"
            p.write_text(text)
            with pytest.raises(EdgeListParseError) as err:
                load_dag(p)
            assert err.value.line_no == line_no

    def test_structural_faults_carry_line_numbers(self, tmp_path):
        cases = [
            ("n=2\n0 1\n1 2\n", 3, "out of range"),
            ("n=3\n0 1\n3 0\n", 3, "out of range"),
            ("0 1\n1 1\n", 2, "self loop"),
            ("0 1\n1 2\n# note\n0 1\n", 4, "duplicate edge"),
            ("n=-1\n", 1, "negative count"),
            ("# size\nn=five\n", 2, "bad count"),
        ]
        for text, line_no, message in cases:
            p = tmp_path / "bad.txt"
            p.write_text(text)
            with pytest.raises(EdgeListParseError, match=message) as err:
                load_dag(p)
            assert err.value.line_no == line_no

    def test_semantic_errors_surface(self, tmp_path):
        p = tmp_path / "cyc.txt"
        p.write_text("0 1\n1 0\n")
        with pytest.raises(CycleError):
            load_dag(p)
