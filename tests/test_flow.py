import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ghtree import families
from ghtree.classic import classic_gomory_hu
from ghtree.flow import (
    FLOW_CALLS,
    MaxFlowSolver,
    latest_min_cut,
    max_flow_min_cut,
)
from ghtree.graph import Graph, GraphError
from ghtree.partition import to_node_tree
from ghtree.sparsify import perturb
from ghtree.weights import Weight

from oracles import all_pairs_oracle, enum_latest_side, enum_min_cut, verify_cut


def test_bridge_path():
    g = families.path(3)
    cut = max_flow_min_cut(g, 0, 2)
    assert cut.value == Weight(1, 0)
    assert 0 in cut.side and 2 not in cut.side
    assert verify_cut(cut, g)


def test_complete_graph_connectivity():
    g = families.complete(4)
    for u in range(4):
        for v in range(u + 1, 4):
            assert max_flow_min_cut(g, u, v).value == Weight(3, 0)


def test_dumbbell_cross_pair():
    g = families.dumbbell(4)
    cut = max_flow_min_cut(g, 0, 5)
    assert cut.value == Weight(1, 0)
    assert cut.side == frozenset(range(4))


def test_source_equals_sink_rejected():
    with pytest.raises(GraphError):
        max_flow_min_cut(families.path(3), 1, 1)


def test_disconnected_pair_value_zero():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    cut = max_flow_min_cut(g, 0, 3)
    assert cut.value == Weight(0, 0)
    assert cut.side == frozenset({0, 1})


def test_latest_p3():
    g = families.path(3)
    cut = latest_min_cut(g, 0, 2)
    assert cut.side == frozenset({2})


def test_latest_star_leaf_to_center():
    # star center 0, leaves 1..3; s=leaf, t=center: the only unit cut
    # puts the center with the other leaves
    g = families.star(3)
    cut = latest_min_cut(g, 1, 0)
    assert cut.value == Weight(1, 0)
    assert cut.side == frozenset({0, 2, 3})


def test_latest_c4_opposite_corners():
    g = families.cycle(4)
    cut = latest_min_cut(g, 0, 2)
    assert cut.value == Weight(2, 0)
    assert cut.side == frozenset({2})


def test_latest_wrt_parameter():
    g = families.path(3)
    cut = latest_min_cut(g, 0, 2, wrt=2)
    # latest with respect to t: minimal s-side
    assert cut.side == frozenset({0})


def test_latest_minimality_exhaustive():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(3, 9)
        g = families.er(n, 0.5, seed=rng.randrange(2 ** 32))
        if not g.edges:
            continue
        s, t = rng.sample(range(n), 2)
        got = latest_min_cut(g, s, t)
        want_side, want_val = enum_latest_side(g, s, t)
        assert got.side == want_side
        assert got.value.scaled(g.unit) == want_val


def test_cut_value_equals_recomputed_weight():
    rng = random.Random(3)
    for _ in range(30):
        g = families.random_multigraph(rng.randint(2, 8), 0.6, 3,
                                       seed=rng.randrange(2 ** 32))
        if not g.edges:
            continue
        nodes = [v for v in range(g.n)]
        s, t = rng.sample(nodes, 2)
        cut = max_flow_min_cut(g, s, t)
        assert g.cut_weight(cut.side) == cut.value
        lat = latest_min_cut(g, s, t)
        assert g.cut_weight(lat.side) == lat.value


def test_oracle_k3_and_p4():
    assert all(v == Weight(2, 0) for v in all_pairs_oracle(families.cycle(3)).values())
    assert all(v == Weight(1, 0) for v in all_pairs_oracle(families.path(4)).values())


def test_oracle_limit():
    with pytest.raises(GraphError):
        all_pairs_oracle(families.path(10), limit=5)


def test_oracle_matches_classic_tree():
    g = families.er_connected(10, 0.5, seed=77)
    oracle = all_pairs_oracle(g)
    tree = to_node_tree(classic_gomory_hu(g))
    for (u, v), lam in oracle.items():
        val, _ = tree.query(u, v)
        assert val == lam


def test_triangle_inequality_on_oracle():
    rng = random.Random(4)
    for _ in range(10):
        g = families.er_connected(8, 0.5, seed=rng.randrange(2 ** 32))
        lam = all_pairs_oracle(g)

        def get(a, b):
            return lam[(min(a, b), max(a, b))]

        for x in range(8):
            for y in range(8):
                for z in range(8):
                    if len({x, y, z}) == 3:
                        assert min(get(x, y), get(y, z)) <= get(x, z)


def test_invocation_counter_monotone():
    g = families.complete(4)
    FLOW_CALLS.reset()
    max_flow_min_cut(g, 0, 1)
    assert FLOW_CALLS.value == 1
    all_pairs_oracle(g)
    assert FLOW_CALLS.value == 7


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            mult = draw(st.integers(min_value=0, max_value=2))
            edges += [(u, v)] * mult
    if not edges:
        return None
    g = Graph.from_edges(n, edges, simple=draw(st.booleans()))
    if draw(st.booleans()):
        g = perturb(g, seed=draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    return g


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_flow_matches_enumeration(g, rnd):
    """The kernel contract, on plain and perturbed multigraphs: the value,
    the inclusion-minimal minimum-cut side of each terminal, and a solver
    reused over pairs in random order answering like a fresh one."""
    if g is None:
        return
    shared = MaxFlowSolver(g)
    for _ in range(4):
        s, t = rnd.sample(range(g.n), 2)
        value = enum_min_cut(g, s, t)
        s_side, _ = enum_latest_side(g, t, s)
        t_side, _ = enum_latest_side(g, s, t)
        for sol in (MaxFlowSolver(g), shared):
            assert sol.solve(s, t) == value
            assert sol.source_side(s) == s_side
            assert sol.sink_side(t) == t_side
        assert max_flow_min_cut(g, s, t).value.scaled(g.unit) == value


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
@example(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
         None)
def test_remapped_matches_contracted_graph(g, data):
    """A solver remapped by an index answers like a fresh solver of the
    graph ``Graph.contract`` builds from the same index: the same value, the
    same residual sides, and the same edges in its folded ``g``.  Merged
    nodes may hold s or t, touch each other, have no arc between them, or
    be empty."""
    if g is None:
        return
    if data is None:
        # two triangles, each merged but for its terminal: value 0
        index, n, s, t = [0, 1, 1, 2, 3, 3], 4, 0, 3
    else:
        n = data.draw(st.integers(2, g.n))
        index = data.draw(st.lists(st.integers(0, n - 1), min_size=g.n, max_size=g.n))
        s, t = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2,
                                  unique=True))
    assume(index[s] != index[t])
    aux = g.contract(index, n)
    sub = MaxFlowSolver(g).remapped(index, n)
    ref = MaxFlowSolver(aux)

    value = ref.solve(index[s], index[t])
    assert sub.solve(index[s], index[t]) == value
    if data is None:
        assert value == 0
    assert sub.source_side(index[s]) == ref.source_side(index[s])
    assert sub.sink_side(index[t]) == ref.sink_side(index[t])
    assert sub.g.edges == aux.edges
    assert sub.g.unit == g.unit and sub.g.n == aux.n == n
