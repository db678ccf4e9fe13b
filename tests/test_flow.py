import random

import pytest
from hypothesis import given, settings, strategies as st

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
    g = Graph.from_edges(n, edges)
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


def split_children(sol, index, side):
    """Both solvers ``sol.split(side)`` leaves, each with the index that
    maps every vertex of the input to its node there, ``side``'s first;
    and whether ``side`` was the copied one."""
    sub, copied = sol.split(side)
    at = {x: k for k, x in enumerate(copied)}
    sub_index = [at.get(x, len(copied)) for x in index]
    own_index = [copied[0] if x in at else x for x in index]
    if copied[0] in side:
        return [(sub, sub_index), (sol, own_index)], True
    return [(sol, own_index), (sub, sub_index)], False


def assert_matches_contracted(sol, g, index, s, t):
    """``sol`` answers like a fresh solver of ``g.contract(index, sol.n)``:
    the same reach before any solve, the same edges in its folded ``g``, and
    for s and t on different nodes the same value and residual sides."""
    aux = g.contract(index, sol.n)
    ref = MaxFlowSolver(aux)
    a, b = index[s], index[t]
    assert sol.source_side(a) == ref.source_side(a)
    assert sol.g.edges == aux.edges
    assert sol.g.unit == g.unit and sol.g.n == aux.n
    if a != b:
        assert sol.solve(a, b) == ref.solve(a, b)
        assert sol.source_side(a) == ref.source_side(a)
        assert sol.sink_side(b) == ref.sink_side(b)


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_split_matches_contracted_graph(g, data):
    """Both solvers a split leaves answer like fresh solvers of the graphs
    ``Graph.contract`` builds from the same grouping, whichever side is
    copied, and again when either child is split once more.  The parent's
    last solve and folded ``g`` do not leak into the child contracted in
    place.  Sides may hold s or t, have no arc between them, or hold a node
    with no arcs."""
    if g is None:
        return
    sol, index = MaxFlowSolver(g), list(range(g.n))
    for _ in range(2):
        nodes = sorted(set(index))
        side = data.draw(st.sets(st.sampled_from(nodes), min_size=1,
                                 max_size=len(nodes) - 1))
        s, t = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2,
                                  unique=True))
        # leave a solve and a folded g behind on the parent
        if index[s] != index[t]:
            sol.solve(index[s], index[t])
        assert sol.g.unit == g.unit
        children, _ = split_children(sol, index, side)
        for child, child_index in children:
            assert_matches_contracted(child, g, child_index, s, t)
        sol, index = children[data.draw(st.integers(0, 1))]


@pytest.mark.parametrize("side, side_copied", [({1}, True), ({0, 1}, False)],
                         ids=["leaf", "center_and_leaf"])
def test_split_copies_the_side_of_smaller_arc_volume(side, side_copied):
    """On a 4-leaf star a leaf has 1 arc against the others' 7, so it is
    copied; the center and a leaf have 5 arcs against 3, so the other
    leaves are copied and the given side is contracted in place.  Both
    children match ``Graph.contract`` either way."""
    g = families.star(4)
    for s, t in ((0, 2), (2, 3), (1, 4)):
        sol = MaxFlowSolver(g)
        sol.solve(0, 2)
        children, copied = split_children(sol, list(range(g.n)), side)
        assert copied == side_copied
        for child, child_index in children:
            assert_matches_contracted(child, g, child_index, s, t)


def test_split_needs_two_sides():
    sol = MaxFlowSolver(families.path(3))
    for side in (set(), {0, 1, 2}):
        with pytest.raises(GraphError):
            sol.split(side)
