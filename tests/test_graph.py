import pytest

from ghtree import families
from ghtree.flow import MaxFlowSolver
from ghtree.graph import (
    Graph,
    GraphError,
    auxiliary_graph,
    emit_graph,
    parse_graph,
    subdivide,
)
from ghtree.partition import PartitionTree
from ghtree.weights import Weight

from oracles import enum_all_pairs


def path_partition_tree_p5():
    # V1={0}, V2={1,2,3}, V3={4} as a path of super-nodes
    return PartitionTree(
        {0: frozenset({0}), 1: frozenset({1, 2, 3}), 2: frozenset({4})},
        {0: {1: Weight(1, 0)}, 1: {0: Weight(1, 0), 2: Weight(1, 0)}, 2: {1: Weight(1, 0)}},
    )


def test_auxiliary_graph_path_tree():
    g = families.path(5)
    t = path_partition_tree_p5()
    aux, neighbor_of = auxiliary_graph(g, t, 1)
    assert aux.n == 5  # 3 own nodes + 2 contracted
    contracted = [v for v in range(aux.n) if aux.orig_id[v] is None]
    assert len(contracted) == 2
    assert sorted(len(aux.members[v]) for v in contracted) == [1, 1]
    assert set(aux.index_of) == {1, 2, 3}
    # each contracted node stands for the neighbor super-node it holds
    assert sorted(neighbor_of) == contracted
    assert {j: aux.members[q] for q, j in neighbor_of.items()} == {
        0: frozenset({0}), 2: frozenset({4})}


def test_auxiliary_graph_single_super_node_is_identity():
    g = families.complete(4)
    t = PartitionTree.single(4)
    aux, neighbor_of = auxiliary_graph(g, t, 0)
    assert aux.n == 4 and not neighbor_of
    assert aux.edges == g.edges
    assert all(aux.orig_id[v] == v for v in range(4))


def test_auxiliary_graph_dumbbell_contraction():
    g = families.dumbbell(4)
    t = PartitionTree(
        {0: frozenset(range(4)), 1: frozenset(range(4, 8))},
        {0: {1: Weight(1, 0)}, 1: {0: Weight(1, 0)}},
    )
    aux, neighbor_of = auxiliary_graph(g, t, 0)
    assert aux.n == 5
    q = next(v for v in range(5) if aux.orig_id[v] is None)
    assert aux.members[q] == frozenset(range(4, 8))
    assert neighbor_of == {q: 1}
    # bridge keeps multiplicity 1, clique edges intact
    assert aux.degree(q) == 1
    assert aux.edge_instances == 6 + 1


def test_auxiliary_graph_preserves_pairwise_flow():
    g = families.dumbbell(5)
    t = PartitionTree(
        {0: frozenset(range(5)), 1: frozenset(range(5, 10))},
        {0: {1: Weight(1, 0)}, 1: {0: Weight(1, 0)}},
    )
    aux, _ = auxiliary_graph(g, t, 0)
    idx = aux.index_of
    sol_g = MaxFlowSolver(g)
    sol_a = MaxFlowSolver(aux)
    for u in range(5):
        for v in range(u + 1, 5):
            assert sol_g.solve(u, v) == sol_a.solve(idx[u], idx[v])


def test_auxiliary_graph_unknown_super():
    g = families.path(3)
    with pytest.raises(Exception):
        auxiliary_graph(g, PartitionTree.single(3), 7)


def test_subdivide_triangle():
    g = families.cycle(3)
    out, records = subdivide(g)
    assert out.n == 6 and out.edge_instances == 6
    assert out.simple
    assert len(records) == 3


def test_subdivide_parallel_edges_get_distinct_midpoints():
    g = Graph.from_edges(2, [(0, 1), (0, 1)], simple=False)
    out, records = subdivide(g)
    assert out.n == 4 and out.edge_instances == 4
    mids = [r[2] for r in records]
    assert len(set(mids)) == 2


def test_subdivide_doubled_k4_preserves_original_cuts():
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)] * 2
    g = Graph.from_edges(4, pairs, simple=False)
    out, _ = subdivide(g)
    assert out.n == 4 + 12 and out.edge_instances == 24
    want = enum_all_pairs(g)
    sol = MaxFlowSolver(out)
    for (u, v), lam in want.items():
        assert sol.solve(u, v) == lam


def test_subdivide_preserves_connectivity_small_multigraphs():
    import random

    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(3, 6)
        g = families.random_multigraph(n, 0.6, 3, seed=rng.randrange(2 ** 32))
        if not g.edges:
            continue
        out, _ = subdivide(g)
        want = enum_all_pairs(g)
        sol = MaxFlowSolver(out)
        for (u, v), lam in want.items():
            got = sol.solve(u, v) if lam else lam
            assert got == lam


def test_contract_disjointness_and_members():
    g = families.dumbbell(3)
    aux, new_index = g.contract([[0, 1], [4, 5]])
    assert aux.n == 4
    merged = [v for v in range(4) if aux.orig_id[v] is None]
    assert {aux.members[v] for v in merged} == {frozenset({0, 1}), frozenset({4, 5})}
    with pytest.raises(GraphError):
        g.contract([[0, 1], [1, 2]])


def test_graph_format_round_trip():
    g = families.random_multigraph(7, 0.5, 3, seed=11)
    text = emit_graph(g)
    again = parse_graph(text)
    assert again.n == g.n and again.edges == g.edges
    assert emit_graph(again) == text


def test_parse_graph_errors():
    with pytest.raises(GraphError):
        parse_graph("e 1 2\n")
    with pytest.raises(GraphError):
        parse_graph("p 3 1\ne 1 1\n")
    with pytest.raises(GraphError):
        parse_graph("p 2 1\nx 1 2\n")


@pytest.mark.parametrize("edges", [
    {(0, 1): (2, 0)},    # parallel edges
    {(0, 1): (1, 3)},    # perturbed edge
])
def test_simple_flag_is_checked(edges):
    """A graph marked simple is checked by an exception, not an assert."""
    with pytest.raises(GraphError, match="simple"):
        Graph(2, edges, simple=True)
