import pytest

from ghtree import families
from ghtree.flow import MaxFlowSolver
from ghtree.graph import Graph, GraphError, auxiliary_graph, emit_graph, parse_graph
from ghtree.partition import PartitionTree
from ghtree.weights import Weight


def path_partition_tree_p5():
    # V1={0}, V2={1,2,3}, V3={4} as a path of super-nodes
    return PartitionTree(
        {0: frozenset({0}), 1: frozenset({1, 2, 3}), 2: frozenset({4})},
        {0: {1: Weight(1, 0)}, 1: {0: Weight(1, 0), 2: Weight(1, 0)}, 2: {1: Weight(1, 0)}},
    )


def test_auxiliary_graph_path_tree():
    """The layout: the super-node's vertices, sorted, are nodes 0..k-1, and
    then one node per neighbor in ``components_without`` order.  A
    one-vertex component stays a contracted node."""
    g = families.path(5)
    t = path_partition_tree_p5()
    aux, layout = auxiliary_graph(g, t, 1)
    assert layout.kept == [1, 2, 3]
    assert layout.neighbors == list(t.components_without(1)) == [0, 2]
    assert layout.index == [3, 0, 1, 2, 4]
    assert aux.n == layout.n == 5
    assert aux.orig_id == (1, 2, 3, None, None)
    assert aux.index_of == {1: 0, 2: 1, 3: 2}
    assert aux.member_count == (1, 1, 1, 1, 1)
    assert set(aux.edges) == {(0, 1), (1, 2), (0, 3), (2, 4)}
    # a set of aux nodes reads back as the kept vertices and neighbors it holds
    assert layout.piece({1, 2, 4}) == (frozenset({2, 3}), frozenset({2}))


def test_auxiliary_graph_layout_sorts_kept_vertices():
    # super-node {1, 3, 4} between {0} and {2}: kept vertices are numbered
    # by id, not in vertex order around the components
    g = families.path(5)
    w = Weight(1, 0)
    t = PartitionTree(
        {0: frozenset({4, 1, 3}), 1: frozenset({2}), 2: frozenset({0})},
        {0: {1: w, 2: w}, 1: {0: w}, 2: {0: w}},
    )
    aux, layout = auxiliary_graph(g, t, 0)
    assert layout.kept == [1, 3, 4] and layout.neighbors == [1, 2]
    assert layout.index == [4, 0, 3, 1, 2]
    assert aux.orig_id == (1, 3, 4, None, None)
    assert aux.edges == {(0, 3): (1, 0), (0, 4): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0)}


def test_auxiliary_graph_single_super_node_is_identity():
    g = families.complete(4)
    t = PartitionTree.single(4)
    aux, layout = auxiliary_graph(g, t, 0)
    assert aux.n == 4 and not layout.neighbors
    assert aux.edges == g.edges
    assert all(aux.orig_id[v] == v for v in range(4))


def test_auxiliary_graph_dumbbell_contraction():
    g = families.dumbbell(4)
    t = PartitionTree(
        {0: frozenset(range(4)), 1: frozenset(range(4, 8))},
        {0: {1: Weight(1, 0)}, 1: {0: Weight(1, 0)}},
    )
    aux, layout = auxiliary_graph(g, t, 0)
    assert aux.n == 5
    q = 4
    assert aux.orig_id[q] is None and aux.member_count[q] == 4
    assert layout.neighbors == [1]
    assert layout.piece({q}) == (frozenset(), frozenset({1}))
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


def test_contract_merges_nodes_sharing_an_index():
    """The first ``kept`` new nodes keep their node's ``orig_id``; the
    others are contracted, and member counts add up through a second
    contraction."""
    g = families.dumbbell(3)  # cliques {0, 1, 2} and {3, 4, 5}, bridge 0-3
    aux = g.contract([2, 2, 0, 1, 3, 3], 4, kept=2)
    assert aux.orig_id == (2, 3, None, None)
    assert aux.member_count == (1, 1, 2, 2)
    # a merged pair's edge vanishes; the two edges into it fold into one
    assert aux.edges == {(0, 2): (2, 0), (1, 2): (1, 0), (1, 3): (2, 0)}
    again = aux.contract([0, 1, 0, 1], 2)
    assert again.orig_id == (None, None)
    assert again.member_count == (3, 3)
    assert again.edges == {(0, 1): (1, 0)}


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
def test_simple_is_read_from_the_edges(edges):
    """``simple`` is derived, so it cannot disagree with the edges: a
    parallel or a perturbed edge makes a graph not simple, whichever
    constructor built it."""
    g = Graph(2, edges)
    assert not g.simple and not g.with_edges(edges).simple
    assert g.with_edges({(0, 1): (1, 0)}).simple
    assert Graph.from_edges(2, [(0, 1)]).simple
    assert not Graph.from_edges(2, [(0, 1), (1, 0)]).simple
