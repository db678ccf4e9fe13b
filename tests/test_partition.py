import random

import pytest

from ghtree import families
from ghtree.build import build_deterministic, build_randomized
from ghtree.classic import classic_gomory_hu, gusfield
from ghtree.graph import auxiliary_graph
from ghtree.partition import (
    GomoryHuTree,
    PartitionTree,
    TreeError,
    gh_refine,
    parse_tree,
    to_node_tree,
)
from ghtree.weights import Weight

from oracles import (
    all_pairs_oracle,
    assemble,
    node_super,
    planted_partition,
    reference_query,
    verify_partition_tree,
)


def test_gh_refine_p3():
    g = families.path(3)
    t = PartitionTree.single(3)
    gh_refine(t, 0, frozenset({2}), frozenset(), Weight(1, 0), 0, 2)
    supers = sorted(tuple(sorted(s)) for s in t.super_nodes.values())
    assert supers == [(0, 1), (2,)]
    assert node_super(t) == {0: 0, 1: 0, 2: 1}
    assert verify_partition_tree(t, g)


def test_gh_refine_k4_star_step():
    g = families.complete(4)
    t = PartitionTree.single(4)
    gh_refine(t, 0, frozenset({3}), frozenset(), Weight(3, 0), 0, 3)
    assert verify_partition_tree(t, g)
    assert len(t.super_nodes) == 2


def test_gh_refine_takes_either_side():
    """The piece split off is always tnode's side.  On the path 0-1-2-3
    with {3} split off, the cut {0} | {1, 2, 3} passed as tnode 0's side
    {0}, or as s's side {1, 2} plus the neighbor holding 3, gives one tree;
    with tnode 1 instead, {1, 2} is split off."""
    g = families.path(4)
    trees = []
    for nodes, neighbors, s, tnode in ((frozenset({0}), frozenset(), 1, 0),
                                      (frozenset({0}), frozenset(), 0, 1),
                                      (frozenset({1, 2}), frozenset({1}), 1, 0)):
        t = PartitionTree.single(4)
        gh_refine(t, 0, frozenset({3}), frozenset(), Weight(1, 0), 0, 3)
        gh_refine(t, 0, nodes, neighbors, Weight(1, 0), s, tnode)
        assert verify_partition_tree(t, g)
        trees.append((t.super_nodes, t.adj))
    assert trees[0] == trees[2]
    assert trees[0][0] != trees[1][0]


def test_gh_refine_errors():
    t = PartitionTree.single(4)
    with pytest.raises(TreeError):
        gh_refine(t, 0, frozenset({0, 1}), frozenset(), Weight(1, 0), 0, 1)  # both inside
    gh_refine(t, 0, frozenset({2, 3}), frozenset(), Weight(1, 0), 1, 2)
    i = node_super(t)[2]
    with pytest.raises(TreeError):
        gh_refine(t, i, frozenset({3}), frozenset({7}), Weight(1, 0), 3, 2)  # not a neighbor
    with pytest.raises(TreeError):
        gh_refine(t, i, frozenset({1, 3}), frozenset(), Weight(1, 0), 2, 3)  # 1 is not in V_i
    assert sorted(map(sorted, t.super_nodes.values())) == [[0, 1], [2, 3]]


def test_multi_cut_split_equals_sequential():
    rng = random.Random(10)
    for _ in range(12):
        n = rng.randint(4, 10)
        g = families.er_connected(n, 0.6, seed=rng.randrange(2 ** 32))
        # pivot-avoiding singleton cuts are always disjoint and valid
        p = 0
        picks = rng.sample(range(1, n), min(3, n - 1))
        pieces = []
        for v in picks:
            side = frozenset({v})
            pieces.append((side, frozenset(), g.cut_weight(side)))
        t_multi = PartitionTree.single(n)
        t_multi.split(0, pieces)
        t_seq = PartitionTree.single(n)
        for side, neighbors, val in pieces:
            gh_refine(t_seq, 0, side, neighbors, val, p, next(iter(side)))
        assert node_super(t_multi) == node_super(t_seq)
        same = {frozenset(s) for s in t_multi.super_nodes.values()} == \
               {frozenset(s) for s in t_seq.super_nodes.values()}
        assert same
        edges_multi = {(frozenset(t_multi.super_nodes[a]), frozenset(t_multi.super_nodes[b]), w)
                       for a, b, w in t_multi.edges()}
        edges_seq = {(frozenset(t_seq.super_nodes[a]), frozenset(t_seq.super_nodes[b]), w)
                     for a, b, w in t_seq.edges()}
        norm = lambda es: {(min(x, y, key=sorted), max(x, y, key=sorted), w) for x, y, w in es}
        assert norm(edges_multi) == norm(edges_seq)


def _state(t):
    return (dict(t.super_nodes), [(i, list(nb.items())) for i, nb in t.adj.items()],
            t._next_id)


@pytest.mark.parametrize("pieces", [
    [(frozenset(), frozenset({1}), Weight(1, 0))],                   # empty piece
    [(frozenset({2, 3}), frozenset(), Weight(1, 0))],                # not inside V_0
    [(frozenset({1}), frozenset({1}), Weight(1, 0)),
     (frozenset({1, 2}), frozenset(), Weight(1, 0))],                # pieces overlap
    [(frozenset({0, 1, 2}), frozenset({1, 2}), Weight(1, 0))],       # no residual
    [(frozenset({2}), frozenset({1, 3}), Weight(1, 0))],             # 3 is not a neighbor
    [(frozenset({2}), frozenset({0}), Weight(1, 0))],                # nor is the super itself
    [(frozenset({1}), frozenset({2}), Weight(1, 0)),
     (frozenset({2}), frozenset({1, 2}), Weight(1, 0))],             # neighbor 2 taken twice
])
def test_failed_split_leaves_tree_unchanged(pieces):
    """Every piece is checked before the tree changes, so a failed split
    leaves the tree as it was and a valid split still works after it."""
    w = Weight(1, 0)
    t = PartitionTree({0: frozenset({0, 1, 2}), 1: frozenset({3}), 2: frozenset({4, 5})},
                      {0: {1: w, 2: w}, 1: {0: w}, 2: {0: w}})
    before = _state(t)
    with pytest.raises(TreeError):
        t.split(0, pieces)
    assert _state(t) == before
    assert t.split(0, [(frozenset({2}), frozenset({1}), w)]) == [3]
    assert node_super(t)[2] == 3 and t.adj[3] == {1: w, 0: w}


def test_split_relinks_only_the_neighbors_it_moves():
    """Super-node 0 has five neighbors, each with a leaf of its own linked
    after 0.  A piece that takes neighbor 3 leaves every other neighbor's
    links as they were, key order included; 0 keeps its order with the
    new piece last, and 3 links to the piece in 0's place, last."""
    w = {j: Weight(j, 0) for j in range(1, 11)}
    supers = {0: frozenset({0, 1, 2})}
    supers.update((j, frozenset({j + 2})) for j in range(1, 11))
    adj = {0: {j: w[j] for j in range(1, 6)}}
    for j in range(1, 6):
        adj[j] = {0: w[j], j + 5: w[j + 5]}
        adj[j + 5] = {j: w[j + 5]}
    t = PartitionTree(supers, adj)
    before = {j: list(t.adj[j].items()) for j in t.adj}
    cut = Weight(7, 0)
    assert t.split(0, [(frozenset({2}), frozenset({3}), cut)]) == [11]
    for j in (1, 2, 4, 5, 6, 7, 8, 9, 10):
        assert list(t.adj[j].items()) == before[j], j
    assert list(t.adj[0].items()) == [(1, w[1]), (2, w[2]), (4, w[4]), (5, w[5]), (11, cut)]
    assert list(t.adj[3].items()) == [(8, w[8]), (11, w[3])]
    assert list(t.adj[11].items()) == [(3, w[3]), (0, cut)]
    assert t.super_nodes[0] == {0, 1} and t.super_nodes[11] == {2}


def test_tree_query_examples():
    star = GomoryHuTree(4, [(0, v, Weight(3, 0)) for v in (1, 2, 3)])
    val, side = star.query(1, 2)
    assert val == Weight(3, 0)
    path = GomoryHuTree(3, [(0, 1, Weight(1, 0)), (1, 2, Weight(1, 0))])
    val, side = path.query(0, 2)
    assert val == Weight(1, 0)
    # tie rule: deepest edge from the query root, so the side is {0, 1}
    assert side == frozenset({0, 1})
    val2, side2 = path.query(2, 0)
    assert side2 == frozenset({1, 2})


def test_tree_query_matches_oracle_random():
    g = families.er_connected(12, 0.4, seed=5)
    tree = to_node_tree(classic_gomory_hu(g))
    for (u, v), lam in all_pairs_oracle(g).items():
        val, side = tree.query(u, v)
        assert val == lam
        assert g.cut_weight(side) == lam


def test_tree_query_requires_resolved():
    t = PartitionTree.single(3)
    with pytest.raises(TreeError):
        to_node_tree(t).query(0, 1)


def test_tree_format_round_trip():
    g = families.er_connected(9, 0.5, seed=8)
    tree = to_node_tree(classic_gomory_hu(g))
    text = tree.serialize()
    again = parse_tree(text)
    assert again.serialize() == text


def test_tree_loader_validates():
    with pytest.raises(TreeError):
        parse_tree("t 3\ne 1 2 1.0\n")  # not spanning
    with pytest.raises(TreeError):
        parse_tree("t 3\ne 1 2 1.0\ne 1 2 2.0\ne 2 3 1.0\n")  # not a tree
    # n - 1 edges that miss node 4: a cycle, then a repeated pair
    for text in ("t 4\ne 1 2 1.0\ne 2 3 1.0\ne 1 3 1.0\n",
                 "t 4\ne 1 2 1.0\ne 2 1 2.0\ne 2 3 1.0\n"):
        with pytest.raises(TreeError, match="spanning tree"):
            parse_tree(text)


def _random_tree(rng, n):
    edges = [(v, rng.randrange(v), Weight(rng.randint(1, 4), 0)) for v in range(1, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(edges)
    return GomoryHuTree(n, [(perm[a], perm[b], w) for a, b, w in edges])


def _assert_matches_reference(tree, pairs):
    for u, v in pairs:
        path, value, side = reference_query(tree, u, v)
        assert tree.path(u, v) == path, (u, v)
        assert tree.query(u, v) == (value, side), (u, v)


def test_query_matches_reference_on_random_trees():
    """Weights 1 to 4 make ties common, so the last-lightest-edge rule and
    the side's orientation are both exercised."""
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(2, 60)
        tree = _random_tree(rng, n)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(10)]
        _assert_matches_reference(tree, pairs)


def test_query_matches_reference_on_corpus_trees():
    """Every tree the four builders make of the benchmark corpus (corpus
    seed 42)."""
    corpus = [families.er_connected(200, 0.045, seed=42), families.clique_chain([16] * 8),
              planted_partition(5, 24, 0.5, 0.01, seed=42),
              planted_partition(4, 16, 0.5, 0.03, seed=42)]
    rng = random.Random(42)
    for g in corpus:
        for t in (classic_gomory_hu(g), gusfield(g), build_randomized(g, seed=42),
                  build_deterministic(g)):
            tree = to_node_tree(t)
            _assert_matches_reference(tree, [tuple(rng.sample(range(g.n), 2))
                                             for _ in range(60)])


def _full_subtrees(g, t):
    subs = {}
    for i in sorted(t.super_nodes):
        aux, _ = auxiliary_graph(g, t, i)
        subs[i] = (aux, to_node_tree(classic_gomory_hu(aux)))
    return subs


def test_assemble_single_super_node():
    g = families.complete(4)
    t = PartitionTree.single(4)
    tree = assemble(t, _full_subtrees(g, t))
    for (u, v), lam in all_pairs_oracle(g).items():
        assert tree.query(u, v)[0] == lam


def test_assemble_dumbbell():
    g = families.dumbbell(4)
    t = PartitionTree(
        {0: frozenset(range(4)), 1: frozenset(range(4, 8))},
        {0: {1: Weight(1, 0)}, 1: {0: Weight(1, 0)}},
    )
    tree = assemble(t, _full_subtrees(g, t))
    for (u, v), lam in all_pairs_oracle(g).items():
        assert tree.query(u, v)[0] == lam


def test_assemble_path_of_supers():
    g = families.path(6)
    t = PartitionTree(
        {0: frozenset({0, 1}), 1: frozenset({2, 3}), 2: frozenset({4, 5})},
        {0: {1: Weight(1, 0)}, 1: {0: Weight(1, 0), 2: Weight(1, 0)}, 2: {1: Weight(1, 0)}},
    )
    tree = assemble(t, _full_subtrees(g, t))
    for (u, v), lam in all_pairs_oracle(g).items():
        assert tree.query(u, v)[0] == lam


def test_assemble_mismatch_rejected():
    g = families.path(4)
    t = PartitionTree.single(4)
    with pytest.raises(TreeError):
        assemble(t, {})
