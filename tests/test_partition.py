import random

import pytest

from ghtree import families
from ghtree.classic import classic_gomory_hu
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

from oracles import all_pairs_oracle, assemble


def test_gh_refine_p3():
    g = families.path(3)
    t = PartitionTree.single(3)
    t2 = gh_refine(t, 0, frozenset({2}), Weight(1, 0), 0, 2)
    supers = sorted(tuple(sorted(s)) for s in t2.super_nodes.values())
    assert supers == [(0, 1), (2,)]
    assert t2.verify(g)


def test_gh_refine_k4_star_step():
    g = families.complete(4)
    t = PartitionTree.single(4)
    t2 = gh_refine(t, 0, frozenset({3}), Weight(3, 0), 0, 3)
    assert t2.verify(g)
    assert len(t2.super_nodes) == 2


def test_gh_refine_errors():
    t = PartitionTree.single(4)
    with pytest.raises(TreeError):
        gh_refine(t, 0, frozenset({0, 1}), Weight(1, 0), 0, 1)  # both inside
    # refine a two-super tree with a cut that splits a neighbor component
    g = families.path(4)
    t2 = gh_refine(t, 0, frozenset({2, 3}), Weight(1, 0), 1, 2)
    with pytest.raises(TreeError):
        gh_refine(t2, t2.node_super[2], frozenset({3, 1}), Weight(1, 0), 2, 3)


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
            pieces.append((side, side, g.cut_weight(side)))
        t_multi, _ = PartitionTree.single(n).split(0, pieces)
        t_seq = PartitionTree.single(n)
        for side, full, val in pieces:
            t_seq = gh_refine(t_seq, 0, full, val, p, next(iter(side)))
        same = {frozenset(s) for s in t_multi.super_nodes.values()} == \
               {frozenset(s) for s in t_seq.super_nodes.values()}
        assert same
        edges_multi = {(frozenset(t_multi.super_nodes[a]), frozenset(t_multi.super_nodes[b]), w)
                       for a, b, w in t_multi.edges()}
        edges_seq = {(frozenset(t_seq.super_nodes[a]), frozenset(t_seq.super_nodes[b]), w)
                     for a, b, w in t_seq.edges()}
        norm = lambda es: {(min(x, y, key=sorted), max(x, y, key=sorted), w) for x, y, w in es}
        assert norm(edges_multi) == norm(edges_seq)


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
