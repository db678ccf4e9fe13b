import inspect
import random

import pytest

from ghtree import families
from ghtree.analysis import (
    Bag,
    CutMembershipTree,
    _check_monotone,
    analyze_report,
    count_non_easy_bags,
    cut_membership_tree,
    is_easy_bag,
    w_large_subtree,
)
from ghtree.build import build_deterministic
from ghtree.classic import classic_gomory_hu, gusfield
from ghtree.flow import MaxFlowSolver
from ghtree.partition import GomoryHuTree, TreeError, parse_tree, to_node_tree
from ghtree.weights import Weight

from oracles import verify_tree_edge_flows


def test_star_center_singleton_bags():
    t = GomoryHuTree(6, [(0, v, Weight(1, 0)) for v in range(1, 6)])
    tm = cut_membership_tree(t, 0)
    assert len(tm.bags) == 6
    assert all(b.size == 1 for b in tm.bags.values())


def test_report_of_a_built_tree_equals_its_file():
    """A tree's neighbor maps come from its sorted edges, so a built tree
    and its serialized file give the same bags, ids included."""
    g = families.clique_chain([5, 6, 5])
    t = to_node_tree(build_deterministic(g))
    again = parse_tree(t.serialize())
    for p in (0, 3, 6, 9):
        assert analyze_report(g, t, p) == analyze_report(g, again, p)


def test_strictly_decreasing_path_all_singletons():
    t = GomoryHuTree(4, [(0, 1, Weight(5, 0)), (1, 2, Weight(4, 0)), (2, 3, Weight(3, 0))])
    tm = cut_membership_tree(t, 0)
    assert len(tm.bags) == 4


def test_shared_light_edge_merges_subtree():
    # one light edge at the top: the whole subtree under it is one bag
    t = GomoryHuTree(6, [(0, 1, Weight(1, 0)), (1, 2, Weight(9, 0)),
                         (1, 3, Weight(9, 0)), (3, 4, Weight(9, 0)),
                         (3, 5, Weight(9, 0))])
    tm = cut_membership_tree(t, 0)
    sizes = sorted(b.size for b in tm.bags.values())
    assert sizes == [1, 5]
    big = next(b for b in tm.bags.values() if b.size == 5)
    assert big.value == Weight(1, 0)
    assert big.subtree_nodes == frozenset({1, 2, 3, 4, 5})


def test_tie_breaking_takes_lowest_edge():
    t = GomoryHuTree(4, [(0, 1, Weight(2, 0)), (1, 2, Weight(2, 0)), (2, 3, Weight(2, 0))])
    tm = cut_membership_tree(t, 0)
    # equal weights: each node's lightest edge is its own parent edge
    assert len(tm.bags) == 4


def test_values_non_increasing_away_from_pivot():
    rng = random.Random(3)
    for _ in range(10):
        g = families.er_connected(rng.randint(5, 14), 0.5,
                                  seed=rng.randrange(2 ** 32))
        tree = to_node_tree(classic_gomory_hu(g))
        for p in range(g.n):
            tm = cut_membership_tree(tree, p)  # asserts monotone internally
            for bid, b in tm.bags.items():
                if b.parent is not None:
                    pv = tm.bags[b.parent].value
                    assert pv is None or not pv < b.value


def test_w_large_subtree_extremes():
    g = families.dumbbell(4)
    tree = build_deterministic(g)
    tm = cut_membership_tree(tree, 0)
    assert set(w_large_subtree(tm, 0).bags) == set(tm.bags)
    top = w_large_subtree(tm, 10 ** 6)
    assert list(top.bags) == [tm.root]


def test_w_large_dumbbell():
    g = families.dumbbell(4)
    tree = build_deterministic(g)
    p = 7
    tm = cut_membership_tree(tree, p)
    large = w_large_subtree(tm, 2)
    for bid, b in large.bags.items():
        if b.value is not None:
            assert not b.value < Weight(2, 0)
            # only the pivot's own clique survives the threshold
            assert b.nodes <= frozenset(range(4, 8))


def test_easy_bag_classification():
    # two hubs joined by one direct edge and two length-2 paths (hub
    # connectivity 3), four leaves each: at w=3 the far hub's bag subtree
    # holds exactly one high-degree node, so it is easy
    from ghtree.graph import Graph

    edges = [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)]
    edges += [(0, v) for v in range(4, 8)]
    edges += [(1, v) for v in range(8, 12)]
    g = Graph.from_edges(12, edges)
    tree = build_deterministic(g)
    p = 1
    degrees = [g.degree(v) for v in range(g.n)]
    tm = cut_membership_tree(tree, p)
    large = w_large_subtree(tm, 3)
    hub_bag = large.node_bag.get(0)
    assert hub_bag is not None
    assert large.bags[hub_bag].value.base == 3
    assert is_easy_bag(large, hub_bag, 3, degrees)
    # a second hub on the far side makes the same bag non-easy
    edges2 = edges + [(4, v) for v in range(12, 16)]
    g2 = Graph.from_edges(16, edges2)
    tree2 = build_deterministic(g2)
    degrees2 = [g2.degree(v) for v in range(g2.n)]
    tm2 = cut_membership_tree(tree2, p)
    large2 = w_large_subtree(tm2, 3)
    hub_bag2 = large2.node_bag.get(0)
    assert hub_bag2 is not None
    assert not is_easy_bag(large2, hub_bag2, 3, degrees2)


def test_subtree_under_bag_is_min_cut():
    rng = random.Random(8)
    for _ in range(8):
        g = families.er_connected(rng.randint(5, 12), 0.5,
                                  seed=rng.randrange(2 ** 32))
        tree = to_node_tree(classic_gomory_hu(g))
        sol = MaxFlowSolver(g)
        for p in range(0, g.n, 3):
            tm = cut_membership_tree(tree, p)
            for bid, b in tm.bags.items():
                if b.value is None:
                    continue
                assert g.cut_weight(b.subtree_nodes).base == b.value.base
                for v in sorted(b.nodes)[:2]:
                    assert sol.solve(p, v) == b.value.base


def test_non_easy_leaf_subtrees_hold_w_over_2_nodes():
    rng = random.Random(9)
    for _ in range(8):
        g = families.er_connected(rng.randint(6, 16), 0.5,
                                  seed=rng.randrange(2 ** 32))
        tree = to_node_tree(classic_gomory_hu(g))
        degrees = [g.degree(v) for v in range(g.n)]
        for p in range(0, g.n, 4):
            tm = cut_membership_tree(tree, p)
            for w in (2, 3, 5):
                large = w_large_subtree(tm, w)
                for bid in large.bags:
                    b = large.bags[bid]
                    if b.value is None:
                        continue
                    is_leaf = not large.children.get(bid)
                    if is_leaf and not is_easy_bag(large, bid, w, degrees):
                        assert 2 * len(b.subtree_nodes) >= w


def test_count_non_easy_star():
    g = families.star(7)
    tree = build_deterministic(g)
    for w in range(1, 7):
        assert count_non_easy_bags(g, tree, 0, w) <= 1


def test_count_two_hub_instance():
    g = families.double_star(5, 5)
    tree = build_deterministic(g)
    # at w = 2 only the two hubs have degree >= w; the bridge bag holding the
    # far hub is easy, so nothing is non-easy except possibly the root
    c = count_non_easy_bags(g, tree, 1, 2)
    assert c <= 1


def test_count_verification_mode_rejects_corrupt_tree():
    """The tree-edge max-flow check the counting once ran on request lives
    with the test oracles: it takes a true cut tree and rejects a corrupt
    one, which the counting itself takes as given."""
    g = families.complete(4)
    verify_tree_edge_flows(g, to_node_tree(classic_gomory_hu(g)))
    bad = GomoryHuTree(4, [(0, 1, Weight(2, 0)), (1, 2, Weight(3, 0)), (2, 3, Weight(3, 0))])
    with pytest.raises(ValueError):
        verify_tree_edge_flows(g, bad)
    assert "verify" not in inspect.signature(count_non_easy_bags).parameters
    count_non_easy_bags(g, bad, 0, 1)


@pytest.mark.parametrize("p", [-1, 4])
def test_out_of_range_pivot_is_a_tree_error(p):
    """A pivot that is not a tree node raises TreeError, as a query node
    does, in every entry point that takes one."""
    g = families.path(4)
    tree = to_node_tree(gusfield(g))
    with pytest.raises(TreeError):
        cut_membership_tree(tree, p)
    with pytest.raises(TreeError):
        count_non_easy_bags(g, tree, p, 1)
    with pytest.raises(TreeError):
        analyze_report(g, tree, p)


def test_bound_sweep_random_corpus():
    rng = random.Random(10)
    for _ in range(6):
        n = rng.randint(6, 20)
        g = families.er_connected(n, 0.5, seed=rng.randrange(2 ** 32))
        tree = to_node_tree(classic_gomory_hu(g))
        for p in range(0, n, 5):
            for w in range(1, n + 1):
                count_non_easy_bags(g, tree, p, w)  # internal bound assert


def test_analyze_report_shape():
    g = families.dumbbell(4)
    tree = build_deterministic(g)
    rep = analyze_report(g, tree, 0)
    assert rep["pivot"] == 0
    assert {b["id"] for b in rep["bags"]}
    for entry in rep["thresholds"]:
        assert set(entry) == {"w", "bags", "easy", "non_easy"}


def _rising_bags():
    """Cut-membership tree whose bag values rise away from the pivot."""
    bags = {
        0: Bag(0, frozenset({0}), None, None, frozenset({0, 1, 2})),
        1: Bag(1, frozenset({1}), Weight(1, 0), 0, frozenset({1, 2})),
        2: Bag(2, frozenset({2}), Weight(5, 0), 1, frozenset({2})),
    }
    return CutMembershipTree(pivot=0, bags=bags, children={0: [1], 1: [2], 2: []},
                             node_bag={0: 0, 1: 1, 2: 2})


def test_rising_bag_values_are_an_error():
    with pytest.raises(RuntimeError, match="increase"):
        _check_monotone(_rising_bags())
    with pytest.raises(RuntimeError, match="parent"):
        w_large_subtree(_rising_bags(), 3)


def test_non_easy_bound_is_an_error(monkeypatch):
    import ghtree.analysis as analysis

    g = families.star(5)
    tree = to_node_tree(classic_gomory_hu(g))
    assert count_non_easy_bags(g, tree, 0, 1) == 1
    monkeypatch.setattr(analysis, "NON_EASY_CONSTANT", 0)
    with pytest.raises(RuntimeError, match="bound"):
        count_non_easy_bags(g, tree, 0, 1)
