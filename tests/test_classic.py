import math
import random

import pytest

from ghtree import families
from ghtree.build import build_deterministic, build_randomized
from ghtree.classic import (
    _gusfield_frame,
    classic_gomory_hu,
    gusfield,
    k_partial_tree,
)
from ghtree.flow import FLOW_CALLS, MaxFlowSolver
from ghtree.graph import Graph, auxiliary_graph
from ghtree.partition import GomoryHuTree, to_node_tree
from ghtree.sparsify import perturb, perturbed_sparsifier
from ghtree.weights import Weight, from_scaled

from oracles import (
    all_pairs_oracle,
    assemble,
    classic_via_contract,
    gusfield_frame_full_scan,
    node_super,
    planted_partition,
    subtree_side,
)


def assert_tree_matches_oracle(g, tree):
    nt = to_node_tree(tree) if not hasattr(tree, "query") else tree
    for (u, v), lam in all_pairs_oracle(g).items():
        val, side = nt.query(u, v)
        assert val.base == lam.base
        assert g.cut_weight(side).base == lam.base


def test_classic_path_is_path():
    t = to_node_tree(classic_gomory_hu(families.path(6)))
    assert all(w == Weight(1, 0) for _, _, w in t.edges())
    degrees = {}
    for u, v, _ in t.edges():
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    assert sorted(degrees.values()) == [1, 1, 2, 2, 2, 2]


def test_classic_k4_star_weights():
    t = to_node_tree(classic_gomory_hu(families.complete(4)))
    assert all(w == Weight(3, 0) for _, _, w in t.edges())


def test_classic_flow_budget():
    FLOW_CALLS.reset()
    classic_gomory_hu(families.complete(4))
    assert FLOW_CALLS.value == 3


def test_classic_random_oracle():
    g = families.er_connected(12, 0.4, seed=31)
    assert_tree_matches_oracle(g, classic_gomory_hu(g))


def disconnected_graphs():
    """A hand-made forest-like graph, random disconnected simple graphs
    and one disconnected multigraph."""
    graphs = [Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])]
    rng = random.Random(33)
    while len(graphs) < 5:
        g = families.er(rng.randint(5, 14), rng.choice([0.15, 0.3]),
                        seed=rng.randrange(2 ** 32))
        if not g.is_connected():
            graphs.append(g)
    seed = 0
    while True:
        g = families.random_multigraph(9, 0.25, 3, seed=seed)
        if not g.is_connected() and not g.simple:
            graphs.append(g)
            return graphs
        seed += 1


def contract_path_graphs():
    """ER graphs, clique chains, planted partitions, a dumbbell, disconnected
    graphs and a multigraph, perturbed sparsifiers (bigint capacities) and
    the graphs of one and two nodes."""
    rng = random.Random(75)
    graphs = [families.er_connected(rng.randint(5, 60), rng.choice([0.1, 0.3, 0.6]),
                                    seed=rng.randrange(2 ** 32)) for _ in range(8)]
    graphs += [families.clique_chain([5, 8, 5]), families.clique_chain([6] * 5),
               planted_partition(3, 10, 0.6, 0.05, seed=76),
               planted_partition(4, 16, 0.5, 0.03, seed=42),
               families.dumbbell(6, bridges=2)]
    graphs += disconnected_graphs()
    graphs.append(families.random_multigraph(20, 0.4, 3, seed=77))
    for g, k in ((graphs[0], 2), (graphs[8], 4), (graphs[11], 3)):
        gp = perturb(g, seed=rng.randrange(2 ** 62))
        graphs.append(perturbed_sparsifier(g, gp, k + 1))
    graphs += [families.path(1), families.path(2), Graph(2, {})]
    return graphs


def test_classic_matches_contract_path():
    """Splitting each super-node's solver small-to-large builds
    byte-identical trees with the same number of flows as building a
    contracted graph and solver per flow, on the corpus graphs and a
    dumbbell too, whose splits chain many copies and in-place contractions."""
    graphs = contract_path_graphs()
    graphs += [families.er_connected(200, 0.045, seed=42), families.clique_chain([16] * 8),
               families.dumbbell(20, bridges=10)]
    for g in graphs:
        start = FLOW_CALLS.value
        fast = to_node_tree(classic_gomory_hu(g)).serialize()
        fast_flows = FLOW_CALLS.value - start
        start = FLOW_CALLS.value
        slow = to_node_tree(classic_via_contract(g)).serialize()
        assert fast == slow
        assert fast_flows == FLOW_CALLS.value - start == g.n - 1


def test_classic_disconnected():
    """All four builders handle several components with no special case:
    cuts between components have value 0."""
    for builder in (classic_gomory_hu, gusfield, build_deterministic,
                    lambda g: build_randomized(g, seed=0)):
        g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        t = to_node_tree(builder(g))
        assert t.query(0, 3)[0] == Weight(0, 0)
        assert t.query(3, 4)[0] == Weight(1, 0)
        for g in disconnected_graphs():
            assert_tree_matches_oracle(g, builder(g))


def test_gusfield_same_contract():
    for g in (families.path(6), families.complete(4),
              families.er_connected(12, 0.4, seed=31)):
        assert_tree_matches_oracle(g, gusfield(g))


def test_gusfield_multigraph():
    g = families.random_multigraph(7, 0.5, 3, seed=4)
    assert_tree_matches_oracle(g, gusfield(g))


def test_k_partial_resolves_everything_above_max_degree():
    g = families.dumbbell(4)
    t = k_partial_tree(g, 4)
    assert t.fully_resolved
    assert_tree_matches_oracle(g, t)


def test_k_partial_dumbbell_k1():
    t = k_partial_tree(families.dumbbell(4), 1)
    assert sorted(tuple(sorted(s)) for s in t.super_nodes.values()) == [
        (0, 1, 2, 3), (4, 5, 6, 7)]
    ((a, b, w),) = t.edges()
    assert w == Weight(1, 0)


def test_k_partial_k4_single_super():
    t = k_partial_tree(families.complete(4), 2)
    assert len(t.super_nodes) == 1


def test_k_partial_rejects_bad_k():
    with pytest.raises(ValueError):
        k_partial_tree(families.path(3), 0)


def test_k_partial_definition_and_refinement():
    """Pairs at or below k sit in different super-nodes with the tree cut
    realizing their connectivity; refining with classic runs per auxiliary
    graph and assembling gives a full oracle-equal tree."""
    rng = random.Random(70)
    for _ in range(8):
        n = rng.randint(4, 10)
        g = families.er_connected(n, 0.5, seed=rng.randrange(2 ** 32))
        oracle = all_pairs_oracle(g)
        k = rng.randint(1, n - 1)
        t = k_partial_tree(g, k)
        ns = node_super(t)
        for (u, v), lam in oracle.items():
            if lam.base <= k:
                assert ns[u] != ns[v]
        subs = {}
        for i in sorted(t.super_nodes):
            aux, _ = auxiliary_graph(g, t, i)
            subs[i] = (aux, to_node_tree(classic_gomory_hu(aux)))
        full = assemble(t, subs)
        for (u, v), lam in oracle.items():
            assert full.query(u, v)[0].base == lam.base


def classic_partial_reference(g, k, seed):
    """Super-node partition and light edges of a partial tree built from a
    classic (contracted) Gomory-Hu tree of a perturbed sparsifier."""
    gw = perturbed_sparsifier(g, perturb(g, seed=seed), k + 1)
    full = to_node_tree(classic_gomory_hu(gw))
    group = list(range(g.n))

    def find(x):
        while group[x] != x:
            x = group[x]
        return x

    for u, v, w in full.edges():
        if w.base > k:
            group[find(u)] = find(v)
    parts = {}
    for v in range(g.n):
        parts.setdefault(find(v), set()).add(v)
    light = sorted(
        (tuple(sorted((min(parts[find(u)]), min(parts[find(v)])))), w.base)
        for u, v, w in full.edges() if w.base <= k
    )
    return sorted(sorted(p) for p in parts.values()), light


def assert_partial_tree_is_valid(g, t, k, oracle):
    """Every light edge weighs at most k and its fundamental cut weighs that
    in g, and every pair in different super-nodes has its connectivity as
    the lightest edge on its tree path."""
    for a, b, w in t.edges():
        assert w.eps == 0 and w.base <= k
        assert g.cut_weight(subtree_side(t, a, b)) == w
    # the tree over super-node ids, which k_partial_tree numbers from 0
    nt = GomoryHuTree(len(t.super_nodes), t.edges())
    ns = node_super(t)
    for (u, v), lam in oracle.items():
        if ns[u] != ns[v]:
            assert nt.query(ns[u], ns[v])[0] == lam, (u, v)


def test_k_partial_matches_classic_reference():
    """The super-nodes of a partial tree are the classes of "connectivity
    > k", the same for every cut tree, so the Gusfield-built partial tree of
    the plain sparsifier has the super-nodes a classic tree of a perturbed
    one gives.  Its light edges may differ where minimum cuts tie, so they
    are checked against the all-pairs oracle instead."""
    rng = random.Random(2024)
    checked = 0
    cases = []
    for _ in range(36):
        n = rng.randint(5, 40)
        g = families.er_connected(n, rng.choice((0.3, 0.5)),
                                  seed=rng.randrange(2 ** 32))
        cases += [(g, k, rng.randrange(2 ** 62))
                  for k in sorted({1, 2, math.isqrt(n), rng.randint(1, n)})]
    for sizes in ([4, 4, 4], [6, 5, 7, 3]):
        cases += [(families.clique_chain(sizes), k, k) for k in (1, 2, 4)]
    oracles = {}
    for g, k, seed in cases:
        t = k_partial_tree(g, k)
        parts, _ = classic_partial_reference(g, k, seed)
        assert sorted(sorted(s) for s in t.super_nodes.values()) == parts
        oracle = oracles.setdefault(id(g), all_pairs_oracle(g))
        assert_partial_tree_is_valid(g, t, k, oracle)
        checked += 1
    assert checked >= 100


def test_k_partial_disconnected_input():
    g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6),
                             (6, 3), (3, 5), (7, 8)])
    t = k_partial_tree(g, g.n)
    assert t.fully_resolved
    assert_tree_matches_oracle(g, t)
    t1 = k_partial_tree(g, 1)
    oracle = all_pairs_oracle(g)
    ns = node_super(t1)
    for (u, v), lam in oracle.items():
        assert (ns[u] != ns[v]) == (lam.base <= 1)


def test_gusfield_frame_matches_full_scan():
    """Scanning only each flow's s-side re-points ``pred`` exactly as the
    all-node scan does, on tied (plain) and tie-free (perturbed) graphs."""
    rng = random.Random(71)
    graphs = [families.er_connected(rng.randint(5, 40), rng.choice([0.1, 0.3, 0.6]),
                                    seed=rng.randrange(2 ** 32)) for _ in range(10)]
    graphs += [families.clique_chain([5, 8, 5]), families.dumbbell(6, bridges=2),
               families.cycle(9), families.star(7),
               families.random_multigraph(15, 0.4, 3, seed=72)]
    graphs += [perturb(g, seed=73) for g in graphs[:4]]
    for g in graphs:
        sol = MaxFlowSolver(g)

        def solve(s, t):
            return from_scaled(sol.solve(s, t), g.unit), sol.source_side(s)

        fast, full = _gusfield_frame(g.n, solve), gusfield_frame_full_scan(g.n, solve)
        assert fast.super_nodes == full.super_nodes
        assert fast.adj == full.adj
