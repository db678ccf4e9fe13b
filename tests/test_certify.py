"""``certify`` against the all-pairs check: same verdict on every builder's
tree and on mutants of it, and the failing half is named."""

import random

import pytest

from ghtree import families
from ghtree.build import build_deterministic, build_randomized
from ghtree.classic import classic_gomory_hu, gusfield
from ghtree.flow import certify
from ghtree.partition import GomoryHuTree, parse_tree, to_node_tree
from ghtree.weights import Weight

from oracles import all_pairs_oracle

BUILDERS = {
    "classic": classic_gomory_hu,
    "gusfield": gusfield,
    "randomized": lambda g: build_randomized(g, seed=0),
    "deterministic": build_deterministic,
}


def corpus():
    """Graphs of at most 40 nodes: ER graphs and multigraphs, some of them
    disconnected, and shaped graphs, among them a path, whose tree has
    depth n - 1."""
    rng = random.Random(2028)
    out = {}
    for k in range(40):
        n = rng.randint(2, 40)
        out[f"er{k}"] = families.er(n, rng.choice((0.1, 0.2, 0.4)), seed=rng.randrange(2 ** 32))
        n = rng.randint(2, 40)
        out[f"multi{k}"] = families.random_multigraph(
            n, rng.choice((0.1, 0.25, 0.5)), 3, seed=rng.randrange(2 ** 32))
    out.update(clique_chain=families.clique_chain([5, 6, 7]), dumbbell=families.dumbbell(8, 2),
               path=families.path(30), cycle=families.cycle(20), star=families.star(10))
    return out


CORPUS = corpus()


def all_pairs_pass(g, tree, lam) -> bool:
    """The all-pairs check: every pair's tree value is its max flow, and
    the side the tree gives weighs that value in g."""
    for u, v in lam:
        value, side = tree.query(u, v)
        if value != lam[u, v] or g.cut_weight(side) != value:
            return False
    return True


def with_cut_weights(g, tree: GomoryHuTree) -> list:
    """The tree's edges, each weighted by its fundamental cut in g, so that
    only the flow half can fail."""
    out = []
    for a, b, _ in tree.edges():
        below = a if tree.parent[a] == b else b
        side = tree.order[tree.pos[below]:tree.pos[below] + tree.size[below]]
        out.append((a, b, g.cut_weight(frozenset(side))))
    return out


def mutants(g, tree: GomoryHuTree, rng):
    """(kind, edges): one edge's weight raised by 1, one lowered by 1, one
    edge's subtree re-hung from another node on the far side, and that
    re-hung tree with every weight set to its fundamental cut."""
    edges = tree.edges()
    n = tree.n
    i = rng.randrange(len(edges))
    a, b, w = edges[i]
    yield "raised", edges[:i] + [(a, b, w + Weight(1))] + edges[i + 1:]
    heavy = [k for k, e in enumerate(edges) if e[2].base >= 1]
    if heavy:
        k = rng.choice(heavy)
        x, y, wk = edges[k]
        yield "lowered", edges[:k] + [(x, y, Weight(wk.base - 1, wk.eps))] + edges[k + 1:]
    child = a if tree.parent[a] == b else b
    below = set(tree.order[tree.pos[child]:tree.pos[child] + tree.size[child]])
    others = [x for x in range(n) if x not in below and x != tree.parent[child]]
    if others:
        rehung = edges[:i] + [(child, rng.choice(others), w)] + edges[i + 1:]
        yield "rehung", rehung
        yield "recut", with_cut_weights(g, GomoryHuTree(n, rehung))


@pytest.mark.parametrize("name", list(CORPUS))
def test_certify_agrees_with_all_pairs(name):
    g = CORPUS[name]
    lam = all_pairs_oracle(g)
    rng = random.Random(name)
    for algo, build in BUILDERS.items():
        tree = to_node_tree(build(g))
        assert certify(g, tree) is None, algo
        assert all_pairs_pass(g, tree, lam), algo
        if g.n < 2:
            continue
        for kind, edges in mutants(g, tree, rng):
            bad = GomoryHuTree(g.n, edges)
            assert (certify(g, bad) is None) == all_pairs_pass(g, bad, lam), (algo, kind)


def test_every_mutant_kind_is_rejected():
    rejected = {"raised": 0, "lowered": 0, "rehung": 0, "recut": 0}
    rng = random.Random(5)
    for g in CORPUS.values():
        if g.n < 2:
            continue
        tree = to_node_tree(gusfield(g))
        for kind, edges in mutants(g, tree, rng):
            rejected[kind] += certify(g, GomoryHuTree(g.n, edges)) is not None
    assert all(rejected.values()), rejected


def test_path_tree_fails_the_flow_half():
    """Path 1-2-3 with tree 1-3 (1), 3-2 (2): both fundamental cuts match
    (node 1 alone weighs 1, node 2 alone weighs 2), but lambda(3, 2) = 1."""
    tree = parse_tree("t 3\ne 1 3 1\ne 3 2 2\n")
    assert certify(families.path(3), tree) == ((1, 2, Weight(2)), "flow", Weight(1))


def test_whole_weight_fails_the_cut_half():
    tree = parse_tree("t 3\ne 1 2 1.7\ne 2 3 1\n")
    assert certify(families.path(3), tree) == ((0, 1, Weight(1, 7)), "fundamental cut", Weight(1))


def test_deep_tree_is_certified():
    g = families.path(200)
    tree = to_node_tree(gusfield(g))
    assert max(tree.depth) == 199
    assert certify(g, tree) is None
