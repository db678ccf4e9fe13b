"""Differential test of the four builders.

Classic, Gusfield, randomized and deterministic trees must give the same
minimum-cut value for every pair of nodes, and every side a tree returns
must have that cut weight in the input graph.  Up to 12 nodes the values
are also checked against a brute-force enumeration of all cuts.  Graphs come from the
families the benchmark corpus is drawn from (G(n, p), clique chains,
planted partitions) and a few shaped ones, and random multigraphs,
connected or not, which every builder takes directly.
"""

import random

from hypothesis import given, settings, strategies as st

from ghtree import families
from ghtree.build import build_deterministic, build_randomized
from ghtree.classic import classic_gomory_hu, gusfield
from ghtree.flow import FLOW_CALLS
from ghtree.partition import to_node_tree
from ghtree.single_source import EngineConfig, single_source_mincuts

from oracles import assert_latest_table, mask_cut_values, planted_partition

SEEDS = st.integers(0, 2 ** 32 - 1)

GRAPHS = st.one_of(
    st.builds(families.er_connected, st.integers(4, 16),
              st.sampled_from([0.2, 0.35, 0.6]), seed=SEEDS),
    st.builds(families.clique_chain, st.lists(st.integers(2, 6), min_size=2, max_size=4)),
    st.builds(lambda blocks, size, seed: planted_partition(blocks, size, 0.6, 0.1, seed),
              st.integers(2, 3), st.integers(3, 6), SEEDS),
    st.builds(lambda k, b: families.dumbbell(k, min(b, k)),
              st.integers(2, 7), st.integers(1, 3)),
    st.builds(families.double_star, st.integers(1, 5), st.integers(1, 5)),
    st.builds(families.cycle, st.integers(3, 12)),
)

MULTIGRAPHS = st.builds(families.random_multigraph, st.integers(3, 8),
                        st.sampled_from([0.4, 0.7]), st.integers(2, 3),
                        seed=SEEDS)


def brute_force_values(g):
    """Minimum cut value (scaled) of every pair, from all 2^(n-1) cuts."""
    vals = mask_cut_values(g)
    best = {}
    for mask in range(1, 1 << (g.n - 1)):
        inside = [0] + [mask >> (v - 1) & 1 for v in range(1, g.n)]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if inside[u] != inside[v]:
                    best[(u, v)] = min(best.get((u, v), vals[mask]), vals[mask])
    return best


def tree_values(g, tree):
    """Every pair's tree value, each side checked to have that cut weight."""
    nt = to_node_tree(tree)
    out = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            val, side = nt.query(u, v)
            assert (u in side) != (v in side), (u, v)
            assert g.cut_weight(side) == val, (u, v)
            out[(u, v)] = val
    return out


def all_trees(g, seed):
    """Every builder's tree of g."""
    return {"classic": classic_gomory_hu(g), "gusfield": gusfield(g),
            "randomized": build_randomized(g, seed=seed),
            "deterministic": build_deterministic(g)}


def assert_builders_agree(g, trees):
    values = {name: tree_values(g, t) for name, t in trees.items()}
    for name, vals in values.items():
        assert vals == values["gusfield"], name
    if g.n <= 12:
        truth = brute_force_values(g)
        assert {k: v.scaled(g.unit) for k, v in values["gusfield"].items()} == truth


@settings(max_examples=60, deadline=None)
@given(g=GRAPHS, seed=st.integers(0, 2 ** 16))
def test_builders_agree(g, seed):
    assert_builders_agree(g, all_trees(g, seed))


@settings(max_examples=25, deadline=None)
@given(g=MULTIGRAPHS, seed=st.integers(0, 2 ** 16))
def test_builders_agree_on_multigraphs(g, seed):
    assert_builders_agree(g, all_trees(g, seed))


@settings(max_examples=40, deadline=None)
@given(g=GRAPHS, seed=SEEDS)
def test_standalone_single_source_exact(g, seed):
    """``single_source_mincuts`` from a random pivot: every terminal's
    estimate and witness are its latest cut's."""
    p = random.Random(seed).randrange(g.n)
    assert_latest_table(g, p, single_source_mincuts(g, p))


def _flows_and_tree(build, g, loop):
    flows = FLOW_CALLS.value
    tree = build(g, config=EngineConfig(loop_enabled=loop))
    return FLOW_CALLS.value - flows, to_node_tree(tree).serialize()


PAPER_BUILDERS = {
    "deterministic": build_deterministic,
    "randomized": lambda g, config: build_randomized(g, seed=42, config=config),
}


def test_loop_on_dense_er_makes_the_loop_off_flows():
    """``EngineConfig(loop_enabled=True)``, the benchmark's elimination_loop
    setting, has no effect on a dense G(n, p): the paper builders make the
    default's flows (119 and 256) and trees.  When the retired loop's
    stages were capped at 2w they made 238 and 393 flows here."""
    g = families.er_connected(120, 0.3, seed=42)
    for name, build in PAPER_BUILDERS.items():
        assert _flows_and_tree(build, g, True) == _flows_and_tree(build, g, False), name


def test_loop_on_never_makes_more_flows_than_loop_off():
    """``EngineConfig(loop_enabled=True)`` makes no more flows than the
    default on 40 sparse G(n, p); it has no effect, so never more."""
    for seed in range(40):
        g = families.er_connected(40, 0.08, seed=seed)
        for name, build in PAPER_BUILDERS.items():
            on, off = _flows_and_tree(build, g, True), _flows_and_tree(build, g, False)
            assert on[0] <= off[0], (seed, name, on[0], off[0])
