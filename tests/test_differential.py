"""Differential test of the four builders.

Classic, Gusfield, randomized and deterministic trees must give the same
minimum-cut value for every pair of nodes, and every side a tree returns
must have that cut weight in the input graph.  Up to 12 nodes the values
are also checked against a brute-force enumeration of all cuts.  Graphs come from the
families the benchmark corpus is drawn from (G(n, p), clique chains,
planted partitions) and a few shaped ones, and random multigraphs,
connected or not, which every builder takes directly.
"""

import hashlib
import random

import pytest
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


def builders(seed):
    """Every builder, the randomized one seeded with ``seed``."""
    return {"classic": classic_gomory_hu, "gusfield": gusfield,
            "randomized": lambda g: build_randomized(g, seed=seed),
            "deterministic": build_deterministic}


def all_trees(g, seed):
    """Every builder's tree of g."""
    return {name: build(g) for name, build in builders(seed).items()}


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


# sha256 of each builder's ``to_node_tree(tree).serialize()`` and its flow
# count, taken before the Dinic phases searched from both ends.  Latest cuts
# are the same for every maximum flow, so a new flow kernel leaves them all
# as they are; a change that alters a tree on purpose updates its pin.
ER_200 = "9ea896b406fc6a1f99a9ef05b1261efae95b36b7caf32c53b7139c2a50e2f394"
CHAIN = "17541f92b80bc8533b0a90d2298ba95fb532220fc0a0a3b2d378a5325719a817"
ER_120 = "cb414519b155699ac5b55644fd5ecdbff8f25da7d48835d77f9ff3057cf72989"
MULTI = "306ac4883adb034d4f8afea46220cf564cead8e5a2bdc4ef24e170e602b83f1e"
PINNED = {
    "er_200": (lambda: families.er_connected(200, 0.045, seed=42), {
        "classic": (ER_200, 199), "gusfield": (ER_200, 199),
        "randomized": (ER_200, 212), "deterministic": (ER_200, 199)}),
    "clique_chain_8x16": (lambda: families.clique_chain([16] * 8), {
        "classic": (CHAIN, 127), "gusfield": (CHAIN, 127),
        "randomized": ("d73ae355871af12fe6b7f837be37ac52e478b6dba7616eb7b4090f943f1f16df", 247),
        "deterministic": ("d83e6bee6db9d51700b6e5163ff6497e77a0ebb221009696887db3250dc34597", 134)}),
    "er_120_0.3": (lambda: families.er_connected(120, 0.3, seed=42), {
        "classic": (ER_120, 119), "gusfield": (ER_120, 119),
        "randomized": (ER_120, 256), "deterministic": (ER_120, 119)}),
    "multigraph_150": (lambda: families.random_multigraph(150, 0.05, 3, seed=7), {
        "classic": (MULTI, 149), "gusfield": (MULTI, 149),
        "randomized": (MULTI, 253), "deterministic": (MULTI, 149)}),
}


@pytest.mark.parametrize("name", PINNED)
def test_trees_and_flows_are_pinned(name):
    """Every builder's tree and flow count on four graphs, one of them a
    multigraph, equal their pins (randomized with seed 42)."""
    make, pins = PINNED[name]
    g = make()
    got = {}
    for builder, build in builders(42).items():
        flows = FLOW_CALLS.value
        tree = to_node_tree(build(g)).serialize()
        got[builder] = (hashlib.sha256(tree.encode()).hexdigest(), FLOW_CALLS.value - flows)
    assert got == pins
