"""Differential test of the four builders.

Classic, Gusfield, randomized and deterministic trees, the paper builders
with the elimination loop both off and on, must give the same minimum-cut
value for every pair of nodes, and every side a tree returns must have that
cut weight in the input graph.  Up to 12 nodes the values are also checked
against a brute-force enumeration of all cuts.  Graphs come from the
families the benchmark corpus is drawn from (G(n, p), clique chains,
planted partitions) and a few shaped ones; multigraphs reach the paper
builders through their subdivision, as ``ght build --via-subdivision``
does.
"""

import random

from hypothesis import given, settings, strategies as st

from ghtree import families
from ghtree.build import build_deterministic, build_randomized
from ghtree.classic import classic_gomory_hu, gusfield, gusfield_projection
from ghtree.graph import subdivide
from ghtree.partition import to_node_tree
from ghtree.single_source import EngineConfig, SingleSourceEngine, single_source_mincuts

from oracles import assert_latest_table, mask_cut_values, planted_partition, run_from_stage_one

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
                        seed=SEEDS).filter(lambda g: g.is_connected())


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


def all_trees(g, seed, simple=None):
    """Every builder's tree of g; the paper builders' built from
    ``simple`` (g's subdivision) and projected back when it is given."""
    trees = {"classic": classic_gomory_hu(g), "gusfield": gusfield(g)}
    h = g if simple is None else simple
    for loop in (False, True):
        cfg = EngineConfig(loop_enabled=loop, seed=seed)
        built = {"randomized": build_randomized(h, seed=seed, config=cfg),
                 "deterministic": build_deterministic(h, config=cfg)}
        for name, tree in built.items():
            if simple is not None:
                tree = gusfield_projection(g, to_node_tree(tree))
            trees[f"{name}/{loop}"] = tree
    return trees


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
    assert_builders_agree(g, all_trees(g, seed, subdivide(g)[0]))


@settings(max_examples=40, deadline=None)
@given(g=GRAPHS, seed=SEEDS, loop=st.booleans())
def test_standalone_single_source_exact(g, seed, loop):
    """``single_source_mincuts`` from a random pivot with the loop off, or
    a single-source run with the loop's stages starting at w = 1: every
    terminal's estimate and witness are its latest cut's."""
    p = random.Random(seed).randrange(g.n)
    if loop:
        engine = SingleSourceEngine(g, g, p)
        run_from_stage_one(engine)
        table = engine.table
    else:
        table = single_source_mincuts(g, g, p, EngineConfig(seed=seed))
    assert_latest_table(g, p, table)


def test_standalone_loop_without_stage_from_zero_is_exact():
    """Loop on, with the stages starting where ``run`` starts them,
    w = 2^floor(log2(n)/2), not at w = 1, over 40 graphs: every terminal's
    estimate and witness are its latest cut's.  The stage-end claim settles
    only terminals whose proven floor meets the estimate, so exactness
    needs no stage below the first."""
    for seed in range(40):
        g = families.er_connected(40, 0.08, seed=seed)
        p = max(range(g.n), key=lambda v: (g.degree(v), -v))
        cfg = EngineConfig(loop_enabled=True, seed=1)
        assert_latest_table(g, p, single_source_mincuts(g, g, p, cfg))
