import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ghtree import families, single_source
from ghtree.build import (
    LaminarityError,
    RandomizedAbort,
    build_deterministic,
    build_randomized,
    is_good_pivot,
)
from ghtree.classic import gusfield
from ghtree.dynamic import DynamicPivotEngine, _dynamic_pivot_engine
from ghtree.flow import FLOW_CALLS, latest_min_cut
from ghtree.graph import Graph
from ghtree.partition import to_node_tree
from ghtree.single_source import EngineConfig, SingleSourceEngine
from ghtree.weights import Weight

from oracles import (
    all_pairs_oracle,
    enum_latest_all,
    enum_min_sides,
    planted_partition,
    verify_partition_tree,
    verify_tree_edge_flows,
)


def assert_oracle_equal(g, tree):
    nt = to_node_tree(tree)
    for (u, v), lam in all_pairs_oracle(g).items():
        val, side = nt.query(u, v)
        assert val == lam
        assert g.cut_weight(side) == lam


def test_randomized_k4():
    t = to_node_tree(build_randomized(families.complete(4), seed=0))
    assert all(w == Weight(3, 0) for _, _, w in t.edges())


def test_randomized_p8_path():
    t = to_node_tree(build_randomized(families.path(8), seed=0))
    assert all(w == Weight(1, 0) for _, _, w in t.edges())


def test_randomized_seed_suite_with_depth_bound():
    rng = random.Random(55)
    for trial in range(25):
        n = rng.randint(4, 40)
        g = families.er_connected(n, rng.choice([0.2, 0.5, 0.8]),
                                  seed=rng.randrange(2 ** 32))
        rep = {}
        t = build_randomized(g, seed=trial, report=rep)
        assert_oracle_equal(g, t)
        assert rep["depth"] <= 2 * math.log(max(2, n)) / math.log(4 / 3)


def test_paper_builders_take_multigraphs_and_disconnected_graphs():
    """A multigraph and a disconnected graph go straight into both paper
    builders: latest cuts are unique and laminar in any graph."""
    for g in (Graph.from_edges(3, [(0, 1), (0, 1)]),
              Graph.from_edges(4, [(0, 1), (2, 3)])):
        assert_oracle_equal(g, build_randomized(g, seed=0))
        assert_oracle_equal(g, build_deterministic(g))


def test_paper_builders_certify_on_a_large_multigraph():
    """n = 300 with 4,606 edge instances, too large for the all-pairs
    oracle: every tree edge's fundamental cut weighs its value in g, and a
    max-flow between its ends does too, which makes the tree
    cut-equivalent."""
    g = families.random_multigraph(300, 0.04, 4, seed=7)
    assert g.edge_instances == 4606 and not g.simple
    for t in (build_randomized(g, seed=7), build_deterministic(g)):
        assert verify_partition_tree(t, g)
        verify_tree_edge_flows(g, to_node_tree(t))


def test_is_good_pivot():
    vi = frozenset(range(8))
    star_cuts = {v: frozenset({v}) for v in range(1, 8)}
    assert is_good_pivot(star_cuts, vi)
    lopsided = {v: frozenset(range(1, 8)) for v in range(1, 8)}
    assert not is_good_pivot(lopsided, vi)
    two = frozenset({0, 1})
    assert is_good_pivot({1: frozenset({1})}, two)


def test_deterministic_k4_and_determinism():
    g = families.complete(4)
    s1 = to_node_tree(build_deterministic(g)).serialize()
    s2 = to_node_tree(build_deterministic(g)).serialize()
    assert s1 == s2
    t = to_node_tree(build_deterministic(g))
    assert all(w == Weight(3, 0) for _, _, w in t.edges())


def test_deterministic_p8():
    t = to_node_tree(build_deterministic(families.path(8)))
    assert all(w == Weight(1, 0) for _, _, w in t.edges())


def test_deterministic_suite_with_depth_bound():
    rng = random.Random(66)
    for _ in range(20):
        n = rng.randint(4, 40)
        g = families.er_connected(n, rng.choice([0.2, 0.5, 0.8]),
                                  seed=rng.randrange(2 ** 32))
        rep = {}
        t = build_deterministic(g, report=rep)
        assert_oracle_equal(g, t)
        assert rep["depth"] <= math.ceil(math.log2(max(2, n))) + 1


def test_deterministic_remainder_is_pivot_only():
    # every split leaves exactly the pivot behind, so tree degree counts work out
    g = families.er_connected(15, 0.4, seed=67)
    rep = {}
    build_deterministic(g, report=rep)
    assert rep["supers"] >= 1


def test_builders_on_designed_families():
    for g in (families.dumbbell(5), families.double_star(4, 6),
              families.clique_chain([4, 3, 4]), families.cycle(9)):
        assert_oracle_equal(g, build_deterministic(g))
        assert_oracle_equal(g, build_randomized(g, seed=9))


def test_randomized_hundred_seeds_no_aborts():
    for g in (families.dumbbell(4), families.er_connected(12, 0.5, seed=88)):
        oracle = all_pairs_oracle(g)
        for seed in range(100):
            nt = to_node_tree(build_randomized(g, seed=seed))
            for (u, v), lam in oracle.items():
                assert nt.query(u, v)[0] == lam


def _tied_graphs():
    """Graphs whose minimum cuts tie: many pairs have several minimum cuts.
    The randomized builder's partial tree alone resolves
    ``clique_chain([4] * 6)``; on the others its engine runs."""
    return [families.clique_chain([4] * 6), families.dumbbell(6, 2),
            families.er_connected(9, 0.3, seed=1), families.er_connected(11, 0.3, seed=2),
            families.er_connected(12, 0.4, seed=3), families.clique_chain([6] * 4),
            families.clique_chain([5, 8, 5]), families.dumbbell(8, 3),
            families.er_connected(16, 0.5, seed=5)]


def test_latest_cuts_from_one_pivot_are_laminar():
    """The lemma that lets the randomized builder work on unperturbed
    graphs: for every pivot p of a graph with tied minimum cuts, the latest
    (p, v)-cuts over all v are pairwise disjoint or nested, so the cuts a
    split chooses never cross.  Each cut the engine solves is also the one
    a flow from the pivot's end gives, and up to 12 nodes the brute-force
    latest cut."""
    tied = 0
    for g in _tied_graphs():
        if g.n <= 12:
            tied += sum(len(enum_min_sides(g, 0, v)[1]) > 1 for v in range(1, g.n))
        for p in range(g.n):
            engine = SingleSourceEngine(g, g, p)
            cuts = {v: engine.latest_cut(v) for v in range(g.n) if v != p}
            for v, cut in cuts.items():
                assert cut.side == latest_min_cut(g, p, v, wrt=p).side, (g.n, p, v)
            if g.n <= 12:
                assert {v: (c.side, c.value.base) for v, c in cuts.items()} == enum_latest_all(g, p)
            for a, b in itertools.combinations([c.side for c in cuts.values()], 2):
                assert a.isdisjoint(b) or a <= b or b <= a, (g.n, p, sorted(a), sorted(b))
    assert tied >= 10, tied


@pytest.mark.parametrize("loop", [False, True], ids=["loop_off", "loop_on"])
def test_randomized_on_tied_graphs_never_crosses(loop):
    """Without perturbation the randomized builder still never meets
    crossing cuts (LaminarityError) on graphs with tied minimum cuts, over
    100 seeds, and every tree matches the oracle on every pair."""
    cfg = EngineConfig(loop_enabled=loop)
    for g in _tied_graphs():
        oracle = all_pairs_oracle(g)
        for seed in range(100):
            try:
                nt = to_node_tree(build_randomized(g, seed=seed, config=cfg))
            except LaminarityError as exc:
                pytest.fail(f"n={g.n} seed={seed}: {exc}")
            for (u, v), lam in oracle.items():
                assert nt.query(u, v)[0] == lam, (g.n, seed, u, v)


def test_auxiliary_graphs_preserve_flows_during_build(monkeypatch):
    """Every auxiliary graph produced while building keeps the original
    pairwise connectivity of its super-node's vertices."""
    import ghtree.build as build_mod
    from ghtree.graph import auxiliary_graph as real_aux
    from ghtree.flow import MaxFlowSolver

    g = families.er_connected(14, 0.4, seed=91)
    sol = MaxFlowSolver(g)
    seen = []

    def spy(graph, tree, super_id):
        aux, layout = real_aux(graph, tree, super_id)
        seen.append(aux)
        return aux, layout

    monkeypatch.setattr(build_mod, "auxiliary_graph", spy)
    build_deterministic(g)
    assert seen
    for aux in seen:
        idx = aux.index_of
        pairs = sorted(idx)[:4]
        asol = MaxFlowSolver(aux)
        for i, u in enumerate(pairs):
            for v in pairs[i + 1:]:
                assert asol.solve(idx[u], idx[v]) == sol.solve(u, v)


def test_deterministic_one_flow_per_terminal(monkeypatch):
    """With the loop off, every dynamic-pivot run makes exactly one max-flow
    per terminal it does not skip as covered, pivot changes included (a
    change reads the old pivot's side from the flow that triggered it), and
    the build makes no flow outside those runs.  A build that resolves the
    whole graph as one super-node (every minimum cut a degree cut) covers
    nothing, so it makes exactly n - 1."""
    import ghtree.build as build_mod

    runs = []
    orig = build_mod._dynamic_pivot_engine

    def recording(g, aux, cfg):
        engine = orig(g, aux, cfg)
        runs.append((len(engine.table.terminals()), len(engine.covered),
                     engine.pivot_changes, engine.report["flow_calls"]))
        return engine

    monkeypatch.setattr(build_mod, "_dynamic_pivot_engine", recording)
    rng = random.Random(61)
    graphs = [families.er_connected(rng.randint(10, 40), rng.choice([0.3, 0.5]),
                                    seed=rng.randrange(2 ** 32)) for _ in range(6)]
    graphs += [families.clique_chain([6] * 5), families.clique_chain([5, 8, 5]),
               families.clique_chain([4] * 30), families.dumbbell(8, bridges=3)]
    one_shot = moved_runs = covering_runs = 0
    for g in graphs:
        runs.clear()
        rep = {}
        FLOW_CALLS.reset()
        build_deterministic(g, report=rep)
        assert FLOW_CALLS.value == sum(f for *_, f in runs)
        assert rep["covered"] == sum(c for _, c, _, _ in runs)
        for terminals, covered, changes, flows in runs:
            moved_runs += changes > 0
            covering_runs += covered > 0
            assert flows == terminals - covered, (g.n, terminals, covered, changes, flows)
        if rep["supers"] == 1:
            one_shot += 1
            assert rep["covered"] == 0
            assert FLOW_CALLS.value == g.n - 1
    assert one_shot >= 3 and moved_runs >= 10 and covering_runs >= 4, (
        one_shot, moved_runs, covering_runs)


def _lemma_graphs():
    rng = random.Random(62)
    graphs = [families.er_connected(rng.randint(8, 30), rng.choice([0.2, 0.4]),
                                    seed=rng.randrange(2 ** 32)) for _ in range(8)]
    graphs += [families.clique_chain([5, 8, 5]), families.clique_chain([4] * 8),
               families.clique_chain([6, 3, 6, 3]), families.dumbbell(6, bridges=2),
               families.dumbbell(9, bridges=4), families.dumbbell(12, 3)]
    return graphs


@pytest.mark.parametrize("engine_kind", ["dynamic", "randomized"])
def test_covered_terminal_cut_inside_coverer(engine_kind):
    """The lemma behind the skip: for every covered terminal u with coverer
    v, u's own latest cut (solved directly) lies inside v's witness and is
    balanced.  Runs start at the deterministic builder's pivot and at
    every third node, from many of which the dynamic pivot moves while
    covers are held."""
    checked = 0
    for g in _lemma_graphs():
        for start in (None, *range(0, g.n, 3)):
            if engine_kind == "randomized":
                engine = SingleSourceEngine(g, g, start or 0)
                engine.run()
            elif start is None:
                engine = _dynamic_pivot_engine(g, g, None)
            else:
                engine = DynamicPivotEngine(g, g, start)
                engine.run()
            p = engine.pivot_idx
            for u, v in engine.covered.items():
                assert engine.table.done(v) and not engine.table.done(u)
                cut = latest_min_cut(engine.aux, p, engine.idx(u), wrt=p)
                assert cut.side <= engine.table.witness(v), (g.n, u, v)
                assert engine.good(cut.side)
                checked += 1
    assert checked >= 40, checked


def test_deterministic_flow_pins():
    """Skipping covered terminals: clique_chain([10]*20) took 735 flows and
    dumbbell(12, 3) 34 when every terminal was solved.  Loop on, the stages
    skip covered terminals too: clique_chain([10]*20) took 735 flows when
    only the final sweep did."""
    chain = families.clique_chain([10] * 20)
    for g, cfg, most in ((chain, None, 437),
                         (families.dumbbell(12, 3), None, 23),
                         (chain, EngineConfig(loop_enabled=True), 437)):
        FLOW_CALLS.reset()
        rep = {}
        build_deterministic(g, config=cfg, report=rep)
        assert FLOW_CALLS.value <= most, (g.n, FLOW_CALLS.value)
        assert rep["covered"] > 0


def test_loop_enabled_builders():
    cfg = EngineConfig(loop_enabled=True, seed=3)
    rng = random.Random(77)
    for _ in range(6):
        n = rng.randint(8, 16)
        g = families.er_connected(n, 0.5, seed=rng.randrange(2 ** 32))
        assert_oracle_equal(g, build_deterministic(g, config=cfg))
        assert_oracle_equal(g, build_randomized(g, seed=1, config=cfg))


@pytest.mark.parametrize("graph,most", [
    pytest.param("planted_4x16", (63, 108), id="planted_4x16"),
    pytest.param("clique_chain_8x3", (30, 44), id="clique_chain_8x3"),
    pytest.param("clique_chain_16x8", (206, 247), id="clique_chain_16x8"),
    pytest.param("er_200", (199, 212), id="er_200"),
])
def test_loop_never_repeats_a_solve_on_one_solver(monkeypatch, graph, most):
    """Loop-on builds ask each solver for a (pivot, terminal) latest cut at
    most once: what a solve proves is recorded by ``settle``, so no later
    step solves the same pair on the same solver again.  ``most`` bounds the
    flows of the deterministic and the randomized build."""
    g = {"planted_4x16": lambda: planted_partition(4, 16, 0.5, 0.03, seed=42),
         "clique_chain_8x3": lambda: families.clique_chain([8, 8, 8]),
         "clique_chain_16x8": lambda: families.clique_chain([16] * 8),
         "er_200": lambda: families.er_connected(200, 0.045, seed=42)}[graph]()
    asked: list[tuple] = []
    solvers = []     # keeps every solver alive, so no id is reused
    latest_cut = single_source.SingleSourceEngine.latest_cut

    def recording(engine, v):
        s = engine.aux_solver
        solvers.append(s)
        asked.append((id(s), engine.pivot_orig, v))
        return latest_cut(engine, v)

    monkeypatch.setattr(single_source.SingleSourceEngine, "latest_cut", recording)
    cfg = EngineConfig(loop_enabled=True, seed=42)
    for build, bound in zip((lambda: build_deterministic(g, config=cfg),
                             lambda: build_randomized(g, seed=42, config=cfg)), most):
        asked.clear()
        FLOW_CALLS.reset()
        build()
        assert asked and len(asked) == len(set(asked))
        assert FLOW_CALLS.value <= bound, (FLOW_CALLS.value, bound)


def two_core(seed: int = 42) -> Graph:
    """Two dense blocks joined by 12 random edges: 40 nodes at p = 0.4 and
    60 at p = 0.8.  Unlike the other graphs here, a loop stage's paper
    graph, the (2w + 1)-sparsifier of the auxiliary graph, drops edges on
    it (in one stage of each paper builder, the randomized one at seed 42)."""
    rng = random.Random(seed)
    a, b = range(40), range(40, 100)
    pairs = [(u, v) for u in a for v in a if u < v and rng.random() < 0.4]
    pairs += [(u, v) for u in b for v in b if u < v and rng.random() < 0.8]
    pairs += rng.sample([(u, v) for u in a for v in b], 12)
    return Graph.from_edges(100, pairs)


LOOP_GRAPHS = {
    "planted_4x16": lambda: planted_partition(4, 16, 0.5, 0.03, seed=42),
    "planted_5x24": lambda: planted_partition(5, 24, 0.5, 0.01, seed=42),
    "clique_chain_16x8": lambda: families.clique_chain([16] * 8),
    "clique_chain_8x3": lambda: families.clique_chain([8] * 3),
    "er_200": lambda: families.er_connected(200, 0.045, seed=42),
    "er_120_dense": lambda: families.er_connected(120, 0.3, seed=42),
    "two_core": two_core,
}


@pytest.mark.parametrize("graph", sorted(LOOP_GRAPHS))
def test_loop_on_trees_equal_loop_off(graph):
    """The elimination loop changes how a terminal's latest cut is found,
    never which cut it is: for both paper builders, the loop-on tree
    serializes byte for byte like the loop-off one."""
    g = LOOP_GRAPHS[graph]()
    for build in (lambda cfg: build_deterministic(g, config=cfg),
                  lambda cfg: build_randomized(g, seed=42, config=cfg)):
        off, on = (to_node_tree(build(EngineConfig(loop_enabled=loop))).serialize()
                   for loop in (False, True))
        assert on == off


def test_loop_on_randomized_er_200_flows_over_seeds():
    """The randomized count on er_200 at seed 42 (212) depends on the pivot
    draws, so the flows are also summed over seeds 0-19: 4269 with every
    stage candidate solved alone, against 4466 when each stage also ran
    batch isolating cuts and 4801 when each super-node was perturbed."""
    g = families.er_connected(200, 0.045, seed=42)
    total = 0
    for seed in range(20):
        FLOW_CALLS.reset()
        build_randomized(g, seed=seed, config=EngineConfig(loop_enabled=True, seed=42))
        total += FLOW_CALLS.value
    assert total <= 4269, total


@pytest.mark.parametrize("name,most", [
    pytest.param("deterministic", 63, id="deterministic"),
    pytest.param("randomized", 108, id="randomized"),
])
def test_loop_on_planted_4x16_flows_and_tree(name, most):
    """Each paper builder, loop on, stays within its own flow bound on
    planted 4x16 (the benchmark's elimination_loop graph), and its tree
    matches Gusfield's on every pair.  Both engines start their stages at
    2^floor(log2(n)/2)."""
    g = planted_partition(4, 16, 0.5, 0.03, seed=42)
    build = {"deterministic": lambda cfg: build_deterministic(g, config=cfg),
             "randomized": lambda cfg: build_randomized(g, seed=42, config=cfg)}[name]
    FLOW_CALLS.reset()
    tree = to_node_tree(build(EngineConfig(loop_enabled=True, seed=42)))
    assert FLOW_CALLS.value <= most, FLOW_CALLS.value
    reference = to_node_tree(gusfield(g))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert tree.query(u, v)[0] == reference.query(u, v)[0], (u, v)


def test_loop_on_build_does_not_import_numpy():
    """A loop-on stage offers every candidate alone and runs no expander
    decomposition, so a fresh interpreter that builds planted 4x16 loop-on
    with both paper builders never loads numpy (the Fiedler sweep's import)."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from ghtree import EngineConfig\n"
        "from ghtree.build import build_deterministic, build_randomized\n"
        "from oracles import planted_partition\n"
        "g = planted_partition(4, 16, 0.5, 0.03, seed=42)\n"
        "build_deterministic(g, config=EngineConfig(loop_enabled=True))\n"
        "build_randomized(g, seed=42, config=EngineConfig(loop_enabled=True))\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"], out.stdout
