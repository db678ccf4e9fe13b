import math
import random

import pytest

from ghtree import expander, families, single_source
from ghtree.build import (
    LaminarityError,
    RandomizedAbort,
    build_deterministic,
    build_randomized,
    is_good_pivot,
)
from ghtree.dynamic import DynamicPivotEngine, _dynamic_pivot_engine
from ghtree.flow import FLOW_CALLS, latest_min_cut
from ghtree.graph import Graph, GraphError
from ghtree.partition import to_node_tree
from ghtree.single_source import EngineConfig, SingleSourceEngine
from ghtree.sparsify import perturb
from ghtree.weights import Weight

from oracles import all_pairs_oracle, planted_partition


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


def test_randomized_rejects_bad_input():
    with pytest.raises(GraphError):
        build_randomized(Graph.from_edges(3, [(0, 1), (0, 1)], simple=False), seed=0)
    with pytest.raises(GraphError):
        build_randomized(Graph.from_edges(4, [(0, 1), (2, 3)]), seed=0)


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
        aux, idx = real_aux(graph, tree, super_id)
        seen.append((aux, dict(idx)))
        return aux, idx

    monkeypatch.setattr(build_mod, "auxiliary_graph", spy)
    build_deterministic(g)
    assert seen
    for aux, idx in seen:
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
                engine = SingleSourceEngine(g, g, perturb(g, seed=g.n), start or 0)
                engine.run()
            elif start is None:
                engine = _dynamic_pivot_engine(g, g, None)
            else:
                engine = DynamicPivotEngine(g, g, start)
                engine.run()
            p = engine.pivot_idx
            for u, v in engine.covered.items():
                assert engine.table.done(v) and not engine.table.done(u)
                cut = latest_min_cut(engine.work, p, engine.idx(u), wrt=p)
                assert cut.side <= engine.table.witness(v), (g.n, u, v)
                assert engine.good(cut.side)
                checked += 1
    assert checked >= 40, checked


def test_deterministic_flow_pins():
    """Skipping covered terminals: clique_chain([10]*20) took 735 flows and
    dumbbell(12, 3) 34 when every terminal was solved."""
    for g, most in ((families.clique_chain([10] * 20), 437),
                    (families.dumbbell(12, 3), 23)):
        FLOW_CALLS.reset()
        rep = {}
        build_deterministic(g, report=rep)
        assert FLOW_CALLS.value <= most, (g.n, FLOW_CALLS.value)
        assert rep["covered"] > 0


def test_loop_enabled_builders(monkeypatch):
    cfg = EngineConfig(loop_enabled=True, phi=0.25, seed=3)
    monkeypatch.setattr(single_source, "candidate_threshold", lambda n: 4)
    monkeypatch.setattr(expander, "EXACT_CUT_LIMIT", 12)
    rng = random.Random(77)
    for _ in range(6):
        n = rng.randint(8, 16)
        g = families.er_connected(n, 0.5, seed=rng.randrange(2 ** 32))
        assert_oracle_equal(g, build_deterministic(g, config=cfg))
        assert_oracle_equal(g, build_randomized(g, seed=1, config=cfg))


@pytest.mark.parametrize("graph", ["planted_4x16", "clique_chain_8x3", "er_200"])
def test_loop_never_repeats_a_solve_on_one_solver(monkeypatch, graph):
    """Loop-on builds ask each solver for a (pivot, terminal) latest cut at
    most once: what a solve proves is recorded by ``settle``, so no later
    step solves the same pair on the same solver again."""
    g = {"planted_4x16": lambda: planted_partition(4, 16, 0.5, 0.03, seed=42),
         "clique_chain_8x3": lambda: families.clique_chain([8, 8, 8]),
         "er_200": lambda: families.er_connected(200, 0.045, seed=42)}[graph]()
    asked: list[tuple] = []
    solvers = []     # keeps every solver alive, so no id is reused
    latest_cut = single_source.SingleSourceEngine.latest_cut

    def recording(engine, v, solver=None, cutoff=None):
        s = solver if solver is not None else engine.work_solver
        solvers.append(s)
        asked.append((id(s), engine.pivot_orig, v))
        return latest_cut(engine, v, solver, cutoff)

    monkeypatch.setattr(single_source.SingleSourceEngine, "latest_cut", recording)
    cfg = EngineConfig(loop_enabled=True, seed=42)
    for build in (lambda: build_deterministic(g, config=cfg),
                  lambda: build_randomized(g, seed=42, config=cfg)):
        asked.clear()
        build()
        assert asked and len(asked) == len(set(asked))
