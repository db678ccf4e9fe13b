import random

import pytest

from ghtree import Graph, GraphError, families
from ghtree.dynamic import DynamicPivotEngine, single_source_dynamic_pivot
from ghtree.flow import FLOW_CALLS, MaxFlowSolver, latest_min_cut
from ghtree.partition import PartitionTree
from ghtree.single_source import (
    EngineConfig,
    EngineError,
    SingleSourceEngine,
    single_source_mincuts,
    splitter_isolating_step,
    stage_w,
)
from ghtree.sparsify import ni_sparsify, perturb
from ghtree.weights import Weight

from oracles import assert_latest_table, dynamic_from, expand, planted_partition, run_from_stage_one


def make_engine(g, p, config=None):
    return SingleSourceEngine(g, g, p, config or EngineConfig())


def oracle_check(g, engine, p):
    assert_latest_table(g, p, engine.table)


def test_k4_initial_estimates_already_optimal():
    g = families.complete(4)
    table = single_source_mincuts(g, g, 0)
    for v in (1, 2, 3):
        assert table.estimate(v).base == 3
        assert table.done(v)


def test_star_center_pivot():
    g = families.star(5)
    table = single_source_mincuts(g, g, 0)
    for v in range(1, 6):
        assert table.estimate(v).base == 1


def test_dumbbell_of_cliques_n40():
    g = families.dumbbell(20, bridges=10)
    p = 25  # right clique
    engine = make_engine(g, p)
    engine.run()
    engine.settle_covered()
    for v in engine.table.terminals():
        if v < 20:
            # across the ten-edge band
            assert engine.table.estimate(v).base == 10, v
            side = expand(PartitionTree.single(g.n), 0, engine.aux, engine.table.witness(v))
            assert len(side & set(range(20))) == 20
        else:
            assert engine.table.estimate(v).base in (19, 20), v
    oracle_check(g, engine, p)


def test_stage_empty_candidates_skips():
    g = families.complete(4)
    engine = make_engine(g, 0)
    run_from_stage_one(engine)
    skipped = [s for s in engine.report["stages"] if s.get("skipped")]
    assert skipped, "complete graph stages beyond the degree should skip"
    oracle_check(g, engine, 0)


def test_loop_off_runs_no_stages():
    """Loop off, the run is the final sweep alone: one flow per terminal
    it does not skip as covered, and ``settle_covered`` solves the rest.
    Terminal 0's latest cut is the left clique, which covers 1..5."""
    g = families.dumbbell(6, bridges=2)
    engine = make_engine(g, 11)
    engine.run()
    terminals = len(engine.table.terminals())
    assert engine.report["stages"] == []
    assert engine.report["covered"] == len(engine.covered) == 5
    assert engine.covered == {u: 0 for u in range(1, 6)}
    assert engine.report["final_sweep_solves"] == terminals - 5
    assert engine.report["flow_calls"] == terminals - 5
    engine.settle_covered()
    assert engine.report["flow_calls"] == terminals
    assert engine.report["covered"] == 0 and not engine.covered
    oracle_check(g, engine, 11)


def _witness_graphs():
    rng = random.Random(77)
    graphs = [families.er_connected(rng.randint(6, 30), rng.choice([0.2, 0.4, 0.7]),
                                    seed=rng.randrange(2 ** 32)) for _ in range(8)]
    graphs += [families.clique_chain([5, 5, 5]), families.clique_chain([4, 7, 3, 6]),
               families.dumbbell(6, bridges=2), families.dumbbell(9, bridges=4)]
    return graphs


@pytest.mark.parametrize("mode", ["randomized", "dynamic"])
def test_loop_off_witnesses_are_latest_cuts(mode):
    """Each witness of the loop-off engine is the latest minimum cut with
    respect to the (final) pivot, as the stand-alone flow routine finds it,
    whatever the pivot and however often it moved."""
    rng = random.Random(78)
    moved = 0
    for g in _witness_graphs():
        for start in (None, min(range(g.n), key=lambda v: (g.degree(v), v))):
            if mode == "randomized":
                p = rng.randrange(g.n) if start is None else start
                engine = make_engine(g, p)
                engine.run()
                engine.settle_covered()
            else:
                _, _, engine = (single_source_dynamic_pivot(g, g) if start is None
                                else dynamic_from(g, start))
                moved += engine.pivot_changes > 0
            pivot = engine.pivot_idx
            for v in engine.table.terminals():
                cut = latest_min_cut(engine.aux, pivot, engine.idx(v), wrt=pivot)
                assert engine.table.witness(v) == cut.side, (g.n, v)
                assert engine.table.estimate(v) == cut.value, (g.n, v)
                assert engine.table.done(v)
    if mode == "dynamic":
        assert moved >= 3, moved


def test_unsettled_run_is_an_error(monkeypatch):
    g = families.complete(4)
    engine = make_engine(g, 0)
    monkeypatch.setattr(engine, "final_sweep", lambda: None)
    with pytest.raises(EngineError):
        engine.run()


def test_stage_small_candidate_set_goes_direct():
    g = families.er_connected(12, 0.5, seed=6)
    engine = make_engine(g, 0)
    run_from_stage_one(engine)
    oracle_check(g, engine, 0)


def test_estimates_monotone_and_sound():
    """Through every stage from w = 1 and the final sweep, each estimate
    only drops, and ends at the terminal's latest cut."""
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(5, 14)
        g = families.er_connected(n, 0.5, seed=rng.randrange(2 ** 32))
        p = rng.randrange(n)
        engine = make_engine(g, p)
        history = {v: [engine.table.estimate(v)] for v in engine.table.terminals()}

        def spying(method):
            def spy(v, *args, **kw):
                out = method(v, *args, **kw)
                history[v].append(engine.table.estimate(v))
                return out
            return spy

        # settle is the only step that moves a random pivot's estimates
        engine.settle = spying(engine.settle)
        run_from_stage_one(engine)
        for v, hist in history.items():
            assert all(b <= a for a, b in zip(hist, hist[1:]))
        oracle_check(g, engine, p)


def test_end_to_end_many_seeds():
    rng = random.Random(1234)
    for _ in range(50):
        n = rng.randint(4, 40)
        p_edge = rng.choice([0.2, 0.5, 0.8])
        g = families.er_connected(n, p_edge, seed=rng.randrange(2 ** 32))
        p = rng.randrange(n)
        engine = make_engine(g, p)
        engine.run()
        engine.settle_covered()
        oracle_check(g, engine, p)


# -- the stage's candidate pass ----------------------------------------------


def _flows(step):
    before = FLOW_CALLS.value
    step()
    return FLOW_CALLS.value - before


def test_lone_solves_settle_star_leaves():
    """Each leaf of a star, solved alone on the stage-1 solver, is done
    with itself as witness: its estimate, 1, is within the stage bound 2."""
    g = families.star(5)
    engine = make_engine(g, 0)
    solver = MaxFlowSolver(ni_sparsify(engine.aux, 3))
    assert _flows(lambda: splitter_isolating_step(engine, 1, solver, [1, 2, 3, 4, 5])) == 5
    for v in range(1, 6):
        e = engine.table.entries[v]
        assert e.done and e.value.base == 1
        assert e.witness == frozenset({engine.idx(v)})
    assert not engine.covered


def test_lone_solve_finds_bridge_side():
    # two hubs; the pivot is the big hub, and the small hub's latest cut
    # is the bridge with the small hub's leaf on its side
    g = families.double_star(1, 6)
    # node 0: left hub (degree 2), node 1: right hub (degree 7)
    engine = make_engine(g, 1)
    w = 2
    solver = MaxFlowSolver(ni_sparsify(engine.aux, 2 * w + 1))
    assert engine.table.estimate(0).base == 2
    assert _flows(lambda: splitter_isolating_step(engine, w, solver, [0])) == 1
    # the bridge cut {hub, its leaf} of value 1 beats the degree estimate 2
    e = engine.table.entries[0]
    assert e.done and e.value.base == 1
    assert expand(PartitionTree.single(g.n), 0, engine.aux, e.witness) == frozenset({0, 2})
    # the witness is balanced, so it covers the hub's leaf
    assert engine.covered == {2: 0}


def test_lone_isolating_cut_below_the_stage_bound_settles():
    """Stage w keeps every cut of weight at most 2w exact, so a lone
    candidate's isolating cut is its latest minimum cut: the terminal is
    done, with that cut as witness, and covers the terminals inside it."""
    g = families.dumbbell(6, bridges=2)
    engine = make_engine(g, 11)
    w = 3   # terminals 0 and 6 have degree 6 = 2w
    solver = MaxFlowSolver(ni_sparsify(engine.aux, 2 * w + 1))
    assert _flows(lambda: splitter_isolating_step(engine, w, solver, [0])) == 1
    latest = latest_min_cut(engine.aux, engine.pivot_idx, engine.idx(0), wrt=engine.pivot_idx)
    e = engine.table.entries[0]
    assert e.done and e.value == latest.value == Weight(2, 0)
    assert e.witness == latest.side
    assert engine.covered == {u: 0 for u in range(1, 6)}
    # node 6 sits in the pivot's clique: lambda = 5, exact below 2w too
    assert _flows(lambda: splitter_isolating_step(engine, w, solver, [6])) == 1
    latest = latest_min_cut(engine.aux, engine.pivot_idx, engine.idx(6), wrt=engine.pivot_idx)
    e = engine.table.entries[6]
    assert e.done and e.value == latest.value == Weight(5, 0)
    assert e.witness == latest.side
    # a covered candidate is skipped, and a done one is not solved again
    assert _flows(lambda: splitter_isolating_step(engine, w, solver, [1, 6])) == 0
    assert not engine.table.done(1)


def _cycle_through_a_clique():
    """An 8-cycle whose node 0 lies in a 12-clique: 74 edges, more than
    the three spanning forests of a (2w+1)-sparsifier at w = 1 keep."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    clique = [0] + list(range(8, 19))
    edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
    return Graph.from_edges(19, edges)


@pytest.mark.parametrize("engine_cls", [SingleSourceEngine, DynamicPivotEngine])
def test_estimate_at_the_stage_bound_settles_with_its_latest_cut(engine_cls):
    """A candidate with lambda = e = 2w is solved once on the stage solver
    and settles with its latest cut, not with the old witness of the same
    weight: the (2w+1)-sparsifier keeps cuts of weight 2w exact."""
    g = _cycle_through_a_clique()
    engine = engine_cls(g, g, 0)
    w = 1
    gw = ni_sparsify(engine.aux, 2 * w + 1)
    assert gw.edge_instances < engine.aux.edge_instances
    e = engine.table.entries[4]
    arc = frozenset(engine.idx(u) for u in (3, 4, 5))   # cut by 2-3 and 5-6
    e.witness = arc
    assert e.value == Weight(2 * w, 0) == engine.aux.cut_weight(arc)
    assert _flows(lambda: splitter_isolating_step(engine, w, MaxFlowSolver(gw), [4])) == 1
    assert e.done and e.value == Weight(2, 0) and e.witness == frozenset({engine.idx(4)})
    assert engine.pivot_orig == 0 and not engine.covered


def test_candidate_above_the_stage_bound_raises_before_any_flow():
    """The stage graph keeps only cuts of weight at most 2w exact, so the
    pass refuses a candidate whose estimate exceeds 2w, before any flow."""
    g = families.dumbbell(6, bridges=2)
    engine = make_engine(g, 11)
    w = 2   # terminal 0 has degree 6 > 2w; terminal 2 has degree 5
    before = {v: (e.value, e.witness, e.done) for v, e in engine.table.entries.items()}
    solver = MaxFlowSolver(ni_sparsify(engine.aux, 2 * w + 1))
    flows = FLOW_CALLS.value
    with pytest.raises(EngineError, match="exceeds 2w"):
        splitter_isolating_step(engine, w, solver, [0, 2])
    with pytest.raises(EngineError, match="exceeds 2w"):
        splitter_isolating_step(engine, w, solver, [2, 0])
    assert FLOW_CALLS.value == flows
    assert {v: (e.value, e.witness, e.done)
            for v, e in engine.table.entries.items()} == before


def test_pivot_move_resetting_a_later_candidate_above_the_bound_passes_it_over():
    """A pivot move resets a witness that holds the new pivot to the
    degree cut.  When that lifts a later candidate's estimate above 2w,
    its stage cut could be inexact, so the pass leaves it undone, with no
    flow, for later stages and the final sweep.

    Hand-built state: pivot 0 sits in a 4-clique joined by one bridge to
    the rest, so candidate 4's latest cut (value 1) holds 17 of the 21
    terminals and moves the pivot to 4.  Candidates 4 and 19 hold as
    witness the 16-clique W, a cut of weight 3 (the bridge and node 20's
    two edges into W) that holds node 4, so the move resets 19's estimate
    to its degree, 15 > 2w.  Solved on the stage graph, 19 would read 5."""
    clique = [(u, v) for u in range(4, 20) for v in range(u + 1, 20)]
    small = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = Graph.from_edges(21, small + clique + [(3, 4), (20, 6), (20, 7)])
    engine = DynamicPivotEngine(g, g, 0)
    w = 2
    heavy = frozenset(engine.idx(u) for u in range(4, 20))
    assert engine.aux.cut_weight(heavy) == Weight(3, 0)
    for v in (4, 19):
        e = engine.table.entries[v]
        e.value, e.witness = Weight(3, 0), heavy
    solver = MaxFlowSolver(ni_sparsify(engine.aux, 2 * w + 1))
    assert _flows(lambda: splitter_isolating_step(engine, w, solver, [4, 19])) == 1
    assert engine.pivot_orig == 4
    e = engine.table.entries[19]
    assert not e.done and e.value == Weight(15, 0) and e.witness == frozenset({engine.idx(19)})
    engine.final_sweep()
    engine.settle_covered()
    assert_latest_table(g, engine.pivot_orig, engine.table)


def test_stage_graph_keeping_every_edge_settles_uncapped():
    """A cycle's stage graph at w = 1 keeps every edge, so it is the
    auxiliary graph: the stage solves on the engine's own solver, and each
    terminal settles at its connectivity 2 = 2w."""
    g = families.cycle(8)
    engine = make_engine(g, 0)
    stage_w(engine, 1)
    assert engine.report["stages"][0]["gw_edges"] == engine.aux.edge_instances
    oracle_check(g, engine, 0)


def test_splitter_step_empty_part_is_noop():
    g = families.er_connected(8, 0.5, seed=14)
    engine = make_engine(g, 0)
    before = {v: (e.value, e.witness, e.done) for v, e in engine.table.entries.items()}
    gw = ni_sparsify(engine.aux, 5)
    assert _flows(lambda: splitter_isolating_step(engine, 2, MaxFlowSolver(gw), [])) == 0
    assert {v: (e.value, e.witness, e.done)
            for v, e in engine.table.entries.items()} == before
    assert not engine.covered


def test_improving_cuts_distinct():
    rng = random.Random(19)
    for _ in range(10):
        g = families.er_connected(rng.randint(8, 16), 0.4,
                                  seed=rng.randrange(2 ** 32))
        engine = make_engine(g, 0)
        run_from_stage_one(engine)
        oracle_check(g, engine, 0)


@pytest.mark.parametrize("engine_cls", [SingleSourceEngine, DynamicPivotEngine])
def test_loop_on_a_perturbed_auxiliary_graph_is_refused(engine_cls):
    """Stage graphs drop perturbation units, so a loop-on stage cut on a
    perturbed graph loses them (here terminal 34 read 14.0, not its latest
    cut's 14.75...): the engine refuses that pair before any flow.  Loop
    off, the same perturbed graph gives every terminal's latest cut."""
    g = planted_partition(4, 25, 0.8, 0.01, seed=1)
    gp = perturb(g, seed=1)
    flows = FLOW_CALLS.value
    with pytest.raises(GraphError, match="unperturbed"):
        engine_cls(g, gp, 0, EngineConfig(loop_enabled=True))
    with pytest.raises(GraphError, match="unperturbed"):
        single_source_mincuts(g, gp, 0, EngineConfig(loop_enabled=True))
    assert FLOW_CALLS.value == flows
    assert_latest_table(gp, 0, single_source_mincuts(g, gp, 0))


def test_candidate_halving_on_designed_instance():
    g = families.dumbbell(20, bridges=10)
    engine = make_engine(g, 25, EngineConfig(loop_enabled=True, seed=20))
    engine.run()
    engine.settle_covered()
    oracle_check(g, engine, 25)
