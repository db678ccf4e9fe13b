import random

import pytest

from ghtree import families
from ghtree.dynamic import DynamicPivotEngine, single_source_dynamic_pivot
from ghtree.flow import FLOW_CALLS, MaxFlowSolver, latest_min_cut
from ghtree.single_source import (
    EngineConfig,
    EngineError,
    SingleSourceEngine,
    single_source_mincuts,
    splitter_isolating_step,
    stage_w,
)
from ghtree.sparsify import ni_sparsify
from ghtree.weights import Weight

from oracles import assert_latest_table, dynamic_from, run_from_stage_one


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
            assert len(engine.aux.expand(engine.table.witness(v)) & set(range(20))) == 20
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
    with itself as witness: its cut, 1, is below the stage bound 2."""
    g = families.star(5)
    engine = make_engine(g, 0)
    solver = MaxFlowSolver(ni_sparsify(engine.aux, 2))
    assert _flows(lambda: splitter_isolating_step(engine, 1, solver, [1, 2, 3, 4, 5])) == 5
    for v in range(1, 6):
        e = engine.table.entries[v]
        assert e.done and e.value.base == e.floor.base == 1
        assert e.witness == frozenset({engine.idx(v)})
    assert not engine.covered


def test_lone_solve_finds_bridge_side():
    # two hubs; the pivot is the big hub, and the small hub's latest cut
    # is the bridge with the small hub's leaf on its side
    g = families.double_star(1, 6)
    # node 0: left hub (degree 2), node 1: right hub (degree 7)
    engine = make_engine(g, 1)
    w = 2
    solver = MaxFlowSolver(ni_sparsify(engine.aux, 2 * w))
    assert engine.table.estimate(0).base == 2
    assert _flows(lambda: splitter_isolating_step(engine, w, solver, [0])) == 1
    # the bridge cut {hub, its leaf} of value 1 beats the degree estimate 2
    e = engine.table.entries[0]
    assert e.done and e.value.base == e.floor.base == 1
    assert engine.aux.expand(e.witness) == frozenset({0, 2})
    # the witness is balanced, so it covers the hub's leaf
    assert engine.covered == {2: 0}


def test_lone_isolating_cut_below_the_stage_bound_settles():
    """Stage w keeps every cut below 2w exact, so a lone terminal's
    isolating cut below 2w is its latest minimum cut: the terminal is done,
    with that cut as witness, and covers the terminals inside it.  One at
    or above 2w proves only the floor 2w."""
    g = families.dumbbell(6, bridges=2)
    engine = make_engine(g, 11)
    w = 2
    cap = Weight(2 * w, 0)
    solver = MaxFlowSolver(ni_sparsify(engine.aux, 2 * w))
    assert _flows(lambda: splitter_isolating_step(engine, w, solver, [0])) == 1
    latest = latest_min_cut(engine.aux, engine.pivot_idx, engine.idx(0), wrt=engine.pivot_idx)
    assert latest.value < cap
    e = engine.table.entries[0]
    assert e.done and e.value == e.floor == latest.value
    assert e.witness == latest.side
    assert engine.covered == {u: 0 for u in range(1, 6)}
    # node 6 sits in the pivot's clique: lambda = 5 >= 2w
    before = engine.table.estimate(6)
    assert _flows(lambda: splitter_isolating_step(engine, w, solver, [6])) == 1
    e = engine.table.entries[6]
    assert not e.done and e.floor == cap and e.value == before
    # a covered candidate is skipped, and one at its floor 2w is not solved again
    assert _flows(lambda: splitter_isolating_step(engine, w, solver, [1, 6])) == 0
    assert not engine.table.done(1) and engine.table.entries[1].floor == Weight(0, 0)


@pytest.mark.parametrize("engine_cls", [SingleSourceEngine, DynamicPivotEngine])
def test_floor_meeting_the_estimate_settles_without_a_flow(engine_cls):
    """``settle``'s floor rule: an undone terminal whose proven floor meets
    its estimate is done with its current witness and no flow, and
    ``sweep`` lets it cover the undone terminals inside that witness."""
    g = families.dumbbell(6, bridges=2)
    engine = engine_cls(g, g, 11)
    clique = frozenset(engine.idx(u) for u in range(6))
    e = engine.table.entries[0]
    e.value = e.floor = Weight(2, 0)   # the bridges: a balanced minimum cut
    e.witness = clique
    assert _flows(lambda: engine.sweep([0])) == 0
    assert e.done and e.witness == clique and e.value == e.floor == Weight(2, 0)
    assert engine.covered == {u: 0 for u in range(1, 6)}
    assert engine.pivot_orig == 11
    assert not any(engine.table.done(u) for u in range(1, 11))


def test_stage_graph_keeping_every_edge_settles_uncapped():
    """A cycle's stage graph at w = 1 keeps every edge, so it is the
    auxiliary graph: the stage solves on the engine's own solver, and each
    terminal settles at its connectivity 2, at or above 2w."""
    g = families.cycle(8)
    engine = make_engine(g, 0)
    stage_w(engine, 1)
    assert engine.report["stages"][0]["gw_edges"] == engine.aux.edge_instances
    oracle_check(g, engine, 0)


def test_splitter_step_empty_part_is_noop():
    g = families.er_connected(8, 0.5, seed=14)
    engine = make_engine(g, 0)
    before = {v: (e.value, e.witness, e.done, e.floor) for v, e in engine.table.entries.items()}
    gw = ni_sparsify(engine.aux, 4)
    assert _flows(lambda: splitter_isolating_step(engine, 2, MaxFlowSolver(gw), [])) == 0
    assert {v: (e.value, e.witness, e.done, e.floor)
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


def test_candidate_halving_on_designed_instance():
    g = families.dumbbell(20, bridges=10)
    engine = make_engine(g, 25, EngineConfig(loop_enabled=True, seed=20))
    engine.run()
    engine.settle_covered()
    oracle_check(g, engine, 25)
