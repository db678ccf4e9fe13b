import random

import pytest

from ghtree import families
from ghtree.dynamic import single_source_dynamic_pivot
from ghtree.flow import MaxFlowSolver, latest_min_cut
from ghtree.single_source import (
    EngineConfig,
    EngineError,
    SingleSourceEngine,
    easy_cuts_step,
    offer_isolating_cuts,
    single_source_mincuts,
    splitter_isolating_step,
    stage_w,
)
from ghtree.sparsify import perturb
from ghtree.weights import Weight

from oracles import dynamic_from


def make_engine(g, p, config=None, perturbed=True, seed=0):
    work = perturb(g, seed=seed) if perturbed else g
    cfg = config or EngineConfig(stage_from_zero=True)
    return SingleSourceEngine(g, g, work, p, cfg)


def oracle_check(g, engine, p):
    sol = MaxFlowSolver(engine.work)
    for v in engine.table.terminals():
        lam = sol.solve(engine.idx(p), engine.idx(v))
        got = engine.table.estimate(v)
        assert got.scaled(engine.work.unit) == lam, (p, v)
        assert engine.work.cut_weight(engine.table.witness(v)) == got
        assert engine.table.done(v)


def test_k4_initial_estimates_already_optimal():
    g = families.complete(4)
    table = single_source_mincuts(g, g, perturb(g, seed=1), 0,
                                  EngineConfig(stage_from_zero=True))
    for v in (1, 2, 3):
        assert table.estimate(v).base == 3
        assert table.done(v)


def test_star_center_pivot():
    g = families.star(5)
    table = single_source_mincuts(g, g, perturb(g, seed=2), 0,
                                  EngineConfig(stage_from_zero=True))
    for v in range(1, 6):
        assert table.estimate(v).base == 1


def test_dumbbell_of_cliques_n40():
    g = families.dumbbell(20, bridges=10)
    p = 25  # right clique
    engine = make_engine(g, p, seed=3)
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
    cfg = EngineConfig(stage_from_zero=True, loop_enabled=True)
    engine = make_engine(g, 0, config=cfg, seed=4)
    engine.run()
    engine.settle_covered()
    skipped = [s for s in engine.report["stages"] if s.get("skipped")]
    assert skipped, "complete graph stages beyond the degree should skip"
    oracle_check(g, engine, 0)


def test_loop_off_runs_no_stages():
    """Loop off, the run is the final sweep alone: one flow per terminal
    it does not skip as covered, and ``settle_covered`` solves the rest.
    Terminal 0's latest cut is the left clique, which covers 1..5."""
    g = families.dumbbell(6, bridges=2)
    engine = make_engine(g, 11, config=EngineConfig(), seed=5)
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
                engine = make_engine(g, p, config=EngineConfig(),
                                     seed=rng.randrange(2 ** 32))
                engine.run()
                engine.settle_covered()
            else:
                _, _, engine = (single_source_dynamic_pivot(g, g) if start is None
                                else dynamic_from(g, start))
                moved += engine.pivot_changes > 0
            pivot = engine.pivot_idx
            for v in engine.table.terminals():
                cut = latest_min_cut(engine.work, pivot, engine.idx(v), wrt=pivot)
                assert engine.table.witness(v) == cut.side, (g.n, v)
                assert engine.table.estimate(v) == cut.value, (g.n, v)
                assert engine.table.done(v)
    if mode == "dynamic":
        assert moved >= 3, moved


def test_unsettled_run_is_an_error(monkeypatch):
    g = families.complete(4)
    engine = make_engine(g, 0, config=EngineConfig(), seed=6)
    monkeypatch.setattr(engine, "final_sweep", lambda: None)
    with pytest.raises(EngineError):
        engine.run()


def test_stage_small_candidate_set_goes_direct():
    g = families.er_connected(12, 0.5, seed=6)
    cfg = EngineConfig(stage_from_zero=True, loop_enabled=True)
    engine = make_engine(g, 0, config=cfg, seed=6)
    engine.run()
    engine.settle_covered()
    oracle_check(g, engine, 0)


def test_estimates_monotone_and_sound():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(5, 14)
        g = families.er_connected(n, 0.5, seed=rng.randrange(2 ** 32))
        p = rng.randrange(n)
        engine = make_engine(g, p, seed=rng.randrange(2 ** 32))
        history = {v: [engine.table.estimate(v)] for v in engine.table.terminals()}

        def spying(method):
            def spy(v, *args, **kw):
                out = method(v, *args, **kw)
                history[v].append(engine.table.estimate(v))
                return out
            return spy

        # offer lowers estimates and settle records proven ones
        engine.offer = spying(engine.offer)
        engine.settle = spying(engine.settle)
        engine.run()
        engine.settle_covered()
        sol = MaxFlowSolver(engine.work)
        for v, hist in history.items():
            assert all(b <= a for a, b in zip(hist, hist[1:]))
            lam = sol.solve(engine.idx(p), engine.idx(v))
            assert hist[-1].scaled(engine.work.unit) == lam


def test_end_to_end_many_seeds():
    rng = random.Random(1234)
    for _ in range(50):
        n = rng.randint(4, 40)
        p_edge = rng.choice([0.2, 0.5, 0.8])
        g = families.er_connected(n, p_edge, seed=rng.randrange(2 ** 32))
        p = rng.randrange(n)
        engine = make_engine(g, p, seed=rng.randrange(2 ** 32))
        engine.run()
        engine.settle_covered()
        oracle_check(g, engine, p)


# -- easy-cuts step ----------------------------------------------------------


def test_easy_cut_settles_singleton():
    g = families.star(5)
    engine = make_engine(g, 0, seed=11)
    gw = engine.stage_graph(1)
    easy_cuts_step(engine, 1, MaxFlowSolver(gw))
    for v in range(1, 6):
        assert engine.table.estimate(v).base == 1
        assert engine.table.witness(v) == frozenset({engine.idx(v)})


def test_easy_cut_dumbbell_bridge_side():
    # two hubs; pivot is the big hub, and the small hub is the only
    # high-degree node on its side of the bridge cut: isolated exactly
    g = families.double_star(1, 6)
    # node 0: left hub (degree 2), node 1: right hub (degree 7)
    engine = make_engine(g, 1, seed=12)
    w = 2
    gw = engine.stage_graph(w)
    easy_cuts_step(engine, w, MaxFlowSolver(gw))
    # the bridge cut {hub, its leaf} of value 1 beats the degree estimate 2
    assert engine.table.estimate(0).base == 1
    assert engine.aux.expand(engine.table.witness(0)) == frozenset({0, 2})


def test_lone_isolating_cut_below_the_stage_bound_settles():
    """Stage w keeps every cut below 2w exact, so a lone terminal's
    isolating cut below 2w is its latest minimum cut: the terminal is done,
    with that cut as witness.  One at or above 2w proves the floor 2w."""
    g = families.dumbbell(6, bridges=2)
    engine = make_engine(g, 11, seed=21)
    w = 2
    cap = Weight(2 * w, 0)
    solver = MaxFlowSolver(engine.stage_graph(w))
    assert offer_isolating_cuts(engine, w, solver, [0]) == 1
    latest = latest_min_cut(engine.work, engine.pivot_idx, engine.idx(0), wrt=engine.pivot_idx)
    assert latest.value < cap
    assert engine.table.done(0)
    assert engine.table.witness(0) == latest.side
    assert engine.table.estimate(0) == latest.value
    # node 6 sits in the pivot's clique: lambda = 5 >= 2w
    assert offer_isolating_cuts(engine, w, solver, [6]) == 0
    assert not engine.table.done(6)
    assert engine.table.entries[6].floor >= cap


def test_stage_graph_keeping_every_edge_settles_uncapped():
    """A cycle's stage graph at w = 1 keeps every edge, so it is the work
    graph: the stage solves on the work solver, and each terminal settles
    at its connectivity 2 (plus perturbation), at or above 2w."""
    g = families.cycle(8)
    engine = make_engine(g, 0, EngineConfig(loop_enabled=True, stage_from_zero=True), seed=22)
    stage_w(engine, 1)
    assert engine.report["stages"][0]["gw_edges"] == engine.work.edge_instances
    oracle_check(g, engine, 0)


def test_easy_step_never_marks_done():
    g = families.er_connected(10, 0.5, seed=13)
    engine = make_engine(g, 0, seed=13)
    w = 2
    gw = engine.stage_graph(w)
    easy_cuts_step(engine, w, MaxFlowSolver(gw))
    assert not any(engine.table.done(v) for v in engine.table.terminals())


# -- the stage's candidate pass ----------------------------------------------


def test_splitter_step_empty_part_is_noop():
    g = families.er_connected(8, 0.5, seed=14)
    engine = make_engine(g, 0, seed=14)
    gw = engine.stage_graph(2)
    rep = splitter_isolating_step(engine, 2, MaxFlowSolver(gw), set())
    assert rep == {"offered": 0, "updates": 0}


def test_improving_cuts_distinct():
    rng = random.Random(19)
    for _ in range(10):
        g = families.er_connected(rng.randint(8, 16), 0.4,
                                  seed=rng.randrange(2 ** 32))
        cfg = EngineConfig(stage_from_zero=True, loop_enabled=True,
                           seed=rng.randrange(2 ** 32))
        engine = SingleSourceEngine(g, g, perturb(g, seed=rng.randrange(2 ** 32)),
                                    0, cfg)
        engine.run()
        engine.settle_covered()
        oracle_check(g, engine, 0)


def test_candidate_halving_on_designed_instance():
    g = families.dumbbell(20, bridges=10)
    cfg = EngineConfig(stage_from_zero=False, loop_enabled=True, seed=20)
    engine = SingleSourceEngine(g, g, perturb(g, seed=20), 25, cfg)
    engine.run()
    engine.settle_covered()
    oracle_check(g, engine, 25)
