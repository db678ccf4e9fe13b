import random

import pytest

from ghtree import families
from ghtree.dynamic import DynamicPivotEngine, single_source_dynamic_pivot
from ghtree.flow import FLOW_CALLS, latest_min_cut
from ghtree.partition import PartitionTree
from ghtree.single_source import EngineError, SingleSourceEngine, single_source_mincuts
from ghtree.sparsify import perturb

from oracles import assert_latest_table, dynamic_from, expand, planted_partition


def make_engine(g, p):
    return SingleSourceEngine(g, p)


def oracle_check(g, engine, p):
    assert_latest_table(g, p, engine.table)


def test_k4_initial_estimates_already_optimal():
    g = families.complete(4)
    table = single_source_mincuts(g, 0)
    for v in (1, 2, 3):
        assert table.estimate(v).base == 3
        assert table.done(v)


def test_star_center_pivot():
    g = families.star(5)
    table = single_source_mincuts(g, 0)
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


def test_loop_off_runs_no_stages():
    """The run is the final sweep alone, with no doubling stage: one flow
    per terminal it does not skip as covered, and ``settle_covered`` solves the rest.
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
    """Each witness of the engine is the latest minimum cut with
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
                _, _, engine = (single_source_dynamic_pivot(g) if start is None
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


def test_estimates_monotone_and_sound():
    """Through the final sweep and ``settle_covered``, each estimate only
    drops, and ends at the terminal's latest cut."""
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
        engine.run()
        engine.settle_covered()
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


# -- lone latest-cut solves ---------------------------------------------------


def _flows(step):
    before = FLOW_CALLS.value
    step()
    return FLOW_CALLS.value - before


def test_lone_solves_settle_star_leaves():
    """Each leaf of a star, swept from the center, is solved alone and is
    done with itself as witness."""
    g = families.star(5)
    engine = make_engine(g, 0)
    assert _flows(lambda: engine.sweep([1, 2, 3, 4, 5])) == 5
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
    assert engine.table.estimate(0).base == 2
    assert _flows(lambda: engine.sweep([0])) == 1
    # the bridge cut {hub, its leaf} of value 1 beats the degree estimate 2
    e = engine.table.entries[0]
    assert e.done and e.value.base == 1
    assert expand(PartitionTree.single(g.n), 0, engine.aux, e.witness) == frozenset({0, 2})
    # the witness is balanced, so it covers the hub's leaf
    assert engine.covered == {2: 0}


def test_improving_cuts_distinct():
    rng = random.Random(19)
    for _ in range(10):
        g = families.er_connected(rng.randint(8, 16), 0.4,
                                  seed=rng.randrange(2 ** 32))
        engine = make_engine(g, 0)
        engine.run()
        engine.settle_covered()
        oracle_check(g, engine, 0)


@pytest.mark.parametrize("engine_cls", [SingleSourceEngine, DynamicPivotEngine])
def test_a_perturbed_auxiliary_graph_is_exact(engine_cls):
    """Every solve is made on the auxiliary graph itself, so runs on a
    perturbed auxiliary graph keep its perturbation units: each engine
    returns every terminal's latest cut in it."""
    gp = perturb(planted_partition(4, 25, 0.8, 0.01, seed=1), seed=1)
    if engine_cls is SingleSourceEngine:
        pivot, table = 0, single_source_mincuts(gp, 0)
    else:
        pivot, table, _ = single_source_dynamic_pivot(gp)
    assert_latest_table(gp, pivot, table)
