import random

import pytest

from ghtree import families
from ghtree.dynamic import (
    DynamicPivotEngine,
    _dynamic_pivot_engine,
    pivot_change,
    single_source_dynamic_pivot,
)
from ghtree.flow import FLOW_CALLS, MaxFlowSolver, latest_min_cut
from ghtree.single_source import EngineError, SingleSourceEngine, single_source_mincuts
from ghtree.weights import Weight

from oracles import assert_latest_table, dynamic_from, mask_latest_all


# -- dynamic-pivot single source ----------------------------------------------


def oracle_table(g, pivot, table):
    sol = MaxFlowSolver(g)
    for v in table.terminals():
        lam = sol.solve(g.index_of[pivot], g.index_of[v])
        assert table.estimate(v).scaled(g.unit) == lam, (pivot, v)


def test_star_center_never_changes():
    g = families.star(5)
    pivot, table, engine = single_source_dynamic_pivot(g)
    assert pivot == 0
    assert engine.pivot_changes == 0
    for v in table.terminals():
        assert table.witness(v) == frozenset({v})


def test_star_forced_leaf_pivot_changes_to_center(pivot_change_events):
    g = families.star(5)
    pivot, table, engine = dynamic_from(g, 1)
    assert pivot == 0
    assert engine.pivot_changes == 1
    event = pivot_change_events[0]
    assert event["old"] == 1 and event["new"] == 0
    oracle_table(g, pivot, table)


def test_random_suite_all_good_no_randomness():
    rng = random.Random(40)
    for _ in range(20):
        n = rng.randint(4, 40)
        g = families.er_connected(n, rng.choice([0.2, 0.5, 0.8]),
                                  seed=rng.randrange(2 ** 32))
        pivot, table, engine = single_source_dynamic_pivot(g)
        oracle_table(g, pivot, table)
        half = len(engine.vprime)
        for v in table.terminals():
            assert 2 * engine.vprime_count(table.witness(v)) <= half
            assert table.done(v)


def test_two_runs_identical():
    g = families.er_connected(14, 0.4, seed=41)
    p1, t1, _ = single_source_dynamic_pivot(g)
    p2, t2, _ = single_source_dynamic_pivot(g)
    assert p1 == p2
    assert {v: (t1.estimate(v), t1.witness(v)) for v in t1.terminals()} == \
           {v: (t2.estimate(v), t2.witness(v)) for v in t2.terminals()}


def _covering_graphs():
    return [families.clique_chain([5, 8, 5]), families.clique_chain([4] * 6),
            families.dumbbell(6, bridges=2), families.dumbbell(12, 3),
            families.er_connected(20, 0.2, seed=44)]


def test_public_functions_settle_covered_terminals():
    """The builders' runs skip covered terminals; the public functions
    still return every terminal done with its exact latest cut, at one flow
    per terminal, on graphs where those runs do skip."""
    skipped = 0
    for g in _covering_graphs():
        skipped += len(_dynamic_pivot_engine(g).covered)
        flows = FLOW_CALLS.value
        pivot, table, engine = single_source_dynamic_pivot(g)
        assert FLOW_CALLS.value - flows == engine.report["flow_calls"] == len(table.terminals())
        assert engine.report["covered"] == 0 and not engine.covered
        oracle_table(g, pivot, table)
        for v in table.terminals():
            assert table.done(v)
            assert table.witness(v) == latest_min_cut(g, g.index_of[pivot], g.index_of[v],
                                                      wrt=g.index_of[pivot]).side

        engine = SingleSourceEngine(g, 0)
        engine.run()
        skipped += len(engine.covered)
        flows = FLOW_CALLS.value
        table = single_source_mincuts(g, 0)
        assert FLOW_CALLS.value - flows == len(table.terminals())
        assert_latest_table(g, 0, table)
    assert skipped >= 20, skipped


# -- pivot-change protocol -----------------------------------------------------


def engine_for(g, pivot):
    return DynamicPivotEngine(g, pivot)


def test_change_updates_only_pivot_when_nothing_exceeds():
    # path: lam(0, 3) = 1 and every estimate starts at its degree >= 1;
    # after the change only entries above lam move
    g = families.path(4)
    engine = engine_for(g, 0)
    cut = latest_min_cut(g, 0, 3, wrt=0)
    assert cut.side == frozenset({3})
    # trigger needs an unbalanced side; force the situation via node 1
    cut10 = latest_min_cut(g, 0, 1, wrt=0)
    assert cut10.side == frozenset({1, 2, 3})
    p_side = latest_min_cut(g, 1, 0).side
    flows = FLOW_CALLS.value
    pivot_change(engine, 1, cut10, p_side=p_side)
    assert FLOW_CALLS.value == flows  # the caller's flow gave both sides
    assert engine.pivot_orig == 1
    # old pivot got the exact connectivity with a balanced witness
    assert engine.table.estimate(0) == Weight(1, 0)
    assert engine.table.done(0)


def test_premature_change_is_an_error():
    # a balanced cut must never move the pivot; the check survives python -O
    g = families.path(4)
    engine = engine_for(g, 0)
    cut = latest_min_cut(g, 0, 3, wrt=0)
    assert 2 * engine.vprime_count(cut.side) <= len(engine.vprime)
    with pytest.raises(EngineError, match="premature"):
        pivot_change(engine, 3, cut, p_side=latest_min_cut(g, 3, 0).side)
    assert engine.pivot_orig == 0


def test_change_star_leaf_to_center_drops_everyone():
    g = families.star(5)
    engine = engine_for(g, 1)
    engine.covered[3] = 2   # a cover holds for one pivot only
    cut = latest_min_cut(g, 1, 0, wrt=1)
    assert 2 * engine.vprime_count(cut.side) > len(engine.vprime)
    pivot_change(engine, 0, cut, p_side=latest_min_cut(g, 0, 1).side)
    assert engine.pivot_orig == 0
    assert engine.covered == {}
    for v in engine.table.terminals():
        assert engine.table.estimate(v) == Weight(1, 0)
    # previous pivot's witness is the minimal far side
    assert engine.table.witness(1) == frozenset({1})


def test_change_rejects_a_light_witness_holding_the_new_pivot():
    """A witness of weight at most lam that holds q avoids p, so it would be
    a balanced minimum p,q-cut, which contradicts the trigger: the state is
    broken, and pivot_change raises before changing anything."""
    g = families.star(5)
    engine = engine_for(g, 1)
    cut = latest_min_cut(g, 1, 0, wrt=1)
    e = engine.table.entries[2]
    e.value, e.witness = cut.value, frozenset({0, 2})
    with pytest.raises(EngineError, match="holds the new pivot"):
        pivot_change(engine, 0, cut, p_side=latest_min_cut(g, 0, 1).side)
    assert engine.pivot_orig == 1
    assert 0 in engine.table.entries and 1 not in engine.table.entries
    assert e.witness == frozenset({0, 2})


def test_change_preserves_latest_witnesses(pivot_change_events):
    """If a terminal's witness was the latest cut for the old pivot, the
    post-change witness is the latest cut for the new pivot (enumerated)."""
    rng = random.Random(47)
    audited = 0
    for _ in range(40):
        n = rng.randint(5, 10)
        g = families.er_connected(n, rng.choice([0.3, 0.5]),
                                  seed=rng.randrange(2 ** 32))
        worst = min(range(n), key=lambda v: (g.degree(v), v))
        pivot_change_events.clear()
        pivot, table, engine = dynamic_from(g, worst)
        for event in pivot_change_events:
            old, new = event["old"], event["new"]
            latest_old = mask_latest_all(g, old)
            latest_new = mask_latest_all(g, new)
            for v, (val, side, done) in event["before"].items():
                if v == new or not done:
                    continue
                if side != latest_old[v][0]:
                    continue
                a_val, a_side, a_done = event["after"][v]
                assert a_side == latest_new[v][0], (old, new, v)
                audited += 1
    assert audited >= 5, audited


def test_change_preserves_done_and_good(pivot_change_events):
    """Oracle audit on designed instances up to 20 nodes: every terminal
    done-and-good before a change stays done-and-good for the new pivot."""
    rng = random.Random(43)
    for trial in range(15):
        n = rng.randint(6, 20)
        g = families.er_connected(n, rng.choice([0.25, 0.5]),
                                  seed=rng.randrange(2 ** 32))
        # force the worst initial pivot: smallest degree
        worst = min(range(n), key=lambda v: (g.degree(v), v))
        pivot_change_events.clear()
        pivot, table, engine = dynamic_from(g, worst)
        oracle_table(g, pivot, table)
        sol = MaxFlowSolver(g)
        half = len(engine.vprime)
        for event in pivot_change_events:
            q = event["new"]
            for v, (val, side, done) in event["before"].items():
                if not done or v == q:
                    continue
                if not 2 * engine.vprime_count(side) <= half:
                    continue
                after_val, after_side, after_done = event["after"][v]
                assert after_done
                lam = sol.solve(g.index_of[q], g.index_of[v])
                assert after_val.scaled(g.unit) == lam
                assert 2 * engine.vprime_count(after_side) <= half
