import random
import sys

import pytest

from ghtree import families
from ghtree.build import build_deterministic, build_randomized
from ghtree.flow import FLOW_CALLS, latest_min_cut
from ghtree.graph import Graph, GraphError
from ghtree.isolating import isolating_cuts
from ghtree.single_source import EngineConfig
from ghtree.sparsify import ni_sparsify
from ghtree.weights import Weight

from oracles import enum_latest_all


def call_budget(c):
    bits = max(1, (c - 1).bit_length()) if c > 1 else 0
    return bits + c + 1


def test_star_all_leaves_isolated():
    g = families.star(5)
    res = isolating_cuts(g, 0, set(range(1, 6)))
    for v in range(1, 6):
        assert res.cuts[v].side == frozenset({v})
        assert res.cuts[v].value.base == 1
    assert res.flow_calls <= call_budget(5)


def test_singleton_terminal_is_latest_cut():
    g = families.dumbbell(4)
    res = isolating_cuts(g, 5, {0})
    want = enum_latest_all(g, 5)[0]
    assert res.cuts[0].side == want[0]
    assert res.cuts[0].value.scaled(1) == want[1]
    assert res.flow_calls <= 2

    # on the paper's stage graphs too, one terminal's isolating cut is its
    # latest cut, which is how the loop computes it
    checked = 0
    for g in (families.dumbbell(4), families.clique_chain([5, 9, 3, 12, 7]),
              families.er_connected(20, 0.3, seed=3), families.double_star(3, 5)):
        p = max(range(g.n), key=g.degree)
        for w in (1, 2, 4):
            gw = ni_sparsify(g, 2 * w + 1)
            for v in range(g.n):
                if v != p:
                    iso = isolating_cuts(gw, p, {v}).cuts[v]
                    assert iso == latest_min_cut(gw, p, v, wrt=p), (g.n, w, v)
                    checked += 1
    assert checked > 150


def test_loop_never_isolates_a_lone_terminal(monkeypatch):
    """Loop-on builds of both paper builders compute every candidate's
    isolating cut as a lone latest-cut solve: no build calls
    ``isolating_cuts``, through any ghtree module that binds it."""
    calls = []

    def recording(g, p, terminals):
        calls.append(len(terminals))
        return isolating_cuts(g, p, terminals)

    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "ghtree" and getattr(m, "isolating_cuts", None) is isolating_cuts]
    assert {m.__name__ for m in bound} >= {"ghtree", "ghtree.isolating"}
    for module in bound:
        monkeypatch.setattr(module, "isolating_cuts", recording)
    for g in (families.clique_chain([5, 9, 3, 12, 7]), families.er_connected(20, 0.3, seed=5)):
        build_deterministic(g, config=EngineConfig(loop_enabled=True))
        build_randomized(g, seed=1, config=EngineConfig(loop_enabled=True, seed=1))
    assert not calls, calls


def test_dumbbell_mixed_terminals():
    g = families.dumbbell(4)
    # pivot in right clique; terminals: one left-clique node, one right
    res = isolating_cuts(g, 7, {0, 5})
    assert res.cuts[0].side == frozenset(range(4))
    assert res.cuts[0].value.base == 1
    assert res.cuts[5].side == frozenset({5})
    assert res.cuts[5].value.base == 3


def test_errors():
    g = families.path(4)
    with pytest.raises(GraphError):
        isolating_cuts(g, 1, {1, 2})
    with pytest.raises(GraphError):
        isolating_cuts(g, 0, set())
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    for terminals in ({1, 3}, {2, 3}):   # the second batch reads the cached check
        with pytest.raises(GraphError):
            isolating_cuts(disconnected, 0, terminals)


def test_connectivity_computed_once_per_graph(monkeypatch):
    calls = []
    components = Graph.components

    def counting(self):
        calls.append(self)
        return components(self)

    monkeypatch.setattr(Graph, "components", counting)
    g = families.clique_chain([4, 5, 4, 6])
    for terminals in ({1, 5}, {2, 6, 10}, {3, 12, 15, 18}):
        isolating_cuts(g, 0, terminals)
    assert calls == [g]


def test_outputs_disjoint_and_avoid_pivot():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(4, 10)
        g = families.er_connected(n, 0.5, seed=rng.randrange(2 ** 32))
        p = rng.randrange(n)
        size = rng.randint(1, min(5, n - 1))
        c = set(rng.sample([v for v in range(n) if v != p], size))
        res = isolating_cuts(g, p, c)
        sides = [res.cuts[v].side for v in sorted(c)]
        for i, s in enumerate(sides):
            assert p not in s
            for s2 in sides[i + 1:]:
                assert not (s & s2)
        assert res.flow_calls <= call_budget(len(c))


def test_contract_when_latest_cut_isolated(small_corpus):
    """Whenever the latest cut meets the terminal set only in its own
    terminal, the output is that cut exactly (value and side)."""
    import itertools

    checked = 0
    for g in small_corpus:
        if g.n > 9 or not g.is_connected():
            continue
        for p in range(g.n):
            latest = enum_latest_all(g, p)
            others = [v for v in range(g.n) if v != p]
            pool = list(itertools.chain(
                itertools.combinations(others, 1),
                itertools.combinations(others, 2),
            ))
            rng = random.Random(p + g.n)
            bigger = [tuple(rng.sample(others, min(len(others), k)))
                      for k in (3, 4, 5) for _ in range(3) if len(others) >= k]
            for c in pool + bigger:
                cset = set(c)
                res = isolating_cuts(g, p, cset)
                for v in cset:
                    side, val = latest[v]
                    if side & cset == {v}:
                        assert res.cuts[v].side == side
                        assert res.cuts[v].value.scaled(g.unit) == val
                        checked += 1
    assert checked > 300


def test_overlapping_regions_are_an_error(monkeypatch):
    """The disjointness check is an exception, so it survives python -O."""
    from ghtree import isolating
    from ghtree.flow import CutSide

    def whole_graph(g, region, p, v):
        return CutSide(side=frozenset(range(g.n)) - {p}, value=Weight(1, 0), s=p, t=v)

    monkeypatch.setattr(isolating, "_latest_region_cut", whole_graph)
    with pytest.raises(RuntimeError, match="overlap"):
        isolating_cuts(families.star(4), 0, {1, 2})


def test_flow_calls_match_the_flow_counter():
    """``flow_calls`` is what the call costs in max-flow solves."""
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(3, 14)
        g = families.er_connected(n, rng.choice([0.3, 0.6]), seed=rng.randrange(2 ** 32))
        p = rng.randrange(n)
        c = set(rng.sample([v for v in range(n) if v != p], rng.randint(1, n - 1)))
        before = FLOW_CALLS.value
        res = isolating_cuts(g, p, c)
        assert res.flow_calls == FLOW_CALLS.value - before


def test_singleton_regions_cost_no_flow():
    """With the centre as pivot and every leaf a terminal, each region is
    one leaf: only the three bit-class flows run, and each leaf gets its
    degree cut."""
    g = families.star(8)
    before = FLOW_CALLS.value
    res = isolating_cuts(g, 0, set(range(1, 9)))
    assert res.flow_calls == FLOW_CALLS.value - before == 3
    for v in range(1, 9):
        assert res.cuts[v].side == frozenset({v})
        assert res.cuts[v].value == Weight(1, 0)
