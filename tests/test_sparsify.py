import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ghtree import families, sparsify
from ghtree.graph import Graph, GraphError
from ghtree.sparsify import ni_sparsify, perturb, perturbed_sparsifier


def nontrivial_sides(n):
    rest = list(range(1, n))
    for r in range(1, n):
        for extra in itertools.combinations(rest, r):
            yield frozenset(extra)


def test_tree_survives_any_threshold():
    t = families.path(6)
    for w in (1, 2, 5):
        assert ni_sparsify(t, w).edges.keys() == t.edges.keys()


def test_k4_single_round_is_spanning():
    g = families.complete(4)
    h = ni_sparsify(g, 1)
    assert h.edge_instances <= 3
    assert h.is_connected()


def test_c6_round_two_keeps_everything():
    g = families.cycle(6)
    h = ni_sparsify(g, 2)
    assert h.edges.keys() == g.edges.keys()


def test_rejects_bad_parameter():
    with pytest.raises(GraphError):
        ni_sparsify(families.path(3), 0)


def test_edge_budget_and_cut_bullets_exhaustive():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(3, 9)
        g = families.random_multigraph(n, 0.5, 2, seed=rng.randrange(2 ** 32))
        if not g.edges:
            continue
        for w in range(1, n + 1):
            h = ni_sparsify(g, w)
            assert h.edge_instances <= w * (n - 1)
            for side in nontrivial_sides(n):
                cg, ch = g.cut_units(side), h.cut_units(side)
                if cg <= w - 1:
                    assert ch == cg
                else:
                    assert ch >= w


def test_perturb_single_edge_range():
    g = Graph.from_edges(2, [(0, 1)])
    gp = perturb(g, seed=1)
    (m, e) = gp.edges[(0, 1)]
    assert m == 1 and 1 <= e <= 2 ** 7
    assert gp.unit == 2 ** 10


def test_perturb_triangle_unique_min_cuts():
    g = families.cycle(3)
    gp = perturb(g, seed=0)
    vals = sorted(gp.cut_units(frozenset({v})) for v in range(3))
    assert len(set(vals)) == 3


def test_perturb_sum_bound_is_an_error(monkeypatch):
    # eps drawn up to n**11 on 15 edges: the units overflow one whole edge
    monkeypatch.setattr(sparsify, "PERT_LOW_EXP", sparsify.PERT_UNIT_EXP + 1)
    with pytest.raises(GraphError, match="whole edge"):
        perturb(families.complete(6), seed=0)


def test_perturb_empty_graph_unchanged():
    g = Graph(3, {})
    assert perturb(g, seed=5) is g


def test_perturb_rounding_recovers_base():
    g = families.er_connected(8, 0.5, seed=9)
    gp = perturb(g, seed=9)
    for side in nontrivial_sides(8):
        assert gp.cut_weight(side).base == g.cut_units(side)


def test_perturbed_sparsifier_tree_identity():
    t = families.path(5)
    tp = perturb(t, seed=3)
    gw = perturbed_sparsifier(t, tp, 2)
    assert gw.edges == tp.edges


def test_perturbed_sparsifier_k4_w2():
    g = families.complete(4)
    gp = perturb(g, seed=4)
    gw = perturbed_sparsifier(g, gp, 2)
    for side in nontrivial_sides(4):
        assert gw.cut_units(side) >= 2 * gw.unit


def test_perturbed_sparsifier_dumbbell_bridge_exact():
    g = families.dumbbell(4)
    gp = perturb(g, seed=6)
    gw = perturbed_sparsifier(g, gp, 2)
    bridge_side = frozenset(range(4))
    assert gw.cut_units(bridge_side) == gp.cut_units(bridge_side)


def test_perturbed_sparsifier_mismatch_rejected():
    g = families.path(4)
    other = perturb(families.cycle(4), seed=1)
    with pytest.raises(GraphError):
        perturbed_sparsifier(g, other, 2)


def test_perturbed_guarantees_exhaustive(small_corpus):
    for g in small_corpus:
        if g.n > 10 or not g.edges:
            continue
        gp = perturb(g, seed=g.n * 1000 + g.edge_instances)
        for w in range(1, g.n + 1):
            gw = perturbed_sparsifier(g, gp, w)
            assert gw.edge_instances <= w * (g.n - 1)
            for side in nontrivial_sides(g.n):
                cu, cw = gp.cut_units(side), gw.cut_units(side)
                if cu < w * gp.unit:
                    assert cw == cu
                else:
                    assert cw >= w * gw.unit


@given(st.integers(3, 8), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_sparsifier_properties_hold_generatively(n, w, seed):
    g = families.er(n, 0.6, seed=seed)
    if not g.edges:
        return
    h = ni_sparsify(g, w)
    assert h.edge_instances <= w * (n - 1)
    assert set(h.edges) <= set(g.edges)
    for side in nontrivial_sides(n):
        cg, ch = g.cut_units(side), h.cut_units(side)
        assert ch == cg if cg <= w - 1 else ch >= w


def test_below_threshold_min_cuts_stay_unique():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(4, 8)
        g = families.er_connected(n, 0.6, seed=rng.randrange(2 ** 32))
        gp = perturb(g, seed=rng.randrange(2 ** 32))
        w = rng.randint(2, n)
        gw = perturbed_sparsifier(g, gp, w)
        for s in range(n):
            for t in range(s + 1, n):
                best, count = None, 0
                for side in nontrivial_sides(n):
                    if (s in side) == (t in side):
                        continue
                    cu = gw.cut_units(side)
                    if best is None or cu < best:
                        best, count = cu, 1
                    elif cu == best:
                        count += 1
                if best < w * gw.unit:
                    assert count == 1, (s, t)
