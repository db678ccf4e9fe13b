import random
from fractions import Fraction

import pytest

from ghtree import families
from ghtree.expander import (
    DecompositionReport,
    ExpanderPart,
    decompose_with_demands,
    verify_expansion,
    verify_expansion_detail,
)

from oracles import induced_subgraph


def uniform(n):
    return {v: 1 for v in range(n)}


def test_k4_is_one_part_at_phi_one():
    g = families.complete(4)
    parts = decompose_with_demands(g, uniform(4), 1)
    assert len(parts) == 1
    assert parts[0].nodes == frozenset(range(4))
    assert parts[0].certified


def test_zero_demand_single_part():
    g = families.path(6)
    parts = decompose_with_demands(g, {}, 1)
    assert len(parts) == 1


def test_negative_demand_rejected():
    with pytest.raises(ValueError):
        decompose_with_demands(families.path(3), {0: -1}, 1)


def test_dumbbell_splits_into_cliques():
    g = families.dumbbell(4)
    rep = DecompositionReport()
    parts = decompose_with_demands(g, uniform(8), 1, report=rep)
    assert sorted(tuple(sorted(p.nodes)) for p in parts) == [
        (0, 1, 2, 3), (4, 5, 6, 7)]
    assert rep.boundary_weight == 1
    assert rep.b_factor <= 1.0


def test_parts_partition_nodes():
    rng = random.Random(6)
    for _ in range(10):
        g = families.er_connected(rng.randint(4, 14), 0.4, seed=rng.randrange(2 ** 32))
        parts = decompose_with_demands(g, uniform(g.n), Fraction(1, 2))
        seen = sorted(v for p in parts for v in p.nodes)
        assert seen == list(range(g.n))


def test_every_part_passes_exact_verification():
    rng = random.Random(7)
    for _ in range(10):
        g = families.er_connected(rng.randint(4, 18), 0.35, seed=rng.randrange(2 ** 32))
        demand = {v: rng.randint(0, 3) for v in range(g.n)}
        parts = decompose_with_demands(g, demand, Fraction(1, 2))
        for p in parts:
            sub, idx = induced_subgraph(g, p.nodes)
            dem = {idx[v]: p.demand[v] for v in p.nodes}
            assert verify_expansion(sub, dem, Fraction(1, 2))


def test_verify_expansion_examples():
    k4 = families.complete(4)
    assert verify_expansion(k4, uniform(4), 2) is True
    assert verify_expansion(k4, uniform(4), Fraction(5, 2)) is False
    p4 = families.path(4)
    assert verify_expansion(p4, uniform(4), 1) is False
    singleton = families.path(1)
    assert verify_expansion(singleton, {0: 1}, 100) is True


def test_verify_expansion_screen_mode_labels():
    g = families.er_connected(30, 0.4, seed=3)
    ok, certified = verify_expansion_detail(g, uniform(30), Fraction(1, 100),
                                            certify_limit=20)
    assert ok and not certified
    ok, certified = verify_expansion_detail(families.complete(6), uniform(6), 1)
    assert ok and certified


def test_size_g_counts_original_nodes():
    g = families.dumbbell(4)
    contracted, _ = g.contract([[4, 5, 6, 7]])
    parts = decompose_with_demands(contracted, uniform(contracted.n), Fraction(1, 1000))
    assert sum(p.size_g for p in parts) == 8
    single = [p for p in parts if len(p.nodes) == 1 and p.size_g == 4]
    # the contracted clique counts its four original nodes wherever it lands
    total = sum(p.size_g for p in parts if any(
        contracted.orig_id[v] is None for v in p.nodes))
    assert total >= 4


def test_boundary_bound_logged():
    g = families.er_connected(16, 0.4, seed=9)
    rep = DecompositionReport()
    decompose_with_demands(g, uniform(16), Fraction(1, 4), report=rep)
    assert rep.part_count >= 1
    # realized polylog factor stays modest on benign inputs
    assert rep.b_factor <= (max(2, g.n).bit_length()) ** 3
