import random
from fractions import Fraction

import pytest

from ghtree import families
from ghtree.expander import (
    DecompositionReport,
    ExpanderPart,
    _exact_sparsest_cut,
    decompose_with_demands,
)

from oracles import (
    fraction_sparsest_cut,
    induced_subgraph,
    verify_expansion,
    verify_expansion_detail,
)


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


def sparsest_cut_cases(seed, count):
    """Seeded (graph, piece, demand) triples with 2-13 piece nodes.

    Pieces are random node subsets, in random order, of multigraphs with
    up to three parallel edges per pair (edges leaving the piece are
    ignored, as for the decomposer's pieces).  Cycles and complete graphs
    with equal demands tie many sides by symmetry.  Demands are all zero,
    partly zero, unit, integer or Fraction."""
    rng = random.Random(seed)
    for i in range(count):
        k = 2 + i % 12
        shape = i % 3
        if shape == 0:
            g = families.random_multigraph(k + rng.randint(0, 3), rng.choice([0.3, 0.6]),
                                           3, seed=rng.randrange(2 ** 32))
        elif shape == 1:
            g = families.cycle(k) if k > 2 else families.path(2)
        else:
            g = families.complete(k)
        piece = rng.sample(range(g.n), k)
        kind = rng.choice(["zero", "sparse", "unit", "int", "fraction"])
        if kind == "zero":
            dem = {v: Fraction(0) for v in piece}
        elif kind == "sparse":
            dem = {v: Fraction(rng.choice([0, 0, 1, 2])) for v in piece}
        elif kind == "unit":
            dem = {v: Fraction(1) for v in piece}
        elif kind == "int":
            dem = {v: Fraction(rng.randint(0, 5)) for v in piece}
        else:
            dem = {v: Fraction(rng.randint(0, 7), rng.randint(1, 6)) for v in piece}
        yield g, piece, dem


def test_exact_sparsest_cut_matches_fraction_enumeration():
    """The Gray-code walk returns the reference's (ratio, side) exactly,
    ties going to the smallest mask."""
    checked = vacuous = 0
    for g, piece, dem in sparsest_cut_cases(seed=71, count=336):
        want = fraction_sparsest_cut(g, piece, dem)
        got = _exact_sparsest_cut(g, piece, dem)
        assert got == want, (sorted(g.edges.items()), piece, dem)
        checked += 1
        vacuous += want == (None, None)
    assert checked >= 300
    assert 0 < vacuous < checked
