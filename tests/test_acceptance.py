"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The corpus combines
every connected graph on up to 7 nodes (one per isomorphism class), random
connected G(n,p) for n in 8..40 and p in {0.2, 0.5, 0.8}, and designed
instances (dumbbells, hub pairs, clique chains).
"""

import csv
import math
import os
import random
import time

import pytest

from ghtree import families
from ghtree.analysis import count_non_easy_bags, cut_membership_tree, is_easy_bag, w_large_subtree
from ghtree.build import build_deterministic, build_randomized
from ghtree.classic import classic_gomory_hu, gusfield
from ghtree.flow import FLOW_CALLS, MaxFlowSolver, certify, latest_min_cut
from ghtree.graph import Graph
from ghtree.isolating import isolating_cuts
from ghtree.partition import to_node_tree
from ghtree.sparsify import perturb, perturbed_sparsifier
from oracles import dynamic_from, mask_cut_values, mask_latest_all

ARTIFACTS = os.path.join(os.path.dirname(__file__), "..", "acceptance_artifacts")


def _oracle_values(g):
    sol = MaxFlowSolver(g)
    comp_id = [-1] * g.n
    for ci, comp in enumerate(g.components()):
        for v in comp:
            comp_id[v] = ci
    out = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            out[(u, v)] = 0 if comp_id[u] != comp_id[v] else sol.solve(u, v)
    return out


def _tree_values_match(g, tree, oracle):
    nt = to_node_tree(tree) if not hasattr(tree, "query") else tree
    for (u, v), lam in oracle.items():
        val, _ = nt.query(u, v)
        if val.base != lam:
            return (u, v, val.base, lam)
    return None


def test_criterion_01_oracle_equivalence(atlas7, medium_corpus):
    """Every builder's tree answers every pair exactly like direct max-flow."""
    t0 = time.time()
    graphs = [("atlas", g) for g in atlas7]
    graphs += [(f"er({n},{p})", g) for n, p, g in medium_corpus]
    assert len(graphs) >= 300
    checked = 0
    ew = 0
    for label, g in graphs:
        oracle = _oracle_values(g)
        trees = [
            ("classic", classic_gomory_hu(g)),
            ("gusfield", gusfield(g)),
            ("deterministic", build_deterministic(g)),
        ]
        for seed in range(5):
            trees.append((f"randomized/{seed}", build_randomized(g, seed=seed)))
        for algo, tree in trees:
            bad = _tree_values_match(g, tree, oracle)
            assert bad is None, (label, algo, bad)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 1 took {elapsed:.0f}s"
    print(f"\nCRITERION 1 PASS: oracle equivalence on {len(graphs)} graphs, "
          f"{checked} trees, {elapsed:.0f}s")


def test_criterion_02_perturbed_sparsifier(small_corpus):
    """Cuts below w preserved to the eps unit, others stay >= w, edge budget."""
    graphs = [g for g in small_corpus if g.n <= 12 and g.edges]
    cases = 0
    for gi, g in enumerate(graphs):
        gp = perturb(g, seed=1000 + gi)
        base_vals = mask_cut_values(g)
        pert_vals = mask_cut_values(gp)
        for w in range(1, g.n + 1):
            gw = perturbed_sparsifier(g, gp, w)
            assert gw.edge_instances <= w * (g.n - 1)
            gw_vals = mask_cut_values(gw)
            for mask in range(1, 1 << (g.n - 1)):
                if pert_vals[mask] < w * gp.unit:
                    assert gw_vals[mask] == pert_vals[mask]
                else:
                    assert gw_vals[mask] >= w * gw.unit
                cases += 1
    print(f"\nCRITERION 2 PASS: {len(graphs)} graphs, {cases} cut/threshold checks")


def test_criterion_03_isolating_contract(small_corpus):
    """Isolated latest cuts are returned exactly; call counts stay in budget."""
    rng = random.Random(33)
    exact_checks = 0
    calls_checked = 0
    for g in small_corpus:
        if g.n > 12 or not g.is_connected():
            continue
        exhaustive = g.n <= 8
        for p in range(g.n):
            latest = mask_latest_all(g, p)
            others = [v for v in range(g.n) if v != p]
            subsets = []
            if exhaustive:
                import itertools
                for size in range(1, min(5, len(others)) + 1):
                    subsets += [set(c) for c in itertools.combinations(others, size)]
            else:
                import itertools
                subsets += [set(c) for c in itertools.combinations(others, 1)]
                subsets += [set(c) for c in itertools.combinations(others, 2)]
                for size in (3, 4, 5):
                    if len(others) >= size:
                        subsets += [set(rng.sample(others, size)) for _ in range(8)]
            for c in subsets:
                res = isolating_cuts(g, p, c)
                bits = max(1, (len(c) - 1).bit_length()) if len(c) > 1 else 0
                assert res.flow_calls <= bits + len(c) + 1
                calls_checked += 1
                for v in c:
                    side, val = latest[v]
                    if side & c == {v}:
                        assert res.cuts[v].side == side
                        assert res.cuts[v].value.scaled(g.unit) == val
                        exact_checks += 1
    assert exact_checks > 2000
    print(f"\nCRITERION 3 PASS: {calls_checked} calls within budget, "
          f"{exact_checks} isolated cuts exact")


def test_criterion_04_latest_cut_minimality(small_corpus):
    """Returned far side is the unique inclusion-minimal minimum-cut side."""
    pairs = 0
    for g in small_corpus:
        if g.n > 10 or not g.is_connected():
            continue
        for p in range(g.n):
            want = mask_latest_all(g, p)
            for v in range(g.n):
                if v == p:
                    continue
                got = latest_min_cut(g, p, v, wrt=p)
                side, val = want[v]
                assert got.side == side, (p, v)
                assert got.value.scaled(g.unit) == val
                pairs += 1
    assert pairs > 500
    print(f"\nCRITERION 4 PASS: latest-cut minimality on {pairs} pivot/terminal pairs")


def test_criterion_07_pivot_change_audit(pivot_change_events):
    """Forced bad initial pivots: done-and-good terminals stay done-and-good
    across changes, and every returned cut is balanced."""
    rng = random.Random(71)
    instances = [families.star(8), families.double_star(3, 9),
                 families.clique_chain([6, 5, 5])]
    for _ in range(6):
        instances.append(families.er_connected(rng.randint(8, 20), 0.35,
                                               seed=rng.randrange(2 ** 32)))
    changes_seen = 0
    audited = 0
    for g in instances:
        worst = min(range(g.n), key=lambda v: (g.degree(v), v))
        pivot_change_events.clear()
        pivot, table, engine = dynamic_from(g, worst)
        sol = MaxFlowSolver(g)
        half = len(engine.vprime)
        for v in table.terminals():
            assert 2 * engine.vprime_count(table.witness(v)) <= half
            assert table.estimate(v).base == sol.solve(g.index_of[pivot],
                                                       g.index_of[v])
        for event in pivot_change_events:
            changes_seen += 1
            q = event["new"]
            for v, (val, side, done) in event["before"].items():
                if v == q or not done:
                    continue
                if not 2 * engine.vprime_count(side) <= half:
                    continue
                a_val, a_side, a_done = event["after"][v]
                assert a_done
                assert a_val.base == sol.solve(g.index_of[q], g.index_of[v])
                assert 2 * engine.vprime_count(a_side) <= half
                audited += 1
    assert changes_seen >= 3
    print(f"\nCRITERION 7 PASS: {changes_seen} pivot changes, "
          f"{audited} done-and-good terminals audited")


def test_criterion_08_determinism(small_corpus, medium_corpus):
    graphs = [g for g in small_corpus if g.is_connected()]
    graphs += [g for i, (n, p, g) in enumerate(medium_corpus) if i % 3 == 0]
    for g in graphs:
        rep = {}
        serialized = {to_node_tree(build_deterministic(g, report=rep)).serialize()
                      for _ in range(3)}
        assert len(serialized) == 1, "deterministic build diverged"
        assert rep["depth"] <= math.ceil(math.log2(max(2, g.n))) + 1
    print(f"\nCRITERION 8 PASS: byte-identical over 3 runs on {len(graphs)} graphs, "
          "depth within ceil(log2 n) + 1")


def test_criterion_10_direct_multigraphs():
    """Both paper builders take multigraphs, connected or not, as they are:
    every pair's tree value and side weight equal the classic builder's
    value, and deterministic reruns are byte-identical."""
    rng = random.Random(10)
    for k in range(50):
        n = rng.randint(3, 10)
        g = families.random_multigraph(n, 0.55, 3, seed=rng.randrange(2 ** 32))
        direct = to_node_tree(classic_gomory_hu(g))
        det = to_node_tree(build_deterministic(g))
        assert det.serialize() == to_node_tree(build_deterministic(g)).serialize()
        for tree in (det, to_node_tree(build_randomized(g, seed=k))):
            for u in range(n):
                for v in range(u + 1, n):
                    value, side = tree.query(u, v)
                    assert value == g.cut_weight(side) == direct.query(u, v)[0]
    print("\nCRITERION 10 PASS: 50 multigraphs, connected or not, built directly by "
          "both paper builders, equal to classic Gomory-Hu on every pair")


def _reference_bags(tree, p):
    """Independent per-node re-derivation of the bag partition: walk each
    node's tree path to the pivot and take the lightest edge, lowest wins."""
    n = tree.n
    assign = {}
    for u in range(n):
        if u == p:
            continue
        path = tree.path(p, u)  # edges from p toward u
        best = None
        for (a, b, w) in path:
            if best is None or w <= best[2]:
                best = (a, b, w)
        assign[u] = (min(best[0], best[1]), max(best[0], best[1]))
    groups = {}
    for u, e in assign.items():
        groups.setdefault(e, set()).add(u)
    return {frozenset(s) for s in groups.values()} | {frozenset({p})}


def test_criterion_11_structural_machinery():
    # designed two-hub instance: hub connectivity 3, leaves on both hubs
    edges = [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)]
    edges += [(0, v) for v in range(4, 8)]
    edges += [(1, v) for v in range(8, 12)]
    two_hub = Graph.from_edges(12, edges)
    tree = to_node_tree(build_deterministic(two_hub))
    degs = [two_hub.degree(v) for v in range(two_hub.n)]
    tm = cut_membership_tree(tree, 1)
    assert _reference_bags(tree, 1) == {b.nodes for b in tm.bags.values()}
    large = w_large_subtree(tm, 3)
    flags = {bid: is_easy_bag(large, bid, 3, degs) for bid in large.bags}
    # hand truth: the far hub's bag is easy (one high-degree node below it);
    # the root bag sees both hubs, so it is not easy
    assert flags[large.node_bag[0]] is True
    assert flags[tm.root] is False
    assert count_non_easy_bags(two_hub, tree, 1, 3) == 1

    # nested cliques: reference bag partition must match on every pivot
    chain = families.clique_chain([5, 4, 5])
    ctree = to_node_tree(classic_gomory_hu(chain))
    for p in range(0, chain.n, 3):
        tm = cut_membership_tree(ctree, p)
        assert _reference_bags(ctree, p) == {b.nodes for b in tm.bags.values()}
    # counting machinery obeys the bound everywhere in the corpus
    rng = random.Random(11)
    for _ in range(10):
        g = families.er_connected(rng.randint(5, 24), 0.4,
                                  seed=rng.randrange(2 ** 32))
        t = to_node_tree(classic_gomory_hu(g))
        for p in range(0, g.n, 4):
            for w in range(1, g.n + 1):
                count_non_easy_bags(g, t, p, w)
    print("\nCRITERION 11 PASS: bag classification matches reference "
          "derivation; non-easy counts within bound across the corpus")


def test_criterion_12_scaling_smoke():
    os.makedirs(ARTIFACTS, exist_ok=True)
    rows = []
    certify_s = {}
    for n, p_edge in ((500, 0.02), (2000, 0.01)):
        g = families.er_connected(n, p_edge, seed=42)
        for algo, fn in (("randomized", lambda h: build_randomized(h, seed=0)),
                         ("deterministic", build_deterministic)):
            FLOW_CALLS.reset()
            t0 = time.time()
            tree = to_node_tree(fn(g))
            wall = time.time() - t0
            rows.append({"n": n, "m": g.edge_instances, "algo": algo,
                         "wall_s": round(wall, 1),
                         "maxflow_calls": FLOW_CALLS.value})
            if n == 2000:
                assert wall < 300, f"{algo} took {wall:.0f}s"
                t0 = time.time()
                failure = certify(g, tree)
                certify_s[algo] = round(time.time() - t0, 1)
                assert failure is None, f"{algo}: {failure}"
    path = os.path.join(ARTIFACTS, "scaling.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n", "m", "algo", "wall_s",
                                                "maxflow_calls"])
        writer.writeheader()
        writer.writerows(rows)
    times = {(r["n"], r["algo"]): r["wall_s"] for r in rows}
    print(f"\nCRITERION 12 PASS: n=2000 randomized {times[(2000, 'randomized')]}s, "
          f"deterministic {times[(2000, 'deterministic')]}s, both trees certified "
          f"({certify_s['randomized']}s, {certify_s['deterministic']}s); CSV at {path}")
