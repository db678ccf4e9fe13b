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

from ghtree import families, single_source
from ghtree.analysis import count_non_easy_bags, cut_membership_tree, is_easy_bag, w_large_subtree
from ghtree.build import build_deterministic, build_randomized
from ghtree.classic import classic_gomory_hu, gusfield
from ghtree.flow import FLOW_CALLS, MaxFlowSolver, latest_min_cut
from ghtree.graph import Graph
from ghtree.isolating import isolating_cuts
from ghtree.partition import to_node_tree
from ghtree.single_source import EngineConfig, SingleSourceEngine
from ghtree.sparsify import perturb, perturbed_sparsifier
from oracles import (assert_latest_table, dynamic_from, mask_cut_values, mask_latest_all,
                     planted_partition)

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


def _loop_engine_runs():
    """Single-source runs with the elimination loop exercised."""
    runs = []
    cfg = EngineConfig(loop_enabled=True, seed=5)
    instances = [
        (families.dumbbell(20, bridges=10), 25),
        (families.dumbbell(12, bridges=6), 14),
        (families.er_connected(24, 0.4, seed=3), 0),
        (families.er_connected(30, 0.3, seed=4), 7),
        (families.clique_chain([8, 8, 8]), 2),
    ]
    for g, p in instances:
        engine = SingleSourceEngine(g, g, p, cfg)
        engine.run()
        engine.settle_covered()
        runs.append((g, p, engine))
    return runs


def test_criterion_05_candidate_halving(monkeypatch):
    """Every non-skipped stage's candidate pass offers every candidate and
    leaves none live, i.e. neither done nor covered (more than halving: the
    set goes to zero in one pass).  Every terminal covered during a pass lies inside the done,
    balanced witness of a candidate solved in that pass, and every terminal
    ends exact once ``settle_covered`` has solved the covered ones."""
    passes = []
    step = single_source.splitter_isolating_step

    def recording_step(state, w, candidates):
        was_covered = set(state.covered)
        step(state, w, candidates)
        entries = state.table.entries
        live = [v for v in candidates if not entries[v].done and v not in state.covered]
        for u, v in state.covered.items():
            if u in was_covered:
                continue
            assert v in candidates and entries[v].done, (w, u, v)
            assert state.good(state.table.witness(v)), (w, u, v)
            assert state.idx(u) in state.table.witness(v), (w, u, v)
        passes.append((state, len(candidates), len(live),
                       len(set(state.covered) - was_covered)))

    monkeypatch.setattr(single_source, "splitter_isolating_step", recording_step)
    stages_seen = covered = 0
    for g, p, engine in _loop_engine_runs():
        stages = [s for s in engine.report["stages"] if not s.get("skipped")]
        stages_seen += len(stages)
        mine = [(offered, left) for state, offered, left, _ in passes if state is engine]
        assert [(s["candidates"], 0) for s in stages] == mine, (stages, mine)
        covered += sum(c for state, _, _, c in passes if state is engine)
        # the run must still end correct
        assert_latest_table(g, p, engine.table)
    assert stages_seen >= 3
    print(f"\nCRITERION 5 PASS: {stages_seen} stage passes, "
          f"each leaving no candidate live; {covered} terminals covered in them")


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


def test_criterion_09_splitters(monkeypatch):
    """The splitter family is the singletons, for both paper engines: in a
    loop-on build, every stage pass solves its candidates alone on the
    engine's one solver, ``aux_solver`` (a lone terminal's isolating cut is
    its latest cut), each at most once, in one pass, in sweep order
    (descending estimate, ties by id) as the pass starts; the
    candidates it does not solve are exactly those covered when their turn
    came."""
    steps = []
    running = None   # (engine, [(solved terminal, covered before its solve)])
    step, solve = single_source.splitter_isolating_step, MaxFlowSolver.solve

    def recording_step(state, w, candidates):
        nonlocal running
        running = (state, [])
        solves = running[1]
        # descending estimate, ties by id, as the pass starts
        estimate = state.table.estimate
        order = sorted(candidates, key=lambda v: (estimate(v), -v), reverse=True)
        try:
            step(state, w, candidates)
        finally:
            running = None
        steps.append((list(candidates), order, solves, set(state.covered)))

    def recording_solve(solver, s, t):
        if running is not None:
            engine = running[0]
            assert solver is engine.aux_solver, "a stage pass solved off the engine's solver"
            running[1].append((engine.aux.orig_id[s], set(engine.covered)))
        return solve(solver, s, t)

    monkeypatch.setattr(single_source, "splitter_isolating_step", recording_step)
    monkeypatch.setattr(MaxFlowSolver, "solve", recording_solve)
    # the dumbbell runs non-skipped stages after a run's first one; on the
    # other two graphs every stage after the first is skipped
    graphs = [planted_partition(4, 16, 0.5, 0.03, seed=42), families.clique_chain([8, 8, 8]),
              families.dumbbell(20, bridges=10)]
    builders = {"deterministic": build_deterministic,
                "randomized": lambda g, config: build_randomized(g, seed=42, config=config)}
    offered = skipped = 0
    for g in graphs:
        for name, build in builders.items():
            before = len(steps)
            tree = build(g, config=EngineConfig(loop_enabled=True))
            assert len(steps) > before, f"{name}: no stage offered a candidate"
            for cand, order, solves, covered_after in steps[before:]:
                assert cand == order, name
                # the covers in force at each turn: those before the next
                # solve, or after the pass once no solve is left
                turns = iter(solves + [(None, covered_after)])
                nxt, covered_then = next(turns)
                for u in cand:
                    if u == nxt:
                        assert u not in covered_then, name
                        nxt, covered_then = next(turns)
                    else:
                        assert u in covered_then, (name, u)
                        skipped += 1
                assert nxt is None, name
                offered += len(cand)
            assert _tree_values_match(g, tree, _oracle_values(g)) is None
    print(f"\nCRITERION 9 PASS: {len(steps)} stage passes, {offered} candidates, "
          f"each solved alone exactly once unless covered at its turn ({skipped} were), "
          "by both paper engines")


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
    rng = random.Random(7)
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
                sol = MaxFlowSolver(g)
                good = 0
                for _ in range(200):
                    u, v = rng.sample(range(n), 2)
                    val, side = tree.query(u, v)
                    if val.base == sol.solve(u, v) and g.cut_weight(side).base == val.base:
                        good += 1
                assert good == 200, f"{algo}: {good}/200 sampled pairs"
    path = os.path.join(ARTIFACTS, "scaling.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n", "m", "algo", "wall_s",
                                                "maxflow_calls"])
        writer.writeheader()
        writer.writerows(rows)
    times = {(r["n"], r["algo"]): r["wall_s"] for r in rows}
    print(f"\nCRITERION 12 PASS: n=2000 randomized {times[(2000, 'randomized')]}s, "
          f"deterministic {times[(2000, 'deterministic')]}s, 200/200 pairs each; "
          f"CSV at {path}")
