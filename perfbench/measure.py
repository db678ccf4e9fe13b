"""Set-up, timed builds, correctness checks and query timing for one workload.

Everything here drives the public ghtree API.  Library functions are looked
up on the package at call time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, perf_counter_ns

import ghtree
from ghtree import families
from ghtree.flow import FLOW_CALLS
from ghtree.weights import from_scaled

from reference import Reference
from tracing import Tracer
from workloads import Workload

BUILDERS = ("classic", "gusfield", "randomized", "deterministic")
SETUP_REPEATS = 5
MIN_ROUNDS = 3
MIN_CELL_S = 0.1         # a shorter build repeats within its round
VERIFY_PAIRS = 60        # per graph, checked on every builder's tree
QUERY_SAMPLES = 1000     # timed queries per batch, split over graphs and trees


class Tally:
    """Operations attempted and failed: builds and checked query pairs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL: {what}", file=sys.stderr)


# -- set-up ------------------------------------------------------------------


def setup(wl: Workload, corpus_seed: int) -> list[tuple[str, ghtree.Graph]]:
    """Generate the corpus, pass it through the CLI's text format, and pay
    the library's lazy imports so no timed build does."""
    graphs = []
    for label, g in wl.graphs(corpus_seed):
        back = ghtree.parse_graph(ghtree.emit_graph(g))
        if back.edges != g.edges or back.n != g.n:
            raise RuntimeError(f"{label}: emit_graph/parse_graph round trip changed the graph")
        graphs.append((label, back))
    warm(wl, corpus_seed)
    return graphs


def warm(wl: Workload, corpus_seed: int) -> None:
    # the expander's Fiedler sweep imports numpy on first use, and scipy's
    # sparse solver for pieces above 400 nodes
    import scipy.sparse.linalg  # noqa: F401
    ghtree.decompose_with_demands(families.path(24), {}, 0.5, exact_cut_limit=4)
    tiny = families.clique_chain([3, 3, 3])
    for algo in BUILDERS:
        build(algo, tiny, wl, corpus_seed, {})


def setup_seconds(run_py: str, workload: str, corpus_seed: int) -> float:
    """Wall seconds of a fresh process that only sets up the workload."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, run_py, "--workload", workload,
         "--corpus-seed", str(corpus_seed), "--setup-only"],
        check=True,
    )
    return perf_counter() - t0


# -- builds --------------------------------------------------------------------


def build(algo: str, g, wl: Workload, corpus_seed: int, report: dict):
    if algo == "classic":
        return ghtree.classic_gomory_hu(g)
    if algo == "gusfield":
        return ghtree.gusfield(g)
    if algo == "randomized":
        return ghtree.build_randomized(g, seed=corpus_seed,
                                       config=wl.config(corpus_seed), report=report)
    return ghtree.build_deterministic(g, config=wl.config(corpus_seed), report=report)


def timed_build(algo: str, g, wl: Workload, corpus_seed: int, report: dict):
    """Build from a clean garbage-collector state, so the collections during
    the build depend only on its own allocations.  Returns the tree, the
    wall seconds and the FLOW_CALLS delta."""
    gc.collect()
    f0 = FLOW_CALLS.value
    t0 = perf_counter()
    tree = build(algo, g, wl, corpus_seed, report)
    return tree, perf_counter() - t0, FLOW_CALLS.value - f0


def build_round(graphs, wl, corpus_seed, tally, first=None, after_builder=None,
                repeat_s=MIN_CELL_S, ref: Reference | None = None):
    """Build every graph with every builder, calling ``after_builder()``
    after each builder's turn.  A build shorter than ``repeat_s`` repeats
    until that much time is spent, so short builds give more samples.

    With ``ref``, a pass of the reference workload runs before the first
    build and after every build, and each build's sample also holds its
    time at reference speed, from the passes on either side of it.

    ``first`` maps (algo, label) to the first build's (node tree,
    serialization, flow calls); every later build must repeat both the
    bytes and the flow count.  Returns {(algo, label): [(seconds, seconds at
    reference speed or None), ...]} and first.
    """
    first = {} if first is None else first
    samples = {}
    before = ref.seconds() if ref else None
    for algo in BUILDERS:
        for label, g in graphs:
            cell, spent = [], 0.0
            while not cell or spent < repeat_s:
                try:
                    tree, t, f = timed_build(algo, g, wl, corpus_seed, {})
                except Exception:
                    traceback.print_exc()
                    tally.record(False, f"{algo} build of {label} raised")
                    break
                scaled = None
                if ref:
                    after = ref.seconds()
                    scaled = ref.at_reference_speed(t, before, after)
                    before = after
                nt = ghtree.to_node_tree(tree)
                text = nt.serialize()
                first_build = first.setdefault((algo, label), (nt, text, f))
                tally.record(text == first_build[1] and f == first_build[2],
                             f"{algo} rebuild of {label} differs from the first "
                             f"({f} flows, first {first_build[2]})")
                cell.append((t, scaled))
                spent += t
            if cell:
                samples[algo, label] = cell
        if after_builder is not None:
            after_builder()
    return samples, first


def keep_fastest(best: dict, samples: dict) -> None:
    for key, cell in samples.items():
        t = min(t for t, _ in cell)
        best[key] = min(t, best.get(key, t))


def collect(into: dict, samples: dict) -> None:
    for key, cell in samples.items():
        into.setdefault(key, []).extend(cell)


def per_builder(cells: dict, graphs) -> dict:
    """{algo: sum over the graphs} of per-(algo, label) values."""
    return {algo: sum(cells.get((algo, label), 0) for label, _ in graphs)
            for algo in BUILDERS}


def median_of(samples: dict, field: int) -> dict:
    """{(algo, label): median of one field of the cell's samples}."""
    return {key: statistics.median(s[field] for s in cell) for key, cell in samples.items()}


def first_flows(first: dict, graphs) -> dict:
    return per_builder({key: f for key, (_, _, f) in first.items()}, graphs)


def first_trees(first) -> dict:
    """{algo: {label: node tree}} of the first builds."""
    trees = {algo: {} for algo in BUILDERS}
    for (algo, label), (nt, _, _) in first.items():
        trees[algo][label] = nt
    return trees


def sample_pairs(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    pairs = []
    for _ in range(count):
        u, v = rng.sample(range(n), 2)
        pairs.append((u, v))
    return pairs


def verify(graphs, trees, seed: int, tally: Tally) -> None:
    """Check sampled pairs of every tree against direct max-flows on the
    input graph: same value, and the returned side is a cut of that weight
    separating the pair.  Agreement of all builders follows."""
    rng = random.Random(f"verify:{seed}")
    for label, g in graphs:
        solver = ghtree.MaxFlowSolver(g)
        for u, v in sample_pairs(rng, g.n, VERIFY_PAIRS):
            value = from_scaled(solver.solve(u, v), g.unit)
            for algo in BUILDERS:
                nt = trees[algo].get(label)
                if nt is None:
                    continue
                w, side = nt.query(u, v)
                ok = (w == value and u in side and v not in side
                      and g.cut_weight(side) == value)
                tally.record(ok, f"{algo} tree of {label}: pair ({u},{v}) "
                                 f"gives {w}, max-flow gives {value}")


def query_pairs(graphs, corpus_seed: int) -> dict[str, list[tuple[int, int]]]:
    """Timed query pairs, fixed per corpus: on star-like cut trees a query
    costs O(1) or O(n) by which side is smaller, so the median of a few
    hundred random pairs jumps between the two costs from seed to seed."""
    rng = random.Random(f"query:{corpus_seed}")
    per_tree = QUERY_SAMPLES // (len(graphs) * len(BUILDERS))
    return {label: sample_pairs(rng, g.n, per_tree) for label, g in graphs}


def time_queries(graphs, trees, pairs) -> list[int]:
    """Latency in ns of GomoryHuTree.query over the pairs on every tree.

    The garbage collector is off while timing, as in timeit: a collection
    inside a query would be paying for the benchmark's own allocations.
    """
    samples = []
    gc.collect()
    gc.disable()
    try:
        for label, _ in graphs:
            for algo in BUILDERS:
                nt = trees[algo].get(label)
                if nt is None:
                    continue
                for u, v in pairs[label]:
                    t0 = perf_counter_ns()
                    nt.query(u, v)
                    samples.append(perf_counter_ns() - t0)
    finally:
        gc.enable()
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run --------------------------------------------------------


def end_to_end(wl, graphs, corpus_seed, seed, seconds, setup_probe):
    """Rounds of all builders until the time is used.  From the second
    round on, each builder's turn is followed by a batch of timed queries
    on the first round's trees, and each round by ``setup_probe()``, which
    returns the wall seconds of one fresh set-up; setup_s is their median.
    Every rebuild is checked to be byte-identical to the first build.

    On a shared machine the speed drifts by tens of percent for seconds to
    minutes, so build and query times are taken at reference speed (see
    reference.py) and are medians over the run: of a build's times, and of
    a query's times over the batches before percentiles.  Set-up runs in
    fresh processes, which the reference cannot bracket closely; its
    probes are spread over the run instead."""
    tally = Tally()
    ref = Reference()
    builds = {}
    pairs = query_pairs(graphs, corpus_seed)
    first = {}
    trees = None
    query_ns: list[list[int]] = []        # per batch, per query
    query_scaled: list[list[float]] = []    # per batch, per query, at reference speed

    def query_batch():
        if trees is None:
            return
        before = ref.seconds()
        ns = time_queries(graphs, trees, pairs)
        scale = ref.at_reference_speed(1e-9, before, ref.seconds())
        query_ns.append(ns)
        query_scaled.append([t * scale for t in ns])

    setups = []
    t_start = perf_counter()
    rounds = 0
    while True:
        cells, first = build_round(graphs, wl, corpus_seed, tally, first, query_batch,
                                   ref=ref)
        collect(builds, cells)
        trees = trees or first_trees(first)
        setups.append(setup_probe())
        rounds += 1
        elapsed = perf_counter() - t_start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe())
    print(f"{wl.name}: set-up runs " + ", ".join(f"{t:.3f}" for t in setups) + " s")
    verify(graphs, trees, seed, tally)
    per_query = [statistics.median(q) for q in zip(*query_scaled)]
    per_query_us = [statistics.median(q) / 1e3 for q in zip(*query_ns)]
    print(f"{wl.name}: {rounds} rounds in {elapsed:.1f} s; {len(query_scaled)} batches of "
          f"{len(per_query)} timed queries, {len(per_query) // 100} beyond p99")
    wall = per_builder(median_of(builds, 0), graphs)
    print(f"{wl.name}: median build seconds " + ", ".join(
        f"{algo} {secs:.3f}" for algo, secs in wall.items())
        + f"; median query us p50 {statistics.median(per_query_us):.1f}")
    metrics = {}
    for algo, secs in per_builder(median_of(builds, 1), graphs).items():
        metrics[f"build_s.{algo}"] = (secs, "s")
    for algo, flows in first_flows(first, graphs).items():
        metrics[f"flow_calls.{algo}"] = (flows, "count")
    metrics["query_us.p50"] = (statistics.median(per_query) * 1e6, "us")
    metrics["query_us.p99"] = (statistics.quantiles(per_query, n=100)[98] * 1e6, "us")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["verify_pass_share"] = (1.0 - tally.failed / tally.attempted, "ratio")
    return tally, metrics


def traced(wl, graphs, corpus_seed, seed, spans_path):
    """A traced round of all builders plus the CLI query path (serialize,
    parse_tree, query) on every tree, between two untraced rounds whose
    faster build of each graph is the baseline for the tracing overhead.
    Every round builds each graph once."""
    tally = Tally()
    best = {}
    cells, first = build_round(graphs, wl, corpus_seed, tally, repeat_s=0.0)
    keep_fastest(best, cells)
    flows = first_flows(first, graphs)
    pairs = query_pairs(graphs, corpus_seed)
    tracer = Tracer()
    traced_secs = dict.fromkeys(BUILDERS, 0.0)
    traced_flows = 0
    reports = {algo: [] for algo in BUILDERS}
    trees, texts = {}, {}
    tracer.install()
    try:
        for algo in BUILDERS:
            for label, g in graphs:
                rep: dict = {}
                trees[algo, label], t, f = timed_build(algo, g, wl, corpus_seed, rep)
                traced_secs[algo] += t
                traced_flows += f
                reports[algo].append(rep)
        t0 = perf_counter()
        for label, _ in graphs:
            for algo in BUILDERS:
                texts[algo, label] = ghtree.to_node_tree(trees[algo, label]).serialize()
                nt = ghtree.parse_tree(texts[algo, label])
                for u, v in pairs[label]:
                    nt.query(u, v)
        query_path_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    keep_fastest(best, build_round(graphs, wl, corpus_seed, tally, first, repeat_s=0.0)[0])
    secs = per_builder(best, graphs)

    for algo in BUILDERS:
        for label, _ in graphs:
            tally.record(texts[algo, label] == first[algo, label][1],
                         f"traced {algo} build of {label} differs from the untraced one")
    solve_calls = tracer.calls["flow.solve"]
    complete = solve_calls == traced_flows == sum(flows.values())
    tally.record(complete, f"trace saw {solve_calls} solves, FLOW_CALLS moved "
                           f"{traced_flows}, untraced builds made {sum(flows.values())}")
    verify(graphs, first_trees(first), seed, tally)

    # traced wall time: the timed builds and the query path, not the
    # untimed garbage collections between builds
    metrics = tracer.metrics(sum(traced_secs.values()) + query_path_s)
    metrics.update(build_metrics(reports))
    untraced_total = sum(secs.values())
    for algo in BUILDERS:
        metrics[f"trace.overhead_s.{algo}"] = (traced_secs[algo] - secs[algo], "s")
    metrics["trace.overhead_share"] = (
        (sum(traced_secs.values()) - untraced_total) / untraced_total, "ratio")
    metrics["trace.complete"] = (1 if complete else 0, "bool")
    return tally, metrics


def build_metrics(reports) -> dict:
    rand = reports["randomized"]
    det = reports["deterministic"]
    supers = sum(r.get("supers", 0) for r in rand + det)
    r_supers = sum(r.get("supers", 0) for r in rand)
    retries = sum(r.get("bad_pivot_retries", 0) for r in rand)
    return {
        "build.supers": (supers, "count"),
        "build.depth": (max((r.get("depth", 0) for r in rand + det), default=0), "count"),
        "build.bad_pivot_retries": (retries, "count"),
        "build.reperturbs": (sum(r.get("reperturbs", 0) for r in rand), "count"),
        "build.pivot_changes": (sum(r.get("pivot_changes", 0) for r in det), "count"),
        # 1 when the randomized builder attempted no super-node
        "build.good_pivot_ratio": (
            r_supers / (r_supers + retries) if r_supers + retries else 1.0, "ratio"),
    }
