"""The benchmark's span tracer still installs on the library.

perfbench/tracing.py wraps library functions and methods by name, among
them ``SingleSourceEngine.offer``, ``isolating.isolating_cuts``,
``sparsify.perturb`` and ``perturbed_sparsifier``,
``single_source_mincuts``, dynamic.py's ``splitter_isolating_step``,
``Graph.contract``, ``auxiliary_graph`` and
``PartitionTree.components_without``, and the benchmark's workloads
construct ``EngineConfig(loop_enabled=..., seed=...)``.  A rename or
deletion of any of them, or a call path that skips one, breaks the
benchmark, so this test loads the tracer from its source, without writing
anything under perfbench/, installs it, traces builds and uninstalls it.
``offer`` and ``splitter_isolating_step`` are no longer called, and
``EngineConfig`` has no effect: the elimination_loop workload's builds
are the default builds.
"""

import sys
import types
from pathlib import Path

import pytest

import ghtree
from ghtree import EngineConfig, families
from ghtree.build import build_deterministic, build_randomized
from ghtree.classic import classic_gomory_hu, gusfield
from ghtree.flow import FLOW_CALLS
from ghtree.partition import to_node_tree

from oracles import planted_partition

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def ghtree_namespaces() -> dict[str, dict]:
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if m is not None and name.split(".")[0] == "ghtree"}


def traced(build):
    """Run ``build()`` under a fresh tracer; returns the tracer and the
    build's report."""
    tracer = load_tracing().Tracer()
    report: dict = {}
    tracer.install()
    try:
        build(report)
    finally:
        tracer.uninstall()
    return tracer, report


def test_benchmark_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    before = ghtree_namespaces()
    offer = ghtree.single_source.SingleSourceEngine.offer
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ghtree.single_source.SingleSourceEngine.offer is not offer
        assert ghtree.dynamic.splitter_isolating_step is not before["ghtree.dynamic"][
            "splitter_isolating_step"]
        build_deterministic(families.clique_chain([6, 6, 6]),
                            config=EngineConfig(loop_enabled=True, seed=0))
    finally:
        tracer.uninstall()
    assert ghtree.single_source.SingleSourceEngine.offer is offer
    assert ghtree_namespaces() == before
    metrics = tracer.metrics(1.0)
    assert tracer.calls["single_source.run"] > 0
    assert metrics["flow.solve.calls"][0] > 0


@pytest.mark.parametrize("build", [
    lambda g, **kw: build_randomized(g, seed=42, **kw),
    lambda g, **kw: build_deterministic(g, **kw),
], ids=["randomized", "deterministic"])
def test_loop_enabled_config_builds_the_default_tree(build):
    """The elimination_loop workload's ``EngineConfig(loop_enabled=True,
    seed=0)`` has no effect: on its graph, planted 4x16, each paper
    builder's tree is byte-identical to the default build's, with as many
    flows."""
    g = planted_partition(4, 16, 0.5, 0.03, seed=42)
    runs = []
    for kw in ({}, {"config": EngineConfig(loop_enabled=True, seed=0)}):
        FLOW_CALLS.reset()
        tree = to_node_tree(build(g, **kw)).serialize()
        runs.append((tree, FLOW_CALLS.value))
    assert runs[0] == runs[1]


def test_tracer_counts_the_classic_builders():
    """Classic neither lists the tree's components nor contracts a graph;
    its traced solves read the split solvers' folded ``g``.  Gusfield only
    solves."""
    g = families.clique_chain([5, 6, 5])
    tracer, _ = traced(lambda rep: classic_gomory_hu(g))
    assert tracer.calls["flow.solve"] == g.n - 1
    assert tracer.calls["partition.components_without"] == 0
    assert tracer.calls["graph.contract"] == tracer.calls["graph.auxiliary_graph"] == 0
    assert tracer.counts["flow.solve.arcs"] > 0
    tracer, _ = traced(lambda rep: gusfield(g))
    assert tracer.calls["flow.solve"] == g.n - 1
    assert tracer.calls["partition.components_without"] == tracer.calls["graph.contract"] == 0
    assert tracer.counts["flow.solve.arcs"] == 2 * (g.n - 1) * len(g.edges)


@pytest.mark.parametrize("build", [
    lambda g, rep: build_randomized(g, seed=0, report=rep),
    lambda g, rep: build_deterministic(g, report=rep),
], ids=["randomized", "deterministic"])
def test_tracer_counts_the_paper_builders(build):
    """Each super-node builds one auxiliary graph, which lists the tree's
    components and contracts the input once, inside its span."""
    g = families.clique_chain([5, 6, 5])
    tracer, rep = traced(lambda rep: build(g, rep))
    supers = rep["supers"]
    assert supers > 0
    for name in ("graph.auxiliary_graph", "graph.contract", "partition.components_without"):
        assert tracer.calls[name] == supers, name
    assert tracer.calls["flow.solve"] == rep["flow_calls"] > 0
    names = {sid: name for sid, name, _, _, _ in tracer.spans}
    for _, name, _, _, parent in tracer.spans:
        if name in ("graph.contract", "partition.components_without"):
            assert names[parent] == "graph.auxiliary_graph", name
