"""The benchmark's span tracer still installs on the library.

perfbench/tracing.py wraps library functions and methods by name, among
them ``SingleSourceEngine.offer``, ``isolating.isolating_cuts``,
``sparsify.perturb`` and ``perturbed_sparsifier``,
``single_source_mincuts`` and dynamic.py's ``splitter_isolating_step``, and
the benchmark's workloads construct ``EngineConfig(loop_enabled=...,
seed=...)``.  A rename or deletion of any of them breaks the benchmark, so
this test loads the tracer from its source, without writing anything under
perfbench/, installs it, traces one loop-on build and uninstalls it.
"""

import sys
import types
from pathlib import Path

import ghtree
from ghtree import EngineConfig, families
from ghtree.build import build_deterministic

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def ghtree_namespaces() -> dict[str, dict]:
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if m is not None and name.split(".")[0] == "ghtree"}


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
    assert tracer.calls["dynamic.splitter_step"] > 0
    assert metrics["flow.solve.calls"][0] > 0
