"""Span tracing of the ghtree layers, installed from outside the library.

Every traced function is wrapped where its callers look it up: module-level
functions in every ``ghtree`` module namespace that holds them (callers use
``from .x import f``, and function-local imports read the module attribute
at call time), methods on their class.  Each wrapped call records a span
(id, name, start, end, parent) in memory; self time is a span's duration
minus the time its child spans cover.  Counters that need a call's
arguments or result are filled by per-function hooks.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("flow", "graph", "sparsify", "isolating", "expander",
          "single_source", "dynamic", "classic", "partition", "build")


def _solve_hook(c, args, result):
    c["flow.solve.arcs"] += 2 * len(args[0].g.edges)


def _contract_hook(c, args, result):
    c["graph.contract.edges_in"] += len(args[0].edges)


def _sparsify_hook(c, args, result):
    c["sparsify.instances_in"] += args[0].edge_instances
    c["sparsify.instances_out"] += result.edge_instances


def _isolating_hook(c, args, result):
    c["isolating.flows"] += result.flow_calls


def _decompose_hook(c, args, result):
    c["expander.parts"] += len(result)
    c["expander.certified_parts"] += sum(1 for p in result if p.certified)


def _run_hook(c, args, result):
    rep = args[0].report
    stages = rep["stages"]
    c["single_source.stages"] += len(stages)
    c["single_source.stages_skipped"] += sum(1 for s in stages if s.get("skipped"))
    c["single_source.direct_solves"] += sum(s.get("direct_solves", 0) for s in stages)
    c["single_source.final_sweep_solves"] += rep.get("final_sweep_solves", 0)


def _offer_hook(c, args, result):
    c["single_source.offer.accepted"] += bool(result)


# (span name, layer, module, attribute path, hook)
TARGETS = (
    ("flow.solve", "flow", "flow", "MaxFlowSolver.solve", _solve_hook),
    ("flow.solver_init", "flow", "flow", "MaxFlowSolver.__init__", None),
    ("flow.source_side", "flow", "flow", "MaxFlowSolver.source_side", None),
    ("flow.sink_side", "flow", "flow", "MaxFlowSolver.sink_side", None),
    ("flow.max_flow_min_cut", "flow", "flow", "max_flow_min_cut", None),
    ("flow.latest_min_cut", "flow", "flow", "latest_min_cut", None),
    ("graph.contract", "graph", "graph", "Graph.contract", _contract_hook),
    ("graph.auxiliary_graph", "graph", "graph", "auxiliary_graph", None),
    ("sparsify.ni_sparsify", "sparsify", "sparsify", "ni_sparsify", _sparsify_hook),
    ("sparsify.perturb", "sparsify", "sparsify", "perturb", None),
    ("sparsify.perturbed_sparsifier", "sparsify", "sparsify", "perturbed_sparsifier", None),
    ("isolating.isolating_cuts", "isolating", "isolating", "isolating_cuts", _isolating_hook),
    ("expander.decompose", "expander", "expander", "decompose_with_demands", _decompose_hook),
    ("single_source.run", "single_source", "single_source", "SingleSourceEngine.run", _run_hook),
    ("single_source.offer", "single_source", "single_source", "SingleSourceEngine.offer", _offer_hook),
    ("single_source.mincuts", "single_source", "single_source", "single_source_mincuts", None),
    ("dynamic.pivot_change", "dynamic", "dynamic", "pivot_change", None),
    ("dynamic.splitter_step", "dynamic", "dynamic", "splitter_isolating_step", None),
    ("dynamic.single_source", "dynamic", "dynamic", "single_source_dynamic_pivot", None),
    ("classic.classic_gomory_hu", "classic", "classic", "classic_gomory_hu", None),
    ("classic.gusfield", "classic", "classic", "gusfield", None),
    ("classic.k_partial_tree", "classic", "classic", "k_partial_tree", None),
    ("classic.gh_refine", "classic", "partition", "gh_refine", None),
    ("partition.split", "partition", "partition", "PartitionTree.split", None),
    ("partition.components_without", "partition", "partition", "PartitionTree.components_without", None),
    ("partition.to_node_tree", "partition", "partition", "to_node_tree", None),
    ("partition.query", "partition", "partition", "GomoryHuTree.query", None),
    ("partition.serialize", "partition", "partition", "GomoryHuTree.serialize", None),
    ("partition.parse_tree", "partition", "partition", "parse_tree", None),
    ("build.randomized", "build", "build", "build_randomized", None),
    ("build.deterministic", "build", "build", "build_deterministic", None),
)


class Tracer:
    """Installs span wrappers on the ghtree layers and aggregates them."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.site_calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []   # [id, name, start, child_ns]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._active[name] += 1
        self._stack.append([self._next_id, name, perf_counter_ns(), 0])

    def _exit(self, layer: str) -> None:
        end = perf_counter_ns()
        sid, name, start, child_ns = self._stack.pop()
        dur = end - start
        self._active[name] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, name, start, end, parent[0] if parent else 0))
        self.calls[name] += 1
        self.self_ns[name] += dur - child_ns
        self.layer_self_ns[layer] += dur - child_ns
        if not self._active[name]:   # outermost call of a recursive function
            self.incl_ns[name] += dur

    def _wrapper(self, orig, name, layer, hook, site):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            tracer.site_calls[site] += 1
            tracer._enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit(layer)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items()
                   if m is not None and (k == "ghtree" or k.startswith("ghtree."))}
        originals = []
        for name, layer, mod, path, hook in TARGETS:
            owner = modules[f"ghtree.{mod}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            originals.append(orig)
            if cls_path:
                site = f"{mod}:{path}"
                self._patch(owner, attr, self._wrapper(orig, name, layer, hook, site))
                continue
            for mname, module in modules.items():
                for key, val in list(vars(module).items()):
                    if val is orig:
                        site = f"{mname.removeprefix('ghtree.')}:{key}"
                        self._patch(module, key,
                                    self._wrapper(orig, name, layer, hook, site))
        # completeness: no ghtree namespace may still hand out an unwrapped target
        for mname, module in modules.items():
            for key, val in vars(module).items():
                if any(val is o for o in originals):
                    self.uninstall()
                    raise RuntimeError(f"untraced reference {mname}.{key}")

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(f"{sid}\t{name}\t{start}\t{end}\t{parent}\n")

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        calls, self_s, incl_s, c = self.calls, self._s(self.self_ns), self._s(self.incl_ns), self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "flow.solve.calls": (calls["flow.solve"], "count"),
            "flow.solve.self_s": (self_s["flow.solve"], "s"),
            "flow.solve.arcs": (c["flow.solve.arcs"], "count"),
            "flow.solver_init.calls": (calls["flow.solver_init"], "count"),
            "flow.solver_init.s": (incl_s["flow.solver_init"], "s"),
            "flow.solves_per_solver": (ratio(calls["flow.solve"], calls["flow.solver_init"]), "ratio"),
            "flow.side.s": (incl_s["flow.source_side"] + incl_s["flow.sink_side"], "s"),
            "graph.contract.calls": (calls["graph.contract"], "count"),
            "graph.contract.self_s": (self_s["graph.contract"], "s"),
            "graph.contract.edges_in": (c["graph.contract.edges_in"], "count"),
            "graph.auxiliary_graph.calls": (calls["graph.auxiliary_graph"], "count"),
            "graph.auxiliary_graph.s": (incl_s["graph.auxiliary_graph"], "s"),
            "sparsify.ni_sparsify.calls": (calls["sparsify.ni_sparsify"], "count"),
            "sparsify.ni_sparsify.s": (incl_s["sparsify.ni_sparsify"], "s"),
            "sparsify.kept_ratio": (ratio(c["sparsify.instances_out"], c["sparsify.instances_in"]), "ratio"),
            "sparsify.perturb.s": (incl_s["sparsify.perturb"], "s"),
            "isolating.isolating_cuts.calls": (calls["isolating.isolating_cuts"], "count"),
            "isolating.isolating_cuts.self_s": (self_s["isolating.isolating_cuts"], "s"),
            "isolating.flows": (c["isolating.flows"], "count"),
            "isolating.flows_per_call": (ratio(c["isolating.flows"], calls["isolating.isolating_cuts"]), "ratio"),
            "expander.decompose.calls": (calls["expander.decompose"], "count"),
            "expander.decompose.s": (incl_s["expander.decompose"], "s"),
            "expander.parts": (c["expander.parts"], "count"),
            "expander.certified_share": (ratio(c["expander.certified_parts"], c["expander.parts"]), "ratio"),
            "single_source.run.calls": (calls["single_source.run"], "count"),
            "single_source.run.s": (incl_s["single_source.run"], "s"),
            "single_source.stages": (c["single_source.stages"], "count"),
            "single_source.stages_skipped": (c["single_source.stages_skipped"], "count"),
            "single_source.direct_solves": (c["single_source.direct_solves"], "count"),
            "single_source.final_sweep_solves": (c["single_source.final_sweep_solves"], "count"),
            "single_source.offer.accept_ratio": (ratio(c["single_source.offer.accepted"], calls["single_source.offer"]), "ratio"),
            "dynamic.pivot_change.calls": (calls["dynamic.pivot_change"], "count"),
            "dynamic.pivot_change.s": (incl_s["dynamic.pivot_change"], "s"),
            "dynamic.latest_min_cut.calls": (self.site_calls["dynamic:latest_min_cut"], "count"),
            "dynamic.splitter_step.calls": (calls["dynamic.splitter_step"], "count"),
            "dynamic.splitter_step.s": (incl_s["dynamic.splitter_step"], "s"),
            "classic.k_partial_tree.s": (incl_s["classic.k_partial_tree"], "s"),
            "classic.gh_refine.calls": (calls["classic.gh_refine"], "count"),
            "classic.gh_refine.s": (incl_s["classic.gh_refine"], "s"),
            "partition.split.calls": (calls["partition.split"], "count"),
            "partition.split.s": (incl_s["partition.split"], "s"),
            "partition.components_without.s": (incl_s["partition.components_without"], "s"),
            "partition.to_node_tree.s": (incl_s["partition.to_node_tree"], "s"),
            "partition.query.s": (incl_s["partition.query"], "s"),
            "partition.serialize.s": (incl_s["partition.serialize"], "s"),
            "partition.parse_tree.s": (incl_s["partition.parse_tree"], "s"),
        }
        layer_s = self._s(self.layer_self_ns)
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = (layer_s[layer], "s")
        out["layer.other.self_s"] = (wall_s - sum(self.layer_self_ns.values()) / 1e9, "s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    @staticmethod
    def _s(ns: dict[str, int]) -> dict[str, float]:
        return defaultdict(float, {k: v / 1e9 for k, v in ns.items()})
