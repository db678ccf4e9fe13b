"""Structure of the library, checked on its source.

Intra-package imports stay at module level, so the module dependency graph
is what the import statements say; a function-local import is how an
import cycle hides.  The deterministic engine extends the randomized one,
so dynamic.py may import single_source.py but not the other way round.
The engines make their max-flows through one method, prove estimates
through one other, and make every solve of a run on one solver over the
auxiliary graph, stages included.  The library keeps only what a builder, the CLI or
the benchmark runs: the engine settings have no test hooks, graphs carry no
self-loops, and test-only helpers live under tests/.  Invariants are checked
by exceptions, never by ``assert``, so they hold under ``python -O``.  The
max-flow kernel's state is private to flow.py, so a new kernel changes one
file.  The classic builders build no contracted graph and make at most one
solver per run.  Both engines start their doubling stages at the same w
and share the stage pass.  The builders, their partial-tree bootstrap and
the engines run on plain graphs: latest cuts need no perturbation to be
unique.  Every stage step is a lone latest-cut solve, so the engines call
no batch isolating cuts, and the stage pass and the final sweep are one
settle loop.  Every stage solve is exact, so no engine keeps a proven
lower bound per terminal and no settle step takes a cap.  A cut tree keeps one live representation: partition trees
split in place and Gomory-Hu trees answer from their rooted arrays.  Cuts
reach a partition tree in auxiliary-graph terms (the super-node's vertices
and the neighbors on a side), so no builder expands a cut to original
vertices.  One layout numbers every auxiliary graph the paper builders
contract into a ``Graph``, and graphs keep no member sets.  The classic
builder needs no layout: it splits each super-node's solver into its
children's instead of remapping the input's arcs per flow.  Every builder
takes any loop-free multigraph, connected or not, so no builder refuses an
input graph, nothing subdivides one, and whether a graph is simple is read
from its edges, never passed in.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import ghtree
from ghtree import families
from ghtree.build import build_randomized
from ghtree.classic import k_partial_tree
from ghtree.dynamic import DynamicPivotEngine
from ghtree.flow import CutSide, MaxFlowSolver
from ghtree.graph import Graph
from ghtree.partition import GomoryHuTree, PartitionTree
from ghtree.single_source import EngineConfig, SingleSourceEngine, TerminalEstimate

from oracles import planted_partition

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ghtree"
MODULES = sorted(SRC.glob("*.py"))


def relative_imports(tree: ast.Module):
    """(node, imported module names) for every ``from .x import ...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                yield node, [node.module]
            else:
                yield node, [alias.name for alias in node.names]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert {"single_source.py", "dynamic.py", "build.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_relative_imports(path):
    tree = parse(path)
    top = {id(node) for node in tree.body}
    local = [f"line {node.lineno}" for node, _ in relative_imports(tree)
             if id(node) not in top]
    assert not local, f"{path.name}: function-local relative imports at {local}"


def test_single_source_does_not_import_dynamic():
    tree = parse(SRC / "single_source.py")
    for node, names in relative_imports(tree):
        assert "dynamic" not in names, f"single_source.py imports .dynamic at line {node.lineno}"


def solve_calls(tree: ast.Module) -> list[int]:
    """Line numbers of every ``<expr>.solve(...)`` call."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "solve"]


def test_engines_have_one_solve_path():
    """Every exact cut of the single-source engines comes from
    ``SingleSourceEngine.latest_cut``; a pivot change reuses its flow."""
    assert len(solve_calls(parse(SRC / "single_source.py"))) == 1
    assert solve_calls(parse(SRC / "dynamic.py")) == []


def done_marks(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function, line) of every ``<expr>.done = True`` and every
    ``done=True`` keyword argument."""
    found = []

    def is_true(node):
        return isinstance(node, ast.Constant) and node.value is True

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Assign) and is_true(child.value)
                    and any(isinstance(t, ast.Attribute) and t.attr == "done"
                            for t in child.targets)):
                found.append((func, child.lineno))
            if isinstance(child, ast.keyword) and child.arg == "done" and is_true(child.value):
                found.append((func, child.lineno))
            visit(child, func)

    visit(tree, None)
    return found


def test_engines_have_one_settle_path():
    """Every proven estimate comes from ``SingleSourceEngine.settle``:
    ``offer`` only lowers an estimate, with no ``done`` or ``allow_equal``
    flag, and only ``settle`` marks a terminal done, by a solve it made.
    The one exception is the old pivot's record in
    ``pivot_change``, whose value is exact from the flow that triggered the
    change."""
    assert "done" not in inspect.signature(SingleSourceEngine.offer).parameters
    outside = []
    for path in MODULES:
        assert "allow_equal" not in path.read_text(), path.name
        outside += [(path.name, func) for func, _ in done_marks(parse(path)) if func != "settle"]
    assert outside == [("dynamic.py", "pivot_change")]
    assert [func for func, _ in done_marks(parse(SRC / "single_source.py"))] == ["settle"]
    assert list(inspect.signature(SingleSourceEngine.settle).parameters) == ["self", "v"]


def test_stage_solves_are_exact():
    """A stage solves only estimates it keeps exact, so nothing is capped:
    a terminal's estimate has no proven floor beside its value, witness and
    done flag, ``settle`` and ``sweep`` take no cap, and neither engine
    module names a ``floor`` (``math.floor`` aside)."""
    assert [f.name for f in dataclasses.fields(TerminalEstimate)] == [
        "value", "witness", "done"]
    assert list(inspect.signature(SingleSourceEngine.settle).parameters) == ["self", "v"]
    assert list(inspect.signature(SingleSourceEngine.sweep).parameters) == ["self", "terminals"]
    for name in ("single_source.py", "dynamic.py"):
        found = []
        for node in ast.walk(parse(SRC / name)):
            if isinstance(node, ast.Attribute) and node.attr == "floor":
                if not (isinstance(node.value, ast.Name) and node.value.id == "math"):
                    found.append(node.lineno)
            elif isinstance(node, ast.Name) and node.id == "floor":
                found.append(node.lineno)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg == "floor":
                found.append(node.lineno)
        assert not found, f"{name} names floor at lines {found}"


def test_stage_solver_is_explicit():
    """A stage solves on the engine's one named solver, ``aux_solver``,
    never on a per-stage solver parked on the engine: no source or test
    file names a ``_gw_solver`` attribute."""
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in MODULES + tests:
        lines = [node.lineno for node in ast.walk(parse(path))
                 if (isinstance(node, ast.Attribute) and node.attr == "_gw_solver")
                 or (isinstance(node, ast.Name) and node.id == "_gw_solver")]
        assert not lines, f"{path.name} names _gw_solver at lines {lines}"


def function_args(path: Path) -> dict[str, list[str]]:
    """Every function of a module, by name, with its parameter names."""
    return {f.name: [a.arg for a in f.args.args + f.args.kwonlyargs]
            for f in ast.walk(parse(path)) if isinstance(f, ast.FunctionDef)}


def test_engines_make_one_solver_per_run(monkeypatch):
    """Every solve of a single-source run is made on ``aux_solver``:
    single_source.py builds a ``MaxFlowSolver`` only there and names no
    ``ni_sparsify``, no function of either engine module takes a ``solver``
    parameter, and a loop-on build sparsifies no more often than a loop-off
    one (the randomized builder's partial-tree bootstrap only)."""
    tree = parse(SRC / "single_source.py")
    builders = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                and any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                        and c.func.id == "MaxFlowSolver" for c in ast.walk(f))]
    assert builders == ["aux_solver"]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "ni_sparsify" not in names
    for name in ("single_source.py", "dynamic.py"):
        takers = [f for f, args in function_args(SRC / name).items() if "solver" in args]
        assert not takers, f"{name}: {takers} take a solver"

    calls = []
    sparsify = ghtree.sparsify.ni_sparsify

    def recording(g, k):
        calls.append(k)
        return sparsify(g, k)

    for module in vars(ghtree).values():
        if getattr(module, "ni_sparsify", None) is sparsify:
            monkeypatch.setattr(module, "ni_sparsify", recording)
    g = planted_partition(4, 16, 0.5, 0.03, seed=42)
    counts = []
    for loop in (False, True):
        calls.clear()
        build_randomized(g, seed=42, config=EngineConfig(loop_enabled=loop))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


def test_engine_config_fields():
    assert {f.name for f in dataclasses.fields(EngineConfig)} == {"loop_enabled", "seed"}


def test_deterministic_stages_start_like_randomized():
    """Every stage solve is exact, so no engine needs its stages to begin
    at w = 1:
    ``DynamicPivotEngine`` overrides only the pivot move, not the stage
    pass or where the stages start, and loop-on it begins at
    2^floor(log2(n)/2) as the randomized engine does.  No engine has a
    hook that builds a stage graph."""
    assert {name for name in vars(DynamicPivotEngine) if not name.startswith("__")} == {
        "moves_pivot"}
    for name in ("first_stage", "isolating_moves_pivot", "stage_pending", "stage_graph"):
        assert not hasattr(SingleSourceEngine, name), name
    g = families.er_connected(40, 0.08, seed=0)
    cfg = EngineConfig(loop_enabled=True)
    first = []
    for engine in (DynamicPivotEngine(g, g, 0, cfg), SingleSourceEngine(g, g, 0, cfg)):
        engine.run()
        first.append(engine.report["stages"][0]["w"])
    assert first == [4, 4]   # n = 40: 2^floor(log2(40) / 2)


def method_calls(tree: ast.Module, attr: str) -> list[str]:
    """The enclosing function of every call ``<expr>.<attr>(...)``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == attr):
                found.append(func)
            visit(child, func)

    visit(tree, None)
    return found


def test_engines_have_one_settle_loop():
    """The stage pass and the final sweep are one loop,
    ``SingleSourceEngine.sweep``, the only per-terminal loop that calls
    ``settle``; ``settle_covered`` is its only other caller, so no stage
    settles a terminal outside its sweep."""
    tree = parse(SRC / "single_source.py")
    assert sorted(method_calls(tree, "settle")) == ["settle_covered", "sweep"]
    assert sorted(method_calls(tree, "sweep")) == ["final_sweep", "splitter_isolating_step"]
    for path in MODULES:
        if path.name != "single_source.py":
            assert method_calls(parse(path), "settle") == [], path.name


def test_loop_runs_no_expander_decomposition():
    """A loop-on stage offers every candidate alone in one pass, so the
    engines import nothing from the expander decomposition, and the round
    machinery that ordered its parts is gone."""
    for path in (SRC / "single_source.py", SRC / "dynamic.py"):
        for node, names in relative_imports(parse(path)):
            assert "expander" not in names, f"{path.name} imports .expander at line {node.lineno}"
    for name in ("priority_solve_step", "priority_budget", "candidate_threshold",
                 "ImprovingCut", "_elimination_round"):
        assert not hasattr(ghtree, name), name
        assert not hasattr(ghtree.single_source, name), f"single_source.{name}"


def test_engines_solve_each_candidate_alone_on_plain_graphs():
    """single_source.py names neither ``isolating_cuts`` nor
    ``perturbed_sparsifier``: a stage offers each candidate alone, as one
    latest-cut solve, on the plain auxiliary graph.  The engines take no work
    graph, and neither ``easy_cuts_step`` nor ``offer_isolating_cuts``
    exists."""
    tree = parse(SRC / "single_source.py")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & {"isolating_cuts", "perturbed_sparsifier", "perturb"}, names
    assert "isolating" not in {m for _, mods in relative_imports(tree) for m in mods}
    assert "work" not in inspect.signature(SingleSourceEngine).parameters
    for name in ("easy_cuts_step", "offer_isolating_cuts"):
        assert not hasattr(ghtree, name), name
        assert not hasattr(ghtree.single_source, name), f"single_source.{name}"


def test_cut_trees_keep_one_representation():
    """A partition tree refines in place, and a Gomory-Hu tree answers
    queries from its rooted arrays: neither keeps a second copy of itself."""
    assert not hasattr(PartitionTree, "copy")
    assert "_adj" not in GomoryHuTree.__slots__
    assert not hasattr(GomoryHuTree, "component_without")
    imported = {alias.name for node in ast.walk(parse(SRC / "partition.py"))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "deque" not in imported


def test_cuts_reach_the_tree_in_auxiliary_graph_terms():
    """A partition tree keeps no vertex-to-super map, graphs have no
    ``expand``, and neither builder module reads a node's member set."""
    assert PartitionTree.__slots__ == ("super_nodes", "adj", "_next_id")
    assert not hasattr(Graph, "expand")
    for path in (SRC / "build.py", SRC / "classic.py"):
        lines = [node.lineno for node in ast.walk(parse(path))
                 if isinstance(node, ast.Attribute) and node.attr == "members"]
        assert not lines, f"{path.name} reads .members at lines {lines}"


def test_one_auxiliary_graph_layout():
    """``PartitionTree.aux_layout`` is the one function that lists a
    super-node's tree components to number its auxiliary graph: neither
    builder module lists them or fills an index itself.  Graphs keep no
    member sets, and contraction takes an index."""
    assert "members" not in Graph.__slots__
    assert list(inspect.signature(Graph.contract).parameters) == ["self", "index", "n", "kept"]
    callers = []
    for path in MODULES:
        for func in ast.walk(parse(path)):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "components_without"
                    for node in ast.walk(func)):
                callers.append((path.name, func.name))
    assert callers == [("partition.py", "aux_layout")]
    for path in (SRC / "build.py", SRC / "classic.py"):
        stores = [node.lineno for node in ast.walk(parse(path))
                  if isinstance(node, (ast.Name, ast.Subscript)) and isinstance(node.ctx, ast.Store)
                  and "index" in ast.unparse(node)]
        assert not stores, f"{path.name} builds an index at lines {stores}"


def test_one_input_contract_for_every_builder():
    """No builder refuses an input graph, so build.py raises no
    ``GraphError``; the subdivision detour is gone; and ``Graph.simple`` is
    derived from the edges, so no constructor takes it."""
    for name in ("subdivide", "gusfield_projection"):
        assert not hasattr(ghtree, name), name
    assert not hasattr(ghtree.graph, "subdivide")
    assert not hasattr(ghtree.classic, "gusfield_projection")
    for func in (Graph.__init__, Graph.from_edges, Graph.with_edges):
        assert "simple" not in inspect.signature(func).parameters, func.__name__
    assert isinstance(inspect.getattr_static(Graph, "simple"), property)
    names = {node.id for node in ast.walk(parse(SRC / "build.py")) if isinstance(node, ast.Name)}
    assert "GraphError" not in names


def test_graph_has_no_loops():
    assert "loops" not in Graph.__slots__


def test_test_only_helpers_not_exported():
    for name in ("assemble", "induced_with_self_loops", "tree_query",
                 "verify_expansion", "verify_expansion_detail", "all_pairs_oracle"):
        assert not hasattr(ghtree, name), name
    for module, name in (("expander", "verify_expansion"), ("expander", "verify_expansion_detail"),
                         ("expander", "CERTIFY_LIMIT"), ("flow", "all_pairs_oracle"),
                         ("flow", "DEFAULT_ORACLE_LIMIT")):
        assert not hasattr(getattr(ghtree, module), name), f"{module}.{name}"
    for cls, name in ((PartitionTree, "verify"), (PartitionTree, "subtree_side"),
                      (CutSide, "verify")):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(parse(path))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def solver_private_fields() -> set[str]:
    """The underscore attributes MaxFlowSolver sets on itself."""
    tree = parse(SRC / "flow.py")
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "MaxFlowSolver")
    return {node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self" and node.attr.startswith("_")
            and not node.attr.startswith("__")}


def test_flow_kernel_state_is_private():
    """No file outside flow.py touches the solver's residual or arc arrays;
    callers use solve, source_side, sink_side and ``.g``."""
    private = solver_private_fields()
    assert {"_cap", "_to", "_arcs"} <= private
    assert "cap" not in {node.attr for node in ast.walk(parse(SRC / "flow.py"))
                         if isinstance(node, ast.Attribute)}
    paths = [p for p in MODULES if p.name != "flow.py"]
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        lines = [node.lineno for node in ast.walk(parse(path))
                 if isinstance(node, ast.Attribute) and node.attr in private]
        assert not lines, f"{path.name} reads MaxFlowSolver private fields at lines {lines}"


def test_classic_builds_one_solver_and_no_contracted_graph():
    """Gomory-Hu derives every flow's solver from one base solver (by
    ``MaxFlowSolver.split``, inside flow.py); no function in classic.py
    builds a solver inside a loop, and the module never contracts a graph
    or calls the one-shot flow helpers."""
    tree = parse(SRC / "classic.py")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"contract", "auxiliary_graph", "max_flow_min_cut"}

    def constructions(node):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and isinstance(c.func, ast.Name) and c.func.id == "MaxFlowSolver"]

    funcs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    assert len(constructions(funcs["classic_gomory_hu"])) == 1
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.While)):
            assert not constructions(loop), f"classic.py builds a solver in a loop at line {loop.lineno}"


def test_classic_splits_solvers_instead_of_remapping():
    """``classic_gomory_hu`` derives each super-node's solver from its
    parent's with ``MaxFlowSolver.split``: it names none of ``remapped``,
    ``aux_layout`` or ``components_without``, and the solver has no
    ``remapped``."""
    tree = parse(SRC / "classic.py")
    func = next(f for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "classic_gomory_hu")
    names = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    assert "split" in names
    assert not names & {"remapped", "aux_layout", "components_without"}, names
    assert not hasattr(MaxFlowSolver, "remapped")


def test_builders_use_no_perturbation():
    """build.py and classic.py name neither ``perturb`` nor
    ``perturbed_sparsifier``, the partial tree takes no seed, and a
    randomized report has no re-perturbation count."""
    for path in (SRC / "build.py", SRC / "classic.py"):
        tree = parse(path)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"perturb", "perturbed_sparsifier"}, path.name
    assert "seed" not in inspect.signature(k_partial_tree).parameters
    rep: dict = {}
    build_randomized(families.clique_chain([4, 4, 4]), seed=0, report=rep)
    assert rep["algo"] == "randomized" and "reperturbs" not in rep
