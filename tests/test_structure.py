"""Structure of the library, checked on its source.

Intra-package imports stay at module level, so the module dependency graph
is what the import statements say; a function-local import is how an
import cycle hides.  The deterministic engine extends the randomized one,
so dynamic.py may import single_source.py but not the other way round.
The engines make their max-flows through one method, and the stage solver
travels as an argument.  The library keeps only what a builder, the CLI or
the benchmark runs: the engine settings have no test hooks, graphs carry no
self-loops, and test-only helpers live under tests/.  Invariants are checked
by exceptions, never by ``assert``, so they hold under ``python -O``.  The
max-flow kernel's state is private to flow.py, so a new kernel changes one
file.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import ghtree
from ghtree.graph import Graph
from ghtree.single_source import EngineConfig

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


def test_stage_solver_is_explicit():
    """The stage solver is passed as an argument, never parked on the
    engine: no source or test file names a ``_gw_solver`` attribute."""
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in MODULES + tests:
        lines = [node.lineno for node in ast.walk(parse(path))
                 if (isinstance(node, ast.Attribute) and node.attr == "_gw_solver")
                 or (isinstance(node, ast.Name) and node.id == "_gw_solver")]
        assert not lines, f"{path.name} names _gw_solver at lines {lines}"


def test_engine_config_fields():
    assert {f.name for f in dataclasses.fields(EngineConfig)} == {
        "loop_enabled", "phi", "stage_from_zero", "seed"}


def test_graph_has_no_loops():
    assert "loops" not in Graph.__slots__


def test_test_only_helpers_not_exported():
    for name in ("assemble", "induced_with_self_loops", "tree_query"):
        assert not hasattr(ghtree, name), name


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
