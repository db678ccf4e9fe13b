import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from ghtree import EngineConfig, families, single_source
from ghtree import cli
from ghtree.build import RandomizedAbort, build_deterministic, build_randomized
from ghtree.classic import classic_gomory_hu, gusfield
from ghtree.cli import main
from ghtree.flow import FLOW_CALLS
from ghtree.graph import emit_graph
from ghtree.partition import to_node_tree


@pytest.fixture
def runner():
    return CliRunner()


def write_graph(path, g):
    path.write_text(emit_graph(g))
    return str(path)


def test_build_query_verify_round_trip(tmp_path, runner):
    gp = write_graph(tmp_path / "g.gr", families.dumbbell(4))
    tree = str(tmp_path / "g.tree")
    rep = str(tmp_path / "g.json")
    res = runner.invoke(main, ["build", gp, "--algo", "classic",
                               "--out", tree, "--report", rep])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["query", tree, "1", "8"])
    assert res.exit_code == 0
    assert "value 1.0" in res.output
    res = runner.invoke(main, ["verify", gp, tree])
    assert res.exit_code == 0
    assert "pass" in res.output
    report = json.loads(open(rep).read())
    assert report["maxflow_calls"] == 7
    assert report["algo"] == "classic"


def test_build_and_verify_every_algo_under_python_O(tmp_path):
    """Every builder's invariants are exceptions, not asserts, so under
    ``python -O`` each ``ght build`` still writes a tree that ``ght verify``
    passes, exit codes included, on a simple graph and on a multigraph."""
    graphs = {"simple": families.clique_chain([5, 6, 5]),
              "multi": families.random_multigraph(12, 0.4, 3, seed=8)}
    paths = [write_graph(tmp_path / f"{name}.gr", g) for name, g in graphs.items()]
    code = (
        "import sys\n"
        "from ghtree.cli import main\n"
        "out, *paths = sys.argv[1:]\n"
        "for k, gp in enumerate(paths):\n"
        "    for algo in ('classic', 'gusfield', 'randomized', 'deterministic'):\n"
        "        tree = f'{out}/{algo}{k}.tree'\n"
        "        for args in (['build', gp, '--algo', algo, '--seed', '0', '--out', tree],\n"
        "                     ['verify', gp, tree]):\n"
        "            try:\n"
        "                main(args)\n"
        "            except SystemExit as exc:\n"
        "                print('exit', k, algo, args[0], exc.code)\n"
        "print('optimize', sys.flags.optimize)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(tmp_path), *paths], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "optimize 1" in lines
    for k in range(len(paths)):
        for algo in ("classic", "gusfield", "randomized", "deterministic"):
            assert f"exit {k} {algo} build 0" in lines, out.stdout
            assert f"exit {k} {algo} verify 0" in lines, out.stdout
    assert sum(line.startswith("pass:") for line in lines) == 8, out.stdout


def test_build_all_algos(tmp_path, runner):
    gp = write_graph(tmp_path / "g.gr", families.er_connected(10, 0.5, seed=3))
    for algo in ("classic", "gusfield", "randomized", "deterministic"):
        tree = str(tmp_path / f"{algo}.tree")
        res = runner.invoke(main, ["build", gp, "--algo", algo, "--seed", "5",
                                   "--out", tree])
        assert res.exit_code == 0, (algo, res.output)
        res = runner.invoke(main, ["verify", gp, tree])
        assert res.exit_code == 0, (algo, res.output)


def test_build_report_counts_covered_terminals(tmp_path, runner):
    """dumbbell(12, 3): the paper builders report the solves they skip as
    covered, and the flow count drops by exactly that many (34 for the
    deterministic builder when every terminal is solved)."""
    gp = write_graph(tmp_path / "g.gr", families.dumbbell(12, 3))
    for algo in ("randomized", "deterministic"):
        rep = tmp_path / f"{algo}.json"
        res = runner.invoke(main, ["build", gp, "--algo", algo, "--seed", "5",
                                   "--out", str(tmp_path / "t.tree"), "--report", str(rep)])
        assert res.exit_code == 0, (algo, res.output)
        report = json.loads(rep.read_text())
        assert report["covered"] >= 0
    assert report["covered"] == 11 and report["maxflow_calls"] == 34 - 11


def test_deterministic_cli_is_bit_identical(tmp_path, runner):
    gp = write_graph(tmp_path / "g.gr", families.er_connected(12, 0.4, seed=9))
    outs = []
    for k in range(2):
        tree = tmp_path / f"t{k}.tree"
        res = runner.invoke(main, ["build", gp, "--algo", "deterministic",
                                   "--out", str(tree)])
        assert res.exit_code == 0
        outs.append(tree.read_bytes())
    assert outs[0] == outs[1]


def test_verify_detects_corruption(tmp_path, runner):
    gp = write_graph(tmp_path / "g.gr", families.complete(4))
    tree = tmp_path / "g.tree"
    res = runner.invoke(main, ["build", gp, "--algo", "classic", "--out", str(tree)])
    assert res.exit_code == 0
    text = tree.read_text().replace("3.0", "2.0")
    bad = tmp_path / "bad.tree"
    bad.write_text(text)
    res = runner.invoke(main, ["verify", gp, str(bad)])
    assert res.exit_code == 2
    assert "FAIL tree edge" in res.output


def test_verify_compares_whole_weights(tmp_path, runner):
    """A tree weight with a fractional part the graph cannot have is a
    wrong weight, not a match on its whole part: on the path 1-2-3, the
    edge 1-2 weighs 1, not 1.7, and its fundamental cut says so."""
    gp = write_graph(tmp_path / "g.gr", families.path(3))
    bad = tmp_path / "bad.tree"
    bad.write_text("t 3\ne 1 2 1.7\ne 2 3 1\n")
    res = runner.invoke(main, ["verify", gp, str(bad)])
    assert res.exit_code == 2, res.output
    assert res.output == "FAIL tree edge (1,2) weight 1.7: fundamental cut 1.0\n"


def test_verify_names_the_flow_half(tmp_path, runner):
    """On the path 1-2-3 the tree 1-3 (1), 3-2 (2) has both fundamental
    cuts right, but the flow between 3 and 2 is 1."""
    gp = write_graph(tmp_path / "g.gr", families.path(3))
    bad = tmp_path / "bad.tree"
    bad.write_text("t 3\ne 1 3 1\ne 3 2 2\n")
    res = runner.invoke(main, ["verify", gp, str(bad)])
    assert res.exit_code == 2, res.output
    assert res.output == "FAIL tree edge (2,3) weight 2.0: flow 1.0\n"


@pytest.mark.parametrize("g", [
    pytest.param(families.random_multigraph(9, 0.5, 3, seed=2), id="multigraph"),
    pytest.param(families.random_multigraph(9, 0.2, 3, seed=1), id="disconnected"),
])
def test_build_takes_multigraphs_and_disconnected_graphs(tmp_path, runner, g):
    """Every builder takes a multigraph or a disconnected graph as it is,
    and ``ght verify`` passes its tree; the old subdivision flag is an
    unknown option."""
    gp = write_graph(tmp_path / "g.gr", g)
    for algo in ("classic", "gusfield", "randomized", "deterministic"):
        tree = str(tmp_path / f"{algo}.tree")
        res = runner.invoke(main, ["build", gp, "--algo", algo, "--seed", "3",
                                   "--out", tree])
        assert res.exit_code == 0, (algo, res.output)
        res = runner.invoke(main, ["verify", gp, tree])
        assert res.exit_code == 0, (algo, res.output)
    res = runner.invoke(main, ["build", gp, "--via-subdivision",
                               "--out", str(tmp_path / "x.tree")])
    assert res.exit_code == 4, res.output


def test_input_error_exit_code(tmp_path, runner):
    bad = tmp_path / "bad.gr"
    bad.write_text("e 1 2\n")
    res = runner.invoke(main, ["build", str(bad), "--out", str(tmp_path / "x")])
    assert res.exit_code == 4


@pytest.mark.parametrize("args", [
    pytest.param(["--algo", "nope"], id="unknown_algo"),
    pytest.param(["--no-such-option"], id="unknown_option"),
    pytest.param(None, id="missing_input"),
])
def test_usage_errors_exit_4(tmp_path, runner, args):
    """Click's usage errors are input errors: exit 4, not click's 2, which
    ght keeps for a failed verification."""
    gp = write_graph(tmp_path / "g.gr", families.path(3))
    argv = ["build", gp] + args if args else ["build", str(tmp_path / "absent.gr")]
    res = runner.invoke(main, argv + ["--out", str(tmp_path / "x.tree")])
    assert res.exit_code == 4, res.output
    assert not (tmp_path / "x.tree").exists()


@pytest.mark.parametrize("text", [
    "p 3 2\ne 1 x\n",        # non-integer field
    "p 3 2\ne 1 2 two\n",    # non-integer multiplicity
    "p 3 2\ne 1\n",          # short record
    "p\ne 1 2\n",            # header without n
    "p 0 0\n",               # no nodes
    "p 3 abc\n",             # non-integer edge count
    "p 3 2 junk\ne 1 2\ne 2 3\n",    # trailing header field
    "p 3 2\ne 1 2 1 junk\ne 2 3\n",  # trailing edge field
])
def test_malformed_graph_exits_4(tmp_path, runner, text):
    bad = tmp_path / "bad.gr"
    bad.write_text(text)
    res = runner.invoke(main, ["build", str(bad), "--out", str(tmp_path / "x")])
    assert res.exit_code == 4, res.output
    assert "error:" in res.output


def test_header_edge_count_is_not_compared(tmp_path, runner):
    """Repeated edge lines merge, so the header's m need not match them."""
    gp = tmp_path / "g.gr"
    gp.write_text("p 3 7\ne 1 2\ne 2 3\n")
    tree = tmp_path / "g.tree"
    res = runner.invoke(main, ["build", str(gp), "--out", str(tree)])
    assert res.exit_code == 0, res.output
    assert tree.read_text() == "t 3\ne 1 2 1.0\ne 2 3 1.0\n"


def test_build_has_no_oracle_limit(tmp_path, runner):
    gp = write_graph(tmp_path / "g.gr", families.path(3))
    res = runner.invoke(main, ["build", gp, "--out", str(tmp_path / "t"),
                               "--oracle-limit", "5"])
    assert res.exit_code != 0
    assert "No such option" in res.output


@pytest.mark.parametrize("text", [
    "t 3\ne 1 x 1.0\ne 2 3 1.0\n",    # non-integer node
    "t 3\ne 1 2 1.z\ne 2 3 1.0\n",    # non-integer weight
    "t 3\ne 1 2\ne 2 3 1.0\n",        # short record
    "t\ne 1 2 1.0\n",                 # header without n
    "t 3\ne 1 9 1.0\ne 2 3 1.0\n",    # node out of range
    "t 2\ne 1 2 -3.0\n",              # negative weight
    "t 2\ne 1 2 3.-1\n",              # negative perturbation part
    "t 3 junk\ne 1 2 1.0\ne 2 3 1.0\n",  # trailing header field
    "t 3\ne 1 2 1.0 x\ne 2 3 1.0\n",     # trailing edge field
])
def test_malformed_tree_query_exits_4(tmp_path, runner, text):
    bad = tmp_path / "bad.tree"
    bad.write_text(text)
    res = runner.invoke(main, ["query", str(bad), "1", "2"])
    assert res.exit_code == 4, res.output
    assert "error:" in res.output


def test_query_node_out_of_range_exits_4(tmp_path, runner):
    tree = tmp_path / "g.tree"
    tree.write_text("t 3\ne 1 2 1.0\ne 2 3 1.0\n")
    res = runner.invoke(main, ["query", str(tree), "0", "2"])
    assert res.exit_code == 4, res.output


@pytest.mark.parametrize("text", [
    "t 4\ne 1 2 1.0\ne 2 3 1.0\ne 1 3 1.0\n",   # a cycle, node 4 left out
    "t 4\ne 1 2 1.0\ne 2 1 1.0\ne 2 3 1.0\n",   # a repeated pair
])
@pytest.mark.parametrize("command", ["query", "verify", "analyze"])
def test_tree_of_n_minus_1_edges_that_do_not_span_exits_4(tmp_path, runner, text, command):
    gp = write_graph(tmp_path / "g.gr", families.path(4))
    bad = tmp_path / "bad.tree"
    bad.write_text(text)
    args = {"query": ["query", str(bad), "1", "2"],
            "verify": ["verify", gp, str(bad)],
            "analyze": ["analyze", gp, str(bad), "--pivot", "1"]}[command]
    res = runner.invoke(main, args)
    assert res.exit_code == 4, res.output
    assert "spanning tree" in res.output


def test_sampled_verify(tmp_path, runner):
    """A 40-node tree, once checked on sampled pairs, is certified whole
    with no options: one flow per tree edge."""
    g = families.er_connected(40, 0.3, seed=4)
    gp = write_graph(tmp_path / "g.gr", g)
    tree = str(tmp_path / "g.tree")
    res = runner.invoke(main, ["build", gp, "--algo", "deterministic", "--out", tree])
    assert res.exit_code == 0
    FLOW_CALLS.reset()
    res = runner.invoke(main, ["verify", gp, tree])
    assert res.exit_code == 0, res.output
    assert res.output == "pass: 39 tree edges certified\n"
    assert FLOW_CALLS.value == 39


@pytest.mark.parametrize("option", [["--mode", "sampled"], ["--samples", "50"],
                                    ["--seed", "1"], ["--oracle-limit", "100"]],
                         ids=["mode", "samples", "seed", "oracle_limit"])
def test_removed_verify_option_exits_4(tmp_path, runner, option):
    gp = write_graph(tmp_path / "g.gr", families.path(4))
    tree = str(tmp_path / "g.tree")
    res = runner.invoke(main, ["build", gp, "--algo", "classic", "--out", tree])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["verify", gp, tree, *option])
    assert res.exit_code == 4, res.output
    assert "No such option" in res.output


def test_sampled_verify_single_node_passes(tmp_path, runner):
    """A one-node tree has no edge to certify, and passes."""
    gp = tmp_path / "g.gr"
    gp.write_text("p 1 0\n")
    tree = str(tmp_path / "g.tree")
    res = runner.invoke(main, ["build", str(gp), "--algo", "classic", "--out", tree])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["verify", str(gp), tree])
    assert res.exit_code == 0, res.output
    assert res.output == "pass: 0 tree edges certified\n"


def standalone_cell(n, algo, prob, seed):
    """FLOW_CALLS delta and build report of one bench cell built outside the
    CLI."""
    g = families.er_connected(n, prob, seed=seed + n)
    flow0 = FLOW_CALLS.value
    report = {}
    if algo == "classic":
        classic_gomory_hu(g)
    elif algo == "gusfield":
        gusfield(g)
    elif algo == "randomized":
        build_randomized(g, seed=seed, config=EngineConfig(seed=seed), report=report)
    else:
        build_deterministic(g, config=EngineConfig(seed=seed), report=report)
    return FLOW_CALLS.value - flow0, report


def test_bench_csv_fields(tmp_path, runner):
    out = str(tmp_path / "bench.csv")
    algos = ["classic", "gusfield", "randomized", "deterministic"]
    res = runner.invoke(main, ["bench", "--sizes", "12,16", "--p", "0.4",
                               "--algos", ",".join(algos),
                               "--seed", "3", "--out", out])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 8
    assert list(rows[0]) == ["n", "m", "algo", "maxflow_calls", "wall_ms",
                             "depth", "pivot_changes", "covered", "seed"]
    ns = [int(r["n"]) for r in rows]
    assert ns == sorted(ns)
    for r in rows:
        calls, report = standalone_cell(int(r["n"]), r["algo"], 0.4, 3)
        assert int(r["maxflow_calls"]) == calls, r
        # blank where the builder reports no such count
        for key in ("pivot_changes", "covered"):
            assert r[key] == str(report.get(key, "")), (key, r)


def test_analyze_json(tmp_path, runner):
    gp = write_graph(tmp_path / "g.gr", families.dumbbell(4))
    tree = str(tmp_path / "g.tree")
    runner.invoke(main, ["build", gp, "--algo", "classic", "--out", tree])
    res = runner.invoke(main, ["analyze", gp, tree, "--pivot", "8"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["pivot"] == 7
    assert rep["thresholds"]


@pytest.mark.parametrize("tree_text, args", [
    ("t 3\ne 1 2 1.0\ne 2 3 1.0\n", ["--pivot", "1"]),   # tree spans 3 of 4 nodes
    (None, ["--pivot", "0"]),
    (None, ["--pivot", "5"]),
    (None, ["--pivot", "1", "--w", "1,x"]),
], ids=["tree_node_count", "pivot_zero", "pivot_above_n", "w_not_integers"])
def test_analyze_bad_input_exits_4(tmp_path, runner, tree_text, args):
    gp = write_graph(tmp_path / "g.gr", families.path(4))
    tree = tmp_path / "g.tree"
    if tree_text is None:
        res = runner.invoke(main, ["build", gp, "--algo", "classic", "--out", str(tree)])
        assert res.exit_code == 0, res.output
    else:
        tree.write_text(tree_text)
    res = runner.invoke(main, ["analyze", gp, str(tree), *args])
    assert res.exit_code == 4, res.output
    assert "error:" in res.output


def test_env_seed_fallback(tmp_path, runner, monkeypatch):
    gp = write_graph(tmp_path / "g.gr", families.er_connected(9, 0.5, seed=8))
    monkeypatch.setenv("GHT_SEED", "17")
    tree = str(tmp_path / "g.tree")
    res = runner.invoke(main, ["build", gp, "--algo", "randomized", "--out", tree,
                               "--report", str(tmp_path / "r.json")])
    assert res.exit_code == 0
    rep = json.loads(open(tmp_path / "r.json").read())
    assert rep["seed"] == 17


@pytest.mark.parametrize("loop", [False, True])
def test_build_loop_flag_runs_the_loop(tmp_path, runner, monkeypatch, loop):
    """``--loop`` runs the doubling stages, at least one of them solving
    candidates, and the build without it runs none; either way the CLI
    builds the library's tree for that setting, with the same stages and
    flows."""
    g = families.er_connected(24, 0.4, seed=3)
    gp = write_graph(tmp_path / "g.gr", g)
    stages = []     # (w, skipped) of every stage run
    real_stage_w = single_source.stage_w

    def spy(state, w):
        real_stage_w(state, w)
        stages.append((w, bool(state.report["stages"][-1].get("skipped"))))

    monkeypatch.setattr(single_source, "stage_w", spy)
    for algo, build in (("deterministic", lambda c: build_deterministic(g, config=c)),
                        ("randomized", lambda c: build_randomized(g, seed=5, config=c))):
        tree, rep = tmp_path / f"{algo}.tree", tmp_path / f"{algo}.json"
        stages.clear()
        res = runner.invoke(main, ["build", gp, "--algo", algo, "--seed", "5",
                                   *(["--loop"] if loop else []),
                                   "--out", str(tree), "--report", str(rep)])
        assert res.exit_code == 0, (algo, res.output)
        cli_stages = list(stages)
        assert any(not skipped for _, skipped in cli_stages) if loop else not cli_stages, algo
        stages.clear()
        FLOW_CALLS.reset()
        built = build(EngineConfig(loop_enabled=loop))
        assert stages == cli_stages, algo
        assert tree.read_text() == to_node_tree(built).serialize(), algo
        assert json.loads(rep.read_text())["maxflow_calls"] == FLOW_CALLS.value, algo


@pytest.mark.parametrize("algo", ["classic", "gusfield"])
def test_build_loop_with_classic_builder_exits_4(tmp_path, runner, algo):
    """The classic builders have no elimination loop, so ``--loop`` with
    them is an input error rather than a build that ignores it."""
    gp = write_graph(tmp_path / "g.gr", families.path(4))
    res = runner.invoke(main, ["build", gp, "--algo", algo, "--loop",
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 4, res.output
    assert "--loop" in res.output
    assert not (tmp_path / "t").exists()


def test_build_unknown_option_exits_4(tmp_path, runner):
    """An option ``build`` does not have, here ``--stage-from-zero`` (the
    loop's stages always start at 2^floor(log2(n)/2)), is a usage error,
    so it exits 4."""
    gp = write_graph(tmp_path / "g.gr", families.path(4))
    res = runner.invoke(main, ["build", gp, "--algo", "deterministic", "--loop",
                               "--stage-from-zero", "--out", str(tmp_path / "t")])
    assert res.exit_code == 4, res.output
    assert "No such option" in res.output
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command", ["build", "bench"])
def test_non_integer_env_seed_exits_4(tmp_path, runner, monkeypatch, command):
    gp = write_graph(tmp_path / "g.gr", families.path(4))
    monkeypatch.setenv("GHT_SEED", "abc")
    args = {
        "build": ["build", gp, "--algo", "randomized", "--out", str(tmp_path / "r")],
        "bench": ["bench", "--sizes", "8", "--out", str(tmp_path / "b.csv")],
    }[command]
    res = runner.invoke(main, args)
    assert res.exit_code == 4, res.output
    assert "error:" in res.output


@pytest.mark.parametrize("args", [
    ["--sizes", "8,x"],
    ["--sizes=8,-3"],
    ["--p", "0"],
    ["--p", "-0.5"],
    ["--p", "1.5"],
    ["--p", "nan"],
    ["--p", "0.001"],
], ids=["sizes_not_integers", "sizes_negative", "p_zero", "p_negative", "p_above_one", "p_nan",
        "p_too_sparse"])
def test_bench_bad_input_exits_4(tmp_path, runner, args):
    out = tmp_path / "b.csv"
    res = runner.invoke(main, ["bench", "--sizes", "8", *args, "--out", str(out)])
    assert res.exit_code == 4, res.output
    assert "error:" in res.output
    assert not out.exists()


def test_bench_randomized_abort_exits_3(tmp_path, runner, monkeypatch):
    """A randomized abort inside a bench cell exits 3, as in ``ght build``,
    and writes no CSV."""
    def abort(*args, **kwargs):
        raise RandomizedAbort("bad pivots")

    monkeypatch.setattr(cli, "build_randomized", abort)
    out = tmp_path / "b.csv"
    res = runner.invoke(main, ["bench", "--sizes", "8", "--p", "0.5", "--algos", "randomized",
                               "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "abort: bad pivots" in res.output
    assert not out.exists()
