"""Command-line front end: build trees, query and verify them, run benches,
and emit structure reports.

Exit codes: 0 success, 2 verification failure, 3 randomized abort,
4 input error.  Click's usage errors (an unknown command, option or choice,
a missing input file) are input errors too, so they exit 4, not click's 2.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import NoReturn

import click

from . import families
from .analysis import analyze_report
from .build import RandomizedAbort, build_deterministic, build_randomized
from .classic import classic_gomory_hu, gusfield
from .flow import FLOW_CALLS, certify
from .graph import Graph, GraphError, parse_graph
from .partition import GomoryHuTree, TreeError, parse_tree, to_node_tree

EXIT_VERIFY_FAIL = 2
EXIT_ABORT = 3
EXIT_INPUT = 4

ALGOS = ("classic", "gusfield", "randomized", "deterministic")


def _input_error(message) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _seed_option(seed):
    if seed is not None:
        return seed
    env = os.environ.get("GHT_SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        _input_error(f"GHT_SEED must be an integer, not {env!r}")


def _load_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            return parse_graph(fh.read())
    except (OSError, GraphError) as exc:
        _input_error(exc)


def _load_tree(path: str, n: int) -> GomoryHuTree:
    """Parse a tree file that must span a graph of n nodes."""
    try:
        with open(path) as fh:
            tree = parse_tree(fh.read())
    except (OSError, TreeError) as exc:
        _input_error(exc)
    if tree.n != n:
        _input_error("node counts differ")
    return tree


def _build_tree(g: Graph, algo: str, seed, report: dict):
    if algo == "classic":
        return classic_gomory_hu(g)
    if algo == "gusfield":
        return gusfield(g)
    if algo == "randomized":
        return build_randomized(g, seed=seed, report=report)
    if algo == "deterministic":
        return build_deterministic(g, report=report)
    raise ValueError(algo)


@contextmanager
def _usage_errors_exit_as_input_errors():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_INPUT
        raise


class _Group(click.Group):
    """A command group whose usage errors, its own and its commands', exit
    with EXIT_INPUT."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_exit_as_input_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_exit_as_input_errors():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Cut-equivalent (Gomory-Hu) tree toolkit."""


@main.command()
@click.argument("input_path", type=click.Path(exists=True))
@click.option("--algo", type=click.Choice(ALGOS), default="deterministic")
@click.option("--seed", type=int, default=None, help="randomness seed (env GHT_SEED as fallback)")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
def build(input_path, algo, seed, out_path, report_path):
    """Build a cut-equivalent tree of a graph file."""
    g = _load_graph(input_path)
    seed = _seed_option(seed)
    report: dict = {"algo": algo, "n": g.n, "m": g.edge_instances, "seed": seed}
    FLOW_CALLS.reset()
    t0 = time.perf_counter()
    try:
        tree = _build_tree(g, algo, seed, report)
    except RandomizedAbort as exc:
        click.echo(f"abort: {exc}", err=True)
        sys.exit(EXIT_ABORT)
    except (GraphError, TreeError) as exc:
        _input_error(exc)
    report["wall_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    report["maxflow_calls"] = FLOW_CALLS.value
    node_tree = to_node_tree(tree)
    with open(out_path, "w") as fh:
        fh.write(node_tree.serialize())
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
    click.echo(f"tree written to {out_path} ({report['maxflow_calls']} max-flow calls)")


@main.command()
@click.argument("tree_path", type=click.Path(exists=True))
@click.argument("u", type=int)
@click.argument("v", type=int)
def query(tree_path, u, v):
    """Minimum u,v-cut value and u's side from a tree file (1-indexed)."""
    try:
        with open(tree_path) as fh:
            tree = parse_tree(fh.read())
        value, side = tree.query(u - 1, v - 1)
    except (OSError, TreeError) as exc:
        _input_error(exc)
    click.echo(f"value {value}")
    click.echo("side " + " ".join(str(x + 1) for x in sorted(side)))


@main.command()
@click.argument("graph_path", type=click.Path(exists=True))
@click.argument("tree_path", type=click.Path(exists=True))
def verify(graph_path, tree_path):
    """Prove a tree cut-equivalent: every tree edge's fundamental cut and
    its endpoints' max flow equal its weight (n - 1 flows)."""
    g = _load_graph(graph_path)
    tree = _load_tree(tree_path, g.n)
    failure = certify(g, tree)
    if failure:
        (u, v, w), half, got = failure
        click.echo(f"FAIL tree edge ({u + 1},{v + 1}) weight {w}: {half} {got}")
        sys.exit(EXIT_VERIFY_FAIL)
    click.echo(f"pass: {tree.n - 1} tree edges certified")


@main.command()
@click.option("--family", type=click.Choice(["er"]), default="er")
@click.option("--sizes", default="128,256,512", help="comma-separated node counts")
@click.option("--p", "prob", type=float, default=0.05)
@click.option("--algos", default="classic,deterministic")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), required=True)
def bench(family, sizes, prob, algos, seed, out_path):
    """Benchmark builders over a graph family; CSV out."""
    seed = _seed_option(seed) or 0
    try:
        size_list = [int(s) for s in sizes.split(",") if s]
        if not size_list or any(n < 1 for n in size_list):
            raise ValueError
    except ValueError:
        _input_error(f"--sizes takes comma-separated positive integers, not {sizes!r}")
    if not 0 < prob <= 1:
        _input_error(f"--p must be in (0, 1], not {prob}")
    algo_list = [a.strip() for a in algos.split(",") if a.strip()]
    if not algo_list:
        _input_error(f"--algos takes comma-separated builder names, not {algos!r}")
    for a in algo_list:
        if a not in ALGOS:
            _input_error(f"unknown algo {a}")

    def cell(n, algo):
        try:
            g = families.er_connected(n, prob, seed=seed + n)
        except RuntimeError as exc:
            _input_error(f"--p {prob} is too sparse for n = {n}: {exc}")
        report: dict = {}
        flow0 = FLOW_CALLS.value
        t0 = time.perf_counter()
        try:
            _build_tree(g, algo, seed, report)
        except RandomizedAbort as exc:
            click.echo(f"abort: {exc}", err=True)
            sys.exit(EXIT_ABORT)
        wall = round(1000 * (time.perf_counter() - t0), 3)
        calls = FLOW_CALLS.value - flow0
        return {
            "n": n, "m": g.edge_instances, "algo": algo,
            "maxflow_calls": calls, "wall_ms": wall, "depth": report.get("depth", ""),
            "pivot_changes": report.get("pivot_changes", ""),
            "covered": report.get("covered", ""), "seed": seed,
        }

    rows = [cell(n, a) for n in size_list for a in algo_list]
    fields = ["n", "m", "algo", "maxflow_calls", "wall_ms", "depth", "pivot_changes",
              "covered", "seed"]
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    click.echo(f"bench written to {out_path} ({len(rows)} cells, seed {seed})")


@main.command()
@click.argument("graph_path", type=click.Path(exists=True))
@click.argument("tree_path", type=click.Path(exists=True))
@click.option("--pivot", type=int, required=True, help="1-indexed pivot node")
@click.option("--w", "w_values", default=None, help="comma-separated thresholds")
@click.option("--out", "out_path", type=click.Path(), default=None)
def analyze(graph_path, tree_path, pivot, w_values, out_path):
    """Bag structure of the tree's cut-membership coarsening."""
    g = _load_graph(graph_path)
    tree = _load_tree(tree_path, g.n)
    if not 1 <= pivot <= g.n:
        _input_error(f"pivot must be a node in 1..{g.n}")
    try:
        ws = [int(x) for x in w_values.split(",")] if w_values else None
    except ValueError:
        _input_error(f"--w takes comma-separated integers, not {w_values!r}")
    report = analyze_report(g, tree, pivot - 1, ws)
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        click.echo(f"report written to {out_path}")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
