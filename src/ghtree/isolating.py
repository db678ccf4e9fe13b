"""Minimum isolating cuts for a terminal set via O(log |C|) max-flow calls.

Terminals are labeled with binary codes; one max-flow per bit separates the
two label classes (the pivot joins the zero class).  Intersecting each
terminal's sides across all bit cuts yields disjoint candidate regions, and
one final max-flow per region, against the contracted outside, extracts the
cut.  Whenever a terminal's latest minimum cut from the pivot contains no
other terminal, the output equals that cut exactly.

A region that is just its terminal (once the pivot is removed) has one cut,
the terminal's degree cut, and costs no flow.  Every other region's flow
graph is built from the region's own adjacency: its nodes plus one outside
node that absorbs the boundary edges, so its cost is the region's volume,
not the size of the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flow import CutSide, MaxFlowSolver
from .graph import Graph, GraphError
from .weights import from_scaled


@dataclass
class IsolatingResult:
    cuts: dict[int, CutSide]
    flow_calls: int = 0


def isolating_cuts(g: Graph, p: int, terminals: set[int] | frozenset[int]) -> IsolatingResult:
    """Disjoint pivot-avoiding cuts, one per terminal.

    For every terminal v whose latest minimum (p,v)-cut C_v meets the
    terminal set only in v, the returned cut is exactly C_v (side and
    value).  Other terminals get some cut containing them and avoiding p,
    with no optimality promise.  All outputs are latest with respect to the
    pivot within their region.
    """
    terms = sorted(terminals)
    if not terms:
        raise GraphError("empty terminal set")
    if p in terminals:
        raise GraphError("pivot cannot be a terminal")
    if not g.is_connected():
        raise GraphError("isolating cuts need a connected graph")

    calls = 0
    bits = max(1, (len(terms) - 1).bit_length())
    # region[v] accumulates the intersection of v's sides over bit cuts
    region: dict[int, set[int]] = {v: set(range(g.n)) for v in terms}
    for b in range(bits):
        zeros = [v for i, v in enumerate(terms) if not (i >> b) & 1]
        ones = [v for i, v in enumerate(terms) if (i >> b) & 1]
        if not ones:
            continue
        # the zero class and the pivot merge into node 0, the one class
        # into node 1, and every other node keeps a node of its own
        group = dict.fromkeys(zeros + [p], 0) | dict.fromkeys(ones, 1)
        others = iter(range(2, g.n))
        index = [group[v] if v in group else next(others) for v in range(g.n)]
        sol = MaxFlowSolver(g.contract(index, g.n + 2 - len(group)))
        sol.solve(0, 1)
        calls += 1
        s_side_c = sol.source_side(0)
        s_side = {v for v in range(g.n) if index[v] in s_side_c}
        t_side = set(range(g.n)) - s_side
        for v in zeros:
            region[v] &= s_side
        for v in ones:
            region[v] &= t_side

    cuts: dict[int, CutSide] = {}
    covered: set[int] = set()
    for v in terms:
        inner = frozenset(region[v] - {p})
        if len(inner) == 1:
            cut = CutSide(side=inner, value=g.degree_weight(v), s=p, t=v)
        else:
            cut = _latest_region_cut(g, inner, p, v)
            calls += 1
        if not covered.isdisjoint(cut.side):
            raise RuntimeError("isolating regions overlap")
        covered |= cut.side
        cuts[v] = cut
    return IsolatingResult(cuts, flow_calls=calls)


def _latest_region_cut(g: Graph, region: frozenset[int], p: int, v: int) -> CutSide:
    """Latest min cut separating v from everything outside the region.

    The region must not hold the pivot (which may land inside a region,
    since it shares every bit class with one terminal; the caller removes
    it).  The flow graph has the region's nodes plus one outside node
    standing for the rest of g, the pivot included; every edge leaving the
    region is folded into it.  The minimal v-side of a minimum cut in that
    graph is returned, expressed in g's node indices.
    """
    nodes = sorted(region)
    local = {u: i for i, u in enumerate(nodes)}
    outside = len(nodes)
    edges: dict[tuple[int, int], tuple[int, int]] = {}
    adj = g.adj
    for u in nodes:
        a = local[u]
        out_m = out_e = 0
        for x, (m, e) in adj[u].items():
            b = local.get(x)
            if b is None:
                out_m += m
                out_e += e
            elif a < b:
                edges[(a, b)] = (m, e)
        if out_m:
            edges[(a, outside)] = (out_m, out_e)
    sol = MaxFlowSolver(Graph(outside + 1, edges, unit=g.unit, validate=False))
    val = sol.solve(outside, local[v])
    side = frozenset(nodes[i] for i in sol.sink_side(local[v]) if i != outside)
    return CutSide(side=side, value=from_scaled(val, g.unit), s=p, t=v)
