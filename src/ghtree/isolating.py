"""Minimum isolating cuts for a terminal set via O(log |C|) max-flow calls.

Terminals are labeled with binary codes; one max-flow per bit separates the
two label classes (the pivot joins the zero class).  Intersecting each
terminal's sides across all bit cuts yields disjoint candidate regions, and
one final max-flow per region, against the contracted outside, extracts the
cut.  Whenever a terminal's latest minimum cut from the pivot contains no
other terminal, the output equals that cut exactly.
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
    if len(terms) == 1:
        v = terms[0]
        cut = _latest_region_cut(g, frozenset(range(g.n)), p, v)
        return IsolatingResult({v: cut}, flow_calls=1)

    bits = max(1, (len(terms) - 1).bit_length())
    # side_sets[v] accumulates the intersection of v's sides over bit cuts
    region: dict[int, set[int]] = {v: set(range(g.n)) for v in terms}
    for b in range(bits):
        zeros = [v for i, v in enumerate(terms) if not (i >> b) & 1]
        ones = [v for i, v in enumerate(terms) if (i >> b) & 1]
        if not ones:
            continue
        src_group = sorted(set(zeros) | {p})
        contracted, new_index = g.contract([src_group, ones])
        s = new_index[src_group[0]]
        t = new_index[ones[0]]
        sol = MaxFlowSolver(contracted)
        sol.solve(s, t)
        calls += 1
        s_side_c = sol.source_side(s)
        s_side = {v for v in range(g.n) if new_index[v] in s_side_c}
        t_side = set(range(g.n)) - s_side
        for v in zeros:
            region[v] &= s_side
        for v in ones:
            region[v] &= t_side

    cuts: dict[int, CutSide] = {}
    covered: set[int] = set()
    for v in terms:
        cut = _latest_region_cut(g, frozenset(region[v]), p, v)
        calls += 1
        if not covered.isdisjoint(cut.side):
            raise RuntimeError("isolating regions overlap")
        covered |= cut.side
        cuts[v] = cut
    return IsolatingResult(cuts, flow_calls=calls)


def _latest_region_cut(g: Graph, region: frozenset[int], p: int, v: int) -> CutSide:
    """Latest min cut separating v from everything outside the region.

    The region's complement together with the pivot (which may have landed
    inside a region, since it shares every bit class with one terminal) is
    contracted to a single node; the minimal v-side of a minimum cut in
    that graph is returned, expressed in g's node indices.
    """
    region = region - {p}
    outside = sorted(set(range(g.n)) - region)
    contracted, new_index = g.contract([outside])
    s = new_index[outside[0]]
    t = new_index[v]
    sol = MaxFlowSolver(contracted)
    val = sol.solve(s, t)
    t_side_c = sol.sink_side(t)
    side = frozenset(u for u in range(g.n) if u in region and new_index[u] in t_side_c)
    return CutSide(side=side, value=from_scaled(val, g.unit), s=p, t=v)
