"""Exact max-flow / min-cut on multiplicity- and perturbation-weighted graphs.

Blocking-flow (Dinic) augmentation over scaled integer capacities
(mult * unit + eps), so perturbed weights are handled exactly.  A solver
builds a graph's arcs once: paired arc ids (e and e ^ 1 are the two
directions of one edge) and, per node, the list of arc ids leaving it.
Each solve owns private residual state.  A phase's levels come from a
two-sided breadth-first search, forward from the source and backward from
the sink, which expands one whole layer of the smaller frontier at a time
and stops at the first arc between the two sides.  It scans one ball
around each terminal, whose radii add up to one less than the s-t
distance, instead of one ball around the source of about that whole
distance (``solve`` says why the early stop is exact).  The depth-first search keeps a current-arc index
per node and drops the nodes it backs out of.  The residual searches of
``source_side`` and ``sink_side`` give the
inclusion-minimal minimum-cut sides, which are the same for every maximum
flow, so every cut this module returns is independent of the flow the
kernel happens to find.  ``certify`` proves a tree cut-equivalent in
n - 1 flows.  ``MaxFlowSolver.split`` derives the solvers of
both sides of a cut, each with the other side merged into one node, from
an existing solver's arcs, without building a contracted ``Graph``: arcs
inside the merged side are dropped and parallel arcs are kept as they
are.  It copies the side of smaller arc volume, found from the given
side alone, and contracts that side in place in the existing solver, so
it walks only that side's arcs.  A module-level invocation counter feeds
the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

from .graph import Graph, GraphError
from .partition import GomoryHuTree
from .weights import Weight, from_scaled


class _Counter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def reset(self) -> None:
        self.value = 0


#: Monotone count of max-flow solves since process start (or last reset).
FLOW_CALLS = _Counter()


@dataclass(frozen=True, slots=True)
class CutSide:
    """One side of a minimum s,t-cut.

    ``side`` contains exactly one of the two terminals; ``value`` is the
    exact crossing weight.  Which terminal sits inside depends on the
    operation that produced the cut (see max_flow_min_cut / latest_min_cut).
    """

    side: frozenset[int]
    value: Weight
    s: int
    t: int


class MaxFlowSolver:
    """Reusable Dinic solver over one graph, which only ``split`` changes.

    Edge i of ``g.edges`` (u < v) becomes the arc pair 2i: u -> v and
    2i + 1: v -> u, each with the edge's scaled capacity (``unit`` on a
    simple graph); the pair of arc e is e ^ 1.  Every node keeps the list of
    arc ids leaving it.  ``solve`` copies the capacities into a private
    residual array, so one solver serves any number of solves; the side
    queries read the residual of the last solve.  A solve ends with a
    search whose forward or backward frontier runs out.  When the forward
    one does, its labelled set is the residual reach of s, which
    ``source_side`` of that s returns with no second search; otherwise
    ``source_side`` searches from s again.

    ``g`` is the graph the solver's arcs came from.  A solver made or
    contracted by ``split`` has none until ``g`` is first read; it is then
    folded from the arcs in the solver's arc lists, one edge per node pair,
    and every node of it stands for itself (a node merged away is an
    isolated node).
    """

    def __init__(self, g: Graph):
        self._g: Graph | None = g
        self._unit = g.unit
        n = self.n = g.n
        edges = g.edges
        m2 = 2 * len(edges)
        unit = g.unit
        if g.simple:
            cap0 = [unit] * m2
        else:
            # most edges have multiplicity 1, and skipping the product saves
            # a bigint allocation per edge on perturbed graphs
            caps = [unit + e if m == 1 else m * unit + e for m, e in edges.values()]
            cap0 = [0] * m2
            cap0[0::2] = caps
            cap0[1::2] = caps
        to = [0] * m2
        arcs: list[list[int]] = [[] for _ in range(n)]
        e = 0
        for u, v in edges:
            to[e] = v
            arcs[u].append(e)
            e += 1
            to[e] = u
            arcs[v].append(e)
            e += 1
        self._to = to
        self._cap0 = cap0
        self._arcs = arcs
        self._cap = cap0
        self._reach: tuple[int, list[int]] | None = None
        # nodes that still have an arc list, and the arcs in those lists
        self._live, self._vol = n, m2

    @property
    def g(self) -> Graph:
        if self._g is None:
            to, cap0, unit = self._to, self._cap0, self._unit
            folded: dict[tuple[int, int], int] = {}
            for a, out in enumerate(self._arcs):
                # a node merged away has no arc list
                for e in out or ():
                    if not e & 1:
                        b = to[e]
                        key = (a, b) if a < b else (b, a)
                        folded[key] = folded.get(key, 0) + cap0[e]
            # the perturbation units of a whole graph stay below one unit
            self._g = Graph(self.n, {k: divmod(c, unit) for k, c in folded.items()},
                            unit=unit, validate=False)
        return self._g

    def split(self, side: AbstractSet[int]) -> tuple["MaxFlowSolver", list[int]]:
        """Solvers of both sides of a cut, each with the other side merged.

        ``side`` and the rest of the solver's nodes are the two sides of a
        cut.  The side of smaller arc volume (``side`` on a tie) is copied
        into a new solver, whose node k stands for node ``nodes[k]`` of this
        solver and whose last node stands for the whole other side.  This
        solver then merges the smaller side into node ``nodes[0]`` in place
        and serves the other side; ``nodes[1:]`` are left with no arc list
        and stand for nothing.  Arc pairs inside a merged side are dropped,
        parallel pairs stay separate (the flow and the residual sides do
        not change when they are not folded), and only the smaller side's
        arcs are walked.  The live node and arc counts give the other
        side's volume, so its nodes are listed only when it is copied; a
        merged-away or out-of-range node in ``side`` raises GraphError.
        Returns (the new solver, nodes).
        """
        arcs, to, cap0 = self._arcs, self._to, self._cap0
        side_arcs = [arcs[x] if 0 <= x < self.n else None for x in side]
        if not side or len(side) >= self._live or None in side_arcs:
            raise GraphError("a split needs two nonempty sides of live nodes")
        vol = sum(map(len, side_arcs))
        small = list(side)
        if 2 * vol > self._vol:
            small = [x for x, out in enumerate(arcs) if out is not None and x not in side]
            vol = self._vol - vol
        new = {x: k for k, x in enumerate(small)}
        merged = len(small)
        r = small[0]
        sub_to: list[int] = []
        sub_cap: list[int] = []
        sub_arcs: list[list[int]] = [[] for _ in range(merged + 1)]
        cut: list[int] = []
        for x, k in new.items():
            for e in arcs[x]:
                y = new.get(to[e], merged)
                if y == merged:
                    # a cut arc: it leaves the merged node r from now on
                    to[e ^ 1] = r
                    cut.append(e)
                elif e & 1:
                    # an arc pair inside the smaller side is copied once
                    continue
                sub_arcs[k].append(len(sub_to))
                sub_arcs[y].append(len(sub_to) + 1)
                sub_to += (y, k)
                sub_cap += (cap0[e], cap0[e])
            arcs[x] = None
        arcs[r] = cut
        self._live -= merged - 1
        self._vol += len(cut) - vol
        self._cap = cap0
        self._reach = None
        self._g = None

        sub = MaxFlowSolver.__new__(MaxFlowSolver)
        sub._g = None
        sub._unit = self._unit
        sub.n = merged + 1
        sub._to = sub_to
        sub._cap0 = sub._cap = sub_cap
        sub._arcs = sub_arcs
        sub._reach = None
        sub._live, sub._vol = merged + 1, len(sub_to)
        return sub, small

    def solve(self, s: int, t: int) -> int:
        """Max flow from s to t as a scaled integer.

        Each Dinic phase labels levels by a two-sided breadth-first search:
        forward from s over residual arcs, backward from t over reversed
        residual arcs, one whole layer of whichever frontier holds fewer
        nodes (the forward one on a tie).  It stops at the first arc from
        the expanding frontier into the other side's labelled set, and the
        partly built layer is dropped.  That stop is exact: the two labelled
        sets are disjoint and each is made of complete layers, forward to
        depth fd and backward to depth bd, so every node within fd of s and
        within bd of t is labelled and no node is both.  An arc from the
        expanding frontier can then land only in the other side's last
        layer, and t is at distance D = fd + 1 + bd.  A node keeps its
        distance from s on s's side and takes D minus its distance to t on
        t's side; each node of a shortest path gets its distance from s, so
        the paths that climb one level per arc are exactly the shortest
        ones, and each phase's blocking flow raises D as in Dinic's bound.
        The last phase finds no meeting arc: a frontier runs out.  If the
        forward one does, its labelled set is kept as s's residual reach
        for ``source_side``.
        """
        if s == t:
            raise GraphError("source equals sink")
        FLOW_CALLS.value += 1
        n = self.n
        to = self._to
        arcs = self._arcs
        cap = self._cap0.copy()
        self._cap = cap
        self._reach = None
        flow = 0
        while True:
            # two-sided BFS; a node at distance b from t is held as -2 - b
            # until t's distance from s is known
            level = [-1] * n
            level[s], level[t] = 0, -2
            front, back = [s], [t]
            reach, co_reach = [s], [t]
            fd = bd = 0
            met = False
            while front and back:
                layer: list[int] = []
                push = layer.append
                if len(front) <= len(back):
                    lv = fd + 1
                    for u in front:
                        for e in arcs[u]:
                            v = to[e]
                            x = level[v]
                            if x < 0 and cap[e]:
                                if x != -1:
                                    met = True
                                    break
                                level[v] = lv
                                push(v)
                        if met:
                            break
                    else:
                        front, fd = layer, lv
                        reach += layer
                        continue
                else:
                    lv = -3 - bd
                    for u in back:
                        for e in arcs[u]:
                            # arc e leaves u; its pair e ^ 1 runs to[e] -> u
                            v = to[e]
                            x = level[v]
                            if x > -2 and cap[e ^ 1]:
                                if x != -1:
                                    met = True
                                    break
                                level[v] = lv
                                push(v)
                        if met:
                            break
                    else:
                        back, bd = layer, bd + 1
                        co_reach += layer
                        continue
                # a meeting arc: the partial layer is not needed
                for v in layer:
                    level[v] = -1
                break
            else:
                # a frontier ran out, so t is cut off; if it was the forward
                # one, reach is the residual reach of s
                if not front:
                    self._reach = (s, reach)
                return flow
            # the meeting arc joins the two last layers
            dist = fd + 1 + bd
            for v in co_reach:
                level[v] += dist + 2
            # a node one level below t can only use its own residual arc
            # into t; one on s's side (bd = 0) without such an arc leads
            # nowhere, and every one on t's side has one
            last = dist - 1
            into_t = {to[e]: e ^ 1 for e in arcs[t]
                      if level[to[e]] == last and cap[e ^ 1]}
            if not bd:
                for v in front:
                    if v not in into_t:
                        level[v] = -1
            # DFS for a blocking flow; ptr[u] is u's current arc
            ptr = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(map(cap.__getitem__, path))
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    flow += pushed
                    i = 0
                    while cap[path[i]]:
                        i += 1
                    del path[i:]
                    u = to[path[-1]] if path else s
                    continue
                lv = level[u]
                e = -1
                if lv == last:
                    a = into_t[u]
                    if cap[a]:
                        e = a
                else:
                    lv += 1
                    au = arcs[u]
                    for i in range(ptr[u], len(au)):
                        a = au[i]
                        if level[to[a]] == lv and cap[a]:
                            ptr[u] = i
                            e = a
                            break
                if e >= 0:
                    path.append(e)
                    u = to[e]
                else:
                    # u is a dead end in this phase
                    level[u] = -1
                    if not path:
                        break
                    path.pop()
                    u = to[path[-1]] if path else s

    # -- residual side extraction (reads the last solve's residual) ---------

    def source_side(self, s: int) -> frozenset[int]:
        """Nodes reachable from s in the residual graph."""
        if self._reach is not None and self._reach[0] == s:
            return frozenset(self._reach[1])
        seen = bytearray(self.n)
        seen[s] = 1
        reached = [s]
        push = reached.append
        to, arcs, cap = self._to, self._arcs, self._cap
        for u in reached:
            for e in arcs[u]:
                v = to[e]
                if not seen[v] and cap[e]:
                    seen[v] = 1
                    push(v)
        return frozenset(reached)

    def sink_side(self, t: int) -> frozenset[int]:
        """Nodes that can reach t in the residual graph (the latest cut side)."""
        seen = bytearray(self.n)
        seen[t] = 1
        reached = [t]
        push = reached.append
        to, arcs, cap = self._to, self._arcs, self._cap
        for u in reached:
            for e in arcs[u]:
                # arc e leaves u; its pair e ^ 1 runs to[e] -> u
                v = to[e]
                if not seen[v] and cap[e ^ 1]:
                    seen[v] = 1
                    push(v)
        return frozenset(reached)


def max_flow_min_cut(g: Graph, s: int, t: int) -> CutSide:
    """Minimum s,t-cut; the returned side contains s."""
    sol = MaxFlowSolver(g)
    val = sol.solve(s, t)
    side = sol.source_side(s)
    return CutSide(side=side, value=from_scaled(val, g.unit), s=s, t=t)


def latest_min_cut(g: Graph, s: int, t: int, *, wrt: int | None = None) -> CutSide:
    """Latest minimum s,t-cut with respect to ``wrt`` (default s).

    Latest w.r.t. s means the unique minimum cut whose t-side is
    inclusion-minimal; it is found as the set of nodes that can reach t in
    the residual graph of a maximum flow.  The returned ``side`` is that
    minimal far side (it contains the terminal opposite ``wrt``).
    """
    if wrt is None:
        wrt = s
    if wrt == t:
        s, t = t, s
    elif wrt != s:
        raise GraphError("wrt must be one of the terminals")
    sol = MaxFlowSolver(g)
    val = sol.solve(s, t)
    side = sol.sink_side(t)
    return CutSide(side=side, value=from_scaled(val, g.unit), s=s, t=t)


def certify(g: Graph, tree: GomoryHuTree) -> tuple[tuple[int, int, Weight], str, Weight] | None:
    """None if ``tree`` is cut-equivalent to ``g``, else the first failing
    tree edge (u < v, w), the half it fails and the value measured.

    Each tree edge (u, v, w) needs a fundamental cut (its subtree's side)
    of weight w and lambda(u, v) = w: a pair's lightest path edge's cut
    bounds its lambda above, and the triangle inequality bounds it below.
    A graph edge adds its weight at both ends and twice that off at their
    LCA, so a subtree's sum is its cut.  Flows start in the subtree,
    usually the small side, so each solve's last search stays short.
    """
    parent, depth, unit = tree.parent, tree.depth, g.unit
    leaving = [0] * tree.n
    for (u, v), (m, e) in g.edges.items():
        c = m * unit + e
        leaving[u] += c
        leaving[v] += c
        while u != v:
            if depth[u] >= depth[v]:
                u = parent[u]
            else:
                v = parent[v]
        leaving[u] -= 2 * c
    for v in reversed(tree.order[1:]):
        leaving[parent[v]] += leaving[v]
    edges = [(a, b, w, a if parent[a] == b else b) for a, b, w in tree.edges()]
    for a, b, w, below in edges:
        got = from_scaled(leaving[below], unit)
        if got != w:
            return (a, b, w), "fundamental cut", got
    sol = MaxFlowSolver(g)
    for a, b, w, below in edges:
        got = from_scaled(sol.solve(below, parent[below]), unit)
        if got != w:
            return (a, b, w), "flow", got
    return None
