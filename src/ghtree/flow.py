"""Exact max-flow / min-cut on multiplicity- and perturbation-weighted graphs.

Blocking-flow (Dinic) augmentation over scaled integer capacities
(mult * unit + eps), so perturbed weights are handled exactly.  A solver
builds a graph's arcs once: paired arc ids (e and e ^ 1 are the two
directions of one edge) and, per node, the list of arc ids leaving it.
Each solve owns private residual state.  A phase's breadth-first search
stops as soon as the sink is labelled; the depth-first search keeps a
current-arc index per node and drops the nodes it backs out of.  The
residual searches of ``source_side`` and ``sink_side`` give the
inclusion-minimal minimum-cut sides, which are the same for every maximum
flow, so every cut this module returns is independent of the flow the
kernel happens to find.  ``MaxFlowSolver.remapped`` derives the solver of
a contracted graph from an existing solver's arcs through a node remap,
without building the contracted ``Graph``: arcs inside a group are
dropped and parallel arcs are kept as they are.  A module-level
invocation counter feeds the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, GraphError
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
    """Reusable Dinic solver over one immutable graph.

    Edge i of ``g.edges`` (u < v) becomes the arc pair 2i: u -> v and
    2i + 1: v -> u, each with the edge's scaled capacity (``unit`` on a
    simple graph); the pair of arc e is e ^ 1.  Every node keeps the list of
    arc ids leaving it.  ``solve`` copies the capacities into a private
    residual array, so one solver serves any number of solves; the side
    queries read the residual of the last solve.  A solve ends with a
    search from s that cannot reach t, which is the residual reach
    of s, so ``source_side`` of that s needs no second search.

    ``g`` is the graph the solver's arcs came from.  A solver made by
    ``remapped`` has none until ``g`` is first read; it is then folded from
    the solver's own arcs, one edge per node pair, and every node of it
    stands for itself.
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

    @property
    def g(self) -> Graph:
        if self._g is None:
            to, cap0, unit = self._to, self._cap0, self._unit
            folded: dict[tuple[int, int], int] = {}
            for e in range(0, len(to), 2):
                a, b = to[e + 1], to[e]
                key = (a, b) if a < b else (b, a)
                folded[key] = folded.get(key, 0) + cap0[e]
            # the perturbation units of a whole graph stay below one unit
            self._g = Graph(self.n, {k: divmod(c, unit) for k, c in folded.items()},
                            unit=unit, validate=False)
        return self._g

    def remapped(self, index: Sequence[int], n: int) -> "MaxFlowSolver":
        """Solver of the graph that merges the nodes sharing an ``index``.

        Node x becomes node ``index[x]`` of 0..n-1.  Every arc pair whose
        ends map to different nodes is copied with its capacity, in this
        solver's order; pairs inside a group are dropped, and parallel
        pairs stay separate (the flow and the residual sides do not change
        when they are not folded).  No ``Graph`` is built.
        """
        to0 = self._to
        to: list[int] = []
        cap: list[int] = []
        arcs: list[list[int]] = [[] for _ in range(n)]
        e = 0
        for a, b, c in zip(map(index.__getitem__, to0[1::2]),
                           map(index.__getitem__, to0[0::2]), self._cap0[0::2]):
            if a != b:
                to += (b, a)
                cap += (c, c)
                arcs[a].append(e)
                arcs[b].append(e + 1)
                e += 2
        sub = MaxFlowSolver.__new__(MaxFlowSolver)
        sub._g = None
        sub._unit = self._unit
        sub.n = n
        sub._to = to
        sub._cap0 = sub._cap = cap
        sub._arcs = arcs
        sub._reach = None
        return sub

    def solve(self, s: int, t: int) -> int:
        """Max flow from s to t as a scaled integer."""
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
            # BFS levels, stopping as soon as t gets one: every node below
            # t's level is labelled by then
            level = [-1] * n
            level[s] = 0
            queue = [s]
            push = queue.append
            t_level = 0
            for u in queue:
                lv = level[u] + 1
                for e in arcs[u]:
                    v = to[e]
                    if level[v] < 0 and cap[e]:
                        level[v] = lv
                        if v == t:
                            t_level = lv
                            break
                        push(v)
                if t_level:
                    break
            if not t_level:
                # the search ran out: queue is the residual reach of s
                self._reach = (s, queue)
                return flow
            # nodes at t's level other than t lead nowhere, so a node one
            # level below t can only use its own residual arc into t, and
            # one without such an arc leads nowhere either
            while level[queue[-1]] == t_level:
                level[queue.pop()] = -1
            last = t_level - 1
            into_t = {to[e]: e ^ 1 for e in arcs[t]
                      if level[to[e]] == last and cap[e ^ 1]}
            for v in reversed(queue):
                if level[v] != last:
                    break
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
