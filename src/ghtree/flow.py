"""Exact max-flow / min-cut on multiplicity- and perturbation-weighted graphs.

Blocking-flow (Dinic) augmentation over scaled integer capacities
(mult * unit + eps), so perturbed weights are handled exactly.  Each solve
owns private residual state; a graph's arc arrays are built once per solver
and shared across solves.  A module-level invocation counter feeds the
benchmark harness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Graph, GraphError
from .weights import Weight, from_scaled

DEFAULT_ORACLE_LIMIT = 64


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

    def verify(self, g: Graph) -> bool:
        return g.cut_weight(self.side) == self.value


class MaxFlowSolver:
    """Reusable Dinic solver over one immutable graph."""

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        m2 = 2 * len(g.edges)
        to = [0] * m2
        cap0 = [0] * m2
        nxt = [0] * m2
        first = [-1] * g.n
        unit = g.unit
        i = 0
        for (u, v), (m, e) in g.edges.items():
            c = m * unit + e
            to[i] = v
            cap0[i] = c
            nxt[i] = first[u]
            first[u] = i
            i += 1
            to[i] = u
            cap0[i] = c
            nxt[i] = first[v]
            first[v] = i
            i += 1
        self._to = to
        self._cap0 = cap0
        self._first = first
        self._nxt = nxt
        self.cap: list[int] = []

    def solve(self, s: int, t: int, cutoff: int | None = None) -> int:
        """Max flow from s to t as a scaled integer.

        With a cutoff, augmentation stops once the flow reaches it; the
        residual state is then only good for answering "value >= cutoff".
        """
        if s == t:
            raise GraphError("source equals sink")
        FLOW_CALLS.value += 1
        n = self.n
        to = self._to
        first = self._first
        nxt = self._nxt
        cap = self._cap0.copy()
        self.cap = cap
        it = [0] * n
        flow = 0
        while True:
            level = [-1] * n
            level[s] = 0
            q = deque([s])
            pop = q.popleft
            push = q.append
            t_level = -1
            while q:
                u = pop()
                lu = level[u]
                if t_level != -1 and lu + 1 >= t_level:
                    continue
                e = first[u]
                while e != -1:
                    v = to[e]
                    if cap[e] > 0 and level[v] == -1:
                        level[v] = lu + 1
                        if v == t:
                            t_level = lu + 1
                        push(v)
                    e = nxt[e]
            if level[t] == -1:
                return flow
            it[:] = first
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[e] for e in path)
                    if cutoff is not None and pushed > cutoff - flow:
                        pushed = cutoff - flow
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    flow += pushed
                    if cutoff is not None and flow >= cutoff:
                        return flow
                    i = 0
                    while i < len(path) and cap[path[i]] > 0:
                        i += 1
                    del path[i:]
                    u = s if not path else to[path[-1]]
                    continue
                e = it[u]
                while e != -1 and not (cap[e] > 0 and level[to[e]] == level[u] + 1):
                    e = nxt[e]
                it[u] = e
                if e == -1:
                    level[u] = -1
                    if not path:
                        break
                    path.pop()
                    u = s if not path else to[path[-1]]
                else:
                    path.append(e)
                    u = to[e]

    # -- residual side extraction (valid after an uncapped solve) ----------

    def source_side(self, s: int) -> frozenset[int]:
        """Nodes reachable from s in the residual graph."""
        seen = bytearray(self.n)
        seen[s] = 1
        stack = [s]
        to, nxt, first, cap = self._to, self._nxt, self._first, self.cap
        while stack:
            u = stack.pop()
            e = first[u]
            while e != -1:
                v = to[e]
                if cap[e] > 0 and not seen[v]:
                    seen[v] = 1
                    stack.append(v)
                e = nxt[e]
        return frozenset(i for i in range(self.n) if seen[i])

    def sink_side(self, t: int) -> frozenset[int]:
        """Nodes that can reach t in the residual graph (the latest cut side)."""
        seen = bytearray(self.n)
        seen[t] = 1
        stack = [t]
        to, nxt, first, cap = self._to, self._nxt, self._first, self.cap
        while stack:
            u = stack.pop()
            e = first[u]
            while e != -1:
                # arc e leaves u; its pair e^1 runs to[e] -> u
                v = to[e]
                if cap[e ^ 1] > 0 and not seen[v]:
                    seen[v] = 1
                    stack.append(v)
                e = nxt[e]
        return frozenset(i for i in range(self.n) if seen[i])


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


def all_pairs_oracle(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> dict[tuple[int, int], Weight]:
    """Brute-force all-pairs min-cut values by direct max-flow calls."""
    if g.n > limit:
        raise GraphError(f"oracle limit exceeded: {g.n} > {limit}")
    out: dict[tuple[int, int], Weight] = {}
    comp_id = [-1] * g.n
    for ci, comp in enumerate(g.components()):
        for v in comp:
            comp_id[v] = ci
    sol = MaxFlowSolver(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if comp_id[u] != comp_id[v]:
                out[(u, v)] = Weight(0, 0)
            else:
                out[(u, v)] = from_scaled(sol.solve(u, v), g.unit)
    return out
