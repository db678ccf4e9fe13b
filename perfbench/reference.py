"""A fixed reference workload that tracks the machine's current speed.

On a shared machine the speed of the benchmark's process drifts by tens of
percent for seconds to minutes at a time.  Every timed operation is
bracketed by passes of this reference, and its time is reported at
reference speed: scaled by NOMINAL_S over the reference's time around it,
so that drift longer than the operation cancels.

The reference is the benchmark's own code and imports nothing from ghtree:
a change to the library cannot change it.  It does the same kind of work
as the builders, in pure Python: blocking-flow max-flows over integer arc
arrays and merging adjacency dictionaries.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

N = 120
P = 0.08
SEED = 20210605
SINKS = range(1, 25)
# seconds of one pass at reference speed, about its median on a 2-core x86
# VM (Xeon, 2.0 GHz nominal) with Python 3.11
NOMINAL_S = 0.022


class Reference:
    """The reference graph, built once; ``seconds()`` times one pass."""

    def __init__(self):
        rng = random.Random(SEED)
        self.adj = {u: {} for u in range(N)}
        for u in range(N):
            for v in range(u + 1, N):
                if rng.random() < P:
                    w = rng.randint(1, 4)
                    self.adj[u][v] = w
                    self.adj[v][u] = w
        to, cap, nxt, first = [], [], [], [-1] * N
        for u in range(N):
            for v, w in self.adj[u].items():
                if u < v:
                    # arc 2k runs u -> v, arc 2k + 1 back, so e ^ 1 reverses e
                    for a, b in ((u, v), (v, u)):
                        to.append(b)
                        cap.append(w)
                        nxt.append(first[a])
                        first[a] = len(to) - 1
        self.arcs = (to, cap, nxt, first)
        self.expected = self.work()

    def seconds(self) -> float:
        t0 = perf_counter()
        result = self.work()
        elapsed = perf_counter() - t0
        if result != self.expected:
            raise RuntimeError("reference workload gave a different result")
        return elapsed

    def at_reference_speed(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between reference passes that took ``before``
        and ``after`` seconds, scaled to a machine where a pass takes NOMINAL_S."""
        return seconds * NOMINAL_S / ((before + after) / 2)

    def work(self) -> tuple:
        flows = tuple(self.max_flow(0, t) for t in SINKS)
        return flows, self.merged_degree()

    def max_flow(self, s: int, t: int) -> int:
        to, cap0, nxt, first = self.arcs
        cap = cap0.copy()
        flow = 0
        while True:
            level = [-1] * N
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                e = first[u]
                while e != -1:
                    v = to[e]
                    if cap[e] > 0 and level[v] == -1:
                        level[v] = level[u] + 1
                        q.append(v)
                    e = nxt[e]
            if level[t] == -1:
                return flow
            flow += self._augment(s, t, level, cap)

    def _augment(self, s: int, t: int, level: list[int], cap: list[int]) -> int:
        """One blocking flow by repeated depth-first paths in the level graph."""
        to, _, nxt, first = self.arcs
        it = first.copy()
        pushed_total = 0
        while True:
            path: list[int] = []
            u = s
            while u != t:
                e = it[u]
                while e != -1 and not (cap[e] > 0 and level[to[e]] == level[u] + 1):
                    e = nxt[e]
                it[u] = e
                if e == -1:
                    level[u] = -1
                    if not path:
                        return pushed_total
                    path.pop()
                    u = s if not path else to[path[-1]]
                else:
                    path.append(e)
                    u = to[e]
            pushed = min(cap[e] for e in path)
            for e in path:
                cap[e] -= pushed
                cap[e ^ 1] += pushed
            pushed_total += pushed

    def merged_degree(self) -> int:
        """Contract the graph pairwise, node 2k with 2k+1, merging weighted
        adjacency dictionaries; returns the contracted graph's total weight."""
        merged: dict[int, dict[int, int]] = {}
        for u, nbrs in self.adj.items():
            row = merged.setdefault(u // 2, {})
            for v, w in nbrs.items():
                cu, cv = u // 2, v // 2
                if cu != cv:
                    row[cv] = row.get(cv, 0) + w
        return sum(sum(row.values()) for row in merged.values())
