"""Graph generators for tests and the benchmark harness."""

from __future__ import annotations

import random

from .graph import Graph


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def double_star(left: int, right: int) -> Graph:
    """Two star centers joined by an edge; the classic two-hub shape."""
    edges = [(0, 1)]
    nxt = 2
    for _ in range(left):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(right):
        edges.append((1, nxt))
        nxt += 1
    return Graph.from_edges(nxt, edges)


def dumbbell(k: int, bridges: int = 1) -> Graph:
    """Two k-cliques joined by ``bridges`` disjoint edges."""
    if bridges > k:
        raise ValueError("more bridges than clique nodes")
    edges = []
    for base in (0, k):
        edges += [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
    for b in range(bridges):
        edges.append((b, k + b))
    return Graph.from_edges(2 * k, edges)


def clique_chain(sizes: list[int]) -> Graph:
    """Cliques in a row, consecutive ones joined by a single edge."""
    edges = []
    bases = []
    base = 0
    for k in sizes:
        bases.append(base)
        edges += [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
        base += k
    for (b1, k1), (b2, _) in zip(zip(bases, sizes), zip(bases[1:], sizes[1:])):
        edges.append((b1 + k1 - 1, b2))
    return Graph.from_edges(base, edges)


def er(n: int, p: float, seed: int | None = None) -> Graph:
    rng = random.Random(seed)
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, pairs)


def er_connected(n: int, p: float, seed: int | None = None, tries: int = 200) -> Graph:
    rng = random.Random(seed)
    for _ in range(tries):
        g = er(n, p, seed=rng.randrange(2 ** 62))
        if g.n == 1 or g.is_connected():
            return g
    raise RuntimeError(f"no connected G({n},{p}) after {tries} tries")


def random_multigraph(n: int, p: float, max_mult: int, seed: int | None = None) -> Graph:
    rng = random.Random(seed)
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                for _ in range(rng.randint(1, max_mult)):
                    pairs.append((u, v))
    return Graph.from_edges(n, pairs)
