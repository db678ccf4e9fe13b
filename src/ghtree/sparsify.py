"""Connectivity-preserving sparsification and tie-breaking edge perturbation.

The sparsifier keeps, per edge instance, the first w maximal spanning
forests that would pick it; every edge crossing a cut of value <= w
survives, so cuts of value <= w-1 keep their exact value and larger cuts
stay at w or above.  Perturbation adds a tiny distinct weight to every edge
so that all minimum cuts become unique with high probability, in a way that
rounds back to the original values.
"""

from __future__ import annotations

import random

from .graph import Graph, GraphError

PERT_LOW_EXP = 7    # eps drawn from {1, ..., n**PERT_LOW_EXP}
PERT_UNIT_EXP = 10  # in units of n**-PERT_UNIT_EXP


def ni_sparsify(g: Graph, w: int) -> Graph:
    """Forest-decomposition sparsifier with at most w(n-1) edge instances.

    Cuts of value <= w-1 are preserved exactly; cuts of value >= w keep
    value >= w.  Works for multigraphs; perturbation units are ignored
    (the output is unperturbed).
    """
    if w < 1:
        raise GraphError("sparsifier parameter must be >= 1")
    remaining = {key: m for key, (m, _) in g.edges.items()}
    taken: dict[tuple[int, int], int] = {}
    adj: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(g.n)]
    for (u, v) in sorted(remaining):
        adj[u].append((v, (u, v)))
        adj[v].append((u, (u, v)))

    for _ in range(w):
        if not remaining:
            break
        # maximal spanning forest over edges with remaining multiplicity
        seen = bytearray(g.n)
        picked = False
        for root in range(g.n):
            if seen[root]:
                continue
            seen[root] = 1
            stack = [root]
            while stack:
                x = stack.pop()
                for y, key in adj[x]:
                    if not seen[y] and remaining.get(key, 0) > 0:
                        seen[y] = 1
                        remaining[key] -= 1
                        if remaining[key] == 0:
                            del remaining[key]
                        taken[key] = taken.get(key, 0) + 1
                        picked = True
                        stack.append(y)
        if not picked:
            break

    edges = {key: (m, 0) for key, m in sorted(taken.items())}
    return g.with_edges(edges, unit=1)


def perturb(g: Graph, seed: int | None = None) -> Graph:
    """Add a uniform random sub-unit weight to every edge.

    Each (merged) edge gains eps in {1, ..., n**7} counted in units of
    n**-10; with probability 1 - 1/poly(n) all minimum cuts between all
    pairs become unique, and rounding the weights back recovers the
    original graph's cut values.  The total added weight stays below one
    whole edge, which is what makes componentwise Weight comparison exact.
    """
    if g.unit != 1 or any(e for _, e in g.edges.values()):
        raise GraphError("perturb expects an unperturbed graph")
    if not g.edges:
        return g
    n = max(g.n, 2)
    unit = n ** PERT_UNIT_EXP
    hi = n ** PERT_LOW_EXP
    rng = random.Random(seed)
    edges = {}
    for key in sorted(g.edges):
        m, _ = g.edges[key]
        edges[key] = (m, rng.randint(1, hi))
    if sum(e for _, e in edges.values()) >= unit:
        raise GraphError("perturbation units sum to a whole edge")
    return g.with_edges(edges, unit=unit)


def perturbed_sparsifier(g: Graph, g_pert: Graph, w: int) -> Graph:
    """Sparsify the unperturbed graph, then re-attach surviving eps units.

    Any cut of (perturbed) weight < w keeps exactly the same weight; any cut
    of weight >= w stays >= w.  Restricted to cuts below the threshold the
    result still has unique minimum cuts.
    """
    if set(g.edges) != set(g_pert.edges) or any(
        g.edges[k][0] != g_pert.edges[k][0] for k in g.edges
    ):
        raise GraphError("perturbed graph does not match the base graph")
    h = ni_sparsify(g, w)
    edges = {}
    for key, (m, _) in h.edges.items():
        full = g.edges[key][0]
        eps = g_pert.edges[key][1] if m == full else 0
        edges[key] = (m, eps)
    return g_pert.with_edges(edges, unit=g_pert.unit)
