"""Expander decomposition with vertex demands.

The decomposer recursively finds a demand-sparsest cut of each piece (exact
subset enumeration for small pieces, Fiedler-vector sweep rounding above)
and splits until every piece passes the expansion threshold.  Demand
conductance of a cut S inside a piece is cut weight over the smaller total
demand, where each node's demand is its input demand plus the weight of its
edges leaving the piece; a zero min-demand side passes by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .graph import Graph

EXACT_CUT_LIMIT = 20


@dataclass(frozen=True)
class ExpanderPart:
    """One cluster of a demand-weighted decomposition."""

    nodes: frozenset[int]
    demand: dict[int, Fraction]      # boundary-augmented demand per node
    size_g: int                      # original-graph nodes represented inside
    certified: bool                  # exact certificate vs heuristic screen


@dataclass
class DecompositionReport:
    part_count: int = 0
    boundary_weight: int = 0
    b_factor: float = 0.0            # boundary / (phi * d(V)), the logged B


def _piece_demand(g: Graph, piece: Sequence[int], base: dict[int, Fraction]) -> dict[int, Fraction]:
    inside = set(piece)
    out: dict[int, Fraction] = {}
    for v in piece:
        boundary = 0
        for u, (m, _) in g.adj[v].items():
            if u not in inside:
                boundary += m
        out[v] = base.get(v, Fraction(0)) + boundary
    return out


def _exact_sparsest_cut(g: Graph, piece: list[int], dem: dict[int, Fraction]):
    """Enumerate bipartitions of the piece; return (best_ratio, side) where
    ratio is demand conductance (None side if every cut passes vacuously).

    ``side`` never holds piece[0] and lists its nodes in piece order; of
    several sides with the best ratio, the one whose bitmask over piece[1:]
    is smallest wins.  The subsets are walked in Gray-code order, so each
    step moves one node and updates the cut in O(deg).  Demands are scaled
    to integers over a common denominator and ratios compared as integer
    cross-products.
    """
    k = len(piece)
    local = {v: i for i, v in enumerate(piece)}
    exact = [Fraction(dem[v]) for v in piece]
    scale = math.lcm(*(x.denominator for x in exact))
    d = [int(x * scale) for x in exact]
    total = sum(d)
    nbrs = [
        [(local[u], m) for u, (m, _) in g.adj[v].items() if u in local]
        for v in piece
    ]
    deg = [sum(m for _, m in row) for row in nbrs]
    inside = [False] * k                 # piece[0] never enters the side
    cut = d_side = mask = 0
    best_cut = best_d = best_mask = -1
    for i in range(1, 1 << (k - 1)):
        bit = (i & -i).bit_length() - 1
        x = bit + 1
        mask ^= 1 << bit
        to_side = 0
        for y, m in nbrs[x]:
            if inside[y]:
                to_side += m
        if inside[x]:
            inside[x] = False
            cut += 2 * to_side - deg[x]
            d_side -= d[x]
        else:
            inside[x] = True
            cut += deg[x] - 2 * to_side
            d_side += d[x]
        d_min = min(d_side, total - d_side)
        if d_min == 0:
            continue
        lhs, rhs = cut * best_d, best_cut * d_min
        if best_mask < 0 or lhs < rhs or (lhs == rhs and mask < best_mask):
            best_cut, best_d, best_mask = cut, d_min, mask
    if best_mask < 0:
        return None, None
    side = [piece[i + 1] for i in range(k - 1) if (best_mask >> i) & 1]
    return Fraction(best_cut * scale, best_d), side


def _fiedler_order(g: Graph, piece: list[int]) -> list[int]:
    import numpy as np

    k = len(piece)
    idx = {v: i for i, v in enumerate(piece)}
    lap = np.zeros((k, k))
    for v in piece:
        for u, (m, _) in g.adj[v].items():
            if u in idx:
                lap[idx[v], idx[u]] -= m
                lap[idx[v], idx[v]] += m
    if k > 400:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import eigsh
        try:
            _, vecs = eigsh(csr_matrix(lap), k=2, which="SM")
            f = vecs[:, 1]
        except Exception:
            f = np.random.default_rng(0).standard_normal(k)
    else:
        _, vecs = np.linalg.eigh(lap)
        f = vecs[:, 1] if k > 1 else vecs[:, 0]
    order = np.argsort(f, kind="stable")
    return [piece[int(i)] for i in order]


def _sweep_sparsest_cut(g: Graph, piece: list[int], dem: dict[int, Fraction]):
    """Fiedler sweep plus a degree-ordered sweep; best prefix cut found."""
    orders = [_fiedler_order(g, piece)]
    orders.append(sorted(piece, key=lambda v: (g.degree(v), v)))
    total_d = sum(dem[v] for v in piece)
    inside = set(piece)
    best: tuple[Optional[Fraction], Optional[list[int]]] = (None, None)
    for order in orders:
        sset: set[int] = set()
        cut = 0
        d_side = Fraction(0)
        for v in order[:-1]:
            for u, (m, _) in g.adj[v].items():
                if u in inside:
                    cut += -m if u in sset else m
            sset.add(v)
            d_side += dem[v]
            d_min = min(d_side, total_d - d_side)
            if d_min == 0:
                continue
            ratio = Fraction(cut) / d_min
            if best[0] is None or ratio < best[0]:
                best = (ratio, sorted(sset))
    return best


def decompose_with_demands(
    g: Graph,
    demand: dict[int, int] | dict[int, Fraction],
    phi: Fraction | float,
    *,
    exact_cut_limit: int = EXACT_CUT_LIMIT,
    report: Optional[DecompositionReport] = None,
) -> list[ExpanderPart]:
    """Partition the node set so each part is a (phi, d_i)-expander.

    d_i augments the input demand with each node's boundary weight.  Parts
    at or below the exact-cut limit carry an exact certificate; larger parts
    are screened by sweep rounding and labeled non-certified.  The
    inter-cluster weight and the realized polylog factor B are recorded in
    the report.
    """
    if any(d < 0 for d in demand.values()):
        raise ValueError("negative demand")
    phi = Fraction(phi).limit_denominator(10**9) if not isinstance(phi, Fraction) else phi
    base = {v: Fraction(d) for v, d in demand.items() if d}
    parts: list[ExpanderPart] = []
    stack: list[list[int]] = [sorted(range(g.n))]
    while stack:
        piece = stack.pop()
        if len(piece) == 1:
            parts.append(_make_part(g, piece, base, certified=True))
            continue
        dem = _piece_demand(g, piece, base)
        if len(piece) <= exact_cut_limit:
            ratio, side = _exact_sparsest_cut(g, piece, dem)
            certified = True
        else:
            ratio, side = _sweep_sparsest_cut(g, piece, dem)
            certified = False
        if ratio is not None and ratio < phi:
            sset = set(side)
            rest = [v for v in piece if v not in sset]
            stack.append(sorted(side))
            stack.append(rest)
        else:
            parts.append(_make_part(g, piece, base, certified=certified))

    parts.sort(key=lambda part: min(part.nodes))
    if report is not None:
        boundary = 0
        for part in parts:
            for v in part.nodes:
                for u, (m, _) in g.adj[v].items():
                    if u not in part.nodes:
                        boundary += m
        boundary //= 2
        d_total = sum(base.values())
        report.part_count = len(parts)
        report.boundary_weight = boundary
        report.b_factor = (
            float(boundary) / (float(phi) * float(d_total)) if d_total else 0.0
        )
    return parts


def _make_part(g: Graph, piece: Sequence[int], base: dict[int, Fraction], certified: bool) -> ExpanderPart:
    dem = _piece_demand(g, piece, base)
    return ExpanderPart(
        nodes=frozenset(piece),
        demand=dem,
        size_g=sum(g.member_count(v) for v in piece),
        certified=certified,
    )
