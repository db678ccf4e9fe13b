"""Independent brute-force oracles: exhaustive bipartition enumeration.

These deliberately avoid the package's flow solver so that solver, builders,
and oracles fail independently.  Usable up to ~12 nodes.

Also the reference code and helpers only tests use: all-pairs values by
direct max-flows (``all_pairs_oracle``, which does use the solver), an
expansion check of one part (``verify_expansion``), a loop-free induced
subgraph, a planted-partition graph, a dynamic-pivot run from a chosen
start pivot, a check of a single-source table against ``latest_min_cut``, ``assemble``,
which stitches per-super-node trees into one full tree, the plain
``Fraction`` enumeration of a piece's sparsest cut that the expander's
Gray-code walk must match, Gusfield's scheme with the all-node
``pred`` scan that ``classic._gusfield_frame`` must match, the
Gomory-Hu loop on contracted ``Graph`` objects that
``classic.classic_gomory_hu`` must match, and the tree query by
whole-tree searches that ``GomoryHuTree.query`` must match, the
checks that a cut or a tree has the weights it claims (``verify_cut``,
``subtree_side``, ``verify_partition_tree``, ``verify_tree_edge_flows``),
each vertex's super-node (``node_super``), and the original vertices a
set of auxiliary-graph nodes stands for (``expand``).
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from ghtree.dynamic import DynamicPivotEngine
from ghtree.expander import _exact_sparsest_cut, _sweep_sparsest_cut
from ghtree.flow import MaxFlowSolver, latest_min_cut, max_flow_min_cut
from ghtree.graph import Graph, GraphError, auxiliary_graph
from ghtree.partition import GomoryHuTree, PartitionTree, TreeError, gh_refine
from ghtree.weights import Weight, from_scaled

DEFAULT_ORACLE_LIMIT = 64
CERTIFY_LIMIT = 20


def cut_units(g: Graph, side) -> int:
    return g.cut_units(frozenset(side))


def enum_min_cut(g: Graph, s: int, t: int) -> int:
    """Scaled min s,t-cut value by enumerating all s-sides."""
    rest = [v for v in range(g.n) if v not in (s, t)]
    best = None
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            w = g.cut_units(frozenset((s,) + extra))
            if best is None or w < best:
                best = w
    return best


def enum_min_sides(g: Graph, s: int, t: int):
    """All minimum-value t-sides (sides containing t, not s)."""
    rest = [v for v in range(g.n) if v not in (s, t)]
    best = None
    sides = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            side = frozenset((t,) + extra)
            w = g.cut_units(side)
            if best is None or w < best:
                best = w
                sides = [side]
            elif w == best:
                sides.append(side)
    return best, sides


def enum_latest_side(g: Graph, s: int, t: int):
    """The unique inclusion-minimal minimum-cut t-side, plus its value."""
    best, sides = enum_min_sides(g, s, t)
    minimal = [x for x in sides if not any(y < x for y in sides)]
    assert len(minimal) == 1, "latest cut must be unique"
    return minimal[0], best


def enum_all_pairs(g: Graph) -> dict[tuple[int, int], int]:
    out = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            out[(u, v)] = enum_min_cut(g, u, v)
    return out


def mask_cut_values(g: Graph) -> list[int]:
    """Scaled cut value for every side excluding node 0, indexed by bitmask
    over nodes 1..n-1 (bit i-1 set means node i is inside)."""
    n = g.n
    unit = g.unit
    deg_scaled = [0] * n
    nbr: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), (m, e) in g.edges.items():
        w = m * unit + e
        deg_scaled[u] += w
        deg_scaled[v] += w
        nbr[u].append((v, w))
        nbr[v].append((u, w))
    size = 1 << (n - 1)
    vals = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        node = low.bit_length()  # bit k-1 is node k
        prev = mask ^ low
        inner = 0
        for u, w in nbr[node]:
            if u and (prev >> (u - 1)) & 1:
                inner += w
        vals[mask] = vals[prev] + deg_scaled[node] - 2 * inner
    return vals


def mask_latest_all(g: Graph, p: int) -> dict[int, tuple[frozenset[int], int]]:
    """Latest min (p,v)-cut for all v != p via the bitmask enumeration."""
    n = g.n
    vals = mask_cut_values(g)
    best: dict[int, int] = {}
    sides: dict[int, list[frozenset[int]]] = {}

    def offer(v, side, w):
        cur = best.get(v)
        if cur is None or w < cur:
            best[v] = w
            sides[v] = [side]
        elif w == cur:
            sides[v].append(side)

    everything = frozenset(range(n))
    for mask in range(1, 1 << (n - 1)):
        w = vals[mask]
        side = frozenset(i for i in range(1, n) if (mask >> (i - 1)) & 1)
        if p not in side:
            for v in side:
                offer(v, side, w)
        else:
            comp = everything - side
            for v in comp:
                offer(v, comp, w)
    out = {}
    for v, cands in sides.items():
        minimal = [s for s in cands if not any(o < s for o in cands)]
        assert len(minimal) == 1, "latest cut must be unique"
        out[v] = (minimal[0], best[v])
    return out


def enum_latest_all(g: Graph, p: int) -> dict[int, tuple[frozenset[int], int]]:
    """Latest min (p,v)-cut for every v != p, in one sweep over all subsets."""
    n = g.n
    others = [v for v in range(n) if v != p]
    best: dict[int, int] = {}
    sides: dict[int, list[frozenset[int]]] = {v: [] for v in others}
    for mask in range(1, 1 << len(others)):
        side = frozenset(others[i] for i in range(len(others)) if (mask >> i) & 1)
        w = g.cut_units(side)
        for v in side:
            if v not in best or w < best[v]:
                best[v] = w
                sides[v] = [side]
            elif w == best[v]:
                sides[v].append(side)
    out = {}
    for v in others:
        minimal = [x for x in sides[v] if not any(y < x for y in sides[v])]
        assert len(minimal) == 1
        out[v] = (minimal[0], best[v])
    return out


def all_pairs_oracle(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> dict[tuple[int, int], Weight]:
    """All-pairs min-cut values by direct max-flow calls."""
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


def verify_expansion_detail(
    part_graph: Graph,
    demand: dict[int, int] | dict[int, Fraction],
    phi: Fraction | float,
    *,
    certify_limit: int = CERTIFY_LIMIT,
) -> tuple[bool, bool]:
    """(passes, certified): whether every bipartition of the part has
    demand conductance >= phi.

    Exact enumeration up to the certification limit; above it a sweep screen
    runs instead and the result is not a certificate.  Singletons pass by
    convention.
    """
    g = part_graph
    if g.n <= 1:
        return True, True
    phi = Fraction(phi)
    dem = {v: Fraction(demand.get(v, 0)) for v in range(g.n)}
    piece = list(range(g.n))
    certified = g.n <= certify_limit
    find = _exact_sparsest_cut if certified else _sweep_sparsest_cut
    ratio, _ = find(g, piece, dem)
    return (ratio is None or ratio >= phi), certified


def verify_expansion(part_graph: Graph, demand, phi, *,
                     certify_limit: int = CERTIFY_LIMIT) -> bool:
    """The pass flag of ``verify_expansion_detail``."""
    return verify_expansion_detail(part_graph, demand, phi, certify_limit=certify_limit)[0]


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on ``nodes`` with the edges leaving it dropped, plus the map
    from g's node indices to the subgraph's."""
    inside = sorted(set(nodes))
    idx = {v: i for i, v in enumerate(inside)}
    edges = {(idx[u], idx[v]): data for (u, v), data in g.edges.items()
             if u in idx and v in idx}
    return Graph(len(inside), edges, unit=g.unit), idx


def fraction_sparsest_cut(g: Graph, piece: list[int], dem: dict[int, Fraction]):
    """Enumerate bipartitions of the piece; return (best_ratio, side) where
    ratio is demand conductance (None side if every cut passes vacuously).

    Masks over piece[1:] in increasing order, each side rescanned, ratios
    as ``Fraction``: the reference for ``expander._exact_sparsest_cut``."""
    k = len(piece)
    anchor = piece[0]
    others = piece[1:]
    total_d = sum(dem[v] for v in piece)
    best: tuple[Optional[Fraction], Optional[list[int]]] = (None, None)
    inside = set(piece)
    for mask in range(1, 1 << (k - 1)):
        side = [others[i] for i in range(k - 1) if (mask >> i) & 1]
        d_side = sum(dem[v] for v in side)
        d_min = min(d_side, total_d - d_side)
        if d_min == 0:
            continue
        sset = set(side)
        cut = 0
        for v in side:
            for u, (m, _) in g.adj[v].items():
                if u in inside and u not in sset:
                    cut += m
        ratio = Fraction(cut) / d_min
        if best[0] is None or ratio < best[0]:
            best = (ratio, side)
    return best


def planted_partition(blocks: int, size: int, p_in: float, p_out: float,
                      seed: int) -> Graph:
    """Connected graph of ``blocks`` groups of ``size`` nodes: pairs inside
    a group are edges with probability p_in, pairs across with p_out.  The
    same recipe as the benchmark's ``elimination_loop`` corpus, so seed 42
    gives its graph."""
    rng = random.Random(seed)
    n = blocks * size
    for _ in range(200):
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < (p_in if u // size == v // size else p_out)
        ]
        g = Graph.from_edges(n, pairs)
        if g.is_connected():
            return g
    raise RuntimeError("no connected planted partition after 200 tries")


def dynamic_from(g: Graph, pivot: int):
    """``single_source_dynamic_pivot(g)`` started at ``pivot`` instead of
    the highest-degree node, with the same balanced-witness check: (final
    pivot, estimate table, engine)."""
    engine = DynamicPivotEngine(g, pivot)
    engine.run()
    engine.settle_covered()
    for e in engine.table.entries.values():
        assert engine.good(e.witness), "dynamic engine returned an unbalanced cut"
    return engine.pivot_orig, engine.table, engine


def assert_latest_table(g: Graph, pivot: int, table) -> None:
    """Every terminal of a single-source table from ``pivot`` in g is done,
    with ``latest_min_cut``'s value as estimate and its side as witness."""
    p = g.index_of[pivot]
    for v in table.terminals():
        cut = latest_min_cut(g, p, g.index_of[v], wrt=p)
        assert table.done(v), (pivot, v)
        assert table.estimate(v) == cut.value, (pivot, v)
        assert table.witness(v) == cut.side, (pivot, v)


def verify_cut(cut, g: Graph) -> bool:
    """True when the cut's side crosses exactly its claimed value in g."""
    return g.cut_weight(cut.side) == cut.value


def subtree_side(t: PartitionTree, i: int, j: int) -> frozenset[int]:
    """Vertices on j's side of the partition tree's edge (i, j)."""
    nodes: set[int] = set(t.super_nodes[j])
    seen = {i, j}
    stack = [j]
    while stack:
        a = stack.pop()
        for b in t.adj[a]:
            if b not in seen:
                seen.add(b)
                nodes |= t.super_nodes[b]
                stack.append(b)
    return frozenset(nodes)


def verify_partition_tree(t: PartitionTree, g: Graph) -> bool:
    """Recompute every edge's induced-bipartition value in g."""
    return all(g.cut_weight(subtree_side(t, i, j)) == w for i, j, w in t.edges())


def verify_tree_edge_flows(g: Graph, t: GomoryHuTree) -> None:
    """Raise ValueError unless every tree edge (u, v) weighs the max-flow
    value between u and v in g."""
    sol = MaxFlowSolver(g)
    for u, v, wt in t.edges():
        if from_scaled(sol.solve(u, v), g.unit) != wt:
            raise ValueError(f"tree edge ({u},{v}) is not a minimum cut value")


def node_super(t: PartitionTree) -> dict[int, int]:
    """The super-node id of every vertex."""
    return {v: i for i, nodes in t.super_nodes.items() for v in nodes}


def expand(t: PartitionTree, i: int, aux: Graph, side: Iterable[int]) -> frozenset[int]:
    """The original vertices a set of super-node i's auxiliary-graph nodes
    stands for: a kept node's ``orig_id``, and for contracted node k + j
    (k kept nodes) the tree component of i's j-th neighbor in
    ``components_without`` order."""
    comps = list(t.components_without(i).values())
    k = len(t.super_nodes[i])
    out: set[int] = set()
    for x in side:
        out |= comps[x - k] if aux.orig_id[x] is None else {aux.orig_id[x]}
    return frozenset(out)


def assemble(
    t_partial: PartitionTree,
    subtrees: Mapping[int, tuple[Graph, GomoryHuTree]],
) -> GomoryHuTree:
    """Stitch per-super-node trees of auxiliary graphs into one full tree.

    Each super-node i supplies its auxiliary graph and a cut-equivalent
    tree of it.  Contracted nodes are identified with the partial-tree
    component they hold; every partial-tree edge (i, j) becomes one final
    edge between i's anchor toward j and j's anchor toward i, keeping the
    partial edge's weight.  Edges between two original nodes pass through.
    """
    n = sum(len(s) for s in t_partial.super_nodes.values())
    final_edges: list[tuple[int, int, Weight]] = []
    anchors: dict[tuple[int, int], int] = {}

    for i, nodes in t_partial.super_nodes.items():
        if i not in subtrees:
            raise TreeError(f"missing subtree for super-node {i}")
        aux, tree = subtrees[i]
        if tree.n != aux.n:
            raise TreeError("subtree does not span its auxiliary graph")
        # the layout: i's vertices, sorted, then one contracted node per
        # neighbor of i in components_without order
        neighbors = list(t_partial.components_without(i))
        if list(aux.orig_id) != sorted(nodes) + [None] * len(neighbors):
            raise TreeError("auxiliary graph does not follow its super-node's layout")
        contracted_super = dict(enumerate(neighbors, len(nodes)))
        # anchor of each contracted node: nearest original node in the subtree
        root = next(
            q for q in range(aux.n) if aux.orig_id[q] is not None
        )
        tree_adj = tree.adj
        order = [root]
        par = {root: root}
        dq = deque([root])
        while dq:
            a = dq.popleft()
            for b in tree_adj[a]:
                if b not in par:
                    par[b] = a
                    order.append(b)
                    dq.append(b)
        for q, j in sorted(contracted_super.items()):
            x = q
            while aux.orig_id[x] is None:
                x = par[x]
                if x == par[x] and aux.orig_id[x] is None:
                    raise TreeError("no original anchor for contracted node")
            anchors[(i, j)] = aux.orig_id[x]
        for a in range(aux.n):
            oa = aux.orig_id[a]
            if oa is None:
                continue
            for b, w in tree_adj[a].items():
                ob = aux.orig_id[b]
                if ob is not None and oa < ob:
                    final_edges.append((oa, ob, w))

    for i, j, w in t_partial.edges():
        try:
            u = anchors[(i, j)]
            v = anchors[(j, i)]
        except KeyError:
            raise TreeError("partial edge has no anchors on both sides")
        final_edges.append((min(u, v), max(u, v), w))

    return GomoryHuTree(n, final_edges)


def reference_query(tree: GomoryHuTree, u: int, v: int):
    """The tree query as first written, by whole-tree searches over the
    neighbor maps: the u-v path by BFS from u, its last lightest edge, and
    u's side by a DFS from u that avoids that edge.  Returns (path, value,
    side); ``GomoryHuTree.path`` and ``.query`` must give the same."""
    adj = tree.adj
    prev: dict[int, tuple[int, Optional[Weight]]] = {u: (-1, None)}
    dq = deque([u])
    while dq:
        a = dq.popleft()
        if a == v:
            break
        for b, w in adj[a].items():
            if b not in prev:
                prev[b] = (a, w)
                dq.append(b)
    path = []
    x = v
    while x != u:
        a, w = prev[x]
        path.append((a, x, w))
        x = a
    path.reverse()
    best = 0
    for k in range(1, len(path)):
        if path[k][2] <= path[best][2]:
            best = k
    a, b, w = path[best]
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if {x, y} != {a, b} and y not in seen:
                seen.add(y)
                stack.append(y)
    return path, w, frozenset(seen)


def gusfield_frame_full_scan(n: int, solve) -> PartitionTree:
    """Gusfield's scheme as first written: after each flow, all n nodes are
    checked for a move under the new node.  ``classic._gusfield_frame``
    checks only the flow's s-side and must build the same tree."""
    pred = [0] * n
    weight: list[Optional[Weight]] = [None] * n
    for v in range(1, n):
        pv = pred[v]
        value, s_side = solve(v, pv)
        weight[v] = value
        for w in range(n):
            if w != v and pred[w] == pv and w in s_side:
                pred[w] = v
        if pred[pv] != pv and pred[pv] in s_side:
            pred[v] = pred[pv]
            pred[pv] = v
            weight[v] = weight[pv]
            weight[pv] = value
    adj: dict[int, dict[int, Weight]] = {v: {} for v in range(n)}
    for v in range(1, n):
        adj[v][pred[v]] = weight[v]
        adj[pred[v]][v] = weight[v]
    return PartitionTree({v: frozenset((v,)) for v in range(n)}, adj)


def classic_via_contract(g: Graph) -> PartitionTree:
    """Gomory-Hu as first written: every flow builds its auxiliary graph
    with ``Graph.contract`` and a fresh solver for it, and its cut side
    reaches ``gh_refine`` through ``orig_id`` and the layout's
    ``neighbors``.  Each flow runs from tnode to s, and the cut is tnode's
    inclusion-minimal side.  The split-solver loop in
    ``classic.classic_gomory_hu`` must build the same tree with the same
    number of flows."""
    if g.n == 1:
        return PartitionTree.single(1)
    # identity node book-keeping, so every node of a contracted input is original
    g = Graph(g.n, g.edges, unit=g.unit, validate=False)
    t = PartitionTree.single(g.n)
    while True:
        pending = [i for i, s in t.super_nodes.items() if len(s) > 1]
        if not pending:
            return t
        i = max(pending, key=lambda k: (len(t.super_nodes[k]), -k))
        s, tnode = sorted(t.super_nodes[i])[:2]
        aux, layout = auxiliary_graph(g, t, i)
        cut = max_flow_min_cut(aux, aux.index_of[tnode], aux.index_of[s])
        orig, k = aux.orig_id, len(layout.kept)
        nodes = frozenset(orig[x] for x in cut.side if orig[x] is not None)
        neighbors = frozenset(layout.neighbors[x - k] for x in cut.side if orig[x] is None)
        gh_refine(t, i, nodes, neighbors, cut.value, s, tnode)
