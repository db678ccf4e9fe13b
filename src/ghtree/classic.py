"""Classical cut-tree builders: Gomory-Hu on contracted graphs, Gusfield's
uncontracted variant, and partial trees that resolve only low-connectivity
pairs (a Gusfield tree of a Nagamochi-Ibaraki sparsifier with its heavy
edges contracted).

Gomory-Hu builds one flow solver for its input and derives each contracted
flow graph from it by a node remap (``MaxFlowSolver.remapped``): no
contracted ``Graph`` is built, and parallel arcs are not folded.  The remap
is the super-node's ``PartitionTree.aux_layout``, the numbering the paper
builders' auxiliary graphs (``Graph.contract``) use too.
"""

from __future__ import annotations

from typing import Optional

from .flow import MaxFlowSolver
from .graph import Graph
from .partition import GomoryHuTree, PartitionTree, gh_refine, to_node_tree
from .sparsify import ni_sparsify
from .weights import Weight, from_scaled


def classic_gomory_hu(g: Graph) -> PartitionTree:
    """Gomory-Hu construction: n-1 max-flows on contracted auxiliary graphs.

    Pair selection is the lexicographically smallest pair inside the largest
    super-node, for deterministic replay.  Each flow runs on the input's
    solver remapped by the super-node's auxiliary-graph layout: every
    vertex of the super-node keeps a node of its own and every component of
    the tree without it becomes one node.  The layout reads the flow's
    source side back as the piece ``gh_refine`` takes: the kept vertices it
    holds and the neighbors of the super-node whose components it holds.
    Disconnected inputs need no special case: a pair in different
    components gets a cut of value 0.
    """
    if g.n == 1:
        return PartitionTree.single(1)
    base = MaxFlowSolver(g)
    t = PartitionTree.single(g.n)
    while True:
        pending = [i for i, s in t.super_nodes.items() if len(s) > 1]
        if not pending:
            return t
        i = max(pending, key=lambda k: (len(t.super_nodes[k]), -k))
        layout = t.aux_layout(i)
        # the kept vertices are sorted, so s and tnode are nodes 0 and 1
        s, tnode = layout.kept[:2]
        sol = base.remapped(layout.index, layout.n)
        value = sol.solve(0, 1)
        nodes, taken = layout.piece(sol.source_side(0))
        gh_refine(t, i, nodes, taken, from_scaled(value, g.unit), s, tnode)


def gusfield(g: Graph) -> PartitionTree:
    """Cut tree with all n-1 max-flows made on the original graph (on a
    disconnected one too: a cut between components has value 0)."""
    if g.n == 1:
        return PartitionTree.single(1)
    sol = MaxFlowSolver(g)

    def solve(s, t):
        val = sol.solve(s, t)
        return from_scaled(val, g.unit), sol.source_side(s)

    return _gusfield_frame(g.n, solve)


def _gusfield_frame(n: int, solve) -> PartitionTree:
    """Gusfield's scheme over an abstract (value, s-side) min-cut oracle.

    After each flow only the nodes of its s-side can move under v, and
    each one's move reads only its own ``pred`` entry, so the update scans
    the s-side instead of all n nodes."""
    root = 0
    pred = [root] * n
    weight: list[Optional[Weight]] = [None] * n
    for v in range(1, n):
        pv = pred[v]
        value, s_side = solve(v, pv)
        weight[v] = value
        for w in s_side:
            if w != v and pred[w] == pv:
                pred[w] = v
        if pred[pv] != pv and pred[pv] in s_side:
            # v takes its grandparent's place
            pred[v] = pred[pv]
            pred[pv] = v
            weight[v] = weight[pv]
            weight[pv] = value

    supers = {v: frozenset((v,)) for v in range(n)}
    adj: dict[int, dict[int, Weight]] = {v: {} for v in range(n)}
    for v in range(1, n):
        adj[v][pred[v]] = weight[v]
        adj[pred[v]][v] = weight[v]
    return PartitionTree(supers, adj)


def k_partial_tree(g: Graph, k: int) -> PartitionTree:
    """Partition tree resolving exactly the pairs with connectivity <= k.

    Built as a full Gusfield tree of the (k+1)-sparsifier, whose cuts of
    value <= k are exactly the input graph's and whose other cuts stay above
    k (Nagamochi & Ibaraki), then contracting every tree edge heavier than
    k.  Each light edge's fundamental cut is therefore a minimum cut of the
    input, and the super-nodes are the classes of the equivalence relation
    "connectivity > k", the same for every cut tree; which light edges join
    them may differ between cut trees when minimum cuts tie.  Gusfield's
    builder needs no contracted graphs and reuses one flow solver for all
    n-1 flows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n == 1:
        return PartitionTree.single(1)
    full = gusfield(ni_sparsify(g, k + 1))

    node_tree = to_node_tree(full)
    # merge across heavy edges
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept: list[tuple[int, int, Weight]] = []
    for u, v, w in node_tree.edges():
        if w.base > k:
            ru, rv = find(u), find(v)
            parent[ru] = rv
        else:
            kept.append((u, v, w))

    groups: dict[int, set[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), set()).add(v)
    ids = {r: i for i, r in enumerate(sorted(groups))}
    supers = {ids[r]: frozenset(s) for r, s in groups.items()}
    adj: dict[int, dict[int, Weight]] = {i: {} for i in supers}
    for u, v, w in kept:
        a, b = ids[find(u)], ids[find(v)]
        adj[a][b] = w
        adj[b][a] = w
    return PartitionTree(supers, adj)


def gusfield_projection(g: Graph, simple_tree: GomoryHuTree) -> PartitionTree:
    """Cut tree of a multigraph from the tree of its subdivided form.

    Runs the Gusfield scheme but answers every min-cut invocation by a tree
    query on the subdivided graph's cut-equivalent tree, projecting the side
    onto the original vertices.  No max-flow calls are made.
    """

    def solve(s, t):
        value, side = simple_tree.query(s, t)
        projected = frozenset(v for v in side if v < g.n)
        return value, projected

    return _gusfield_frame(g.n, solve)
