"""Classical cut-tree builders: Gomory-Hu on contracted graphs, Gusfield's
uncontracted variant, and partial trees that resolve only low-connectivity
pairs (a Gusfield tree of a Nagamochi-Ibaraki sparsifier with its heavy
edges contracted).

Gomory-Hu keeps one flow solver per unresolved super-node, over its
contracted flow graph, and builds no contracted ``Graph``.  The input's
solver serves the first super-node, and each split derives both
children's solvers from their parent's (``MaxFlowSolver.split``): the side
of smaller arc volume is copied, and contracted in place in the parent's
solver, so a build walks O(m log n) arcs instead of all m per flow.
"""

from __future__ import annotations

from typing import Optional

from .flow import MaxFlowSolver
from .graph import Graph
from .partition import PartitionTree, gh_refine, to_node_tree
from .sparsify import ni_sparsify
from .weights import Weight, from_scaled


def classic_gomory_hu(g: Graph) -> PartitionTree:
    """Gomory-Hu construction: n-1 max-flows on contracted auxiliary graphs.

    Pair selection is the lexicographically smallest pair inside the largest
    super-node, for deterministic replay.  Every unresolved super-node has a
    solver over its auxiliary graph: each vertex of the super-node keeps a
    node of its own and each component of the tree without it is one
    merged node.  A node's label is the vertex v it stands for, or ~j for
    the component of neighbor j, so a cut side reads back as the piece
    ``gh_refine`` takes: the vertices it holds and the neighbors whose
    components it holds.  The flow runs from the second terminal, tnode,
    to the first, and its last search is the cut: tnode's inclusion-minimal
    side, the piece split off, so a step never reads s's side.
    Disconnected inputs need no special case: a pair in different
    components gets a cut of value 0.
    """
    if g.n == 1:
        return PartitionTree.single(1)
    t = PartitionTree.single(g.n)
    # unresolved super-node -> (solver, label of each node, node of each label)
    work = {0: (MaxFlowSolver(g), list(range(g.n)), {v: v for v in range(g.n)})}
    while work:
        i = max(work, key=lambda k: (len(t.super_nodes[k]), -k))
        sol, label, node = work.pop(i)
        s, tnode = sorted(t.super_nodes[i])[:2]
        value = sol.solve(node[tnode], node[s])
        side = sol.source_side(node[tnode])
        held = [label[x] for x in side]
        nid = gh_refine(t, i, frozenset(v for v in held if v >= 0),
                        frozenset(~v for v in held if v < 0),
                        from_scaled(value, g.unit), s, tnode)
        # a neighbor the split moved to tnode's super now sees i's side
        # through it
        for j in t.adj[nid]:
            if j in work:
                _, label_j, node_j = work[j]
                x = node_j.pop(~i)
                label_j[x] = ~nid
                node_j[~nid] = x
        # sub serves the super of the copied side; sol, which merged that
        # side into copied[0], serves the other one
        sub, copied = sol.split(side)
        small, big = (nid, i) if copied[0] in side else (i, nid)
        sub_label = [label[x] for x in copied] + [~big]
        for v in sub_label[:-1]:
            del node[v]
        label[copied[0]] = ~small
        node[~small] = copied[0]
        children = {small: (sub, sub_label, {v: x for x, v in enumerate(sub_label)}),
                    big: (sol, label, node)}
        work.update((k, c) for k, c in children.items() if len(t.super_nodes[k]) > 1)
    return t


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
