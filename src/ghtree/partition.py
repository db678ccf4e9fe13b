"""Partition trees, refinement steps, tree queries, and formats.

A partition tree's nodes are disjoint vertex subsets (super-nodes) covering
the graph; each tree edge induces a vertex bipartition whose cut value in
the graph is the edge weight.  Gomory-Hu construction refines super-nodes
along minimum cuts until all are singletons; the fully resolved tree
answers minimum-cut queries by path minima.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .weights import Weight


class TreeError(ValueError):
    pass


class AuxLayout(NamedTuple):
    """Node numbering of a super-node's auxiliary graph.

    The super-node's vertices, sorted (``kept``), become auxiliary nodes
    0..k-1, and the tree component of its j-th neighbor (``neighbors``, in
    ``components_without`` order) becomes node k + j.  ``index`` maps every
    vertex of the graph to its auxiliary node.
    """

    index: list[int]
    kept: list[int]
    neighbors: list[int]

    @property
    def n(self) -> int:
        return len(self.kept) + len(self.neighbors)

    def piece(self, side: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
        """A set of auxiliary nodes as a split piece's (nodes, neighbors):
        the kept vertices it holds and the neighbors whose components it
        holds."""
        k, kept, neighbors = len(self.kept), self.kept, self.neighbors
        return (frozenset(kept[x] for x in side if x < k),
                frozenset(neighbors[x - k] for x in side if x >= k))


class PartitionTree:
    __slots__ = ("super_nodes", "adj", "_next_id")

    def __init__(
        self,
        super_nodes: Mapping[int, frozenset[int]],
        adj: Mapping[int, Mapping[int, Weight]],
    ):
        self.super_nodes: dict[int, frozenset[int]] = dict(super_nodes)
        self.adj: dict[int, dict[int, Weight]] = {
            i: dict(nb) for i, nb in adj.items()
        }
        for i in self.super_nodes:
            self.adj.setdefault(i, {})
        self._next_id = max(self.super_nodes, default=-1) + 1

    @staticmethod
    def single(n: int) -> "PartitionTree":
        return PartitionTree({0: frozenset(range(n))}, {0: {}})

    # -- queries -------------------------------------------------------------

    @property
    def fully_resolved(self) -> bool:
        return all(len(s) == 1 for s in self.super_nodes.values())

    def edges(self) -> list[tuple[int, int, Weight]]:
        out = []
        for i, nb in self.adj.items():
            for j, w in nb.items():
                if i < j:
                    out.append((i, j, w))
        return out

    def components_without(self, i: int) -> dict[int, set[int]]:
        """Vertex sets of the tree components after removing super-node i,
        each keyed by the one neighbor of i it holds, in neighbor order."""
        if i not in self.super_nodes:
            raise TreeError(f"unknown super-node {i}")
        comps: dict[int, set[int]] = {}
        seen = {i}
        for start in self.adj[i]:
            seen.add(start)
            stack = [start]
            nodes: set[int] = set()
            while stack:
                a = stack.pop()
                nodes |= self.super_nodes[a]
                for b in self.adj[a]:
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
            comps[start] = nodes
        return comps

    def aux_layout(self, i: int) -> AuxLayout:
        """The auxiliary-graph numbering of super-node i (see AuxLayout)."""
        comps = self.components_without(i)
        kept = sorted(self.super_nodes[i])
        index = [0] * (len(kept) + sum(len(c) for c in comps.values()))
        for x, v in enumerate(kept):
            index[v] = x
        for x, comp in enumerate(comps.values(), len(kept)):
            for v in comp:
                index[v] = x
        return AuxLayout(index, kept, list(comps))

    # -- refinement ----------------------------------------------------------

    def split(
        self,
        i: int,
        pieces: Sequence[tuple[frozenset[int], frozenset[int], Weight]],
    ) -> list[int]:
        """Split super-node i in place along disjoint cuts, one new super
        per piece.

        Each piece is (nodes, neighbors, value), one side of a cut of i's
        auxiliary graph: ``nodes`` is the slice of V_i it takes,
        ``neighbors`` the neighbors of i whose tree components it takes
        (each component is one contracted node there), ``value`` the cut
        weight.  A piece's neighbors reattach to its new super; the other
        neighbors and the remaining vertices of V_i stay with the residual
        super, which keeps the old id.  Every piece is checked before the
        tree changes, so a TreeError leaves it as it was.  Returns the new
        super ids.
        """
        vi = self.super_nodes[i]
        adj_i = self.adj[i]
        taken: set[int] = set()
        owner: dict[int, int] = {}
        new_ids = list(range(self._next_id, self._next_id + len(pieces)))
        for nid, (nodes, neighbors, _) in zip(new_ids, pieces):
            if not nodes or not nodes <= vi:
                raise TreeError("piece is not a subset of the super-node")
            if not taken.isdisjoint(nodes):
                raise TreeError("pieces overlap")
            taken |= nodes
            for j in neighbors:
                if j not in adj_i:
                    raise TreeError(f"piece takes {j}, which is not a neighbor")
                if j in owner:
                    raise TreeError("pieces take the same neighbor")
                owner[j] = nid
        rest = vi - taken
        if not rest:
            raise TreeError("split must leave the residual side nonempty")

        self._next_id += len(pieces)
        for nid, (nodes, _, _) in zip(new_ids, pieces):
            self.super_nodes[nid] = nodes
            self.adj[nid] = {}
        self.super_nodes[i] = rest
        # only the neighbors a piece takes are re-linked
        for j, nid in owner.items():
            w = adj_i.pop(j)
            del self.adj[j][i]
            self.adj[nid][j] = w
            self.adj[j][nid] = w
        for nid, (_, _, value) in zip(new_ids, pieces):
            adj_i[nid] = value
            self.adj[nid][i] = value
        return new_ids


def gh_refine(
    t: PartitionTree,
    i: int,
    nodes: frozenset[int],
    neighbors: frozenset[int],
    value: Weight,
    s: int,
    tnode: int,
) -> int:
    """One Gomory-Hu step: split super-node i of t in place along a
    minimum s,t-cut.

    The cut is either side of i's auxiliary graph, given as its vertices
    in V_i (``nodes``) and the neighbors of i whose components it holds
    (``neighbors``); s and tnode must lie in V_i on opposite sides.  The
    piece split off is tnode's side, so s's side is flipped within V_i and
    the neighbors of i.  Returns the id of tnode's new super-node.
    """
    vi = t.super_nodes[i]
    if s not in vi or tnode not in vi:
        raise TreeError("terminals must belong to the refined super-node")
    if (s in nodes) == (tnode in nodes):
        raise TreeError("cut does not separate the chosen terminals")
    if s in nodes:
        adj_i = t.adj[i]
        if not neighbors <= adj_i.keys():
            raise TreeError("cut takes a super-node that is not a neighbor")
        nodes = vi - nodes
        neighbors = frozenset(j for j in adj_i if j not in neighbors)
    return t.split(i, [(nodes, neighbors, value)])[0]


# -- full (fully resolved) trees ----------------------------------------------


class GomoryHuTree:
    """Cut-equivalent tree over the original vertices, rooted at node 0.

    One DFS from the root records each node's ``parent``, the ``weight``
    and ``depth`` of the edge into it, and the preorder ``order``, in which
    node v's subtree is the slice of ``size[v]`` nodes from ``pos[v]``.
    """

    __slots__ = ("n", "parent", "weight", "depth", "order", "pos", "size")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, Weight]]):
        self.n = n
        nbrs: list[list[tuple[int, Weight]]] = [[] for _ in range(n)]
        cnt = 0
        for u, v, w in edges:
            nbrs[u].append((v, w))
            nbrs[v].append((u, w))
            cnt += 1
        if cnt != n - 1:
            raise TreeError(f"tree needs {n - 1} edges, got {cnt}")
        self.parent = [-1] * n
        self.weight: list[Optional[Weight]] = [None] * n
        self.depth = [0] * n
        self.order: list[int] = []
        self.pos = [0] * n
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        while stack:
            a = stack.pop()
            self.pos[a] = len(self.order)
            self.order.append(a)
            for b, w in nbrs[a]:
                if not seen[b]:
                    seen[b] = 1
                    self.parent[b] = a
                    self.weight[b] = w
                    self.depth[b] = self.depth[a] + 1
                    stack.append(b)
        # n - 1 edges reach all n nodes only if they form a spanning tree
        if len(self.order) != n:
            raise TreeError("edges do not form a spanning tree")
        self.size = [1] * n
        for v in reversed(self.order[1:]):
            self.size[self.parent[v]] += self.size[v]

    @property
    def adj(self) -> dict[int, dict[int, Weight]]:
        """Neighbor maps in sorted edge order, built anew on each access."""
        adj: dict[int, dict[int, Weight]] = {v: {} for v in range(self.n)}
        for a, b, w in self.edges():
            adj[a][b] = w
            adj[b][a] = w
        return adj

    def edges(self) -> list[tuple[int, int, Weight]]:
        out = []
        for v in range(self.n):
            if self.parent[v] >= 0:
                a, b = sorted((v, self.parent[v]))
                out.append((a, b, self.weight[v]))
        out.sort(key=lambda e: (e[0], e[1]))
        return out

    def path(self, u: int, v: int) -> list[tuple[int, int, Weight]]:
        """The u-v path's edges from u to v, each as (end nearer u, end
        nearer v, weight)."""
        parent, weight, depth = self.parent, self.weight, self.depth
        up: list[tuple[int, int, Weight]] = []
        down: list[tuple[int, int, Weight]] = []
        while u != v:
            if depth[u] >= depth[v]:
                up.append((u, parent[u], weight[u]))
                u = parent[u]
            else:
                down.append((parent[v], v, weight[v]))
                v = parent[v]
        return up + down[::-1]

    def query(self, u: int, v: int) -> tuple[Weight, frozenset[int]]:
        """Minimum-weight edge on the u-v path; (value, u's side).

        Ties go to the edge deepest from u (the query root), i.e. nearest v.
        The side is u's component once that edge is removed: the subtree
        below the edge if it holds u, else that subtree's complement.
        """
        if u == v:
            raise TreeError("query needs two distinct nodes")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise TreeError("query node out of range")
        path = self.path(u, v)
        best = 0
        for k in range(1, len(path)):
            if path[k][2] <= path[best][2]:
                best = k
        a, b, w = path[best]
        below = a if self.parent[a] == b else b
        lo, hi = self.pos[below], self.pos[below] + self.size[below]
        if below == a:
            return w, frozenset(self.order[lo:hi])
        return w, frozenset(self.order[:lo] + self.order[hi:])

    def serialize(self) -> str:
        lines = [f"t {self.n}"]
        for u, v, w in self.edges():
            lines.append(f"e {u + 1} {v + 1} {w}")
        return "\n".join(lines) + "\n"


def to_node_tree(t: PartitionTree) -> GomoryHuTree:
    if not t.fully_resolved:
        raise TreeError("partition tree is not fully resolved")
    rep = {i: next(iter(nodes)) for i, nodes in t.super_nodes.items()}
    n = len(rep)
    edges = [(rep[i], rep[j], w) for i, j, w in t.edges()]
    return GomoryHuTree(n, edges)


def parse_tree(text: str) -> GomoryHuTree:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "t":
            if n is not None:
                raise TreeError(f"line {lineno}: duplicate header")
            try:
                _, n_text = parts
                n = int(n_text)
            except ValueError:
                raise TreeError(f"line {lineno}: malformed header") from None
            if n < 1:
                raise TreeError(f"line {lineno}: node count must be positive")
        elif parts[0] == "e":
            if n is None:
                raise TreeError(f"line {lineno}: edge before header")
            try:
                _, u_text, v_text, w_text = parts
                u, v = int(u_text) - 1, int(v_text) - 1
                w = Weight.parse(w_text)
            except ValueError:
                raise TreeError(f"line {lineno}: malformed edge record") from None
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise TreeError(f"line {lineno}: bad edge")
            edges.append((u, v, w))
        else:
            raise TreeError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise TreeError("missing header")
    return GomoryHuTree(n, edges)
