"""Partition trees, refinement steps, tree queries, and formats.

A partition tree's nodes are disjoint vertex subsets (super-nodes) covering
the graph; each tree edge induces a vertex bipartition whose cut value in
the graph is the edge weight.  Gomory-Hu construction refines super-nodes
along minimum cuts until all are singletons; the fully resolved tree
answers minimum-cut queries by path minima.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Optional, Sequence

from .graph import Graph
from .weights import Weight


class TreeError(ValueError):
    pass


class PartitionTree:
    __slots__ = ("super_nodes", "adj", "_next_id", "_node_super")

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
        self._node_super: Optional[dict[int, int]] = None

    @staticmethod
    def single(n: int) -> "PartitionTree":
        return PartitionTree({0: frozenset(range(n))}, {0: {}})

    # -- queries -------------------------------------------------------------

    @property
    def node_super(self) -> dict[int, int]:
        if self._node_super is None:
            self._node_super = {
                v: i for i, nodes in self.super_nodes.items() for v in nodes
            }
        return self._node_super

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

    def components_without(self, i: int) -> list[set[int]]:
        """Vertex sets of the tree components after removing super-node i."""
        if i not in self.super_nodes:
            raise TreeError(f"unknown super-node {i}")
        comps = []
        seen = {i}
        for start in self.adj[i]:
            if start in seen:
                continue
            comp_supers = [start]
            seen.add(start)
            stack = [start]
            while stack:
                a = stack.pop()
                for b in self.adj[a]:
                    if b not in seen:
                        seen.add(b)
                        comp_supers.append(b)
                        stack.append(b)
            nodes: set[int] = set()
            for a in comp_supers:
                nodes |= self.super_nodes[a]
            comps.append(nodes)
        return comps

    def subtree_side(self, i: int, j: int) -> frozenset[int]:
        """Vertices on j's side of tree edge (i, j)."""
        nodes: set[int] = set()
        seen = {i, j}
        stack = [j]
        nodes |= self.super_nodes[j]
        while stack:
            a = stack.pop()
            for b in self.adj[a]:
                if b not in seen:
                    seen.add(b)
                    nodes |= self.super_nodes[b]
                    stack.append(b)
        return frozenset(nodes)

    def verify(self, g: Graph) -> bool:
        """Recompute every edge's induced-bipartition value in g."""
        for i, j, w in self.edges():
            if g.cut_weight(self.subtree_side(i, j)) != w:
                return False
        return True

    def copy(self) -> "PartitionTree":
        return PartitionTree(self.super_nodes, self.adj)

    # -- refinement ----------------------------------------------------------

    def split(
        self,
        i: int,
        pieces: Sequence[tuple[frozenset[int], frozenset[int], Weight]],
    ) -> tuple["PartitionTree", list[int]]:
        """Split super-node i along disjoint cuts, one new super per piece.

        Each piece is (nodes, full_side, value): ``nodes`` is the slice of
        V_i it takes, ``full_side`` the complete vertex bipartition side the
        cut induces in the graph (used to reattach neighbors), ``value`` the
        cut weight.  Remaining vertices of V_i stay in the residual super,
        which keeps the old id.  Returns the new tree and new super ids.
        """
        vi = self.super_nodes[i]
        taken: set[int] = set()
        for nodes, full_side, _ in pieces:
            if not nodes or not nodes <= vi:
                raise TreeError("piece is not a subset of the super-node")
            if taken & nodes:
                raise TreeError("pieces overlap")
            if not nodes <= full_side:
                raise TreeError("piece disagrees with its cut side")
            taken |= nodes
        rest = vi - taken
        if not rest:
            raise TreeError("split must leave the residual side nonempty")

        tree = self.copy()
        tree._node_super = None
        new_ids = []
        for nodes, full_side, value in pieces:
            nid = tree._next_id
            tree._next_id += 1
            tree.super_nodes[nid] = nodes
            tree.adj[nid] = {}
            new_ids.append(nid)
        tree.super_nodes[i] = rest

        # reattach old neighbors by their side of each cut
        for j in list(tree.adj[i]):
            w = tree.adj[i].pop(j)
            del tree.adj[j][i]
            side_of = i
            nbset = self.super_nodes[j]
            probe = next(iter(nbset))
            for nid, (nodes, full_side, _) in zip(new_ids, pieces):
                if probe in full_side:
                    if not nbset <= full_side:
                        raise TreeError("cut is not expressed over the auxiliary graph")
                    side_of = nid
                    break
            else:
                for _, full_side, _ in pieces:
                    if nbset & full_side:
                        raise TreeError("cut is not expressed over the auxiliary graph")
            tree.adj[side_of][j] = w
            tree.adj[j][side_of] = w

        for nid, (nodes, full_side, value) in zip(new_ids, pieces):
            tree.adj[i][nid] = value
            tree.adj[nid][i] = value
        return tree, new_ids


def gh_refine(
    t: PartitionTree,
    i: int,
    cut_side: frozenset[int],
    value: Weight,
    s: int,
    tnode: int,
) -> PartitionTree:
    """One Gomory-Hu step: split super-node i along a minimum s,t-cut.

    ``cut_side`` is the full vertex bipartition side (expressed over the
    original vertex set); s and tnode must lie in V_i on opposite sides.
    Neighbors of i reattach to whichever half contains them.
    """
    vi = t.super_nodes[i]
    if s not in vi or tnode not in vi:
        raise TreeError("terminals must belong to the refined super-node")
    if (s in cut_side) == (tnode in cut_side):
        raise TreeError("cut does not separate the chosen terminals")
    side = cut_side if tnode in cut_side else frozenset(
        v for v in t.node_super if v not in cut_side
    )
    piece = frozenset(vi & side)
    tree, _ = t.split(i, [(piece, side, value)])
    return tree


# -- full (fully resolved) trees ----------------------------------------------


class GomoryHuTree:
    """Cut-equivalent tree over the original vertices."""

    __slots__ = ("n", "parent", "weight", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, Weight]]):
        self.n = n
        adj: dict[int, dict[int, Weight]] = {v: {} for v in range(n)}
        cnt = 0
        for u, v, w in edges:
            adj[u][v] = w
            adj[v][u] = w
            cnt += 1
        if cnt != n - 1:
            raise TreeError(f"tree needs {n - 1} edges, got {cnt}")
        self._adj = adj
        # rooted form for canonical serialization and queries
        self.parent = [-1] * n
        self.weight: list[Optional[Weight]] = [None] * n
        seen = bytearray(n)
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = 1
            dq = deque([root])
            while dq:
                a = dq.popleft()
                for b, w in adj[a].items():
                    if not seen[b]:
                        seen[b] = 1
                        self.parent[b] = a
                        self.weight[b] = w
                        dq.append(b)
        if not all(seen):
            raise TreeError("edges do not form a spanning tree")

    @property
    def adj(self) -> dict[int, dict[int, Weight]]:
        return self._adj

    def edges(self) -> list[tuple[int, int, Weight]]:
        out = []
        for v in range(self.n):
            if self.parent[v] >= 0:
                a, b = sorted((v, self.parent[v]))
                out.append((a, b, self.weight[v]))
        out.sort(key=lambda e: (e[0], e[1]))
        return out

    def path(self, u: int, v: int) -> list[tuple[int, int, Weight]]:
        prev: dict[int, tuple[int, Weight]] = {u: (-1, None)}
        dq = deque([u])
        while dq:
            a = dq.popleft()
            if a == v:
                break
            for b, w in self._adj[a].items():
                if b not in prev:
                    prev[b] = (a, w)
                    dq.append(b)
        if v not in prev:
            raise TreeError("query nodes are in different components")
        edges = []
        x = v
        while x != u:
            a, w = prev[x]
            edges.append((a, x, w))
            x = a
        edges.reverse()
        return edges

    def query(self, u: int, v: int) -> tuple[Weight, frozenset[int]]:
        """Minimum-weight edge on the u-v path; (value, u's side).

        Ties go to the edge deepest from u (the query root), i.e. nearest v.
        The side is u's component once that edge is removed.
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
        side = self.component_without(u, (a, b))
        return w, side

    def component_without(self, u: int, cut_edge: tuple[int, int]) -> frozenset[int]:
        a, b = cut_edge
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if (x, y) in ((a, b), (b, a)):
                    continue
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

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
