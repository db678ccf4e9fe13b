"""Undirected loop-free multigraph with contraction and subdivision.

Nodes are indices 0..n-1.  A node that stands for one original vertex
records its id in ``orig_id``; a contracted node records None, and every
node counts the original vertices it stands for in ``member_count``.
Contraction merges the nodes that share an index, so an auxiliary graph
(``auxiliary_graph``) contracts a super-node by its layout
(``PartitionTree.aux_layout``).  Edges store an integer multiplicity and an
integer count of perturbation units (see weights.py).  No graph holds a
self-loop: edge keys satisfy u < v, the parsers reject u == v, and
contraction drops the edges inside a merged node.  Graphs are immutable
after construction.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .partition import AuxLayout
from .weights import Weight, from_scaled


class GraphError(ValueError):
    pass


class Graph:
    __slots__ = (
        "n", "edges", "orig_id", "member_count", "simple", "unit",
        "_adj", "_index_of", "_connected",
    )

    def __init__(
        self,
        n: int,
        edges: Mapping[tuple[int, int], tuple[int, int]],
        *,
        orig_id: Optional[Sequence[Optional[int]]] = None,
        member_count: Optional[Sequence[int]] = None,
        simple: bool = False,
        unit: int = 1,
        validate: bool = True,
    ):
        self.n = n
        self.edges: dict[tuple[int, int], tuple[int, int]] = dict(edges)
        if orig_id is None:
            orig_id = range(n)
        self.orig_id: tuple[Optional[int], ...] = tuple(orig_id)
        self.member_count: tuple[int, ...] = (
            (1,) * n if member_count is None else tuple(member_count))
        self.simple = simple
        self.unit = unit
        self._adj: Optional[list[dict[int, tuple[int, int]]]] = None
        self._index_of: Optional[dict[int, int]] = None
        self._connected: Optional[bool] = None
        if validate:
            for (u, v), (mult, eps) in self.edges.items():
                if not (0 <= u < v < n):
                    raise GraphError(f"bad edge key ({u},{v})")
                if mult < 1 or eps < 0:
                    raise GraphError(f"bad edge data ({mult},{eps})")
            if simple and any(m != 1 or e != 0 for m, e in self.edges.values()):
                raise GraphError("a simple graph has no parallel or perturbed edges")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]], *, simple: bool = True) -> "Graph":
        """Build from (u, v) pairs; repeated pairs accumulate multiplicity."""
        edges: dict[tuple[int, int], tuple[int, int]] = {}
        for u, v in pairs:
            if u == v:
                raise GraphError("self-loop in input edge list")
            key = (u, v) if u < v else (v, u)
            mult, eps = edges.get(key, (0, 0))
            edges[key] = (mult + 1, eps)
        is_simple = simple and all(m == 1 for m, _ in edges.values())
        return Graph(n, edges, simple=is_simple)

    def with_edges(self, edges, *, unit: Optional[int] = None, simple: Optional[bool] = None) -> "Graph":
        """Copy of this graph with a replaced edge map (same node book-keeping)."""
        return Graph(
            self.n, edges, orig_id=self.orig_id, member_count=self.member_count,
            simple=self.simple if simple is None else simple,
            unit=self.unit if unit is None else unit,
            validate=False,
        )

    # -- basic queries -------------------------------------------------------

    @property
    def adj(self) -> list[dict[int, tuple[int, int]]]:
        if self._adj is None:
            a: list[dict[int, tuple[int, int]]] = [dict() for _ in range(self.n)]
            for (u, v), data in self.edges.items():
                a[u][v] = data
                a[v][u] = data
            self._adj = a
        return self._adj

    @property
    def index_of(self) -> dict[int, int]:
        """Map original vertex id -> node index, for uncontracted nodes."""
        if self._index_of is None:
            self._index_of = {
                o: i for i, o in enumerate(self.orig_id) if o is not None
            }
        return self._index_of

    @property
    def edge_instances(self) -> int:
        return sum(m for m, _ in self.edges.values())

    def degree(self, v: int) -> int:
        """Edge-instance degree."""
        return sum(m for m, _ in self.adj[v].values())

    def degree_weight(self, v: int) -> Weight:
        """Degree including perturbation units."""
        base = eps = 0
        for m, e in self.adj[v].values():
            base += m
            eps += e
        return Weight(base, eps)

    def cut_units(self, side: frozenset[int] | set[int]) -> int:
        """Scaled weight of edges crossing (side, complement)."""
        total = 0
        unit = self.unit
        if len(side) * 2 <= self.n:
            inner, test = side, side
            for u in inner:
                for v, (m, e) in self.adj[u].items():
                    if v not in test:
                        total += m * unit + e
            return total
        outside = [v for v in range(self.n) if v not in side]
        for u in outside:
            for v, (m, e) in self.adj[u].items():
                if v in side:
                    total += m * unit + e
        return total

    def cut_weight(self, side) -> Weight:
        return from_scaled(self.cut_units(side), self.unit)

    def is_connected(self) -> bool:
        """At most one component; computed on the first call only, since
        the graph never changes."""
        if self._connected is None:
            self._connected = len(self.components()) <= 1
        return self._connected

    def components(self) -> list[set[int]]:
        seen: set[int] = set()
        out = []
        for s in range(self.n):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                u = stack.pop()
                for v in self.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        comp.add(v)
                        stack.append(v)
            out.append(comp)
        return out

    # -- contraction ---------------------------------------------------------

    def contract(self, index: Sequence[int], n: int, kept: int = 0) -> "Graph":
        """Merge the nodes that share an ``index``.

        Node v becomes node ``index[v]`` of 0..n-1.  Parallel edges produced
        by the merge are folded into multiplicities, perturbation units
        summed, and edges inside a merged node vanish.  Each of the first
        ``kept`` new nodes takes exactly one node and keeps its ``orig_id``;
        every other new node is contracted (``orig_id`` None), even one
        that takes a single node.  ``member_count`` adds up.
        """
        orig: list[Optional[int]] = [None] * n
        count = [0] * n
        self_orig, self_count = self.orig_id, self.member_count
        for v, x in enumerate(index):
            count[x] += self_count[v]
            if x < kept:
                orig[x] = self_orig[v]

        edges: dict[tuple[int, int], tuple[int, int]] = {}
        get = edges.get
        for (u, v), (m, e) in self.edges.items():
            a, b = index[u], index[v]
            if a != b:
                key = (a, b) if a < b else (b, a)
                m0, e0 = get(key, (0, 0))
                edges[key] = (m0 + m, e0 + e)
        return Graph(n, edges, orig_id=orig, member_count=count,
                     simple=False, unit=self.unit, validate=False)


# -- spec operations ---------------------------------------------------------


def auxiliary_graph(g: Graph, tree, super_id: int) -> tuple[Graph, AuxLayout]:
    """Contract every component of ``tree`` minus one super-node.

    ``tree`` is a partition tree of g's vertex set, and the result is
    numbered by its ``aux_layout(super_id)``: the super-node's vertices,
    sorted, are nodes 0..k-1 (``aux.index_of`` finds them), and each
    component hanging off it is one contracted node after them.  Each
    component holds exactly one neighbor of the super-node, so a cut of the
    result is fully given by the super-node's vertices and the neighbors on
    its side.  Returns the graph and the layout, whose ``piece`` reads a
    set of the graph's nodes back as those two sets.
    """
    layout = tree.aux_layout(super_id)
    return g.contract(layout.index, layout.n, len(layout.kept)), layout


def subdivide(g: Graph) -> tuple[Graph, list[tuple[int, int, int]]]:
    """Replace every edge instance (u,v) by a length-2 path u-mid-v.

    The output is simple with n + m nodes (m counts multiplicity).  Returns
    the new graph and one (u, v, mid) record per original edge instance.
    """
    if any(e for _, e in g.edges.values()):
        raise GraphError("subdivide expects an unperturbed graph")
    pairs: list[tuple[int, int]] = []
    records: list[tuple[int, int, int]] = []
    nxt = g.n
    for (u, v) in sorted(g.edges):
        mult = g.edges[(u, v)][0]
        for _ in range(mult):
            pairs.append((u, nxt))
            pairs.append((nxt, v))
            records.append((u, v, nxt))
            nxt += 1
    edges = {}
    for a, b in pairs:
        key = (a, b) if a < b else (b, a)
        edges[key] = (1, 0)
    out = Graph(nxt, edges, simple=True)
    return out, records


# -- text format -------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Read the 1-indexed `p n [m]` / `e u v [mult]` format.

    A record with fields beyond these is malformed.  The header's edge
    count m may be left out; when present it must be a non-negative
    integer.  It is not compared with the edge records:
    repeated `e` lines for one pair merge into a multi-edge, and
    ``emit_graph`` writes the number of distinct pairs.
    """
    n = None
    pairs: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: duplicate header")
            try:
                if not 2 <= len(parts) <= 3:
                    raise ValueError
                n = int(parts[1])
                edge_count = int(parts[2]) if len(parts) > 2 else 0
            except ValueError:
                raise GraphError(f"line {lineno}: malformed header") from None
            if n < 1:
                raise GraphError(f"line {lineno}: node count must be positive")
            if edge_count < 0:
                raise GraphError(f"line {lineno}: edge count must be non-negative")
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before header")
            try:
                if not 3 <= len(parts) <= 4:
                    raise ValueError
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                mult = int(parts[3]) if len(parts) > 3 else 1
            except ValueError:
                raise GraphError(f"line {lineno}: malformed edge record") from None
            if u == v or not (0 <= u < n and 0 <= v < n) or mult < 1:
                raise GraphError(f"line {lineno}: bad edge")
            key = (u, v) if u < v else (v, u)
            pairs[key] = pairs.get(key, 0) + mult
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing header")
    edges = {k: (m, 0) for k, m in pairs.items()}
    simple = all(m == 1 for m in pairs.values())
    return Graph(n, edges, simple=simple)


def emit_graph(g: Graph) -> str:
    lines = [f"p {g.n} {len(g.edges)}"]
    for (u, v) in sorted(g.edges):
        m = g.edges[(u, v)][0]
        if m == 1:
            lines.append(f"e {u + 1} {v + 1}")
        else:
            lines.append(f"e {u + 1} {v + 1} {m}")
    return "\n".join(lines) + "\n"
