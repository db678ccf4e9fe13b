"""Cut-membership trees: coarsenings of a cut tree used to count how many
distinct unbalanced minimum cuts a simple graph can have.

Every non-pivot vertex maps to the lightest edge on its tree path to the
pivot (ties broken by the edge furthest from the pivot); vertices sharing
that edge merge into a bag.  Bag values never increase away from the pivot,
so keeping only bags above a threshold leaves a connected top fragment.  A
bag is easy when the vertices hanging at or below it include exactly one
high-degree node; on simple graphs the non-easy bags number at most a
fixed constant times n/w, the bound the counting here instruments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .graph import Graph
from .partition import GomoryHuTree, PartitionTree, TreeError, to_node_tree
from .weights import Weight

NON_EASY_CONSTANT = 10 ** 5


@dataclass
class Bag:
    id: int
    nodes: frozenset[int]
    value: Optional[Weight]          # None for the pivot's root bag
    parent: Optional[int]
    subtree_nodes: frozenset[int]    # every vertex at or below this bag

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass
class CutMembershipTree:
    pivot: int
    bags: dict[int, Bag]
    children: dict[int, list[int]]
    node_bag: dict[int, int]

    @property
    def root(self) -> int:
        return self.node_bag[self.pivot]

    def sorted_bags(self) -> list[Bag]:
        return [self.bags[i] for i in sorted(self.bags)]


def cut_membership_tree(t: "PartitionTree | GomoryHuTree", p: int) -> CutMembershipTree:
    """Merge vertices whose lightest path-edge toward p coincides.  A pivot
    that is not a node of the tree raises TreeError."""
    if isinstance(t, PartitionTree):
        t = to_node_tree(t)
    n = t.n
    if not 0 <= p < n:
        raise TreeError(f"pivot {p} is not a tree node")
    # BFS orientation toward p
    parent = [-1] * n
    parent_w: list[Optional[Weight]] = [None] * n
    order = [p]
    seen = bytearray(n)
    seen[p] = 1
    adj = t.adj
    dq = deque([p])
    while dq:
        a = dq.popleft()
        for b, w in adj[a].items():
            if not seen[b]:
                seen[b] = 1
                parent[b] = a
                parent_w[b] = w
                order.append(b)
                dq.append(b)

    # ell[u]: the representative (child endpoint) of u's lightest path edge
    ell = [-1] * n
    ell_w: list[Optional[Weight]] = [None] * n
    for u in order[1:]:
        pu = parent[u]
        w = parent_w[u]
        if pu == p or ell_w[pu] is None or not ell_w[pu] < w:
            # the edge into u is a path minimum (ties go to the lower edge)
            ell[u] = u
            ell_w[u] = w
        else:
            ell[u] = ell[pu]
            ell_w[u] = ell_w[pu]

    groups: dict[int, set[int]] = {}
    for u in order[1:]:
        groups.setdefault(ell[u], set()).add(u)

    bags: dict[int, Bag] = {}
    node_bag: dict[int, int] = {}
    children: dict[int, list[int]] = {}
    bag_of_rep: dict[int, int] = {}
    bags[0] = Bag(0, frozenset((p,)), None, None, frozenset())
    node_bag[p] = 0
    children[0] = []
    next_id = 1
    # deterministic bag ids by BFS discovery of representatives
    for u in order[1:]:
        rep = ell[u]
        if rep not in bag_of_rep:
            bag_of_rep[rep] = next_id
            bags[next_id] = Bag(next_id, frozenset(groups[rep]),
                                parent_w[rep], None, frozenset())
            children[next_id] = []
            next_id += 1
        node_bag[u] = bag_of_rep[rep]

    for bid, bag in list(bags.items()):
        if bid == 0:
            continue
        rep = next(x for x in bag.nodes if node_bag.get(parent[x]) != bid)
        pb = node_bag[parent[rep]]
        bags[bid] = Bag(bid, bag.nodes, bag.value, pb, frozenset())
        children[pb].append(bid)
    for bid in children:
        children[bid].sort()

    # subtree vertex sets, bottom-up
    sub: dict[int, set[int]] = {bid: set(bags[bid].nodes) for bid in bags}
    for bid in sorted(bags, reverse=True):
        b = bags[bid]
        if b.parent is not None:
            sub[b.parent] |= sub[bid]
    for bid, b in bags.items():
        bags[bid] = Bag(bid, b.nodes, b.value, b.parent, frozenset(sub[bid]))

    tm = CutMembershipTree(pivot=p, bags=bags, children=children, node_bag=node_bag)
    _check_monotone(tm)
    return tm


def _check_monotone(tm: CutMembershipTree) -> None:
    for bag in tm.bags.values():
        if bag.parent is None or tm.bags[bag.parent].value is None:
            continue
        if tm.bags[bag.parent].value < bag.value:
            raise RuntimeError("bag values must not increase away from the pivot")


def w_large_subtree(tm: CutMembershipTree, w: int) -> CutMembershipTree:
    """Keep only bags of value >= w (the root always stays).

    Values never increase away from the root, so the kept bags form the
    connected top fragment; each kept bag retains its full original
    subtree vertex set, which is what easy-bag classification looks at.
    """
    thr = Weight(w, 0)
    keep = {
        bid for bid, b in tm.bags.items()
        if b.value is None or not b.value < thr
    }
    bags = {bid: tm.bags[bid] for bid in keep}
    children = {bid: [c for c in tm.children[bid] if c in keep] for bid in keep}
    node_bag = {v: bid for v, bid in tm.node_bag.items() if bid in keep}
    if any(b.parent is not None and b.parent not in keep for b in bags.values()):
        raise RuntimeError("a kept bag's parent was dropped")
    return CutMembershipTree(pivot=tm.pivot, bags=bags, children=children,
                             node_bag=node_bag)


def is_easy_bag(tm: CutMembershipTree, bag_id: int, w: int, degrees) -> bool:
    """Easy: the bag's subtree (bag included) holds exactly one node of
    degree >= w."""
    bag = tm.bags[bag_id]
    count = 0
    for x in bag.subtree_nodes:
        if degrees[x] >= w:
            count += 1
            if count > 1:
                return False
    return count == 1


def count_non_easy_bags(
    g: Graph,
    t: "PartitionTree | GomoryHuTree",
    p: int,
    w: int,
) -> int:
    """Non-easy bags of the w-large cut-membership tree.

    On simple graphs the count is at most NON_EASY_CONSTANT * n / w; the
    check is vacuous at small scale but the counting machinery is what
    the candidate-elimination accounting leans on.
    """
    if isinstance(t, PartitionTree):
        t = to_node_tree(t)
    degrees = [g.degree(v) for v in range(g.n)]
    tm = cut_membership_tree(t, p)
    large = w_large_subtree(tm, w)
    count = sum(
        0 if is_easy_bag(large, bid, w, degrees) else 1 for bid in large.bags
    )
    if g.simple and count > NON_EASY_CONSTANT * g.n / max(1, w):
        raise RuntimeError(f"{count} non-easy bags exceed the simple-graph bound")
    return count


def analyze_report(g: Graph, t: "PartitionTree | GomoryHuTree", p: int,
                   w_values: Optional[list[int]] = None) -> dict:
    """JSON-ready bag listing plus non-easy counts per threshold."""
    if isinstance(t, PartitionTree):
        t = to_node_tree(t)
    degrees = [g.degree(v) for v in range(g.n)]
    tm = cut_membership_tree(t, p)
    if w_values is None:
        w_values = sorted({1, 2} | {
            b.value.base for b in tm.bags.values() if b.value is not None
        })
    bags = [
        {
            "id": b.id,
            "nodes": sorted(b.nodes),
            "value": None if b.value is None else str(b.value),
            "parent": b.parent,
            "size": b.size,
            "subtree_size": len(b.subtree_nodes),
        }
        for b in tm.sorted_bags()
    ]
    per_w = []
    for w in w_values:
        large = w_large_subtree(tm, w)
        easy_flags = {
            bid: is_easy_bag(large, bid, w, degrees) for bid in sorted(large.bags)
        }
        per_w.append({
            "w": w,
            "bags": sorted(large.bags),
            "easy": {str(k): v for k, v in easy_flags.items()},
            "non_easy": sum(1 for v in easy_flags.values() if not v),
        })
    return {"pivot": p, "bags": bags, "thresholds": per_w}
