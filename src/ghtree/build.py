"""Full-tree construction from single-source cuts.

Both builders run one refinement loop (``_refine``) over a global partition
tree: pop the lowest-id unresolved super-node, build its auxiliary graph,
compute all pivot-to-terminal cuts there, assign every terminal to the
largest balanced cut containing it, split the super-node along all the
chosen (pairwise disjoint, laminar-maximal) cuts at once, and repeat.  The
builders differ only in the starting tree and in how one super-node's
pieces are found, i.e. in the pivot rule.  The randomized builder starts
from a partial tree so every later cut is large, and retries unlucky random
pivots; the deterministic builder starts from the one-super-node tree, uses
no randomness, and always receives balanced cuts thanks to the dynamic
pivot.

A cut reaches the tree in auxiliary-graph terms, as a split piece: the
super-node's vertices on its side, the neighbors whose contracted nodes it
holds (each contracted node is the tree component of one neighbor), and
its value.  The auxiliary graph is numbered by the super-node's
``PartitionTree.aux_layout``, and ``_done_cuts`` reads each done witness
back through it once, so no cut is expanded to the original vertices it
stands for.

Both builders measure cuts in the plain auxiliary graph, with no
perturbation: every cut they keep is a latest cut (the inclusion-minimal
terminal side of a minimum cut), which is unique in any graph, and for a
fixed pivot the latest cuts to all terminals are pairwise disjoint or
nested (Gomory and Hu's uncrossing).  So the chosen cuts never cross.
Neither property needs a simple or a connected input, so both builders
take any loop-free multigraph, as classic and Gusfield do; the paper's
running-time bound is for simple graphs.

Neither builder solves a terminal that lies inside another terminal's
balanced latest cut found earlier in the same run: such a terminal is
*covered* (see single_source.py).  Its own latest cut is a subset of the
coverer's, so it is balanced and never one of the maximal cuts the split
uses.  The split is therefore built from the done terminals' cuts alone,
and ``is_good_pivot`` counts a covered terminal by its coverer's side; both
give what solving every terminal would.  The report's ``covered`` counts
the solves skipped this way.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Optional

from .classic import k_partial_tree
from .dynamic import _dynamic_pivot_engine
from .flow import FLOW_CALLS
from .graph import Graph, auxiliary_graph
from .partition import AuxLayout, PartitionTree, TreeError
from .single_source import GAMMA, EngineConfig, SingleSourceEngine
from .weights import Weight


# split pieces of one super-node: (members, neighbors taken, cut value)
Piece = tuple[frozenset[int], frozenset[int], Weight]
Pieces = list[Piece]


class RandomizedAbort(RuntimeError):
    """Too many bad pivots in a row; rerun with a fresh seed."""


class LaminarityError(RuntimeError):
    """Chosen cuts cross.  Latest cuts from one pivot are laminar, so in
    either builder this indicates a bug."""


def is_good_pivot(cut_nodes: dict[int, frozenset[int]], vi: frozenset[int]) -> bool:
    """A pivot is good when at most 3/4 of the super-node lacks a good cut.

    ``cut_nodes`` maps each terminal to the vertices of the super-node on
    its cut's side; a cut is good when it takes at most half the
    super-node.
    """
    lacking = len(vi) - sum(1 for nodes in cut_nodes.values() if 2 * len(nodes) <= len(vi))
    return 4 * lacking <= 3 * len(vi)


def _done_cuts(engine: SingleSourceEngine, layout: AuxLayout) -> dict[int, Piece]:
    """Each done terminal's witness as a split piece, in terminal order:
    the super-node's vertices on its side, the neighbors whose contracted
    nodes it holds, and its value."""
    table = engine.table
    return {v: (*layout.piece(table.witness(v)), table.estimate(v))
            for v in table.terminals() if table.done(v)}


def _assign_largest(cuts: Iterable[Piece], pivot: int) -> Pieces:
    """Claim super-node members by the largest cut containing them.

    ``cuts`` are split pieces (members, neighbors, value), taken largest
    first, ties by lowest member; a repeated cut claims nothing.  Returns
    the chosen pieces, each keeping its neighbors.  With a laminar family
    the chosen cuts are its maximal elements and each claims its whole
    slice of the super-node; a partial claim means two cuts cross, and
    raises LaminarityError.
    """
    claimed: set[int] = set()
    pieces = []
    for nodes, neighbors, value in sorted(cuts, key=lambda c: (-len(c[0]), min(c[0]))):
        mine = nodes - claimed - {pivot}
        if not mine:
            continue
        if mine != nodes - {pivot}:
            raise LaminarityError("crossing cuts in the assignment")
        claimed |= mine
        pieces.append((mine, neighbors, value))
    return pieces


def _refine(
    g: Graph,
    rep: dict,
    fields: dict,
    start: Callable[[], PartitionTree],
    pieces: Callable[[Graph, AuxLayout, frozenset[int]], Pieces],
) -> PartitionTree:
    """The refinement loop both builders share.

    g may be any loop-free multigraph, connected or not.  Records
    ``fields`` (``algo`` first, ``supers`` among them) in the report, then
    splits super-nodes, lowest id first, until every one is a single
    vertex.  ``start()`` gives the starting tree; ``pieces(aux, layout,
    vi)`` gives the split pieces of super-node vi from its auxiliary graph
    and that graph's layout.  Reports ``supers``, ``depth`` (the deepest
    split) and ``flow_calls``.
    """
    rep.update(fields)
    flow0 = FLOW_CALLS.value
    if g.n == 1:
        rep["flow_calls"] = 0
        rep["depth"] = 0
        return PartitionTree.single(1)

    t = start()
    depth: dict[int, int] = {i: 0 for i in t.super_nodes}
    max_depth = 0
    queue = sorted(i for i, s in t.super_nodes.items() if len(s) > 1)
    while queue:
        i = queue.pop(0)
        vi = t.super_nodes[i]
        if len(vi) <= 1:
            continue
        rep["supers"] += 1
        aux, layout = auxiliary_graph(g, t, i)
        new_ids = t.split(i, pieces(aux, layout, vi))
        d = depth[i] + 1
        depth[i] = d
        for nid in new_ids:
            depth[nid] = d
        max_depth = max(max_depth, d)
        for nid in new_ids + [i]:
            if len(t.super_nodes[nid]) > 1:
                queue.append(nid)
        queue.sort()

    rep["depth"] = max_depth
    rep["flow_calls"] = FLOW_CALLS.value - flow0
    return t


def build_randomized(
    g: Graph,
    seed: int | None = None,
    config: Optional[EngineConfig] = None,
    report: Optional[dict] = None,
) -> PartitionTree:
    """Cut-equivalent tree via partial-tree bootstrap and random pivots.

    Per super-node: contract the rest of the tree, pick pivots at random
    until one yields balanced cuts for at least a quarter of the super-node
    (aborting after 2*GAMMA*log2 N straight failures), split along the
    chosen cuts, recurse.  The seed drives only the pivot draws.  Raises
    RandomizedAbort on a bad-pivot streak.
    """
    cfg = config or EngineConfig()
    rng = random.Random(seed)
    n = g.n
    rep = report if report is not None else {}
    max_bad = max(1, math.ceil(2 * GAMMA * math.log2(max(2, n))))

    def start() -> PartitionTree:
        return k_partial_tree(g, max(1, math.isqrt(n)))

    def pieces(aux: Graph, layout: AuxLayout, vi: frozenset[int]) -> Pieces:
        for _ in range(max_bad):
            p = rng.choice(sorted(vi))
            engine = SingleSourceEngine(g, aux, p, cfg)
            engine.run()
            rep["covered"] += engine.report["covered"]
            cuts = _done_cuts(engine, layout)
            nodes = {v: cut[0] for v, cut in cuts.items()}
            by_coverer = {u: nodes[v] for u, v in engine.covered.items()}
            if is_good_pivot(nodes | by_coverer, vi):
                return _assign_largest(
                    (cut for cut in cuts.values() if 2 * len(cut[0]) <= len(vi)), p)
            rep["bad_pivot_retries"] += 1
        raise RandomizedAbort(
            f"{max_bad} bad pivots in a row on a super-node of {len(vi)} nodes")

    return _refine(g, rep, {"algo": "randomized", "seed": seed, "n": n,
                            "bad_pivot_retries": 0, "supers": 0, "covered": 0},
                   start, pieces)


def build_deterministic(
    g: Graph,
    config: Optional[EngineConfig] = None,
    report: Optional[dict] = None,
) -> PartitionTree:
    """Cut-equivalent tree with no randomness and balanced splits throughout.

    Each super-node is resolved by the dynamic-pivot single-source engine,
    whose cuts all leave at most half the super-node on the far side, so
    the recursion depth is logarithmic and reruns are bit-identical.
    """
    cfg = config or EngineConfig()
    rep = report if report is not None else {}

    def pieces(aux: Graph, layout: AuxLayout, vi: frozenset[int]) -> Pieces:
        engine = _dynamic_pivot_engine(g, aux, cfg)
        rep["pivot_changes"] += engine.pivot_changes
        rep["covered"] += engine.report["covered"]
        found = _assign_largest(_done_cuts(engine, layout).values(), engine.pivot_orig)
        # the pieces are disjoint and avoid the pivot, so they cover the
        # rest of the super-node exactly when their sizes add up to it
        if sum(len(nodes) for nodes, _, _ in found) != len(vi) - 1:
            raise TreeError("dynamic cuts failed to cover the super-node")
        return found

    return _refine(g, rep, {"algo": "deterministic", "n": g.n, "supers": 0,
                            "pivot_changes": 0, "covered": 0},
                   lambda: PartitionTree.single(g.n), pieces)
