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

Both builders measure cuts in the plain auxiliary graph, with no
perturbation: every cut they keep is a latest cut (the inclusion-minimal
terminal side of a minimum cut), which is unique in any graph, and for a
fixed pivot the latest cuts to all terminals are pairwise disjoint or
nested (Gomory and Hu's uncrossing).  So the chosen cuts never cross.

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
from typing import Callable, Optional

from .classic import k_partial_tree
from .dynamic import _dynamic_pivot_engine
from .flow import FLOW_CALLS
from .graph import Graph, GraphError, auxiliary_graph
from .partition import PartitionTree, TreeError
from .single_source import GAMMA, EngineConfig, SingleSourceEngine
from .weights import Weight


# split pieces of one super-node: (members, full cut side, cut value)
Pieces = list[tuple[frozenset[int], frozenset[int], Weight]]


class RandomizedAbort(RuntimeError):
    """Too many bad pivots in a row; rerun with a fresh seed."""


class LaminarityError(RuntimeError):
    """Chosen cuts cross.  Latest cuts from one pivot are laminar, so in
    either builder this indicates a bug."""


def is_good_pivot(cut_sides: dict[int, frozenset[int]], vi: frozenset[int]) -> bool:
    """A pivot is good when at most 3/4 of the super-node lacks a good cut.

    ``cut_sides`` maps each terminal to its cut's vertex side (original
    vertices); a cut is good when its share of the super-node is at most
    half.
    """
    lacking = len(vi) - sum(
        1 for v, side in cut_sides.items() if 2 * len(side & vi) <= len(vi)
    )
    return 4 * lacking <= 3 * len(vi)


def _assign_largest(
    sides: dict[frozenset[int], Weight],
    vi: frozenset[int],
    pivot: int,
) -> Pieces:
    """Claim super-node members by the largest cut containing them.

    Returns split pieces (members, full side, value).  With a laminar
    family the chosen cuts are its maximal elements and each claims its
    whole slice of the super-node; a partial claim means two cuts cross,
    and raises LaminarityError.
    """
    order = sorted(
        sides,
        key=lambda s: (-len(s & vi), min(s & vi) if s & vi else -1, sorted(s)),
    )
    claimed: set[int] = set()
    pieces = []
    for s in order:
        mine = (s & vi) - claimed - {pivot}
        if not mine:
            continue
        if mine != (s & vi) - {pivot}:
            raise LaminarityError("crossing cuts in the assignment")
        claimed |= mine
        pieces.append((frozenset(mine), s, sides[s]))
    return pieces


def _refine(
    g: Graph,
    rep: dict,
    fields: dict,
    start: Callable[[], PartitionTree],
    pieces: Callable[[Graph, frozenset[int]], Pieces],
) -> PartitionTree:
    """The refinement loop both builders share.

    Validates g, records ``fields`` (``algo`` first, ``supers`` among them)
    in the report, then splits super-nodes, lowest id first, until every
    one is a single vertex.  ``start()`` gives the starting tree;
    ``pieces(aux, vi)`` gives the split pieces of super-node vi from its
    auxiliary graph.  Reports ``supers``, ``depth`` (the deepest split) and
    ``flow_calls``.
    """
    algo = fields["algo"]
    if not g.simple:
        raise GraphError(f"{algo} builder needs a simple graph")
    if not g.is_connected():
        raise GraphError(f"{algo} builder needs a connected graph")
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
        aux, _ = auxiliary_graph(g, t, i)
        t, new_ids = t.split(i, pieces(aux, vi))
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

    def pieces(aux: Graph, vi: frozenset[int]) -> Pieces:
        for _ in range(max_bad):
            p = rng.choice(sorted(vi))
            engine = SingleSourceEngine(g, aux, p, cfg)
            engine.run()
            rep["covered"] += engine.report["covered"]
            expanded = _done_sides(engine, aux)
            by_coverer = {u: expanded[v] for u, v in engine.covered.items()}
            if is_good_pivot(expanded | by_coverer, vi):
                sides: dict[frozenset[int], Weight] = {}
                for v, s in expanded.items():
                    if 2 * len(s & vi) <= len(vi):
                        sides.setdefault(s, engine.table.estimate(v))
                return _assign_largest(sides, vi, p)
            rep["bad_pivot_retries"] += 1
        raise RandomizedAbort(
            f"{max_bad} bad pivots in a row on a super-node of {len(vi)} nodes")

    return _refine(g, rep, {"algo": "randomized", "seed": seed, "n": n,
                            "bad_pivot_retries": 0, "supers": 0, "covered": 0},
                   start, pieces)


def _done_sides(engine: SingleSourceEngine, aux: Graph) -> dict[int, frozenset[int]]:
    """Each done terminal's witness as a set of original vertices, in
    terminal order."""
    table = engine.table
    return {v: aux.expand(table.witness(v)) for v in table.terminals() if table.done(v)}


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

    def pieces(aux: Graph, vi: frozenset[int]) -> Pieces:
        engine = _dynamic_pivot_engine(g, aux, cfg)
        rep["pivot_changes"] += engine.pivot_changes
        rep["covered"] += engine.report["covered"]
        sides: dict[frozenset[int], Weight] = {}
        for v, s in _done_sides(engine, aux).items():
            sides.setdefault(s, engine.table.estimate(v))
        pivot = engine.pivot_orig
        found = _assign_largest(sides, vi, pivot)
        claimed = frozenset().union(*(p[0] for p in found))
        if claimed != vi - {pivot}:
            raise TreeError("dynamic cuts failed to cover the super-node")
        return found

    return _refine(g, rep, {"algo": "deterministic", "n": g.n, "supers": 0,
                            "pivot_changes": 0, "covered": 0},
                   lambda: PartitionTree.single(g.n), pieces)
