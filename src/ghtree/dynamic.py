"""Deterministic single-source machinery: the randomized engine with a
dynamic pivot in place of a random one.

``DynamicPivotEngine`` subclasses ``single_source.SingleSourceEngine`` and
overrides its one pivot-rule hook, ``moves_pivot``: the pivot moves
(``pivot_change``) when an exact latest cut is unbalanced, i.e. the
terminal admits no balanced minimum cut.  Its sweeps are the randomized
engine's, on the engine's one solver.  As in the randomized builder, cuts
are latest cuts with respect to the pivot, measured in the plain
auxiliary graph.  ``splitter_isolating_step``, the pass of the retired
candidate-elimination loop, stays here as an uncalled no-op, because the
benchmark's tracer (perfbench/tracing.py) looks it up by name.
A pivot change reads the old pivot's side from the residual graph of the
solve that triggered it, so it makes no max-flow of its own.  It drops
every cover (``SingleSourceEngine.covered``), since covers hold for one
pivot, and then lets the old pivot cover the terminals inside its side.
This module imports single_source, never the reverse.
"""

from __future__ import annotations

from .flow import CutSide
from .graph import Graph
from .single_source import EngineError, EstimateTable, SingleSourceEngine, TerminalEstimate


class DynamicPivotEngine(SingleSourceEngine):
    """Single-source engine whose pivot moves instead of being redrawn.

    Cuts are measured in ``aux`` itself; every witness it returns is a
    minimum cut whose terminal side holds at most half of the original
    nodes, relative to the final pivot."""

    def moves_pivot(self, v: int, cut: CutSide) -> bool:
        if self.good(cut.side):
            return False
        pivot_change(self, v, cut, self.aux_solver.sink_side(self.pivot_idx))
        return True


def pivot_change(state: DynamicPivotEngine, q: int, s_pq: CutSide,
                 p_side: frozenset[int]) -> None:
    """Make q the pivot after finding that even the latest minimum cut
    between the pivot p and q leaves more than half the terminals on q's
    side.

    ``s_pq`` is that cut, from a max-flow from q toward p, and ``p_side``
    is the minimal p-side of the same flow (the nodes that reach p in its
    residual graph), i.e. the latest cut with respect to q; no max-flow is
    made here.  The cut's value lam is the exact p,q connectivity.  Every
    terminal on the p-side whose estimate exceeds lam drops to lam with the
    p-side as witness (exact, and still exact for terminals that were
    already done).  Terminals on q's side keep their witnesses, which still
    avoid q, except that a witness containing q is replaced by the degree
    bound.  The old pivot becomes a done terminal with the exact estimate
    lam and the p-side as witness.  Every cover is dropped, and the old
    pivot then covers the undone terminals on the p-side: the p-side is a
    balanced minimum (p, q)-cut, so by Gomory and Hu's uncrossing lemma
    (as in ``SingleSourceEngine.covered``) each one's latest cut lies
    inside it.  A witness of weight at most lam that holds q contradicts
    the trigger and raises EngineError before anything changes.
    """
    p = state.pivot_orig
    p_idx, q_idx = state.pivot_idx, state.idx(q)
    if not 2 * state.vprime_count(s_pq.side) > len(state.vprime):
        raise EngineError("premature pivot change: the cut is balanced")

    lam = s_pq.value
    if p_idx not in p_side or q_idx in p_side:
        raise EngineError("the old pivot's side does not separate it from the new pivot")
    if not 2 * state.vprime_count(p_side) < len(state.vprime):
        raise EngineError("the old pivot's side is unbalanced")
    entries = state.table.entries
    # a witness of weight at most lam that holds q avoids p, so it is a
    # minimum p,q-cut; done and pivot-change witnesses are balanced, so q's
    # latest cut, which lies inside it, would be balanced too
    if any(e.value <= lam and q_idx in e.witness
           for v, e in entries.items() if v != q):
        raise EngineError("a witness of weight at most lam holds the new pivot")

    del entries[q]
    state.covered.clear()
    state.pivot_orig = q
    entries[p] = TerminalEstimate(value=lam, witness=p_side, done=True)

    for v, e in entries.items():
        if v == p:
            continue
        v_idx = state.idx(v)
        if e.value > lam:
            if v_idx in p_side:
                e.value = lam
                e.witness = p_side
                # done terminals stay done: their connectivity to q is
                # exactly lam; undone ones keep only an upper bound
            elif q_idx in e.witness:
                e.value = state.aux.degree_weight(v_idx)
                e.witness = frozenset((v_idx,))
                e.done = False

    state.cover(p)
    state.pivot_changes += 1


def single_source_dynamic_pivot(g_aux: Graph) -> tuple[int, EstimateTable, DynamicPivotEngine]:
    """Deterministic single-source minimum cuts with a self-correcting pivot.

    Starts from the highest-degree original node and returns a pivot p plus,
    for every terminal v, a minimum (p,v)-cut whose v-side holds at most
    half of the original nodes.  No randomness is consumed; two runs on the
    same input produce identical tables.
    """
    engine = _dynamic_pivot_engine(g_aux)
    engine.settle_covered()
    return engine.pivot_orig, engine.table, engine


def _dynamic_pivot_engine(g_aux: Graph) -> DynamicPivotEngine:
    """The deterministic builder's entry: a run from the highest-degree
    original node (an original node keeps its input degree in the
    auxiliary graph) whose covered terminals stay unsolved (see
    ``SingleSourceEngine.covered``).  Every done witness is balanced, and
    ``settle_covered`` keeps it so: it raises if a cut would move the
    pivot."""
    index_of = g_aux.index_of
    pivot = max(index_of, key=lambda v: (g_aux.degree(index_of[v]), -v))
    engine = DynamicPivotEngine(g_aux, pivot)
    engine.run()
    for e in engine.table.entries.values():
        if e.done and not engine.good(e.witness):
            raise EngineError("dynamic engine returned an unbalanced cut")
    return engine


def splitter_isolating_step(state: SingleSourceEngine, w: int, candidates: list[int]) -> None:
    """Retired: stage w's pass of the candidate-elimination loop.  It does
    nothing and nothing calls it; it stays because the benchmark's tracer
    wraps it by name."""
