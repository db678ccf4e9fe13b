"""Single-source minimum cuts from a pivot to every terminal of an
auxiliary graph.

Every exact cut the engines record comes from one method,
``SingleSourceEngine.latest_cut``: one max-flow from the terminal toward the
pivot, whose residual reach from the terminal is the inclusion-minimal
terminal side, i.e. the latest minimum cut with respect to the pivot.
Latest cuts are unique, so this is the witness any exact method must
return.  Every proven fact about a terminal comes from one other method,
``SingleSourceEngine.settle``: it solves the terminal's latest cut, and
the cut becomes the terminal's done witness (unless it moves the pivot).
Every solve of a run, loop on or off, is made on one solver over the
auxiliary graph, ``SingleSourceEngine.aux_solver``.

Terminals are settled by one loop, ``SingleSourceEngine.sweep``: in order,
it skips a terminal that is *covered*, and otherwise settles it.  When
terminal v settles with a balanced latest cut S_v, every undone terminal u
inside S_v is covered by v (``SingleSourceEngine.covered``), and u's own
solve is skipped.  Covered is not done: u's estimate proves nothing.  The
lemma that makes the skip safe is Gomory and Hu's uncrossing argument:
L_u ∩ S_v is a minimum (pivot, u)-cut, so u's latest cut L_u is a subset
of S_v, hence balanced and never a maximal cut of a split.  A builder
therefore needs only the done terminals' cuts, and counts a covered
terminal by its coverer's side.  ``run`` ends with the final sweep, which
sweeps the terminals neither done nor covered on the auxiliary graph
until none is left; ``settle_covered`` then solves the covered ones, one
flow each, for the public ``single_source_mincuts``, whose table is
entirely done.

With the loop on, the engine first walks doubling stages from
w = 2^floor(log2(n)/2).  Stage w's candidates are the terminals neither
done nor covered whose estimate e satisfies w < e <= 2w; ``stage_w``'s
pass (``splitter_isolating_step``) sweeps them on the engine's solver.  A
lone terminal's isolating cut is its latest cut, so each candidate is one
``latest_cut`` solve, which settles it, covers and may move the pivot
exactly as in the final sweep.  The paper solves stage w on a
Nagamochi-Ibaraki sparsifier that keeps every cut of weight at most 2w
exact, so that a stage costs O(nw) edges; on the graphs measured that
sparsifier dropped no edge, or too few to pay for building it and a
second solver, so a stage solves on the auxiliary graph itself.  The
paper's batch isolating cuts and expander decomposition only chose which
candidates to solve together; with every candidate solved alone they save
no flow, and the engine runs neither.  Estimates only decrease, every
estimate is the exact weight of its witness cut, and a terminal is marked
done only by ``settle``, when a solve makes its estimate minimal.  The one
exception is the old pivot after a pivot change (dynamic.py), whose
estimate is exact from the flow that triggered the change.

``SingleSourceEngine`` is the randomized engine: the builder draws the
pivot at random.  Every cut is measured in the plain auxiliary graph; no
perturbation is needed: a latest cut is unique in any graph, and the
latest cuts from one pivot are pairwise disjoint or nested (the uncrossing
argument above), so the cuts a split chooses never cross.  The
deterministic engine, ``DynamicPivotEngine`` in dynamic.py, subclasses it
and overrides the one pivot-rule hook, ``moves_pivot``: what happens when
an exact latest cut is unbalanced (the pivot moves).  Such a cut's solve
ends with the pivot as its sink, so its residual graph already holds the
minimal pivot side the move needs, and a move costs no flow.  A sweep
goes on past a move, and the final sweep's next round picks up what the
move reopened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .flow import FLOW_CALLS, CutSide, MaxFlowSolver
from .graph import Graph, GraphError
from .weights import Weight, from_scaled


# success-probability exponent: the randomized builder's bad-pivot streak
# bound scales with it
GAMMA = 2.0


class EngineError(RuntimeError):
    """An engine invariant failed.  This is a bug, never bad input."""


@dataclass
class EngineConfig:
    """Settings of the single-source engines.

    Defaults give the direct profile: the candidate-elimination loop is off,
    no doubling stage runs, and every terminal is settled by one latest-cut
    solve on the auxiliary graph, which is unconditionally exact and
    fastest at desk scale.  ``loop_enabled`` runs the doubling stages from
    w = 2^floor(log2(n)/2) before the final sweep: stage w sweeps the
    candidates whose estimate lies in (w, 2w] on the engine's solver, one
    exact solve per candidate not yet covered.  ``seed`` has no effect: no
    engine step draws random numbers (the randomized builder takes its own
    seed).  The field stays because the benchmark constructs it.
    """

    loop_enabled: bool = False
    seed: Optional[int] = None


@dataclass
class TerminalEstimate:
    value: Weight            # c'(v): exact weight of the witness cut
    witness: frozenset[int]  # v-side, in auxiliary-graph node indices
    done: bool = False       # proven c'(v) = lambda(pivot, v)


class EstimateTable:
    """Per-terminal connectivity estimates with witness cuts."""

    def __init__(self):
        self.entries: dict[int, TerminalEstimate] = {}

    def terminals(self) -> list[int]:
        return sorted(self.entries)

    def estimate(self, v: int) -> Weight:
        return self.entries[v].value

    def witness(self, v: int) -> frozenset[int]:
        return self.entries[v].witness

    def done(self, v: int) -> bool:
        return self.entries[v].done


class SingleSourceEngine:
    def __init__(
        self,
        g: Graph,
        aux: Graph,
        pivot: int,
        config: Optional[EngineConfig] = None,
    ):
        """g: the input graph; aux: an auxiliary (contracted) graph of it,
        in which every cut is measured; pivot: an original vertex id in
        aux."""
        self.g = g
        self.aux = aux
        self.config = config or EngineConfig()
        if pivot not in aux.index_of:
            raise GraphError("pivot is not an original node of the auxiliary graph")
        self.pivot_orig = pivot
        self.vprime = sorted(aux.index_of)
        self.table = EstimateTable()
        for v in self.vprime:
            if v == pivot:
                continue
            vi = aux.index_of[v]
            self.table.entries[v] = TerminalEstimate(
                value=aux.degree_weight(vi),
                witness=frozenset((vi,)),
            )
        self.pivot_changes = 0
        # undone terminal -> the terminal whose balanced latest cut holds it
        self.covered: dict[int, int] = {}
        self.report: dict = {
            "aux_nodes": aux.n,
            "terminals": len(self.table.entries),
            "pivot_initial": pivot,
            "stages": [],
            "pivot_changes": 0,
            "flow_calls": 0,
            "covered": 0,
        }
        self._flow_start = FLOW_CALLS.value

    # -- helpers -------------------------------------------------------------

    @property
    def pivot_idx(self) -> int:
        return self.aux.index_of[self.pivot_orig]

    def idx(self, v: int) -> int:
        return self.aux.index_of[v]

    def vprime_count(self, side: frozenset[int]) -> int:
        orig = self.aux.orig_id
        return sum(1 for x in side if orig[x] is not None)

    def good(self, side: frozenset[int]) -> bool:
        return 2 * self.vprime_count(side) <= len(self.vprime)

    def offer(self, v: int, value: Weight, side: frozenset[int]) -> bool:
        """Lower terminal v's estimate to a cut of that value and v-side, if
        the cut is lower; True when the estimate dropped.  No engine step
        calls it (estimates move in ``settle`` and ``pivot_change``); it
        stays because the benchmark's tracer wraps it by name."""
        e = self.table.entries[v]
        if not value < e.value:
            return False
        self._set_witness(e, v, value, side)
        return True

    def _set_witness(self, e: TerminalEstimate, v: int, value: Weight,
                     side: frozenset[int]) -> None:
        if self.idx(v) not in side or self.pivot_idx in side:
            raise EngineError("witness does not separate the terminal from the pivot")
        e.value = value
        e.witness = side

    def settle(self, v: int) -> bool:
        """Turn terminal v's latest cut into a proven estimate; True when the
        cut moved the pivot instead (v is then the pivot).

        ``moves_pivot`` may drop the cut, and otherwise it becomes v's
        done witness."""
        e = self.table.entries.get(v)
        if e is None or e.done:
            return False
        cut = self.latest_cut(v)
        if self.moves_pivot(v, cut):
            return True
        if e.value < cut.value:
            raise EngineError("estimate below a proven minimum")
        self._set_witness(e, v, cut.value, cut.side)
        e.done = True
        return False

    def sweep(self, terminals: Iterable[int]) -> None:
        """Settle each of ``terminals`` in order, skipping the ones already
        covered; a terminal this makes done covers the undone terminals
        inside its witness.  A pivot move does not stop the sweep: the
        terminals after it are settled from the new pivot."""
        entries = self.table.entries
        for v in terminals:
            if v in self.covered:
                continue
            self.settle(v)
            if v in entries and entries[v].done:
                self.cover(v)

    @cached_property
    def aux_solver(self) -> MaxFlowSolver:
        """The engine's one solver over the auxiliary graph, built on first
        use: every solve of the run, stages included, is made on it."""
        return MaxFlowSolver(self.aux)

    def latest_cut(self, v: int) -> CutSide:
        """Latest minimum (pivot, v)-cut in the auxiliary graph: the
        inclusion-minimal side holding terminal v.

        Solves from v toward the pivot on ``aux_solver``, so the residual
        search for the side starts at the (usually low-degree) terminal,
        and afterwards ``aux_solver.sink_side(self.pivot_idx)`` is the
        minimal pivot side."""
        solver = self.aux_solver
        t_idx = self.idx(v)
        val = solver.solve(t_idx, self.pivot_idx)
        return CutSide(side=solver.source_side(t_idx), value=from_scaled(val, self.aux.unit),
                       s=self.pivot_idx, t=t_idx)

    # -- stage machinery -------------------------------------------------------

    def candidates(self, w: int) -> list[int]:
        """Stage w's candidates, in sorted order: the terminals neither done
        nor covered whose estimate e satisfies w < e <= 2w."""
        lo, hi = Weight(w, 0), Weight(2 * w, 0)
        return [
            v for v, e in sorted(self.table.entries.items())
            if not e.done and v not in self.covered and lo < e.value <= hi
        ]

    def run(self) -> EstimateTable:
        if self.config.loop_enabled:
            log_n = math.log2(max(2, self.g.n))
            for j in range(math.floor(log_n / 2), math.ceil(log_n) + 1):
                stage_w(self, 2 ** j)
        self.final_sweep()
        self.report["pivot_changes"] = self.pivot_changes
        self.report["pivot_final"] = self.pivot_orig
        self.report["flow_calls"] = FLOW_CALLS.value - self._flow_start
        self.report["covered"] = len(self.covered)
        if not all(e.done or v in self.covered for v, e in self.table.entries.items()):
            raise EngineError("single-source run left terminals unsettled")
        return self.table

    def final_sweep(self) -> None:
        """Sweep the terminals neither done nor covered on the auxiliary
        graph until none is left: a pivot move can reopen
        terminals the sweep has passed, and drops every cover."""
        flows = FLOW_CALLS.value
        entries = self.table.entries
        guard = 0
        while True:
            undone = [v for v in self.table.terminals()
                      if not entries[v].done and v not in self.covered]
            if not undone:
                break
            guard += 1
            if guard > 4 * len(self.vprime) + 4:
                raise EngineError("pivot changes do not settle")
            self.sweep(undone)
        self.report["final_sweep_solves"] = FLOW_CALLS.value - flows

    def cover(self, v: int) -> None:
        """Mark every undone terminal inside done terminal v's witness as
        covered by v, if that witness is balanced."""
        side = self.table.witness(v)
        if not self.good(side):
            return
        entries = self.table.entries
        orig = self.aux.orig_id
        for x in side:
            u = orig[x]
            if u is not None and u != v and not entries[u].done:
                self.covered.setdefault(u, v)

    def settle_covered(self) -> None:
        """Solve every covered terminal, one flow each, so the
        whole table is done.  A covered terminal's latest cut lies inside
        its coverer's balanced witness, so it never moves the pivot."""
        for u in sorted(self.covered):
            if self.settle(u):
                raise EngineError("a covered terminal's latest cut moved the pivot")
        self.covered.clear()
        self.report["covered"] = 0
        self.report["flow_calls"] = FLOW_CALLS.value - self._flow_start

    # -- pivot rule (overridden by dynamic.DynamicPivotEngine) ------------------

    def moves_pivot(self, v: int, cut: CutSide) -> bool:
        """Called with the latest minimum (pivot, v)-cut before it is
        recorded, right after ``aux_solver``'s solve that found it.  True
        means the cut moved the pivot and must be dropped; a random pivot
        never moves."""
        return False


# -- spec-level operations ----------------------------------------------------


def single_source_mincuts(
    g: Graph,
    g_aux: Graph,
    p: int,
    config: Optional[EngineConfig] = None,
) -> EstimateTable:
    """Latest minimum (p,v)-cut in the auxiliary graph for every terminal.

    Terminals are the auxiliary graph's original vertices; witnesses are
    node sets of it.  All terminals are done on return.
    """
    engine = SingleSourceEngine(g, g_aux, p, config)
    engine.run()
    engine.settle_covered()
    return engine.table


def stage_w(state: SingleSourceEngine, w: int) -> None:
    """One doubling stage of the elimination loop: one sweep of the
    candidates (estimates in (w, 2w]) on the engine's solver, which settles
    each candidate it does not skip with its exact latest cut.  A stage
    with no candidate is skipped.  Whatever a pivot change reopens falls to
    later stages and the final sweep.  The report's ``direct_solves`` counts
    the sweep's flows (the benchmark's tracer sums that key)."""
    srep: dict = {"w": w}
    candidates = state.candidates(w)
    if not candidates:
        srep["skipped"] = True
        state.report["stages"].append(srep)
        return
    srep["candidates"] = len(candidates)
    flows = FLOW_CALLS.value
    splitter_isolating_step(state, w, candidates)
    srep["direct_solves"] = FLOW_CALLS.value - flows
    state.report["stages"].append(srep)


def splitter_isolating_step(
    state: SingleSourceEngine, w: int, candidates: list[int],
) -> None:
    """Isolating cuts with the singleton splitter family: one ``sweep`` of
    the candidates, in the given (sorted) order, on the engine's solver.  A
    lone terminal's isolating cut is its latest cut, so each is one
    ``latest_cut`` solve, which ``settle`` records as in the final sweep.
    The sweep keeps to stage w's window: a pivot move during the sweep can
    reset a later candidate's estimate to its degree, and one that thereby
    exceeds 2w is passed over, for later stages and the final sweep.

    This stands in for Li and Panigrahi's sampled isolating rounds over the
    parts of an expander decomposition, ceil(2 e gamma ln(n) / phi) rounds
    per part (about 250 at n = 64), each costing a whole-graph flow per bit
    of the sampled batch: one solve per candidate is cheaper whenever a part
    holds fewer candidates than that, and then the decomposition decides
    nothing but the order of the solves."""
    bound = Weight(2 * w, 0)
    estimate = state.table.estimate
    state.sweep(v for v in candidates if not bound < estimate(v))
