"""Single-source minimum cuts from a pivot to every terminal of an
auxiliary graph.

Every exact cut the engines record comes from one method,
``SingleSourceEngine.latest_cut``: one max-flow from the terminal toward the
pivot, whose residual reach from the terminal is the inclusion-minimal
terminal side, i.e. the latest minimum cut with respect to the pivot.
Latest cuts are unique, so this is the witness any exact method must
return.  Every proven fact about a terminal comes from one other method,
``SingleSourceEngine.settle``: a latest cut below the solver graph's
exactness cap is the terminal's done witness, and one at or above it proves
the floor.  The default profile (elimination loop off) settles every
terminal with one uncapped such solve; all of them share a single solver
over the work graph.

With the loop on, the engine first walks doubling stages.  Stage w works on
a sparsifier preserving all cuts below 2w.  It isolates the high-degree
terminals (cuts containing a single high-degree node are caught here), then
offers every candidate (an undone terminal whose estimate exceeds w) to
isolating cuts on its own, in sorted order (``splitter_isolating_step``).
``stage_w`` builds the stage graph and one solver over it, and every step
below it takes that solver, not the graph.  Every isolating batch goes
through ``offer_isolating_cuts``; a lone terminal's isolating cut is its
latest cut in the stage graph, so it is one ``latest_cut`` solve on the
stage solver, and ``settle`` records it: below 2w the terminal is done, at
or above 2w its floor is 2w.  A stage graph that keeps every edge is the
work graph; the stage then solves on the work solver, and a lone solve
settles its terminal at any value.  The paper's expander decomposition only
chose which candidates to offer together; with every candidate offered
alone it saves no flow, and the engine does not run it.  Estimates only
decrease, every estimate is the exact weight of its witness cut, and a
terminal is marked done only by ``settle``, when a solve makes its
estimate minimal or the stage-end claim finds that a proven floor meets it;
anything left unproven is settled uncapped at the end.

That final sweep solves the undone terminals in sorted order and skips the
ones a solve of this sweep has already *covered*: when terminal v settles
with a balanced latest cut S_v, every undone terminal u inside S_v is
covered by v (``SingleSourceEngine.covered``), and u's own solve is
skipped.  Covered is not done: u's estimate proves nothing.  The lemma that
makes the skip safe is Gomory and Hu's uncrossing argument: L_u ∩ S_v is a
minimum (pivot, u)-cut, so u's latest cut L_u is a subset of S_v, hence
balanced and never a maximal cut of a split.  A builder therefore needs
only the done terminals' cuts, and counts a covered terminal by its
coverer's side.  ``run`` leaves covered terminals unsolved;
``settle_covered`` solves them, one flow each, for the public
``single_source_mincuts``, whose table is entirely done.

``SingleSourceEngine`` is the randomized engine: the builder draws the
pivot at random and passes the plain auxiliary graph as the work graph.  No
perturbation is needed there: a latest cut is unique in any graph, and the
latest cuts from one pivot are pairwise disjoint or nested (the uncrossing
argument above), so the cuts a split chooses never cross.  The public
``single_source_mincuts`` also takes a perturbed work graph, whose minimum
cuts are unique; its stage graphs then keep the perturbation.  The
deterministic engine, ``DynamicPivotEngine`` in dynamic.py, subclasses it
and overrides the pivot-rule hooks grouped at the end of the class: the
stage graph, and what happens when a solved cut is unbalanced (the pivot
moves).  Such a cut's solve ends with the pivot as its sink, so its
residual graph already holds the minimal pivot side the move needs, and a
move costs no flow.  Both engines start their stages at
w = 2^floor(log2(n)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .flow import FLOW_CALLS, CutSide, MaxFlowSolver
from .graph import Graph, GraphError
from .isolating import isolating_cuts
from .sparsify import perturbed_sparsifier
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
    no doubling stage runs, and every terminal is settled by one uncapped
    latest-cut solve, which is unconditionally exact and fastest at desk
    scale.  ``loop_enabled`` runs the doubling stages (the easy step, then
    one solve per candidate on the stage solver), from
    w = 2^floor(log2(n)/2); ``stage_from_zero`` starts them at w = 1, which
    costs flows and is not needed for exactness, and does nothing without
    the loop.  ``seed`` has no effect: no engine step draws random numbers
    (the randomized builder takes its own seed).  The field stays because
    the benchmark constructs it.
    """

    loop_enabled: bool = False
    stage_from_zero: bool = False
    seed: Optional[int] = None


@dataclass
class TerminalEstimate:
    value: Weight                 # c'(v): exact weight of the witness cut
    witness: frozenset[int]       # v-side, in auxiliary-graph node indices
    done: bool = False            # proven c'(v) = lambda(pivot, v)
    floor: Weight = Weight(0, 0)  # proven lower bound on lambda(pivot, v)


class EstimateTable:
    """Per-terminal connectivity estimates with witness cuts."""

    def __init__(self, pivot: int):
        self.pivot = pivot
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
        work: Graph,
        pivot: int,
        config: Optional[EngineConfig] = None,
    ):
        """g: the input graph; aux: an auxiliary (contracted) graph of it;
        work: the graph cuts are measured in (aux itself in both builders,
        or a perturbation of it); pivot: an original vertex id in aux."""
        self.g = g
        self.aux = aux
        self.work = work
        self.config = config or EngineConfig()
        if pivot not in aux.index_of:
            raise GraphError("pivot is not an original node of the auxiliary graph")
        self.pivot_orig = pivot
        self.vprime = sorted(aux.index_of)
        self.table = EstimateTable(pivot)
        for v in self.vprime:
            if v == pivot:
                continue
            vi = aux.index_of[v]
            self.table.entries[v] = TerminalEstimate(
                value=work.degree_weight(vi),
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

    def offer(self, v: int, value: Weight, side: frozenset[int],
              cap: Optional[Weight] = None) -> bool:
        """Lower terminal v's estimate to a cut of that value and v-side, if
        the cut is lower and (given ``cap``, the stage's exactness boundary)
        below the cap; True when the estimate dropped."""
        e = self.table.entries[v]
        if not value < e.value or (cap is not None and not value < cap):
            return False
        self._set_witness(e, v, value, side)
        return True

    def _set_witness(self, e: TerminalEstimate, v: int, value: Weight,
                     side: frozenset[int]) -> None:
        if self.idx(v) not in side or self.pivot_idx in side:
            raise EngineError("witness does not separate the terminal from the pivot")
        e.value = value
        e.witness = side

    def unsettled(self, v: int, cap: Optional[Weight] = None) -> bool:
        """True when terminal v is not done and, given ``cap``, its floor is
        still below the cap, so a solve below the cap can teach something."""
        e = self.table.entries.get(v)
        return e is not None and not e.done and (cap is None or e.floor < cap)

    def settle(self, v: int, solver: Optional[MaxFlowSolver] = None,
               cap: Optional[Weight] = None, cut: Optional[CutSide] = None) -> bool:
        """Turn terminal v's latest cut into a proven estimate; True when the
        cut moved the pivot instead (v is then the pivot).

        Skips v unless it is ``unsettled`` below ``cap``.  Otherwise solves
        the latest cut on ``solver`` (default: the work graph's), capped at
        ``cap``, or takes ``cut``, which is the latest cut of the solver's
        last solve or a balanced witness.  ``cap`` is where the solver's
        graph stops being exact: a cut that reaches it only proves the floor
        ``cap`` (an unbalanced one goes to ``isolating_moves_pivot``).  A cut
        below it is the minimum cut; ``moves_pivot`` may drop it, and
        otherwise it becomes v's done witness."""
        if not self.unsettled(v, cap):
            return False
        if solver is None:
            solver = self.work_solver
        if cut is None:
            cut = self.latest_cut(v, solver, cap)
        e = self.table.entries[v]
        if cut is None or (cap is not None and not cut.value < cap):
            e.floor = cap
            return cut is not None and self.isolating_moves_pivot(v, cut)
        if self.moves_pivot(v, cut, solver):
            return True
        if e.value < cut.value:
            raise EngineError("estimate below a proven minimum")
        self._set_witness(e, v, cut.value, cut.side)
        e.floor = cut.value
        e.done = True
        return False

    @cached_property
    def work_solver(self) -> MaxFlowSolver:
        """The engine's one solver over the work graph, built on first use."""
        return MaxFlowSolver(self.work)

    def latest_cut(self, v: int, solver: Optional[MaxFlowSolver] = None,
                   cutoff: Optional[Weight] = None) -> Optional[CutSide]:
        """Latest minimum (pivot, v)-cut: the inclusion-minimal side holding
        terminal v, or None once the value reaches ``cutoff``.

        Solves from v toward the pivot on ``solver`` (default: the work
        graph's), so the residual search for the side starts at the
        (usually low-degree) terminal, and afterwards
        ``solver.sink_side(self.pivot_idx)`` is the minimal pivot side."""
        if solver is None:
            solver = self.work_solver
        unit = solver.g.unit
        cap = None if cutoff is None else cutoff.scaled(unit)
        t_idx = self.idx(v)
        val = solver.solve(t_idx, self.pivot_idx, cutoff=cap)
        if cap is not None and val >= cap:
            return None
        return CutSide(side=solver.source_side(t_idx), value=from_scaled(val, unit),
                       s=self.pivot_idx, t=t_idx)

    # -- stage machinery -------------------------------------------------------

    def candidates(self, w: int) -> list[int]:
        thr = Weight(w, 0)
        return [
            v for v in self.table.terminals()
            if not self.table.entries[v].done and self.table.entries[v].value > thr
        ]

    def stage_pending(self, w: int) -> bool:
        lim = Weight(2 * w, 0)
        return any(
            not e.done and e.floor < lim and e.value > Weight(w, 0)
            for e in self.table.entries.values()
        )

    def run(self) -> EstimateTable:
        if self.config.loop_enabled:
            log_n = math.log2(max(2, self.g.n))
            j_lo = 0 if self.config.stage_from_zero else math.floor(log_n / 2)
            for j in range(j_lo, math.ceil(log_n) + 1):
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
        """Settle every terminal neither done nor covered with an uncapped
        solve, in sorted order; a balanced witness it finds covers the undone
        terminals inside it.

        When an unbalanced latest cut moves the pivot, the sweep restarts
        over whatever the change left undone or uncovered."""
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
            for v in undone:
                if v in self.covered:
                    continue
                if self.settle(v):
                    break
                self.cover(v)
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
        """Solve every covered terminal, one uncapped flow each, so the
        whole table is done.  A covered terminal's latest cut lies inside
        its coverer's balanced witness, so it never moves the pivot."""
        for u in sorted(self.covered):
            if self.settle(u):
                raise EngineError("a covered terminal's latest cut moved the pivot")
        self.covered.clear()
        self.report["covered"] = 0
        self.report["flow_calls"] = FLOW_CALLS.value - self._flow_start

    # -- pivot rule (overridden by dynamic.DynamicPivotEngine) ------------------

    def stage_graph(self, w: int) -> Graph:
        """Stage w's graph: keeps every cut below 2w exact, and a perturbed
        work graph's perturbation on the edges it keeps whole."""
        return perturbed_sparsifier(self.aux, self.work, 2 * w)

    def moves_pivot(self, v: int, cut: CutSide, solver: MaxFlowSolver) -> bool:
        """Called with the latest minimum (pivot, v)-cut before it is
        recorded, and the solver whose last solve found it.  True means the
        cut moved the pivot and must be dropped; a random pivot never
        moves."""
        return False

    def isolating_moves_pivot(self, v: int, cut: CutSide) -> bool:
        """As ``moves_pivot``, for a cut not proven minimum: a batch's
        isolating cut, or a lone one at or above the stage bound."""
        return False


# -- spec-level operations ----------------------------------------------------


def single_source_mincuts(
    g: Graph,
    g_aux: Graph,
    g_pert: Graph,
    p: int,
    config: Optional[EngineConfig] = None,
) -> EstimateTable:
    """Minimum (p,v)-cut in the perturbed auxiliary graph for every terminal.

    Terminals are the auxiliary graph's original vertices; witnesses are
    node sets of the perturbed graph.  All terminals are done on return.
    """
    engine = SingleSourceEngine(g, g_aux, g_pert, p, config)
    engine.run()
    engine.settle_covered()
    return engine.table


def stage_w(state: SingleSourceEngine, w: int) -> None:
    """One doubling stage of the elimination loop: the easy step, then one
    pass that offers every candidate alone on the stage solver, which
    settles each candidate whose connectivity is below 2w and proves the
    floor 2w for the rest; then the stage-end claim.  Whatever a pivot
    change reopens falls to the final sweep.  The report's ``direct_solves``
    counts the pass's flows (the benchmark's tracer sums that key)."""
    srep: dict = {"w": w}
    if not state.stage_pending(w):
        srep["skipped"] = True
        state.report["stages"].append(srep)
        return
    gw = state.stage_graph(w)
    srep["gw_edges"] = gw.edge_instances
    # a stage graph that keeps every edge instance is the work graph, whose
    # solves are exact at any value: the stage then runs on the work solver,
    # and ``offer_isolating_cuts`` settles on it uncapped
    if srep["gw_edges"] == state.work.edge_instances:
        solver = state.work_solver
    else:
        solver = MaxFlowSolver(gw)
    srep["easy_updates"] = easy_cuts_step(state, w, solver)

    live = set(state.candidates(w))
    srep["candidates"] = len(live)
    flows = FLOW_CALLS.value
    srep["isolating"] = splitter_isolating_step(state, w, solver, live)
    srep["direct_solves"] = FLOW_CALLS.value - flows
    # stage-end claim: an undone terminal whose proven floor meets its
    # estimate is settled with its current witness.  The witness is a real
    # cut whose weight equals a proven lower bound, so it is a minimum cut
    # whatever stage the run started at.
    lim = Weight(2 * w, 0)
    for v in state.table.terminals():
        e = state.table.entries[v]
        if e.value < lim and not e.floor < e.value:
            state.settle(v, solver, lim,
                         CutSide(side=e.witness, value=e.value, s=state.pivot_idx, t=state.idx(v)))
    state.report["stages"].append(srep)


def offer_isolating_cuts(state: SingleSourceEngine, w: int, solver: MaxFlowSolver,
                         batch: list[int], live: Optional[set[int]] = None) -> int:
    """Isolating cuts in the stage graph (``solver.g``) for a batch of
    terminals, each offered below the stage bound 2w unless it moves the
    pivot; returns the number of estimates improved.  A terminal that
    becomes the pivot leaves the ``live`` candidates.

    A lone terminal's isolating cut is its latest minimum cut from the
    pivot, so it is one uncapped ``latest_cut`` solve on the stage solver,
    and ``settle`` records what it proves: below 2w the stage graph keeps
    it exact, at or above 2w it proves the floor 2w.  A solver over the
    work graph itself (a stage graph that kept every edge) is exact at any
    value, so there is no cap."""
    if not batch:
        return 0
    cap = None if solver.g is state.work else Weight(2 * w, 0)
    if len(batch) == 1:
        v = batch[0]
        if not state.unsettled(v, cap):
            return 0
        before = state.table.estimate(v)
        if state.settle(v, solver, cap, state.latest_cut(v, solver)):
            if live is not None:
                live.discard(v)
            return 0
        return int(state.table.estimate(v) < before)
    cuts = isolating_cuts(solver.g, state.pivot_idx, {state.idx(v) for v in batch}).cuts
    updates = 0
    for v in batch:
        cut = cuts.get(state.idx(v))
        if cut is None or v not in state.table.entries:
            continue
        if state.isolating_moves_pivot(v, cut):
            if live is not None:
                live.discard(v)
            continue
        updates += state.offer(v, cut.value, cut.side, cap)
    return updates


def easy_cuts_step(state: SingleSourceEngine, w: int, solver: MaxFlowSolver) -> int:
    """Isolating cuts over all degree >= w terminals; returns the number of
    estimates improved.

    Any terminal whose latest minimum cut from the pivot contains exactly
    one high-degree node is settled exactly here (its estimate, not its
    done flag: minimality is proven later by a direct solve)."""
    high = [
        v for v in state.table.terminals()
        if state.g.degree(v) >= w
    ]
    return offer_isolating_cuts(state, w, solver, high)


def splitter_isolating_step(
    state: SingleSourceEngine, w: int, solver: MaxFlowSolver, live: set[int],
) -> dict:
    """Isolating cuts with the singleton splitter family: every live
    candidate, in sorted order, is offered on its own, so its isolating cut
    is its latest cut on the stage solver; ``live`` ends empty.

    This stands in for Li and Panigrahi's sampled isolating rounds over the
    parts of an expander decomposition, ceil(2 e gamma ln(n) / phi) rounds
    per part (about 250 at n = 64), each costing a whole-stage-graph flow
    per bit of the sampled batch: one solve per candidate is cheaper
    whenever a part holds fewer candidates than that, and then the
    decomposition decides nothing but the order of the solves."""
    cand = sorted(live)
    updates = sum(offer_isolating_cuts(state, w, solver, [v], live) for v in cand)
    live.clear()
    return {"offered": len(cand), "updates": updates}
