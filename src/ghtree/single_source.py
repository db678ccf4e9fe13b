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
over the auxiliary graph.

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
sweeps the terminals neither done nor covered, uncapped, until none is
left; ``settle_covered`` then solves the covered ones, one flow each, for
the public ``single_source_mincuts``, whose table is entirely done.

With the loop on, the engine first walks doubling stages from
w = 2^floor(log2(n)/2).  Stage w works on a Nagamochi-Ibaraki sparsifier,
which keeps every cut below 2w exact and every other cut at 2w or more.
``stage_w`` builds the stage graph and one solver over it, and its pass
(``splitter_isolating_step``) sweeps the candidates (the terminals
neither done nor covered whose estimate exceeds w and whose floor is
below 2w) on that solver, capped at 2w.  A lone terminal's isolating cut
is its latest cut in the stage graph, so each candidate is one
``latest_cut`` solve: below 2w it is the latest cut in the auxiliary graph
too, so the terminal is done and covers as in the final sweep; at or above
2w it proves only the floor 2w.  A stage graph that keeps every edge is
the auxiliary graph; the stage then sweeps on the engine's own solver,
uncapped.  The paper's batch isolating cuts and expander decomposition
only chose which candidates to solve together; with every candidate
solved alone they save no flow, and the engine runs neither.  Estimates
only decrease, every estimate is the exact weight of its witness cut, and
a terminal is marked done only by ``settle``, when a solve makes its
estimate minimal or the stage-end claim finds that a proven floor meets
it.

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
from typing import Optional

from .flow import FLOW_CALLS, CutSide, MaxFlowSolver
from .graph import Graph, GraphError
from .sparsify import ni_sparsify
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
    scale.  ``loop_enabled`` runs the doubling stages from
    w = 2^floor(log2(n)/2) before the final sweep: each sweeps its
    candidates on the stage solver, one solve per candidate not yet
    covered.  ``seed`` has no effect: no engine step draws random numbers
    (the randomized builder takes its own seed).  The field stays because
    the benchmark constructs it.
    """

    loop_enabled: bool = False
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
        self.table = EstimateTable(pivot)
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

    def settle(self, v: int, solver: Optional[MaxFlowSolver] = None,
               cap: Optional[Weight] = None, cut: Optional[CutSide] = None) -> bool:
        """Turn terminal v's latest cut into a proven estimate; True when the
        cut moved the pivot instead (v is then the pivot).

        Skips v unless it is an undone terminal whose floor is below
        ``cap``, so that a solve below the cap can teach something.
        Otherwise solves the latest cut on ``solver`` (default: the
        auxiliary graph's), or takes ``cut``, a witness already recorded for
        v (the stage-end claim).  ``cap`` is where the solver's graph stops
        being exact: a cut that reaches it only proves the floor ``cap``.  A
        cut below it is the minimum cut; ``moves_pivot`` may drop it, and
        otherwise it becomes v's done witness."""
        e = self.table.entries.get(v)
        if e is None or e.done or (cap is not None and not e.floor < cap):
            return False
        if solver is None:
            solver = self.aux_solver
        if cut is None:
            cut = self.latest_cut(v, solver)
        if cap is not None and not cut.value < cap:
            e.floor = cap
            return False
        if self.moves_pivot(v, cut, solver):
            return True
        if e.value < cut.value:
            raise EngineError("estimate below a proven minimum")
        self._set_witness(e, v, cut.value, cut.side)
        e.floor = cut.value
        e.done = True
        return False

    def sweep(self, terminals: list[int], solver: Optional[MaxFlowSolver] = None,
              cap: Optional[Weight] = None) -> None:
        """Settle each of ``terminals`` in order on ``solver`` (default: the
        auxiliary graph's) below ``cap`` (see ``settle``), skipping the ones
        already covered; a terminal this makes done covers the undone
        terminals inside its witness.  A pivot move does not stop the
        sweep: the terminals after it are settled from the new pivot."""
        entries = self.table.entries
        for v in terminals:
            if v in self.covered:
                continue
            self.settle(v, solver, cap)
            if v in entries and entries[v].done:
                self.cover(v)

    @cached_property
    def aux_solver(self) -> MaxFlowSolver:
        """The engine's one solver over the auxiliary graph, built on first
        use."""
        return MaxFlowSolver(self.aux)

    def latest_cut(self, v: int, solver: Optional[MaxFlowSolver] = None) -> CutSide:
        """Latest minimum (pivot, v)-cut in ``solver.g``: the
        inclusion-minimal side holding terminal v.

        Solves from v toward the pivot on ``solver`` (default: the auxiliary
        graph's), so the residual search for the side starts at the
        (usually low-degree) terminal, and afterwards
        ``solver.sink_side(self.pivot_idx)`` is the minimal pivot side."""
        if solver is None:
            solver = self.aux_solver
        t_idx = self.idx(v)
        val = solver.solve(t_idx, self.pivot_idx)
        return CutSide(side=solver.source_side(t_idx), value=from_scaled(val, solver.g.unit),
                       s=self.pivot_idx, t=t_idx)

    # -- stage machinery -------------------------------------------------------

    def candidates(self, w: int) -> list[int]:
        """Stage w's candidates, in sorted order: the terminals neither done
        nor covered whose estimate exceeds w and whose floor is below 2w."""
        thr, lim = Weight(w, 0), Weight(2 * w, 0)
        return [
            v for v, e in sorted(self.table.entries.items())
            if not e.done and v not in self.covered and e.value > thr and e.floor < lim
        ]

    def stage_graph(self, w: int) -> Graph:
        """Stage w's graph: a sparsifier that keeps every cut below 2w
        exact."""
        return ni_sparsify(self.aux, 2 * w)

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
        """Sweep the terminals neither done nor covered, uncapped on the
        auxiliary graph, until none is left: a pivot move can reopen
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

    def moves_pivot(self, v: int, cut: CutSide, solver: MaxFlowSolver) -> bool:
        """Called with the latest minimum (pivot, v)-cut before it is
        recorded, and the solver whose last solve found it.  True means the
        cut moved the pivot and must be dropped; a random pivot never
        moves."""
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
    candidates on the stage solver, which settles each candidate whose
    connectivity is below 2w and proves the floor 2w for the rest; then the
    stage-end claim.  A stage with no candidate is skipped.  Whatever a
    pivot change reopens falls to later stages and the final sweep.  The
    report's ``direct_solves`` counts the sweep's flows (the benchmark's
    tracer sums that key)."""
    srep: dict = {"w": w}
    candidates = state.candidates(w)
    if not candidates:
        srep["skipped"] = True
        state.report["stages"].append(srep)
        return
    gw = state.stage_graph(w)
    srep["gw_edges"] = gw.edge_instances
    # a stage graph that keeps every edge instance is the auxiliary graph,
    # whose solves are exact at any value: the stage then runs on the
    # engine's own solver, and the sweep settles on it uncapped
    if srep["gw_edges"] == state.aux.edge_instances:
        solver = state.aux_solver
    else:
        solver = MaxFlowSolver(gw)
    srep["candidates"] = len(candidates)
    flows = FLOW_CALLS.value
    splitter_isolating_step(state, w, solver, candidates)
    srep["direct_solves"] = FLOW_CALLS.value - flows
    # stage-end claim: an undone terminal whose proven floor meets its
    # estimate is settled with its current witness.  The witness is a real
    # cut whose weight equals a proven lower bound, so it is a minimum cut.
    lim = Weight(2 * w, 0)
    for v in state.table.terminals():
        e = state.table.entries[v]
        if e.value < lim and not e.floor < e.value:
            state.settle(v, solver, lim,
                         CutSide(side=e.witness, value=e.value, s=state.pivot_idx, t=state.idx(v)))
    state.report["stages"].append(srep)


def splitter_isolating_step(
    state: SingleSourceEngine, w: int, solver: MaxFlowSolver, candidates: list[int],
) -> None:
    """Isolating cuts with the singleton splitter family: one ``sweep`` of
    the candidates, in the given (sorted) order, on the stage solver.  A
    lone terminal's isolating cut is its latest cut in the stage graph
    (``solver.g``), so each is one ``latest_cut`` solve, and ``settle``
    records what it proves: below the stage bound 2w the stage graph keeps
    it exact (Nagamochi-Ibaraki), so it is the terminal's latest cut in the
    auxiliary graph and may cover as in the final sweep; at or above 2w it
    proves only the floor 2w.  A solver over the auxiliary graph itself (a
    stage graph that kept every edge) is exact at any value, so there is no
    cap.

    This stands in for Li and Panigrahi's sampled isolating rounds over the
    parts of an expander decomposition, ceil(2 e gamma ln(n) / phi) rounds
    per part (about 250 at n = 64), each costing a whole-stage-graph flow
    per bit of the sampled batch: one solve per candidate is cheaper
    whenever a part holds fewer candidates than that, and then the
    decomposition decides nothing but the order of the solves."""
    cap = None if solver.g is state.aux else Weight(2 * w, 0)
    state.sweep(candidates, solver, cap)
