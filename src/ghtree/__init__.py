"""Cut-equivalent (Gomory-Hu) trees for unweighted graphs.

Exact minimum s,t-cuts for all pairs at once: classical builders, a
randomized strategy (partial-tree bootstrap, random pivots, and optionally
doubling stages that sweep each estimate window with one isolating solve
per candidate), and a fully deterministic variant built on a dynamic
pivot; both builders split along latest cuts, which need no perturbation
to be unique.  Every builder takes any loop-free multigraph, connected or
not.
The demand-weighted expander decomposition stays importable, but no
builder runs it.
"""

from .weights import Weight
from .graph import Graph, GraphError, auxiliary_graph, parse_graph, emit_graph
from .flow import (
    FLOW_CALLS,
    CutSide,
    MaxFlowSolver,
    certify,
    latest_min_cut,
    max_flow_min_cut,
)
from .sparsify import ni_sparsify, perturb, perturbed_sparsifier
from .isolating import isolating_cuts
from .expander import ExpanderPart, decompose_with_demands
from .partition import (
    GomoryHuTree,
    PartitionTree,
    TreeError,
    gh_refine,
    parse_tree,
    to_node_tree,
)
from .classic import classic_gomory_hu, gusfield, k_partial_tree
from .single_source import (
    EngineConfig,
    EngineError,
    EstimateTable,
    SingleSourceEngine,
    single_source_mincuts,
    stage_w,
    splitter_isolating_step,
)
from .dynamic import DynamicPivotEngine, pivot_change, single_source_dynamic_pivot
from .build import (
    LaminarityError,
    RandomizedAbort,
    build_deterministic,
    build_randomized,
    is_good_pivot,
)
from .analysis import (
    CutMembershipTree,
    count_non_easy_bags,
    cut_membership_tree,
    is_easy_bag,
    w_large_subtree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
