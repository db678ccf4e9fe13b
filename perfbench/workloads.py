"""Benchmark corpora.

Each workload is a fixed list of graphs plus the engine configuration every
builder gets.  The graphs come from a recipe and a corpus seed (default 42),
not from the run's ``--seed``: builder cost on graphs with planted cuts swings
by 2-3x between graph seeds (see rationale.json), far more than any change
the benchmark is meant to resolve.  The run's seed picks the pairs that
are checked against direct max-flows instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ghtree import EngineConfig, Graph, families

CORPUS_SEED = 42


def planted_partition(blocks: int, size: int, p_in: float, p_out: float,
                      seed: int, tries: int = 200) -> Graph:
    """Connected graph of ``blocks`` dense groups of ``size`` nodes.

    Node pairs inside a group are joined with probability p_in, pairs across
    groups with p_out, so the sparse inter-group cuts are real minimum cuts
    that are not degree cuts.
    """
    rng = random.Random(seed)
    n = blocks * size
    for _ in range(tries):
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < (p_in if u // size == v // size else p_out)
        ]
        g = Graph.from_edges(n, pairs)
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected planted partition after {tries} tries")


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: Callable[[int], list[tuple[str, Graph]]]   # corpus seed -> labelled graphs
    loop_enabled: bool = False

    def config(self, corpus_seed: int) -> EngineConfig:
        # a fresh object per build: EngineConfig is mutable
        return EngineConfig(loop_enabled=self.loop_enabled, seed=corpus_seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("er_degree", lambda s: [
            ("er_200_0.045", families.er_connected(200, 0.045, seed=s)),
        ]),
        Workload("cut_structure", lambda s: [
            ("clique_chain_8x16", families.clique_chain([16] * 8)),
            ("planted_5x24", planted_partition(5, 24, 0.5, 0.01, seed=s)),
        ]),
        Workload("elimination_loop", lambda s: [
            ("planted_4x16", planted_partition(4, 16, 0.5, 0.03, seed=s)),
        ], loop_enabled=True),
    )
}
