import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ghtree import dynamic, families
from ghtree.graph import Graph


def atlas_connected(max_nodes: int = 7):
    """All connected graphs with up to max_nodes nodes (one per isomorphism
    class), as package graphs."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or n > max_nodes:
            continue
        if n > 1 and not nx.is_connected(G):
            continue
        out.append(Graph.from_edges(n, [tuple(sorted(e)) for e in G.edges()]))
    return out


def designed_small():
    """Hand-shaped graphs up to 12 nodes, the n<=12 exhaustive-check corpus."""
    gs = [
        families.path(2), families.path(5), families.path(8),
        families.cycle(4), families.cycle(6), families.cycle(9),
        families.star(5), families.star(9),
        families.complete(4), families.complete(5), families.complete(6),
        families.double_star(4, 5), families.double_star(2, 8),
        families.dumbbell(4), families.dumbbell(5), families.dumbbell(6, bridges=2),
        families.clique_chain([4, 4, 4]), families.clique_chain([3, 4, 3]),
    ]
    rng = random.Random(20240917)
    for n in (8, 9, 10, 11, 12):
        for p in (0.3, 0.6):
            gs.append(families.er_connected(n, p, seed=rng.randrange(2 ** 32)))
    return [g for g in gs if g.n <= 12]


def medium_random(seeded: int = 1):
    """Connected G(n,p) for n in 8..40, p in {0.2, 0.5, 0.8}."""
    out = []
    rng = random.Random(seeded)
    for n in range(8, 41):
        for p in (0.2, 0.5, 0.8):
            out.append((n, p, families.er_connected(n, p, seed=rng.randrange(2 ** 32))))
    return out


@pytest.fixture(scope="session")
def atlas7():
    return atlas_connected(7)


@pytest.fixture(scope="session")
def small_corpus():
    return designed_small()


@pytest.fixture(scope="session")
def medium_corpus():
    return medium_random()


@pytest.fixture
def pivot_change_events(monkeypatch):
    """Every pivot change made during the test, as a dict with the old and
    new pivot and the estimate table (value, witness, done per terminal)
    before and after it.  Recorded by wrapping ``ghtree.dynamic.pivot_change``,
    which the engine looks up as a module global."""
    events = []
    change = dynamic.pivot_change

    def snapshot(state):
        return {v: (e.value, e.witness, e.done) for v, e in state.table.entries.items()}

    def recording(state, q, s_pq, p_side):
        event = {"old": state.pivot_orig, "new": q, "before": snapshot(state)}
        change(state, q, s_pq, p_side)
        event["after"] = snapshot(state)
        events.append(event)

    monkeypatch.setattr(dynamic, "pivot_change", recording)
    return events
