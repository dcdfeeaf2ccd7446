"""Independent oracles for the solver's layers.

`oracle_value` gives the optimal value of a diagram directly off its temporal
blocks and tables, bypassing the node algebra, the cluster engine, and the
potential baseline, so any of those can be checked against it.  Exponential;
keep diagrams small.

`oracle_order` is the hyperedge-scan min-fill/min-degree loop that
`clusters.find_order` replaced with neighbour-set bookkeeping; the two must
pick the same orders.  `width_of_order` replays a fixed order on the
hyperedges and records the size of each created edge.
"""

import itertools
from typing import Iterable, Sequence

from infdiag.clusters import EliminationOrder, Hypergraph
from infdiag.diagram import InfluenceDiagram


def _leaf(d: InfluenceDiagram, env: dict[int, int]) -> float:
    if d.mode == "prob":
        p = 1.0
        for t in d.cpts.values():
            p *= t.lookup(env)
        return p * sum(u.lookup(env) for u in d.utilities)
    worst = max(((1.0 - t.lookup(env)) for t in d.cpts.values()), default=0.0)
    return max(worst, min(u.lookup(env) for u in d.utilities))


def oracle_value(d: InfluenceDiagram) -> float:
    """max over decisions, expectation (prob) or min (poss) over chance."""
    folds = []
    for i, block in enumerate(d.blocks):
        if i % 2:
            folds.append((max, block))
        else:
            folds.append((sum if d.mode == "prob" else min, block))

    def rec(i: int, env: dict[int, int]) -> float:
        if i == len(folds):
            return _leaf(d, env)
        fold, block = folds[i]
        if not block:
            return rec(i + 1, env)
        ranges = [range(d.size_of(v)) for v in block]
        return fold(rec(i + 1, {**env, **dict(zip(block, a))})
                    for a in itertools.product(*ranges))

    return rec(0, {})


def _fill_count(edges: set[frozenset[int]], created: frozenset[int]) -> int:
    pairs = {(a, b) for e in edges for a in e for b in e if a < b}
    new = 0
    cl = sorted(created)
    for i, a in enumerate(cl):
        for b in cl[i + 1:]:
            if (a, b) not in pairs:
                new += 1
    return new


def _eliminate(edges: set[frozenset[int]], x: int
               ) -> tuple[set[frozenset[int]], frozenset[int]]:
    """Replace the hyperedges holding `x` by their union minus `x`."""
    hits = [e for e in edges if x in e]
    rest = {e for e in edges if x not in e}
    created: frozenset[int] = frozenset()
    if hits:
        created = frozenset().union(*hits) - {x}
        rest.add(created)
    return rest, created


def width_of_order(g: Hypergraph, order: Sequence[int]) -> EliminationOrder:
    """Replay a fixed order and record the created-edge sizes."""
    edges = set(g.edges)
    sizes = []
    for x in order:
        edges, created = _eliminate(edges, x)
        sizes.append(len(created))
    return EliminationOrder(tuple(order), tuple(sizes), max(sizes, default=0))


def oracle_order(g: Hypergraph, elim: Iterable[int],
                 heuristic: str = "min-fill") -> EliminationOrder:
    """Greedy order that rescans every hyperedge for every candidate."""
    edges = set(g.edges)
    order: list[int] = []
    sizes: list[int] = []
    remaining = sorted(set(elim))
    while remaining:
        best = None
        for x in remaining:  # ascending scan: ties keep the lowest id
            hits = [e for e in edges if x in e]
            created = frozenset().union(*hits) - {x} if hits else frozenset()
            if heuristic == "min-degree":
                score = len(created)
            else:
                score = _fill_count(edges, created)
            if best is None or score < best[0]:
                best = (score, x, created)
        _, x, created = best
        edges, _ = _eliminate(edges, x)
        order.append(x)
        sizes.append(len(created))
        remaining.remove(x)
    return EliminationOrder(tuple(order), tuple(sizes), max(sizes, default=0))
