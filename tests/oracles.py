"""Independent oracles for the solver's layers.

`oracle_value` gives the optimal value of a diagram directly off its temporal
blocks and tables, bypassing the node algebra, the cluster engine, and the
potential baseline, so any of those can be checked against it.  Exponential;
keep diagrams small.

`oracle_evaluate` is the cluster engine's message pass written with
`ScopedTable` operations: a pairwise `combine` fold and `marginalize` per
cluster, every message kept.  `solve.evaluate` runs the same arithmetic on
bare arrays and must match it bit for bit, op counts included.

`oracle_argmax` walks the rows of a table one value at a time, the way
`factors.argmax_marginalize` must see them: the max, the lowest attaining
value and every attaining value, per assignment of the other variables.

`oracle_order` is the hyperedge-scan min-fill/min-degree loop that
`clusters.find_order` replaced with neighbour-set bookkeeping; the two must
pick the same orders.  `width_of_order` replays a fixed order on the
hyperedges and records the size of each created edge.

`oracle_acyclic` runs a three-colour DFS over the full parent graph, decision
parents included.  `diagram.validate` reads only table scopes and ORDER
positions to find cycles, and must agree with it on every diagram.

`with_extra_parents` adds random parents to a diagram's tables, which
`random_id` never does; the result may be cyclic, so pair it with
`oracle_acyclic`.

`oracle_numbers` checks a diagram's numbers one table at a time, the way
`parse` checked them before it screened every table in one batch; `parse`
must raise the same error, with the same message and line.
"""

import dataclasses
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from infdiag.clusters import EliminationOrder, Hypergraph, MCDag
from infdiag.diagram import (NORMALIZATION_TOL, InfluenceDiagram, NormalizationError,
                             ValidationError)
from infdiag.factors import Op, OpCounter, ScopedTable, combine, identity, marginalize


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


def oracle_evaluate(m: MCDag, sizes: Sequence[int], counter: OpCounter
                    ) -> tuple[float, dict[int, ScopedTable]]:
    """The MEU and the combined table of every max-eliminating cluster."""
    messages: dict[int, ScopedTable] = {}
    tables: dict[int, ScopedTable] = {}
    for c in m.clusters:
        marg, comb = c.ops
        parts = list(c.psi) + [messages[s] for s in c.sons]
        if parts:
            combined = parts[0]
            for t in parts[1:]:
                combined = combine(combined, t, comb, counter)
        else:
            unit = c.ops in ((Op.MIN, Op.MAX), (Op.MAX, Op.MIN))
            combined = ScopedTable.scalar(identity(comb, unit_interval=unit))
        if marg is Op.MAX and c.elim:
            tables[c.id] = combined
        present = [v for v in c.elim if v in combined.scope]
        absent = [v for v in c.elim if v not in combined.scope]
        out = marginalize(combined, present, marg, counter)
        if absent and marg is Op.SUM:
            scale = 1.0
            for v in absent:
                scale *= sizes[v]
            out = combine(out, ScopedTable.scalar(scale), Op.TIMES, counter)
        messages[c.id] = out
    return float(messages[m.root].values[0]), tables


def oracle_argmax(scope: tuple[int, ...], arr: np.ndarray, var: int
                  ) -> tuple[tuple[int, ...], list[float], list[int], list[tuple[int, ...]]]:
    """Kept scope, then per kept assignment (last variable fastest) the max
    over `var`, the lowest value attaining it and all values attaining it."""
    axis = scope.index(var)
    keep = scope[:axis] + scope[axis + 1:]
    kept_sizes = arr.shape[:axis] + arr.shape[axis + 1:]
    best, lowest, attaining = [], [], []
    for ctx in itertools.product(*(range(s) for s in kept_sizes)):
        row = [float(arr[ctx[:axis] + (j,) + ctx[axis:]]) for j in range(arr.shape[axis])]
        top = row[0]
        for v in row[1:]:
            if v > top:
                top = v
        hits = tuple(j for j, v in enumerate(row) if v == top)
        best.append(top)
        lowest.append(hits[0])
        attaining.append(hits)
    return keep, best, lowest, attaining


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


def oracle_acyclic(d: InfluenceDiagram) -> bool:
    """Whether `d.parents`, read as edges parent -> child, has no cycle."""
    n = len(d.variables)
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for root in range(n):
        if color[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, i = stack[-1]
            if i < len(d.parents[node]):
                stack[-1] = (node, i + 1)
                p = d.parents[node][i]
                if color[p] == 1:
                    return False
                if color[p] == 0:
                    color[p] = 1
                    stack.append((p, 0))
            else:
                color[node] = 2
                stack.pop()
    return True


def with_extra_parents(d: InfluenceDiagram, rng: np.random.Generator) -> InfluenceDiagram:
    """`d` where each table, with odds 0.3, gains one or two random extra
    parents from outside its scope, with fresh normalized rows."""
    cpts = dict(d.cpts)
    for x, t in d.cpts.items():
        if rng.random() >= 0.3:
            continue
        others = [v for v in range(len(d.variables)) if v not in t.scope]
        k = min(len(others), int(rng.integers(1, 3)))
        scope = tuple(int(v) for v in rng.choice(others, size=k, replace=False)) + t.scope
        sizes = tuple(d.size_of(v) for v in scope)
        rows = rng.random((math.prod(sizes[:-1]), sizes[-1])) + 0.05
        rows /= (rows.sum if d.mode == "prob" else rows.max)(axis=1, keepdims=True)
        cpts[x] = ScopedTable(scope, sizes, rows.reshape(-1), name=t.name, cpt_for=x)
    return dataclasses.replace(d, cpts=cpts)


def _row_label(d: InfluenceDiagram, t: ScopedTable, row: int) -> str:
    if len(t.scope) == 1:
        return "the prior row"
    idx = np.unravel_index(row, t.sizes[:-1])
    return ", ".join(f"{d.variables[p].name}={int(i)}" for p, i in zip(t.scope, idx))


def oracle_numbers(d: InfluenceDiagram, cpt_lines: dict[int, int],
                   util_lines: dict[int, int]) -> None:
    """Each conditional table in `d.cpts` order (sign, finiteness, rows),
    then each utility (finiteness, poss range); raises on the first fault.
    `cpt_lines` maps a chance variable, `util_lines` a utility index, to the
    line of its table."""
    names = d.names
    for x, t in d.cpts.items():
        line = cpt_lines[x]
        if np.any(t.values < 0):
            raise NormalizationError(f"negative value in table for {names[x]!r}", line)
        if not np.all(np.isfinite(t.values)):
            raise ValidationError(f"non-finite value in table for {names[x]!r}", line)
        rows = t.values.reshape(-1, t.sizes[-1])
        if d.mode == "poss" and np.any(t.values > 1.0):
            raise NormalizationError(
                f"possibility values for {names[x]!r} must lie in [0,1]", line)
        ends = rows.sum(axis=1) if d.mode == "prob" else rows.max(axis=1)
        for row, end in enumerate(ends):
            if abs(end - 1.0) > NORMALIZATION_TOL:
                what = f"P({names[x]}|...) must sum to" if d.mode == "prob" \
                    else f"pi({names[x]}|...) must reach"
                raise NormalizationError(
                    f"rows of {what} 1: got {end!r} at {_row_label(d, t, row)}", line)
    for j, u in enumerate(d.utilities):
        if not np.all(np.isfinite(u.values)):
            raise ValidationError(f"non-finite value in utility {u.name!r}", util_lines[j])
        if d.mode == "poss" and (np.any(u.values < 0) or np.any(u.values > 1)):
            raise NormalizationError(f"utility {u.name!r} must lie in [0,1]", util_lines[j])
