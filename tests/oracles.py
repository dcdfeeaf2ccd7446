"""Independent oracles for the solver's layers.

`oracle_value` gives the optimal value of a diagram directly off its temporal
blocks and tables, bypassing the node algebra, the cluster engine, and the
potential baseline, so any of those can be checked against it.  Exponential;
keep diagrams small.

`oracle_evaluate` is the cluster engine's message pass written with
`ScopedTable` operations: a pairwise `combine_all` fold and `marginalize` per
cluster, every message kept.  `solve.evaluate` runs the same arithmetic on
bare arrays and must match it bit for bit, op counts included.

`oracle_argmax` walks the rows of a table one value at a time, the way
`factors.argmax_marginalize` must see them: the max, the lowest attaining
value and every attaining value, per assignment of the other variables.

`oracle_order` is the hyperedge-scan min-fill/min-degree loop that
`clusters.find_order` replaced with neighbour-set bookkeeping; the two must
return the same order tuples.  `width_of_order` replays a fixed order on
the hyperedges and returns the size of each created edge; the width of the
order is the largest.  `oracle_width` is the constrained induced width as
`clusters.assemble` once took it: the largest replayed width over every
reachable composite node, each node's `find_order` order replayed on its
children's scopes, which `child_scopes` reads off the store.

`oracle_acyclic` runs a three-colour DFS over the full parent graph, decision
parents included.  `diagram.validate` reads only table scopes and ORDER
positions to find cycles, and must agree with it on every diagram.

`with_extra_parents` adds random parents to a diagram's tables, which
`random_id` never does; the result may be cyclic, so pair it with
`oracle_acyclic`.  `structurally_equal` compares two diagrams bit for bit,
table identity aside, for the parse/serialize round trips.

`oracle_numbers` checks a diagram's numbers one table at a time, the way
`parse` checked them before it screened every table in one batch; `parse`
must raise the same error, with the same message and line.

`oracle_canonical_sov` is the sov merge `nodes.canonical_sov` replaced: it
re-sorts the merged block at every adjacent same-operator block; the two
must give the same sov, or refuse with the same message.

`eval_node` evaluates a stored node by enumerating its sov assignments, the
semantics every rewrite step must keep.  `structural_signature` fingerprints
a node's structure independently of the store that holds it.
`trace_to_jsonl` writes a rewrite trace one JSON object per event, the
bytes the pinned rewrite digest hashes.

`check_semiring_axioms` samples the algebraic laws each (marginalization,
combination) operator pair must obey for the rewrite and cluster layers to
be sound.
"""

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from infdiag.clusters import MCDag, find_order
from infdiag.diagram import (NORMALIZATION_TOL, InfluenceDiagram, NormalizationError,
                             ValidationError)
from infdiag.factors import (_UFUNC, COMBINE_OPS, MARGINAL_OPS, FactorError, InternalError,
                             Op, OpCounter, ScopedTable, UnknownVariableError, combine_all,
                             identity, marginalize)
from infdiag.nodes import CompNode, NodeStore
from infdiag.rewrite import RewriteTrace


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


def oracle_evaluate(m: MCDag, counter: OpCounter
                    ) -> tuple[float, dict[int, ScopedTable]]:
    """The MEU and the combined table of every max-eliminating cluster.  A
    cluster that eliminates a variable its combined table lacks is an
    internal error, as in `solve.evaluate`."""
    messages: dict[int, ScopedTable] = {}
    tables: dict[int, ScopedTable] = {}
    for c in m.clusters:
        marg, comb = c.ops
        parts = list(c.psi) + [messages[s] for s in c.sons]
        if parts:
            combined = parts[0]
            for t in parts[1:]:
                combined = combine_all((combined, t), comb, identity(comb), counter)
        else:
            unit = c.ops in ((Op.MIN, Op.MAX), (Op.MAX, Op.MIN))
            combined = ScopedTable((), (), np.array([identity(comb, unit_interval=unit)]))
        if marg is Op.MAX and c.elim:
            tables[c.id] = combined
        absent = [v for v in c.elim if v not in combined.scope]
        if absent:
            raise InternalError(f"cluster {c.id} eliminates {absent}, "
                                "which none of its parts holds")
        messages[c.id] = marginalize(combined, c.elim, marg, counter)
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


def width_of_order(edges: Iterable[frozenset[int]], order: Sequence[int]) -> tuple[int, ...]:
    """Replay a fixed order and return the created-edge sizes."""
    edges = set(edges)
    sizes = []
    for x in order:
        edges, created = _eliminate(edges, x)
        sizes.append(len(created))
    return tuple(sizes)


def oracle_order(edges: Iterable[frozenset[int]], elim: Iterable[int],
                 heuristic: str = "min-fill") -> tuple[int, ...]:
    """Greedy order that rescans every hyperedge for every candidate."""
    edges = set(edges)
    order: list[int] = []
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
                best = (score, x)
        _, x = best
        edges, _ = _eliminate(edges, x)
        order.append(x)
        remaining.remove(x)
    return tuple(order)


def child_scopes(store: NodeStore, nid: int) -> list[frozenset[int]]:
    """The scopes of a composite node's children, the hyperedges of its order."""
    return [store.scope(c) for c in store.nodes[nid].children]


def oracle_width(store: NodeStore, root: int, heuristic: str = "min-fill") -> int:
    """The largest order width over the composite nodes reachable from `root`."""
    width = 0
    seen: set[int] = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = store.nodes[nid]
        if node.is_atomic:
            continue
        stack.extend(node.children)
        edges = child_scopes(store, nid)
        elim = [v for _, block in node.sov for v in block]
        order = find_order(edges, elim, heuristic)
        width = max(width, max(width_of_order(edges, order), default=0))
    return width


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


def structurally_equal(a: InfluenceDiagram, b: InfluenceDiagram) -> bool:
    """Bit-exact equality of structure and numbers (table identity ignored)."""
    if (a.variables, a.parents, a.blocks, a.mode) != (b.variables, b.parents, b.blocks, b.mode):
        return False
    if set(a.cpts) != set(b.cpts) or len(a.utilities) != len(b.utilities):
        return False
    def same(s: ScopedTable, t: ScopedTable) -> bool:
        return (s.scope == t.scope and s.sizes == t.sizes and s.name == t.name
                and s.cpt_for == t.cpt_for and np.array_equal(s.values, t.values))
    return (all(same(a.cpts[x], b.cpts[x]) for x in a.cpts)
            and all(same(u, w) for u, w in zip(a.utilities, b.utilities)))


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


# -- node evaluation ---------------------------------------------------------

def oracle_canonical_sov(pairs: Iterable[tuple[Op, Iterable[int]]]
                         ) -> tuple[tuple[Op, tuple[int, ...]], ...]:
    """Sort each block, drop empty ones, and merge a block into the one
    before it when their operators match, re-sorting the merged block."""
    out: list[tuple[Op, tuple[int, ...]]] = []
    seen: set[int] = set()
    for op, vs in pairs:
        block = tuple(sorted(set(vs)))
        if not block:
            continue
        if seen & set(block):
            raise InternalError(f"variable repeated across sov blocks: {block}")
        seen.update(block)
        if out and out[-1][0] == op:
            out[-1] = (op, tuple(sorted(out[-1][1] + block)))
        else:
            out.append((op, block))
    return tuple(out)


def eval_node(store: NodeStore, nid: int, env: Mapping[int, int]) -> float:
    """Reference evaluation by explicit enumeration of the sov assignments.

    `env` must assign exactly scope(nid).  Exponential in the sov variables;
    meant as a soundness oracle for small problems, not an engine.
    """
    if set(env) != store.scope(nid):
        raise UnknownVariableError(
            f"env keys {sorted(env)} != scope {sorted(store.scope(nid))}")
    return _eval(store, nid, dict(env), {})


def _eval(store: NodeStore, nid: int, env: dict[int, int],
          memo: dict[tuple[int, tuple[int, ...]], float]) -> float:
    # scope(nid) is the same frozenset on every call, so its order is stable
    key = (nid, tuple(env[v] for v in store.scope(nid)))
    if key in memo:
        return memo[key]
    node = store.nodes[nid]
    if node.table is not None:
        val = node.table.lookup(env)
    else:
        val = _eval_blocks(store, node, 0, env, memo)
    memo[key] = val
    return val


def _eval_blocks(store: NodeStore, node: CompNode, i: int, env: dict[int, int],
                 memo: dict) -> float:
    if i == len(node.sov):
        vals = [_eval(store, c, env, memo) for c in node.children]
        acc = identity(node.comb, store.ops.unit_interval)
        for v in vals:
            acc = _scalar(node.comb, acc, v)
        return acc
    op, block = node.sov[i]
    acc = None
    for assign in itertools.product(*(range(store.sizes[v]) for v in block)):
        env2 = dict(env)
        env2.update(zip(block, assign))
        v = _eval_blocks(store, node, i + 1, env2, memo)
        acc = v if acc is None else _scalar(op, acc, v)
    if acc is None:
        raise InternalError("empty sov block survived canonicalization")
    return acc


def _scalar(op: Op, a: float, b: float) -> float:
    if op in (Op.SUM, Op.PLUS):
        return a + b
    if op is Op.TIMES:
        return a * b
    if op is Op.MAX:
        return a if a >= b else b
    return a if a <= b else b


def structural_signature(store: NodeStore, nid: int,
                         _memo: dict[int, object] | None = None) -> object:
    """Store-independent structural fingerprint; atomic nodes hash by content."""
    memo = _memo if _memo is not None else {}
    if nid in memo:
        return memo[nid]
    node = store.nodes[nid]
    if node.table is not None:
        t = node.table
        sig: object = ("t", t.scope, t.sizes, t.values.tobytes(), t.name, t.cpt_for)
    else:
        # repr gives a total order over the nested signature tuples
        kids = tuple(sorted((structural_signature(store, c, memo)
                             for c in node.children), key=repr))
        sig = (node.sov, node.comb.value, kids)
    memo[nid] = sig
    return sig


def trace_to_jsonl(trace: RewriteTrace) -> str:
    lines = []
    for e in trace:
        rec: dict[str, object] = {"rule": e.rule, "target": e.target, "produced": e.produced}
        if e.var is not None:
            rec["var"] = e.var
        if e.inner is not None:
            rec["inner"] = e.inner
        lines.append(json.dumps(rec))
    return "\n".join(lines) + ("\n" if lines else "")


# -- semiring sanity -------------------------------------------------------


@dataclass
class SemiringReport:
    pair: tuple[Op, Op]
    samples: int
    deviations: dict[str, float]
    ok: bool


def check_semiring_axioms(pair: tuple[Op, Op], samples: int = 10_000, seed: int = 0) -> SemiringReport:
    """Sampled commutativity/associativity/distributivity/identity checks.

    Pairs made of MIN/MAX only must hold exactly; pairs involving PLUS or
    TIMES are allowed a 1e-12 relative slack for float re-association.
    """
    marg, comb = pair
    if marg not in MARGINAL_OPS or comb not in COMBINE_OPS:
        raise FactorError(f"{pair} is not a marginalization/combination pair")
    unit = pair in ((Op.MIN, Op.MAX), (Op.MAX, Op.MIN))
    rng = np.random.default_rng(seed)
    if unit:
        draw = lambda: rng.random(samples)
        extras = np.array([0.0, 1.0, 0.5])
    else:
        draw = lambda: rng.uniform(-2.0, 2.0, samples)
        extras = np.array([0.0, 1.0, -1.0, identity(marg, unit), identity(comb, unit)])
        extras = extras[np.isfinite(extras) | (extras == identity(marg, unit))]
    a, b, c = (np.concatenate([draw(), extras]) for _ in range(3))
    plus, times = _UFUNC[marg], _UFUNC[comb]
    e_plus, e_times = identity(marg, unit), identity(comb, unit)

    def dev(x: np.ndarray, y: np.ndarray) -> float:
        with np.errstate(invalid="ignore"):
            diff = np.abs(x - y)
            diff[np.isnan(diff) & (x == y)] = 0.0  # inf == inf
            scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
            rel = np.where(
                np.isfinite(diff),
                diff / np.where(np.isfinite(scale), scale, 1.0),
                np.where(x == y, 0.0, np.inf),
            )
        return float(np.max(rel)) if rel.size else 0.0

    checks = {
        "aggregate-commutes": dev(plus(a, b), plus(b, a)),
        "aggregate-associates": dev(plus(plus(a, b), c), plus(a, plus(b, c))),
        "combine-commutes": dev(times(a, b), times(b, a)),
        "combine-associates": dev(times(times(a, b), c), times(a, times(b, c))),
        "distributes": dev(times(a, plus(b, c)), plus(times(a, b), times(a, c))),
        "aggregate-identity": dev(plus(a, np.full_like(a, e_plus)), a),
        "combine-identity": dev(times(a, np.full_like(a, e_times)), a),
    }
    tol = 0.0 if unit else 1e-12
    return SemiringReport(pair, samples, checks, all(d <= tol for d in checks.values()))
