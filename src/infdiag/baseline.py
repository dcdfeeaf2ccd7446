"""Potential-pair variable elimination, constrained widths, and brute force.

The potential engine carries (p, u) pairs: p multiplies like a probability,
u adds like a utility.  Chance marginalization divides the expected utility
by the summed mass (0/0 is 0 by convention), decision marginalization takes
the best u and must find p independent of the decision.  Elimination follows
the temporal blocks in reverse; only the order inside a chance block is up
to the heuristic.  brute_force evaluates the defining expression directly
and is the ground truth everything else is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .clusters import Hypergraph, _eliminate_step, find_order
from .diagram import DiagramError, InfluenceDiagram, sov0
from .factors import (
    FactorError,
    InternalError,
    Op,
    OpCounter,
    ResourceGuardError,
    ScopedTable,
    ChoiceTable,
    align,
    argmax_marginalize,
    combine,
    current_counter,
    marginalize,
)
from .solve import Policy, policies_from_choices

BRUTE_GUARD = 2 ** 16
CONSTANT_TOL = 1e-9


class InvalidEliminationError(FactorError):
    """A decision was eliminated while the probability part still depends on it."""


@dataclass(frozen=True)
class Potential:
    p: ScopedTable
    u: ScopedTable

    def __post_init__(self) -> None:
        if self.p.values.size and float(self.p.values.min()) < 0.0:
            raise FactorError("potential has a negative probability part")

    @property
    def W(self) -> frozenset[int]:
        return frozenset(self.p.scope) | frozenset(self.u.scope)


def pot_combine(a: Potential, b: Potential,
                counter: OpCounter | None = None) -> Potential:
    return Potential(combine(a.p, b.p, Op.TIMES, counter),
                     combine(a.u, b.u, Op.PLUS, counter))


def pot_marg_chance(pi: Potential, vars: Sequence[int],
                    counter: OpCounter | None = None) -> Potential:
    elim = tuple(dict.fromkeys(vars))
    if not set(elim) <= pi.W:
        raise FactorError(f"variables {sorted(set(elim) - pi.W)} not in the potential")
    if not elim:
        return pi
    pu = combine(pi.p, pi.u, Op.TIMES, counter)
    num = marginalize(pu, elim, Op.SUM, counter)
    den = pi.p
    in_p = [v for v in elim if v in den.scope]
    if in_p:
        den = marginalize(den, in_p, Op.SUM, counter)
    for v in elim:
        if v not in pi.p.scope:  # summed a variable p never mentioned
            den = combine(den, ScopedTable.scalar(float(pi.u.size_of(v))),
                          Op.TIMES, counter)
    n_arr = num.array
    d_arr = np.broadcast_to(align(den.array, den.scope, num.scope), n_arr.shape)
    if bool(np.any((d_arr == 0.0) & (n_arr != 0.0))):
        raise InternalError("nonzero expected mass over zero probability")
    q = np.where(d_arr == 0.0, 0.0, n_arr / np.where(d_arr == 0.0, 1.0, d_arr))
    (counter or current_counter()).add(int(n_arr.size), "div")
    return Potential(den, ScopedTable(num.scope, num.sizes, q.reshape(-1).copy()))


def pot_marg_decision(pi: Potential, vars: Sequence[int],
                      counter: OpCounter | None = None
                      ) -> tuple[Potential, ChoiceTable]:
    elim = tuple(dict.fromkeys(vars))
    if not set(elim) <= set(pi.u.scope):
        raise FactorError(f"decision set {elim} must appear in the utility part")
    p = pi.p
    nominal = [v for v in elim if v in p.scope]
    if nominal:
        arr = p.values.reshape(p.sizes)
        axes = tuple(p.scope.index(v) for v in nominal)
        spread = arr.max(axis=axes) - arr.min(axis=axes)
        limit = CONSTANT_TOL * max(1.0, float(np.abs(arr).max(initial=0.0)))
        if float(spread.max(initial=0.0)) > limit:
            raise InvalidEliminationError(
                f"probability part depends on decision variables {nominal}")
        index = tuple(0 if v in nominal else slice(None) for v in p.scope)
        keep = tuple(v for v in p.scope if v not in nominal)
        p = ScopedTable(keep, tuple(p.size_of(v) for v in keep),
                        arr[index].reshape(-1).copy(), p.tag)
    marg, choice = argmax_marginalize(pi.u, elim, counter)
    return Potential(p, marg), choice


# --------------------------------------------------------------------------
# Whole-diagram engines

def _pool_graph(pool: Sequence[Potential], block: Iterable[int]) -> Hypergraph:
    edges = frozenset(pi.W for pi in pool)
    verts = frozenset(set(block).union(*[pi.W for pi in pool])) if pool else frozenset(block)
    return Hypergraph(verts, edges)


def potential_ve(d: InfluenceDiagram, heuristic: str = "min-fill",
                 counter: OpCounter | None = None, with_sets: bool = False
                 ) -> tuple[float, list[Policy], int]:
    """Reverse-temporal bucket elimination over (p, u) potentials."""
    if d.mode != "prob":
        raise DiagramError("the potential engine handles prob mode only")
    pool: list[Potential] = [Potential(t, ScopedTable.scalar(0.0))
                             for _, t in sorted(d.cpts.items())]
    pool += [Potential(ScopedTable.scalar(1.0), t) for t in d.utilities]
    width = 0
    choices: dict[int, ChoiceTable] = {}
    for op, block in reversed(sov0(d)):
        if op is Op.MAX:
            order: Sequence[int] = tuple(reversed(block))
        else:
            order = find_order(_pool_graph(pool, block), block, heuristic).order
        for x in order:
            hits = [pi for pi in pool if x in pi.W]
            if not hits:
                if op is Op.MAX:
                    continue  # decision without influence: any choice works
                raise InternalError(f"no potential mentions chance variable {x}")
            acc = hits[0]
            for pi in hits[1:]:
                acc = pot_combine(acc, pi, counter)
            width = max(width, len(acc.W - {x}))
            if op is Op.MAX:
                acc, choice = pot_marg_decision(acc, [x], counter)
                if not set(choice.retained_scope) <= set(d.parents[x]):
                    raise InternalError(
                        f"rule for {d.names[x]} would depend on "
                        f"{sorted(set(choice.retained_scope) - set(d.parents[x]))}")
                choices[x] = choice
            else:
                acc = pot_marg_chance(acc, [x], counter)
            pool = [pi for pi in pool if pi not in hits]
            pool.append(acc)
    final = pool[0]
    for pi in pool[1:]:
        final = pot_combine(final, pi, counter)
    if final.p.scope or final.u.scope:
        raise InternalError("elimination left free variables behind")
    mass = float(final.p.values[0])
    if abs(mass - 1.0) > 1e-6:
        raise InternalError(f"probability mass ended at {mass}, expected 1")
    return float(final.u.values[0]), policies_from_choices(d, choices, with_sets), width


def untyped_hypergraph(d: InfluenceDiagram) -> Hypergraph:
    """All table scopes over all variables, blind to chance/decision typing."""
    edges = {frozenset(t.scope) for t in d.cpts.values()}
    edges |= {frozenset(t.scope) for t in d.utilities}
    return Hypergraph(frozenset(range(len(d.variables))), frozenset(edges))


def constrained_width(d: InfluenceDiagram, mode: str = "heuristic") -> int:
    """Best induced width over elimination orders respecting the temporal blocks.

    The graph state after a block is independent of the order inside it, so
    blocks can be optimized independently; "exhaustive" is exact.
    """
    if mode not in ("heuristic", "exhaustive"):
        raise InternalError(f"unknown width mode {mode!r}")
    if mode == "exhaustive" and len(d.variables) > 8:
        raise ResourceGuardError(
            "exhaustive constrained width is limited to 8 variables")
    g = untyped_hypergraph(d)
    edges = set(g.edges)
    width = 0
    for block in reversed(d.blocks):
        if not block:
            continue
        sub = Hypergraph(frozenset(set(block).union(*edges) if edges else block),
                         frozenset(edges))
        found = find_order(
            sub, block, "exhaustive" if mode == "exhaustive" else "min-fill")
        width = max(width, found.width)
        for x in found.order:
            edges, _ = _eliminate_step(edges, x)
    return width


def brute_force(d: InfluenceDiagram, guard: int = BRUTE_GUARD
                ) -> tuple[float, dict[int, dict[tuple[int, ...], frozenset[int]]]]:
    """Direct recursion over the temporal blocks; the ground-truth engine.

    Annotations map each decision to {observation assignment: attaining set},
    with observations listed in ascending variable id order.
    """
    total = 1
    for v in d.variables:
        total *= v.size
    if total > guard:
        raise ResourceGuardError(
            f"brute force would enumerate {total} assignments (limit {guard})")
    blocks = sov0(d)
    notes: dict[int, dict[tuple[int, ...], frozenset[int]]] = {
        x: {} for x in d.decision_ids}

    def rec(i: int, env: dict[int, int]) -> float:
        if i == len(blocks):
            return d.assignment_value(env)
        op, block = blocks[i]
        if op is Op.MAX:
            (x,) = block
            vals = []
            for v in range(d.size_of(x)):
                env[x] = v
                vals.append(rec(i + 1, env))
            del env[x]
            best = max(vals)
            near = best - 1e-9 * max(1.0, abs(best))
            ctx = tuple(env[p] for p in d.parents[x])
            notes[x][ctx] = frozenset(v for v, val in enumerate(vals) if val >= near)
            return best
        acc: float | None = None
        for assign in product(*(range(d.size_of(v)) for v in block)):
            env.update(zip(block, assign))
            val = rec(i + 1, env)
            if acc is None:
                acc = val
            elif op is Op.SUM:
                acc += val
            elif op is Op.MIN:
                acc = min(acc, val)
            else:
                raise InternalError(f"unexpected block operator {op}")
        for v in block:
            del env[v]
        if acc is None:
            raise InternalError("empty block survived parsing")
        return acc

    return rec(0, {}), notes
