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

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

# `factors.fold` is looked up on the module at call time, so a test can stand in for it
from . import factors
from .clusters import Hypergraph, _eliminate_step, find_order
from .diagram import DiagramError, InfluenceDiagram, sov0
from .factors import (
    CELL_GUARD,
    FactorError,
    InternalError,
    Op,
    OpCounter,
    Part,
    ResourceGuardError,
    ChoiceTable,
    align,
    argmax_marginalize,
    eliminate,
)
from .solve import Policy, policies_from_choices

BRUTE_GUARD = 2 ** 16
CONSTANT_TOL = 1e-9


class InvalidEliminationError(FactorError):
    """A decision was eliminated while the probability part still depends on it."""


@dataclass(frozen=True, eq=False)
class Potential:
    """A (p, u) pair of parts.  Compared by identity: `potential_ve` drops
    used potentials from its pool with `not in`, and `==` on arrays does not
    give one truth value."""

    p: Part
    u: Part

    def __post_init__(self) -> None:
        arr = self.p[1]
        if arr.size and float(arr.min()) < 0.0:
            raise FactorError("potential has a negative probability part")

    @property
    def W(self) -> frozenset[int]:
        return frozenset(self.p[0]) | frozenset(self.u[0])


def pot_combine(a: Potential, b: Potential,
                counter: OpCounter | None = None) -> Potential:
    counter = counter or OpCounter()
    return Potential(factors.fold((a.p, b.p), Op.TIMES, 1.0, counter),
                     factors.fold((a.u, b.u), Op.PLUS, 0.0, counter))


def pot_marg_chance(pi: Potential, vars: Sequence[int],
                    counter: OpCounter | None = None) -> Potential:
    elim = tuple(dict.fromkeys(vars))
    if not set(elim) <= pi.W:
        raise FactorError(f"variables {sorted(set(elim) - pi.W)} not in the potential")
    if not elim:
        return pi
    counter = counter or OpCounter()
    scope, n_arr = eliminate(factors.fold((pi.p, pi.u), Op.TIMES, 1.0, counter),
                             elim, Op.SUM, counter)
    p_scope = pi.p[0]
    den = pi.p
    in_p = [v for v in elim if v in p_scope]
    if in_p:
        den = eliminate(den, in_p, Op.SUM, counter)
    u_scope, u_arr = pi.u
    for v in elim:
        if v not in p_scope:  # summed a variable p never mentioned
            size = np.full((), float(u_arr.shape[u_scope.index(v)]))
            den = factors.fold((den, ((), size)), Op.TIMES, 1.0, counter)
    d_arr = np.broadcast_to(align(den[1], den[0], scope), n_arr.shape)
    if bool(np.any((d_arr == 0.0) & (n_arr != 0.0))):
        raise InternalError("nonzero expected mass over zero probability")
    q = np.where(d_arr == 0.0, 0.0, n_arr / np.where(d_arr == 0.0, 1.0, d_arr))
    counter.add(int(n_arr.size), "div")
    return Potential(den, (scope, q))


def pot_marg_decision(pi: Potential, x: int, counter: OpCounter | None = None
                      ) -> tuple[Potential, ChoiceTable]:
    if x not in pi.u[0]:
        raise FactorError(f"decision {x} must appear in the utility part")
    scope, arr = p = pi.p
    if x in scope:
        axis = scope.index(x)
        spread = arr.max(axis=axis) - arr.min(axis=axis)
        limit = CONSTANT_TOL * max(1.0, float(np.abs(arr).max(initial=0.0)))
        if float(spread.max(initial=0.0)) > limit:
            raise InvalidEliminationError(
                f"probability part depends on decision variable {x}")
        p = scope[:axis] + scope[axis + 1:], arr.take(0, axis=axis)
    u, choice = argmax_marginalize(pi.u, x, counter)
    return Potential(p, u), choice


# --------------------------------------------------------------------------
# Whole-diagram engines

def _pool_graph(scopes: Sequence[frozenset[int]], block: Iterable[int]) -> Hypergraph:
    return Hypergraph(frozenset(set(block).union(*scopes)), frozenset(scopes))


def _plan(d: InfluenceDiagram, heuristic: str) -> list[tuple[Op, tuple[int, ...]]]:
    """The elimination order of each block for `potential_ve`, innermost
    block first, worked out on the (p, u) scopes alone.

    The scopes go through the same steps the tables will, so a step whose
    combination `fold` would refuse is refused here, before any table is
    built: a chance step folds p and u together, a decision step folds the
    p parts and the u parts apart (and only when two or more meet).
    """
    def guard(x: int | None, scope: frozenset[int]) -> None:
        cells = math.prod(d.sizes[v] for v in scope)
        if cells > CELL_GUARD:
            where = f"eliminating {d.names[x]}" if x is not None else "the final product"
            raise ResourceGuardError(
                f"potential engine: {where} combines {cells} cells (limit {CELL_GUARD})")

    pool = [(frozenset(t.scope), frozenset()) for _, t in sorted(d.cpts.items())]
    pool += [(frozenset(), frozenset(t.scope)) for t in d.utilities]
    plan = []
    for op, block in reversed(sov0(d)):
        if op is Op.MAX:
            order: Sequence[int] = tuple(reversed(block))
        else:
            order = find_order(_pool_graph([p | u for p, u in pool], block),
                               block, heuristic).order
        plan.append((op, tuple(order)))
        for x in order:
            hits = [(p, u) for p, u in pool if x in p or x in u]
            if not hits:
                continue  # skipped, or refused with an InternalError, by potential_ve
            p = frozenset().union(*(h[0] for h in hits))
            u = frozenset().union(*(h[1] for h in hits))
            if op is Op.MAX:
                if len(hits) > 1:
                    guard(x, p)
                    guard(x, u)
                u = u - {x}
            else:
                guard(x, p | u)
                u = (p | u) - {x}
            pool = [(q, w) for q, w in pool if x not in q and x not in w]
            pool.append((p - {x}, u))
    if len(pool) > 1:
        guard(None, frozenset().union(*(p for p, _ in pool)))
        guard(None, frozenset().union(*(u for _, u in pool)))
    return plan


def potential_ve(d: InfluenceDiagram, heuristic: str = "min-fill",
                 counter: OpCounter | None = None, with_sets: bool = False
                 ) -> tuple[float, list[Policy], int]:
    """Reverse-temporal bucket elimination over (p, u) potentials.

    The orders come from `_plan`, which also refuses up front a diagram whose
    elimination would combine more than CELL_GUARD cells in one table.
    """
    if d.mode != "prob":
        raise DiagramError("the potential engine handles prob mode only")
    plan = _plan(d, heuristic)
    counter = counter or OpCounter()
    pool = [Potential((t.scope, t.array), ((), np.zeros(())))
            for _, t in sorted(d.cpts.items())]
    pool += [Potential(((), np.ones(())), (t.scope, t.array)) for t in d.utilities]
    width = 0
    choices: dict[int, ChoiceTable] = {}
    for op, order in plan:
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
                acc, choice = pot_marg_decision(acc, x, counter)
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
    if final.p[0] or final.u[0]:
        raise InternalError("elimination left free variables behind")
    mass = float(final.p[1])
    if abs(mass - 1.0) > 1e-6:
        raise InternalError(f"probability mass ended at {mass}, expected 1")
    return float(final.u[1]), policies_from_choices(d, choices, with_sets), width


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
