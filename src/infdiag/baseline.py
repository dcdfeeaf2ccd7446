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
from typing import NamedTuple, Sequence

import numpy as np

# `factors.fold` is looked up on the module at call time, so a test can stand in for it
from . import factors
from .clusters import HEURISTICS, find_order
from .diagram import DiagramError, InfluenceDiagram, sov0
from .factors import (
    CELL_GUARD,
    DIM_GUARD,
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
    small_buffers,
)
from .solve import Policy, policies_from_choices

BRUTE_GUARD = 2 ** 16
# `brute_force` nests one call per temporal block; this many stay well inside
# Python's default recursion limit of 1000 frames, callers' frames included.
# A diagram past it within BRUTE_GUARD has size-1 variables in most blocks.
BRUTE_BLOCKS = 256
CONSTANT_TOL = 1e-9


class InvalidEliminationError(FactorError):
    """A decision was eliminated while the probability part still depends on it."""


@dataclass(frozen=True)
class Potential:
    """A (p, u) pair of parts."""

    p: Part
    u: Part

    def __post_init__(self) -> None:
        arr = self.p[1]
        if arr.size and float(arr.min()) < 0.0:
            raise FactorError("potential has a negative probability part")


def pot_combine(a: Potential, b: Potential,
                counter: OpCounter | None = None) -> Potential:
    counter = counter or OpCounter()
    return Potential(factors.fold((a.p, b.p), Op.TIMES, counter),
                     factors.fold((a.u, b.u), Op.PLUS, counter))


def pot_marg_chance(pi: Potential, vars: Sequence[int],
                    counter: OpCounter | None = None) -> Potential:
    elim = tuple(dict.fromkeys(vars))
    outside = set(elim) - set(pi.p[0])
    if outside:
        raise FactorError(f"variables {sorted(outside)} not in the probability part")
    if not elim:
        return pi
    counter = counter or OpCounter()
    scope, n_arr = eliminate(factors.fold((pi.p, pi.u), Op.TIMES, counter),
                             elim, Op.SUM, counter)
    den = eliminate(pi.p, elim, Op.SUM, counter)
    d_arr = np.broadcast_to(align(den[1], den[0], scope), n_arr.shape)
    if bool(np.any((d_arr == 0.0) & (n_arr != 0.0))):
        raise InternalError("nonzero expected mass over zero probability")
    q = np.where(d_arr == 0.0, 0.0, n_arr / np.where(d_arr == 0.0, 1.0, d_arr))
    counter.add(int(n_arr.size), "div")
    return Potential(den, (scope, q))


def pot_marg_decision(pi: Potential, x: int, counter: OpCounter | None = None,
                      sets: bool = True) -> tuple[Potential, ChoiceTable]:
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
    u, choice = argmax_marginalize(pi.u, x, counter, sets)
    return Potential(p, u), choice


# --------------------------------------------------------------------------
# Whole-diagram engines

class Step(NamedTuple):
    """One combination of pool slots in `potential_ve`: the slots in pool
    order and the union of their p and u scopes, then the elimination of
    `x` (None for the final product).  A chance step folds p and u
    together; a decision step and the final product fold the p parts and
    the u parts apart."""

    x: int | None
    chance: bool
    slots: tuple[int, ...]
    p: frozenset[int]
    u: frozenset[int]


def _plan(d: InfluenceDiagram, heuristic: str) -> tuple[list[Step], int]:
    """The elimination walk over the (p, u) scopes of the tables, innermost
    block first, and its width: the most variables a step leaves behind.

    Slots number the pool: the CPTs by child id, then the utilities, then
    each step's result.  The last step is the final product of the slots
    left over.  Only the order inside a chance block is up to the heuristic.
    """
    scopes = [(frozenset(t.scope), frozenset()) for _, t in sorted(d.cpts.items())]
    scopes += [(frozenset(), frozenset(t.scope)) for t in d.utilities]
    live = list(range(len(scopes)))
    steps: list[Step] = []
    width = 0
    for op, block in reversed(sov0(d)):
        chance = op is not Op.MAX
        if chance:
            order: Sequence[int] = find_order([scopes[i][0] | scopes[i][1] for i in live],
                                              block, heuristic)
        else:
            order = tuple(reversed(block))
        for x in order:
            slots = tuple(i for i in live if x in scopes[i][0] or x in scopes[i][1])
            if not slots:
                if chance:
                    raise InternalError(f"no table mentions chance variable {x}")
                continue  # decision without influence: any choice works
            p = frozenset().union(*(scopes[i][0] for i in slots))
            u = frozenset().union(*(scopes[i][1] for i in slots))
            steps.append(Step(x, chance, slots, p, u))
            width = max(width, len((p | u) - {x}))
            live = [i for i in live if i not in slots] + [len(scopes)]
            scopes.append((p - {x}, (p | u if chance else u) - {x}))
    steps.append(Step(None, False, tuple(live),
                      frozenset().union(*(scopes[i][0] for i in live)),
                      frozenset().union(*(scopes[i][1] for i in live))))
    return steps, width


def potential_ve(d: InfluenceDiagram, heuristic: str = "min-fill",
                 counter: OpCounter | None = None, with_sets: bool = False
                 ) -> tuple[float, list[Policy], int]:
    """Reverse-temporal bucket elimination over (p, u) potentials, step by
    step as `_plan` lays it out.

    A diagram whose elimination would combine more than CELL_GUARD cells, or
    more than DIM_GUARD variables, in one table is refused from the plan's
    scopes, before any table is built.
    The eliminations run under `small_buffers`.
    """
    if d.mode != "prob":
        raise DiagramError("the potential engine handles prob mode only")
    steps, width = _plan(d, heuristic)
    for s in steps:
        if s.chance:
            folds = [s.p | s.u]
        else:
            folds = [s.p, s.u] if len(s.slots) > 1 else []
        for scope in folds:
            cells = math.prod(d.sizes[v] for v in scope)
            if cells > CELL_GUARD or len(scope) > DIM_GUARD:
                where = (f"eliminating {d.names[s.x]}" if s.x is not None
                         else "the final product")
                what = f"{cells} cells (limit {CELL_GUARD})" if cells > CELL_GUARD \
                    else f"{len(scope)} variables (limit {DIM_GUARD})"
                raise ResourceGuardError(f"potential engine: {where} combines {what}")
    counter = counter or OpCounter()
    pool: list[Potential | None] = [Potential((t.scope, t.array), ((), np.zeros(())))
                                    for _, t in sorted(d.cpts.items())]
    pool += [Potential(((), np.ones(())), (t.scope, t.array)) for t in d.utilities]
    choices: dict[int, ChoiceTable] = {}
    with small_buffers():
        for s in steps:
            acc = pool[s.slots[0]]
            for i in s.slots[1:]:
                acc = pot_combine(acc, pool[i], counter)
            for i in s.slots:
                pool[i] = None
            if s.x is None:
                break
            if s.chance:
                acc = pot_marg_chance(acc, [s.x], counter)
            else:
                acc, choice = pot_marg_decision(acc, s.x, counter, with_sets)
                if not set(choice.scope) <= set(d.parents[s.x]):
                    raise InternalError(
                        f"rule for {d.names[s.x]} would depend on "
                        f"{sorted(set(choice.scope) - set(d.parents[s.x]))}")
                choices[s.x] = choice
            pool.append(acc)
    if acc.p[0] or acc.u[0]:
        raise InternalError("elimination left free variables behind")
    mass = float(acc.p[1])
    if abs(mass - 1.0) > 1e-6:
        raise InternalError(f"probability mass ended at {mass}, expected 1")
    return float(acc.u[1]), policies_from_choices(d, choices, with_sets), width


def constrained_width(d: InfluenceDiagram, heuristic: str = "min-fill") -> int:
    """Induced width over elimination orders respecting the temporal
    blocks: the width of `potential_ve`'s walk under `heuristic`, one of
    `clusters.HEURISTICS`; "exhaustive" gives the best such width.

    The graph state after a block is independent of the order inside it, so
    blocks can be optimized independently.
    """
    if heuristic not in HEURISTICS:
        raise InternalError(f"unknown ordering heuristic {heuristic!r}")
    if heuristic == "exhaustive" and len(d.variables) > 8:
        raise ResourceGuardError(
            "exhaustive constrained width is limited to 8 variables")
    return _plan(d, heuristic)[1]


def brute_force(d: InfluenceDiagram
                ) -> tuple[float, dict[int, dict[tuple[int, ...], frozenset[int]]]]:
    """Direct recursion over the temporal blocks; the ground-truth engine.
    Refused up front past BRUTE_GUARD assignments or BRUTE_BLOCKS blocks.

    Annotations map each decision to {observation assignment: attaining set},
    with observations listed in ascending variable id order.
    """
    total = 1
    for v in d.variables:
        total *= v.size
    if total > BRUTE_GUARD:
        raise ResourceGuardError(
            f"brute force would enumerate {total} assignments (limit {BRUTE_GUARD})")
    blocks = sov0(d)
    if len(blocks) > BRUTE_BLOCKS:
        raise ResourceGuardError(
            f"brute force would recurse through {len(blocks)} temporal blocks "
            f"(limit {BRUTE_BLOCKS})")
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
