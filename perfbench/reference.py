"""Answer checks that do not use the cluster engine.

families     closed forms for star(n) and chain(n); the policies are replayed
             by `solve.evaluate_policy`, which enumerates the one chance
             variable directly
random_sweep the potential engine (`baseline.potential_ve`)
dense_*      a dense numpy fold of the joint table over the temporal blocks,
             in reverse order; the policies are scored on the same joint

Values must agree to 1e-9 (relative, floor 1) in prob mode and exactly in
poss mode.  Every policy must also be a well-formed rule: one per decision,
scoped inside the decision's observations, choosing a value in its domain.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from infdiag import baseline, solve
from infdiag.diagram import InfluenceDiagram
from infdiag.factors import ScopedTable

PROB_TOL = 1e-9

Check = Callable[[float, Sequence[solve.Policy]], bool]


def agrees(mode: str, got: float, want: float) -> bool:
    if mode == "poss":
        return got == want
    return abs(got - want) <= PROB_TOL * max(1.0, abs(want))


def well_formed(d: InfluenceDiagram, policies: Sequence[solve.Policy]) -> bool:
    if sorted(p.var for p in policies) != sorted(d.decision_ids):
        return False
    for p in policies:
        if not set(p.rule.scope) <= set(d.parents[p.var]):
            return False
        choices = p.rule.values
        if np.any(choices != np.rint(choices)) or np.any(choices < 0) \
                or np.any(choices >= d.size_of(p.var)):
            return False
    return True


def _axes(t: ScopedTable, order: Sequence[int]) -> np.ndarray:
    """t's values with axes in `order` (a permutation of t.scope)."""
    return t.values.reshape(t.sizes).transpose([t.scope.index(v) for v in order])


# --------------------------------------------------------------------------
# families

def family_value(d: InfluenceDiagram) -> float:
    """star = sum_i max_x sum_y p(y) u_i(x, y)
    chain = max_l [max_x1 (E_y u(x1, y) + u_1(x1, l)) + sum_{i>=2} max_xi u_i(xi, l)]
    """
    (y,) = d.chance_ids
    p = d.cpts[y].values
    with_y = [u for u in d.utilities if y in u.scope]
    if len(with_y) == len(d.utilities):  # star: every utility is (x_i, y)
        return sum(float(np.max(_axes(u, [x, y]) @ p))
                   for u in with_y for x in u.scope if x != y)
    (u0,) = with_y
    (x1,) = [v for v in u0.scope if v != y]
    last = d.temporal_decisions()[-1]
    inner = np.zeros(d.size_of(last))
    for u in d.utilities:
        if u is u0:
            continue
        (x,) = [v for v in u.scope if v != last]
        arr = _axes(u, [x, last])
        inner = inner + (np.max((_axes(u0, [x1, y]) @ p)[:, None] + arr, axis=0)
                         if x == x1 else np.max(arr, axis=0))
    return float(np.max(inner))


# --------------------------------------------------------------------------
# dense_*

def _broadcast(t: ScopedTable, n: int) -> np.ndarray:
    order = sorted(t.scope)
    shape = [1] * n
    for v, s in zip(t.scope, t.sizes):
        shape[v] = s
    return _axes(t, order).reshape(shape)


def dense_joint(d: InfluenceDiagram) -> np.ndarray:
    """Value of every full assignment: P * sum(U) (prob), max(1 - pi, min U) (poss)."""
    n = len(d.variables)
    shape = d.sizes
    if d.mode == "prob":
        joint = np.ones(shape)
        for t in d.cpts.values():
            joint *= _broadcast(t, n)
        util = np.zeros(shape)
        for u in d.utilities:
            util += _broadcast(u, n)
        joint *= util
    else:
        joint = np.zeros(shape)
        for t in d.cpts.values():
            np.maximum(joint, 1.0 - _broadcast(t, n), out=joint)
        util = np.full(shape, np.inf)
        for u in d.utilities:
            np.minimum(util, _broadcast(u, n), out=util)
        np.maximum(joint, util, out=joint)
    return joint


def dense_value(d: InfluenceDiagram, joint: np.ndarray) -> float:
    chance = np.sum if d.mode == "prob" else np.min
    acc = joint
    for i in reversed(range(len(d.blocks))):
        if d.blocks[i]:
            fold = np.max if i % 2 else chance
            acc = fold(acc, axis=tuple(d.blocks[i]), keepdims=True)
    return float(acc.reshape(-1)[0])


def dense_policy_value(d: InfluenceDiagram, joint: np.ndarray,
                       policies: Sequence[solve.Policy]) -> float:
    """Value of the rules: only assignments where every decision follows its rule."""
    n = len(d.variables)
    follows = np.ones(d.sizes, dtype=bool)
    for p in policies:
        shape = [1] * n
        shape[p.var] = d.size_of(p.var)
        choice = _broadcast(p.rule, n) if p.rule.scope else p.rule.values[0]
        follows &= np.arange(d.size_of(p.var)).reshape(shape) == np.rint(choice)
    if d.mode == "prob":
        return float(np.sum(joint, where=follows))
    return float(np.min(joint, where=follows, initial=np.inf))



def checker(workload: str, d: InfluenceDiagram) -> Check:
    """Build the reference for one instance; the result checks one answer."""
    if workload == "families":
        want = family_value(d)
        return lambda meu, policies: (
            agrees(d.mode, meu, want) and well_formed(d, policies)
            and agrees(d.mode, solve.evaluate_policy(d, policies), want))
    if workload == "random_sweep":
        want, _, _ = baseline.potential_ve(d)
        return lambda meu, policies: (
            agrees(d.mode, meu, want) and well_formed(d, policies))
    joint = dense_joint(d)
    want = dense_value(d, joint)
    return lambda meu, policies: (
        agrees(d.mode, meu, want) and well_formed(d, policies)
        and agrees(d.mode, dense_policy_value(d, joint, policies), want))
