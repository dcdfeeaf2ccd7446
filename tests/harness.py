"""Step-level soundness checks shared by the rewrite tests and the acceptance run.

Every rewrite event records the node it replaced, and the store is
append-only, so both sides of a step stay evaluable.  Value preservation is
checked on sampled assignments of the old node's scope (the new scope may
only shrink).  For the two max rules the freshly eliminated decisions are
pinned on both sides and the full sets of maximizing assignments must agree.
`assert_mono_operator` checks the rewrite's end state.  `root_plan` is the
elimination plan the initial root consumes: `sov0` without the barren
variables, which never enter the store.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from infdiag.diagram import InfluenceDiagram, sov0
from infdiag.factors import InternalError, Op
from infdiag.nodes import NodeStore, reachable
from infdiag.rewrite import TraceEvent

from oracles import eval_node

TOL = 1e-9


def root_plan(d: InfluenceDiagram) -> list[tuple[Op, tuple[int, ...]]]:
    """`sov0(d)` without `d.barren`, declaration order kept in each block."""
    return [(op, tuple(v for v in block if v not in d.barren)) for op, block in sov0(d)]


def env_samples(store: NodeStore, scope, rng, limit: int = 5) -> Iterator[dict[int, int]]:
    scope = sorted(scope)
    sizes = [store.sizes[v] for v in scope]
    total = 1
    for s in sizes:
        total *= s
    if total <= limit:
        for combo in itertools.product(*(range(s) for s in sizes)):
            yield dict(zip(scope, combo))
    else:
        for _ in range(limit):
            yield {v: int(rng.integers(0, store.sizes[v])) for v in scope}


def assert_value_preserved(store: NodeStore, ev: TraceEvent, rng,
                           samples: int = 4) -> None:
    pre = store.scope(ev.target)
    post = store.scope(ev.produced)
    assert post <= pre, f"{ev.rule} grew the scope"
    for env in env_samples(store, pre, rng, samples):
        a = eval_node(store, ev.target, env)
        b = eval_node(store, ev.produced, {k: v for k, v in env.items() if k in post})
        assert abs(a - b) <= TOL * max(1.0, abs(a), abs(b)), (ev, env, a, b)


def _pin(store: NodeStore, nid: int, xs: set[int]) -> int:
    """The same node with `xs` no longer eliminated (they join the scope)."""
    node = store.nodes[nid]
    sov = []
    for op, block in node.sov:
        keep = tuple(v for v in block if v not in xs)
        if keep:
            sov.append((op, keep))
    return store.intern(sov, node.comb, node.children)


def _rebuild_with(store: NodeStore, root: int, inner: int, replacement: int) -> int:
    memo: dict[int, int] = {}

    def rb(nid: int) -> int:
        if nid in memo:
            return memo[nid]
        if nid == inner:
            out = replacement
        else:
            node = store.nodes[nid]
            if node.is_atomic:
                out = nid
            else:
                kids = [rb(c) for c in node.children]
                out = (nid if kids == list(node.children)
                       else store.intern(node.sov, node.comb, kids))
        memo[nid] = out
        return out

    return rb(root)


def _tie_set(vals: list[float]) -> frozenset[int]:
    best = max(vals)
    slack = TOL * max(1.0, abs(best))
    return frozenset(i for i, v in enumerate(vals) if v >= best - slack)


def assert_argmax_preserved(store: NodeStore, ev: TraceEvent, rng,
                            samples: int = 3) -> None:
    """Max rules must not change which decision values attain the optimum."""
    if ev.rule == "decompose-max":
        if ev.inner is None:
            return  # the decision occurred nowhere; there is nothing to pin
        xs = {ev.var}
        pre_pinned = _pin(store, ev.target, xs)
        post_pinned = _rebuild_with(store, ev.produced, ev.inner,
                                    _pin(store, ev.inner, xs))
    elif ev.rule == "recompose-max":
        tgt = store.nodes[ev.target]
        xs = set(store.nodes[ev.produced].sov[0][1]) - set(tgt.sov[0][1])
        nested = None
        for gid in tgt.children:
            gn = store.nodes[gid]
            if gn.is_atomic:
                continue
            for m in gn.children:
                mn = store.nodes[m]
                if (not mn.is_atomic and len(mn.sov) == 1
                        and mn.sov[0][0] is Op.MAX and set(mn.sov[0][1]) == xs):
                    nested = m
                    break
            if nested is not None:
                break
        assert nested is not None, "merged decision node not found in the target"
        pre_pinned = _rebuild_with(store, ev.target, nested, _pin(store, nested, xs))
        post_pinned = _pin(store, ev.produced, xs)
    else:
        return
    order = sorted(xs)
    joint = list(itertools.product(*(range(store.sizes[x]) for x in order)))
    pre_scope = store.scope(pre_pinned)
    post_scope = store.scope(post_pinned)
    for env in env_samples(store, store.scope(ev.target), rng, samples):
        pre_vals, post_vals = [], []
        for combo in joint:
            full = dict(env)
            full.update(zip(order, combo))
            pre_vals.append(eval_node(store, pre_pinned,
                                      {k: full[k] for k in pre_scope}))
            post_vals.append(eval_node(store, post_pinned,
                                       {k: full[k] for k in post_scope}))
        assert _tie_set(pre_vals) == _tie_set(post_vals), (ev, env)


def check_trace(store: NodeStore, trace: list[TraceEvent], rng,
                samples: int = 4) -> int:
    """Check every event of a rewrite trace; returns how many were checked."""
    for ev in trace:
        assert_value_preserved(store, ev, rng, samples)
        assert_argmax_preserved(store, ev, rng, max(2, samples - 1))
    return len(trace)


def assert_mono_operator(store: NodeStore, root: int, chance_marg: Op,
                         group_comb: Op, outer_comb: Op) -> None:
    """Every reachable composite is single-block with the comb its sov demands."""
    for nid in reachable(store, root):
        node = store.nodes[nid]
        if node.is_atomic:
            continue
        if len(node.sov) > 1:
            raise InternalError(f"node {nid} mixes elimination blocks")
        if node.sov:
            op = node.sov[0][0]
            if op is chance_marg:
                want = group_comb
            elif op is Op.MAX:
                want = outer_comb
            else:
                raise InternalError(f"node {nid} eliminates with foreign operator {op}")
            if node.comb is not want:
                raise InternalError(
                    f"node {nid} pairs {op} with {node.comb}, expected {want}")
        elif node.comb not in (group_comb, outer_comb):
            raise InternalError(f"node {nid} combines with foreign operator {node.comb}")
