"""Rewriting rules that turn the initial node into a mono-operator DAG.

Six rules, applied by a deterministic driver, one elimination variable at a
time, innermost first:

  decompose_sum / decompose_max   push the innermost elimination into the
                                  children, sharing identical inner nodes
  recompose_sum / recompose_max   merge a nested elimination of the same
                                  kind when its variables are free to move
  simplify_normalized             drop a conditional table (and its variable)
                                  when elimination makes it sum/reach 1
  drop_unit_children              remove empty-product children (identity)

The store is append-only: rules build new nodes and return their ids, so a
rewritten node's predecessor stays valid for soundness checks.  Set unions in
the rules must never silently collapse two distinct factors; every place
where that could change the value asserts and raises InternalError instead.

Hoisting a common factor out of a max is only sound when the factor cannot
be negative.  Probability-derived factors (all atomic descendants are
probability-tagged) are nonnegative by construction, and in the pessimistic
possibilistic mode every value lives in [0, 1]; both rules verify the cheap
structural fact in release mode and can additionally sample values in debug
mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .factors import InternalError, Op
from .nodes import NodeStore, canonical_sov, eval_node, reachable

CHANCE_MARGS = (Op.SUM, Op.MIN)


@dataclass(frozen=True)
class TraceEvent:
    rule: str
    target: int
    produced: int
    var: int | None = None
    inner: int | None = None


RewriteTrace = list[TraceEvent]


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


def _emit(trace: RewriteTrace | None, rule: str, target: int, produced: int,
          var: int | None = None, inner: int | None = None) -> None:
    if trace is not None:
        trace.append(TraceEvent(rule, target, produced, var, inner))


def _group_members(store: NodeStore, gid: int, comb: Op | None) -> tuple[tuple[int, ...], Op]:
    g = store.nodes[gid]
    if g.is_atomic or g.sov != () or (comb is not None and g.comb is not comb):
        raise InternalError(f"node {gid} is not a combination group")
    return g.children, g.comb


def _prob_derived(store: NodeStore, nid: int, memo: dict[int, bool]) -> bool:
    if nid in memo:
        return memo[nid]
    node = store.nodes[nid]
    if node.is_atomic:
        out = node.table.tag == "probability"
    else:
        out = all(_prob_derived(store, c, memo) for c in node.children)
    memo[nid] = out
    return out


def _require_nonneg(store: NodeStore, ids: list[int], rule: str) -> None:
    # [0,1]-valued stores are nonnegative throughout; otherwise demand
    # probability-derived structure before hoisting a factor out of a max.
    if store.unit_interval:
        return
    memo: dict[int, bool] = {}
    for nid in ids:
        if not _prob_derived(store, nid, memo):
            raise InternalError(
                f"{rule}: factor {nid} could be negative and cannot leave the max")


def _sample_nonneg(store: NodeStore, ids: list[int]) -> None:
    rng = np.random.default_rng(0)
    for nid in sorted(set(ids)):
        sc = sorted(store.scope(nid))
        for _ in range(4):
            env = {v: int(rng.integers(0, store.sizes[v])) for v in sc}
            if eval_node(store, nid, env) < -1e-9:
                raise InternalError(f"sampled negative value in factor {nid}")


# --------------------------------------------------------------------------
# The six rules

def decompose_sum(store: NodeStore, root: int, x: int,
                  trace: RewriteTrace | None = None) -> tuple[int, list[int]]:
    """Push the innermost chance elimination of `x` into every group child.

    Returns the new root and the distinct new nodes eliminating `x`, in the
    order first built.
    """
    node = store.nodes[root]
    if node.is_atomic or not node.sov:
        raise InternalError("decompose-sum needs a composite root with a sov")
    marg, last = node.sov[-1]
    if marg not in CHANCE_MARGS or x not in last:
        raise InternalError(f"variable {x} is not in the innermost chance block")
    comb: Op | None = None
    wrappers = []
    inners: dict[int, None] = {}  # insertion-ordered set
    for gid in node.children:
        members, comb = _group_members(store, gid, comb)
        plus = [m for m in members if x in store.scope(m)]
        minus = [m for m in members if x not in store.scope(m)]
        if not plus:
            # the conditional table of x keeps x in every group's scope until now
            raise InternalError(f"group {gid} lost all factors over variable {x}")
        inner = store.composite([(marg, (x,))], comb, plus)
        if inner in minus:
            raise InternalError("inner elimination node collides with a factor")
        inners[inner] = None
        wrappers.append(store.composite([], comb, minus + [inner]))
    if len(set(wrappers)) != len(node.children):
        raise InternalError("decomposition collapsed two distinct groups")
    new_sov = node.sov[:-1] + ((marg, tuple(v for v in last if v != x)),)
    out = store.composite(new_sov, node.comb, wrappers)
    _emit(trace, "decompose-sum", root, out, var=x)
    return out, list(inners)


def recompose_sum(store: NodeStore, nid: int,
                  trace: RewriteTrace | None = None) -> int:
    """Merge nested same-operator eliminations whose variables are free to move.

    Applied to fixpoint; returns the input id when nothing applies.
    """
    while True:
        node = store.nodes[nid]
        if node.is_atomic or len(node.sov) != 1:
            return nid
        marg, block = node.sov[0]
        if marg not in CHANCE_MARGS:
            return nid
        merged = None
        for cand in node.children:
            cn = store.nodes[cand]
            if cn.is_atomic or cn.comb is not node.comb:
                continue
            if len(cn.sov) != 1 or cn.sov[0][0] is not marg:
                continue
            inner_block = cn.sov[0][1]
            rest = [c for c in node.children if c != cand]
            rest_scope: set[int] = set()
            for c in rest:
                rest_scope |= store.scope(c)
            if set(inner_block) & (set(block) | rest_scope):
                continue
            if set(cn.children) & set(rest):
                continue  # a shared factor would be silently deduplicated
            merged = store.composite([(marg, block + inner_block)], node.comb,
                                     rest + list(cn.children))
            break
        if merged is None:
            return nid
        _emit(trace, "recompose-sum", nid, merged)
        nid = merged


def simplify_normalized(store: NodeStore, nid: int,
                        trace: RewriteTrace | None = None) -> int:
    """Drop eliminated variables whose conditional table is the only mention.

    Sound because each row of a conditional table sums to 1 (prob) or has
    minimum co-possibility 0 (poss).  The only rule with a real precondition:
    the variable must not appear in any other child's scope.
    """
    while True:
        node = store.nodes[nid]
        if node.is_atomic or len(node.sov) != 1:
            return nid
        marg, block = node.sov[0]
        if marg not in CHANCE_MARGS:
            return nid
        found = None
        for x in block:
            for c in node.children:
                cn = store.nodes[c]
                if not cn.is_atomic or cn.table.cpt_for != x:
                    continue
                rest = [k for k in node.children if k != c]
                rest_scope: set[int] = set()
                for k in rest:
                    rest_scope |= store.scope(k)
                if x in rest_scope:
                    continue
                found = (x, rest)
                break
            if found:
                break
        if found is None:
            return nid
        x, rest = found
        out = store.composite([(marg, tuple(v for v in block if v != x))],
                              node.comb, rest)
        _emit(trace, "simplify-normalized", nid, out, var=x)
        nid = out


def drop_unit_children(store: NodeStore, nid: int,
                       trace: RewriteTrace | None = None) -> int:
    """Remove empty-product children: their value is the combination identity."""
    node = store.nodes[nid]
    if node.is_atomic or node.sov != ():
        return nid
    keep = []
    for c in node.children:
        cn = store.nodes[c]
        unit = (not cn.is_atomic and cn.sov == () and cn.children == ()
                and cn.comb is node.comb)
        if not unit:
            keep.append(c)
    if len(keep) == len(node.children):
        return nid
    out = store.composite([], node.comb, keep)
    _emit(trace, "drop-unit", nid, out)
    return out


def decompose_max(store: NodeStore, root: int, x: int,
                  trace: RewriteTrace | None = None,
                  debug: bool = False) -> tuple[int, int | None]:
    """Push the innermost decision elimination of `x` into the groups.

    Factors common to every group mentioning x, and themselves free of x,
    are hoisted out of the new max node.  Returns the new root and the new
    node eliminating `x`, or None when no group mentions `x`.
    """
    node = store.nodes[root]
    if node.is_atomic or not node.sov:
        raise InternalError("decompose-max needs a composite root with a sov")
    marg, last = node.sov[-1]
    if marg is not Op.MAX or x not in last:
        raise InternalError(f"variable {x} is not in the innermost decision block")
    new_sov = node.sov[:-1] + ((marg, tuple(v for v in last if v != x)),)
    comb: Op | None = None
    plus, minus = [], []
    for gid in node.children:
        _, comb = _group_members(store, gid, comb)
        (plus if x in store.scope(gid) else minus).append(gid)
    if not plus:
        out = store.composite(new_sov, node.comb, node.children)
        _emit(trace, "decompose-max", root, out, var=x)
        return out, None
    common = set(store.nodes[plus[0]].children)
    for gid in plus[1:]:
        common &= set(store.nodes[gid].children)
    pulled = sorted(m for m in common if x not in store.scope(m))
    _require_nonneg(store, pulled, "decompose-max")
    if debug:
        _sample_nonneg(store, [m for gid in plus
                               for m in store.nodes[gid].children
                               if x not in store.scope(m)])
    pulled_set = set(pulled)
    inner_groups = []
    for gid in plus:
        members = [m for m in store.nodes[gid].children if m not in pulled_set]
        inner_groups.append(store.composite([], comb, members))
    if len(set(inner_groups)) != len(plus):
        raise InternalError("decision decomposition collapsed two groups")
    inner = store.composite([(Op.MAX, (x,))], node.comb, inner_groups)
    wrapper = store.composite([], comb, pulled + [inner])
    kids = minus + [wrapper]
    if len(set(kids)) != len(minus) + 1:
        raise InternalError("decision wrapper collides with an unrelated group")
    out = store.composite(new_sov, node.comb, kids)
    _emit(trace, "decompose-max", root, out, var=x, inner=inner)
    return out, inner


def recompose_max(store: NodeStore, nid: int, trace: RewriteTrace | None = None,
                  debug: bool = False) -> int:
    """Merge a nested decision elimination into this one when its variables
    are absent from everything else in sight.  Fixpoint; no-op on non-match."""
    while True:
        node = store.nodes[nid]
        if node.is_atomic or len(node.sov) != 1:
            return nid
        marg, block = node.sov[0]
        if marg is not Op.MAX:
            return nid
        hit = None
        for gid in node.children:
            gn = store.nodes[gid]
            if gn.is_atomic or gn.sov != ():
                continue
            for m in gn.children:
                mn = store.nodes[m]
                if mn.is_atomic or len(mn.sov) != 1:
                    continue
                if mn.sov[0][0] is not Op.MAX or mn.comb is not node.comb:
                    continue
                sub_block = mn.sov[0][1]
                siblings = [h for h in node.children if h != gid]
                n2 = [k for k in gn.children if k != m]
                blocked: set[int] = set(block)
                for h in siblings:
                    blocked |= store.scope(h)
                for k in n2:
                    blocked |= store.scope(k)
                if set(sub_block) & blocked:
                    continue
                hit = (gn.comb, mn.children, siblings, n2, sub_block)
                break
            if hit:
                break
        if hit is None:
            return nid
        gcomb, subs, siblings, n2, sub_block = hit
        _require_nonneg(store, n2, "recompose-max")
        if debug:
            _sample_nonneg(store, n2)
        new_groups = []
        for sub in subs:
            members3, _ = _group_members(store, sub, gcomb)
            if not n2:
                new_groups.append(sub)  # the merged group is `sub` itself
                continue
            if set(n2) & set(members3):
                raise InternalError("merge would silently drop a shared factor")
            new_groups.append(store.composite([], gcomb, n2 + list(members3)))
        if len(set(new_groups)) != len(subs):
            raise InternalError("recompose-max collapsed two inner groups")
        kids = siblings + new_groups
        if len(set(kids)) != len(siblings) + len(new_groups):
            raise InternalError("recompose-max collided with a sibling group")
        out = store.composite([(Op.MAX, block + sub_block)], node.comb, kids)
        _emit(trace, "recompose-max", nid, out)
        nid = out


# --------------------------------------------------------------------------
# Driver

def _rebuild_root(store: NodeStore, root: int, repl: dict[int, int]) -> int:
    node = store.nodes[root]
    kids = [repl.get(c, c) for c in node.children]
    if len(set(kids)) != len(node.children):
        raise InternalError("rebuilding the root collapsed two children")
    return store.composite(node.sov, node.comb, kids)


def _sum_step(store: NodeStore, root: int, x: int, trace: RewriteTrace) -> int:
    root, inners = decompose_sum(store, root, x, trace)
    outs: dict[int, int] = {}
    for i in inners:
        outs[i] = recompose_sum(store, i, trace)
    for i in inners:
        outs[i] = simplify_normalized(store, outs[i], trace)
    changed = {k: v for k, v in outs.items() if k != v}
    if not changed:
        return root
    repl: dict[int, int] = {}
    for w in store.nodes[root].children:
        wn = store.nodes[w]
        members = list(wn.children)
        new_members = [changed.get(m, m) for m in members]
        if new_members == members:
            continue
        if len(set(new_members)) != len(members):
            raise InternalError("rewriting collapsed two factors of one group")
        w2 = store.composite([], wn.comb, new_members)
        repl[w] = drop_unit_children(store, w2, trace)
    if not repl:
        raise InternalError("rewritten elimination nodes appear in no group")
    return _rebuild_root(store, root, repl)


def _max_step(store: NodeStore, root: int, x: int, trace: RewriteTrace,
              debug: bool) -> int:
    root, inner = decompose_max(store, root, x, trace, debug)
    if inner is None:
        return root  # the decision was irrelevant and silently dropped
    merged = recompose_max(store, inner, trace, debug)
    if merged == inner:
        return root
    repl: dict[int, int] = {}
    for w in store.nodes[root].children:
        wn = store.nodes[w]
        if inner in wn.children:
            members = [merged if m == inner else m for m in wn.children]
            if len(set(members)) != len(wn.children):
                raise InternalError("merged decision node collides with a factor")
            repl[w] = store.composite([], wn.comb, members)
    if len(repl) != 1:
        raise InternalError("the new decision node must live in exactly one group")
    return _rebuild_root(store, root, repl)


def remove_passthrough(store: NodeStore, root: int) -> int:
    """Collapse (no-elimination, single-child) nodes, bottom-up; may return an atom."""
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        nid, done = stack.pop()
        if done:
            order.append(nid)
            continue
        if nid in seen:
            continue
        seen.add(nid)
        stack.append((nid, True))
        for c in store.nodes[nid].children:
            stack.append((c, False))
    resolved: dict[int, int] = {}
    for nid in order:
        node = store.nodes[nid]
        if node.is_atomic:
            resolved[nid] = nid
            continue
        kids = [resolved[c] for c in node.children]
        if node.sov == () and len(kids) == 1:
            resolved[nid] = kids[0]
            continue
        if kids == list(node.children):
            resolved[nid] = nid
            continue
        if len(set(kids)) != len(kids):
            raise InternalError("cleanup collapsed two distinct children")
        resolved[nid] = store.composite(node.sov, node.comb, kids)
    return resolved[root]


def macrostructure(store: NodeStore, root: int,
                   plan: list[tuple[Op, tuple[int, ...]]] | None = None,
                   debug: bool = False) -> tuple[int, RewriteTrace]:
    """Run the full rewrite: consume the elimination plan right to left,
    variables within a block right to left, then clean up pass-through nodes.

    `plan` is the uncanonicalized initial sequence (declaration order inside
    blocks); it must agree with the root's canonical sov.  Deterministic:
    identical input gives an identical trace and final DAG.
    """
    node = store.nodes[root]
    if node.is_atomic:
        return root, []
    if plan is None:
        plan = list(node.sov)
    if canonical_sov(plan) != node.sov:
        raise InternalError("elimination plan disagrees with the root")
    trace: RewriteTrace = []
    for op, block in reversed(list(plan)):
        for x in reversed(list(block)):
            if op is Op.MAX:
                root = _max_step(store, root, x, trace, debug)
            else:
                root = _sum_step(store, root, x, trace)
    return remove_passthrough(store, root), trace


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
