"""Rewriting rules that turn the initial node into a mono-operator DAG.

Six rules, applied by a deterministic driver one elimination variable at a
time, innermost first.  The barren chance variables never reach them:
`initial_node` leaves them out (see `InfluenceDiagram.barren`).

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

A step should cost what it changes, so a rule that knows a new node's scope
and a canonical sov hands both to `NodeStore.intern`, which then takes no
union and does not re-sort the sov.  Scopes are the store's bitmasks, so
below `|` is union, `& ~bit(x)` removes `x` and `&` tests for a shared
variable:
  - the new root of decompose-sum/-max, and the result of recompose-sum/-max,
    keeps the mask of the node it replaces; its sov is the stored one with
    `x` taken out of the innermost block (an emptied block dropped), or
    with the merged block sorted;
  - a decompose-sum inner node has the `|` of its members mentioning `x`,
    `& ~bit(x)`, under the one-block sov `((marg, (x,)),)`; its wrapper
    has mask(group) `& ~bit(x)`, and drop-unit keeps the mask;
  - decompose-max's new max node has the `|` of its inner groups
    `& ~bit(x)`, and its wrapper that mask `|` the hoisted factors' (together,
    the `|` of the groups holding `x`, `& ~bit(x)`);
  - simplify-normalized may shrink a scope: the dropped table's parents
    leave unless another child mentions them.  Its result gets the `|` its
    precondition already took, less the kept block, and a group or root
    rebuilt over a shrunk node is re-unioned (or, for the root, `&`-ed with
    the `|` of its new children).
The other build (the groups inside a new max node) goes through the
ordinary path.  Root-wide checks (is every child a group of one comb,
which members hold a nested max, which groups mention `x`) run as one
C-level pass over per-node facts the store keeps, not as a Python call
per group.

Decompose-max and recompose-max read the members of the groups that
mention `x` and of no other root group; the rest of the root is handled by
C-level passes over ids and per-node facts (as is `_max_step`'s search for
the group holding a merged node).  Decompose-max finds the groups
mentioning `x` in one pass, keeps the others by slicing the sorted
children around them, and tests the wrapper against the root by
bisection; when nothing is hoisted, the groups themselves go under the new
max node, as rebuilding each over all its members would return its own id.  Recompose-max records in the store each
node it finds holding no nested max of its own comb; a merge that keeps
exactly the nested node's groups (no sibling group, no other member beside
it) inherits that record, so on `chain(n)` the merged node of every step is
not scanned again.  Its distinctness checks run only where they can fire:
over new groups when other members are merged in, and against siblings
when there are any.

Hoisting a common factor out of a max is only sound when the factor cannot
be negative.  Probability-derived factors (every atomic descendant is a
conditional table or its possibilistic complement, i.e. has `cpt_for` set)
are nonnegative because validation refuses a negative conditional cell, and
in the pessimistic possibilistic mode every value lives in [0, 1]; both
rules check this structural fact on every hoist.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import chain, compress, filterfalse, repeat
from operator import and_, attrgetter, contains, is_, is_not, not_, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .factors import InternalError, Op
from .nodes import NodeStore, SovPairs, _record, canonical_sov, mask_of

_CHILDREN = attrgetter("children")


class TraceEvent(NamedTuple):
    """One rule application: a record that compares by value and cannot be
    changed, built like `CompNode` without NamedTuple's Python-level __new__."""

    rule: str
    target: int
    produced: int
    var: int | None = None
    inner: int | None = None


RewriteTrace = list[TraceEvent]


def _emit(trace: RewriteTrace | None, rule: str, target: int, produced: int,
          var: int | None = None, inner: int | None = None) -> None:
    if trace is not None:
        trace.append(_record(TraceEvent, (rule, target, produced, var, inner)))


def _group_members(store: NodeStore, gid: int, comb: Op | None) -> tuple[tuple[int, ...], Op]:
    g = store.nodes[gid]
    if g.is_atomic or g.sov != () or (comb is not None and g.comb is not comb):
        raise InternalError(f"node {gid} is not a combination group")
    return g.children, g.comb


def _groups_comb(store: NodeStore, gids: Sequence[int], comb: Op | None = None) -> Op | None:
    """The one comb shared by the groups `gids` (`comb` when given), read in
    one C-level pass; otherwise `_group_members` names the first offender."""
    combs = set(map(store._group_combs.__getitem__, gids))
    if None in combs or len(combs) > 1 or (comb is not None and not combs <= {comb}):
        for gid in gids:
            _, comb = _group_members(store, gid, comb)
    return next(iter(combs), comb)


def _split(store: NodeStore, ids: Sequence[int], x: int) -> tuple[list[int], list[int]]:
    """(the ids whose scope mentions x, the others), each in input order."""
    has = list(map(and_, map(store._scopes.__getitem__, ids), repeat(1 << x)))
    return list(compress(ids, has)), list(compress(ids, map(not_, has)))


def _others(ids: Sequence[int], some: Sequence[int]) -> list[int]:
    """The sorted `ids` less `some`, a subsequence of them: one slice per gap."""
    out: list[int] = []
    lo = 0
    for s in some:
        i = bisect_left(ids, s, lo)
        out += ids[lo:i]
        lo = i + 1
    out += ids[lo:]
    return out


def _union(store: NodeStore, ids: Iterable[int]) -> int:
    """The union of the scope bitmasks of `ids`."""
    return reduce(or_, map(store._scopes.__getitem__, ids), 0)


def _children(store: NodeStore, ids: Iterable[int]) -> Iterator[tuple[int, ...]]:
    return map(_CHILDREN, map(store.nodes.__getitem__, ids))


def _without(sov: SovPairs, x: int) -> SovPairs:
    """A canonical sov minus `x` from its innermost block: still canonical
    once an emptied block is dropped."""
    marg, last = sov[-1]
    i = last.index(x)
    rest = last[:i] + last[i + 1:]
    return sov[:-1] + (((marg, rest),) if rest else ())


def _prob_derived(store: NodeStore, nid: int, memo: dict[int, bool]) -> bool:
    if nid in memo:
        return memo[nid]
    node = store.nodes[nid]
    if node.is_atomic:
        out = node.table.cpt_for is not None
    else:
        out = all(_prob_derived(store, c, memo) for c in node.children)
    memo[nid] = out
    return out


def _require_nonneg(store: NodeStore, ids: list[int], rule: str) -> None:
    # [0,1]-valued stores are nonnegative throughout; otherwise demand
    # probability-derived structure before hoisting a factor out of a max.
    if store.ops.unit_interval:
        return
    memo: dict[int, bool] = {}
    for nid in ids:
        if not _prob_derived(store, nid, memo):
            raise InternalError(
                f"{rule}: factor {nid} could be negative and cannot leave the max")


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
    if marg is not store.ops.chance_marg or x not in last:
        raise InternalError(f"variable {x} is not in the innermost chance block")
    scopes = store._scopes
    no_x = ~(1 << x)
    inner_sov = ((marg, (x,)),)
    comb: Op | None = None
    wrappers = []
    inners: dict[int, None] = {}  # insertion-ordered set
    for gid in node.children:
        members, comb = _group_members(store, gid, comb)
        plus, minus = _split(store, members, x)
        if not plus:
            # the conditional table of x keeps x in every group's scope until now
            raise InternalError(f"group {gid} lost all factors over variable {x}")
        inner = store.composite(inner_sov, comb, plus, scope=_union(store, plus) & no_x)
        if inner in minus:
            raise InternalError("inner elimination node collides with a factor")
        inners[inner] = None
        minus.append(inner)
        wrappers.append(store.composite((), comb, minus, scope=scopes[gid] & no_x))
    if len(set(wrappers)) != len(node.children):
        raise InternalError("decomposition collapsed two distinct groups")
    out = store.composite(_without(node.sov, x), node.comb, wrappers, scope=scopes[root])
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
        if marg is not store.ops.chance_marg:
            return nid
        merged = None
        for cand in node.children:
            cn = store.nodes[cand]
            if cn.is_atomic or cn.comb is not node.comb:
                continue
            if len(cn.sov) != 1 or cn.sov[0][0] is not marg:
                continue
            inner_block = cn.sov[0][1]
            rest = list(filter(cand.__ne__, node.children))
            if (_union(store, rest) | mask_of(block)) & mask_of(inner_block):
                continue
            if not set(cn.children).isdisjoint(rest):
                continue  # a shared factor would be silently deduplicated
            merged = store.composite(((marg, tuple(sorted(block + inner_block))),),
                                     node.comb, rest + list(cn.children),
                                     scope=store._scopes[nid])
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
    the variable must not appear in any other child's scope.  Dropping the
    table can shrink the scope: its parents leave unless another child
    mentions them.
    """
    while True:
        node = store.nodes[nid]
        if node.is_atomic or len(node.sov) != 1:
            return nid
        marg, block = node.sov[0]
        if marg is not store.ops.chance_marg:
            return nid
        found = None
        for x in block:
            for c in node.children:
                cn = store.nodes[c]
                if not cn.is_atomic or cn.table.cpt_for != x:
                    continue
                rest = list(filter(c.__ne__, node.children))
                rest_scope = _union(store, rest)
                if rest_scope >> x & 1:
                    continue
                found = (x, rest, rest_scope)
                break
            if found:
                break
        if found is None:
            return nid
        x, rest, rest_scope = found
        keep = tuple(v for v in block if v != x)
        out = store.composite(((marg, keep),) if keep else (), node.comb, rest,
                              scope=rest_scope & ~mask_of(keep))
        _emit(trace, "simplify-normalized", nid, out, var=x)
        nid = out


def drop_unit_children(store: NodeStore, nid: int,
                       trace: RewriteTrace | None = None) -> int:
    """Remove empty-product children: their value is the combination identity."""
    node = store.nodes[nid]
    if node.is_atomic or node.sov != ():
        return nid
    # the one empty product under this comb, if it was ever interned
    unit = store.lookup((), node.comb, ())
    if unit is None or unit not in node.children:
        return nid
    out = store.composite((), node.comb, list(filter(unit.__ne__, node.children)),
                          scope=store._scopes[nid])
    _emit(trace, "drop-unit", nid, out)
    return out


def decompose_max(store: NodeStore, root: int, x: int,
                  trace: RewriteTrace | None = None) -> tuple[int, int | None]:
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
    new_sov = _without(node.sov, x)
    scopes = store._scopes
    kids = node.children
    comb = _groups_comb(store, kids)
    bit = 1 << x
    plus = list(compress(kids, map(and_, map(scopes.__getitem__, kids), repeat(bit))))
    if not plus:
        out = store.composite(new_sov, node.comb, kids, scope=scopes[root])
        _emit(trace, "decompose-max", root, out, var=x)
        return out, None
    common = set(store.nodes[plus[0]].children).intersection(*_children(store, plus[1:]))
    pulled_set = {m for m in common if not scopes[m] & bit}
    pulled = sorted(pulled_set)
    _require_nonneg(store, pulled, "decompose-max")
    if pulled:
        inner_groups = [store.composite((), comb, filterfalse(pulled_set.__contains__, members))
                        for members in _children(store, plus)]
        if len(set(inner_groups)) != len(plus):
            raise InternalError("decision decomposition collapsed two groups")
    else:
        inner_groups = plus  # a group rebuilt over all its members is itself
    inner = store.composite(((Op.MAX, (x,)),), node.comb, inner_groups,
                            scope=_union(store, inner_groups) & ~bit)
    wrapper = store.composite((), comb, pulled + [inner],
                              scope=scopes[inner] | _union(store, pulled))
    # The wrapper does not mention x, so a root child equal to it would be
    # one of the groups it is to sit beside.
    i = bisect_left(kids, wrapper)
    if i < len(kids) and kids[i] == wrapper:
        raise InternalError("decision wrapper collides with an unrelated group")
    minus = _others(kids, plus)
    minus.append(wrapper)
    out = store.composite(new_sov, node.comb, minus, scope=scopes[root])
    _emit(trace, "decompose-max", root, out, var=x, inner=inner)
    return out, inner


def recompose_max(store: NodeStore, nid: int, trace: RewriteTrace | None = None) -> int:
    """Merge a nested decision elimination into this one when its variables
    are absent from everything else in sight.  Fixpoint; no-op on non-match.

    A node found to hold no nested max of its own comb is recorded in
    `store._no_nested_max`.  A merge with no sibling group and no other
    member beside the nested max `m` keeps exactly `m`'s groups under `m`'s
    comb, so its result inherits `m`'s entry and is not scanned again."""
    scopes, group_combs, max_combs = store._scopes, store._group_combs, store._max_combs
    proved = store._no_nested_max
    while True:
        if nid in proved:
            return nid
        node = store.nodes[nid]
        if node.is_atomic or len(node.sov) != 1:
            return nid
        marg, block = node.sov[0]
        if marg is not Op.MAX:
            return nid
        kids = node.children
        groups = list(compress(kids, map(is_not, map(group_combs.__getitem__, kids), repeat(None))))
        members = list(_children(store, groups))
        if node.comb not in map(max_combs.__getitem__, chain.from_iterable(members)):
            proved.add(nid)
            return nid  # no group holds a nested max to merge
        hit = None
        for gid, gn_children in zip(groups, members):
            # single-block MAX members over this node's comb, in member order
            for m in compress(gn_children, map(is_, map(max_combs.__getitem__, gn_children),
                                               repeat(node.comb))):
                sub_block = store.nodes[m].sov[0][1]
                siblings = list(filter(gid.__ne__, node.children))
                n2 = list(filter(m.__ne__, gn_children))
                blocked = _union(store, chain(siblings, n2)) | mask_of(block)
                if blocked & mask_of(sub_block):
                    continue
                hit = (group_combs[gid], m, siblings, n2, sub_block)
                break
            if hit:
                break
        if hit is None:
            return nid
        gcomb, m, siblings, n2, sub_block = hit
        subs = store.nodes[m].children
        _require_nonneg(store, n2, "recompose-max")
        _groups_comb(store, subs, gcomb)
        if n2:  # otherwise each merged group is `sub` itself
            n2_set, n2_scope = set(n2), _union(store, n2)
            new_groups = []
            for sub, members3 in zip(subs, _children(store, subs)):
                if not n2_set.isdisjoint(members3):
                    raise InternalError("merge would silently drop a shared factor")
                new_groups.append(store.composite((), gcomb, n2 + list(members3),
                                                  scope=n2_scope | scopes[sub]))
            if len(set(new_groups)) != len(subs):
                raise InternalError("recompose-max collapsed two inner groups")
        else:
            new_groups = list(subs)
        kids = siblings + new_groups
        if siblings and len(set(kids)) != len(kids):
            raise InternalError("recompose-max collided with a sibling group")
        out = store.composite(((Op.MAX, tuple(sorted(block + sub_block))),), node.comb,
                              kids, scope=scopes[nid])
        _emit(trace, "recompose-max", nid, out)
        if not (siblings or n2) and m in proved:
            proved.add(out)
        nid = out


# --------------------------------------------------------------------------
# Driver

def _rebuild_root(store: NodeStore, root: int, repl: dict[int, int], shrunk: bool) -> int:
    """The root over its children with `repl` applied.  A replacement's scope
    is within the one it replaces (`shrunk` says whether any is smaller), so
    the root keeps its scope but for variables no child mentions any more."""
    node = store.nodes[root]
    kids = list(map(repl.get, node.children, node.children))
    if len(set(kids)) != len(node.children):
        raise InternalError("rebuilding the root collapsed two children")
    scope = store._scopes[root]
    if shrunk and scope:
        scope &= _union(store, kids)
    return store.composite(node.sov, node.comb, kids, scope=scope)


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
    scopes = store._scopes
    # simplify may shrink a scope; a group holding such a node is re-unioned
    shrunk = {k for k, v in changed.items() if scopes[k] != scopes[v]}
    repl: dict[int, int] = {}
    for w, members in zip(store.nodes[root].children,
                          _children(store, store.nodes[root].children)):
        new_members = tuple(map(changed.get, members, members))
        if new_members == members:
            continue
        if len(set(new_members)) != len(members):
            raise InternalError("rewriting collapsed two factors of one group")
        w2 = store.composite((), store.nodes[w].comb, new_members,
                             scope=scopes[w] if shrunk.isdisjoint(members) else None)
        repl[w] = drop_unit_children(store, w2, trace)
    if not repl:
        raise InternalError("rewritten elimination nodes appear in no group")
    return _rebuild_root(store, root, repl, bool(shrunk))


def _max_step(store: NodeStore, root: int, x: int, trace: RewriteTrace) -> int:
    root, inner = decompose_max(store, root, x, trace)
    if inner is None:
        return root  # the decision was irrelevant and silently dropped
    merged = recompose_max(store, inner, trace)
    if merged == inner:
        return root
    kids = store.nodes[root].children
    holders = list(compress(kids, map(contains, _children(store, kids), repeat(inner))))
    if len(holders) != 1:
        raise InternalError("the new decision node must live in exactly one group")
    w = holders[0]
    wn = store.nodes[w]
    members = [merged if m == inner else m for m in wn.children]
    if len(set(members)) != len(wn.children):
        raise InternalError("merged decision node collides with a factor")
    # recompose-max keeps the scope of what it merges, so every scope stays
    repl = {w: store.composite((), wn.comb, members, scope=store._scopes[w])}
    return _rebuild_root(store, root, repl, False)


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
        # a pass-through node has its one child's scope, so the scope stays
        resolved[nid] = store.composite(node.sov, node.comb, kids,
                                        scope=store._scopes[nid])
    return resolved[root]


def macrostructure(store: NodeStore, root: int,
                   plan: list[tuple[Op, tuple[int, ...]]] | None = None
                   ) -> tuple[int, RewriteTrace]:
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
                root = _max_step(store, root, x, trace)
            else:
                root = _sum_step(store, root, x, trace)
    return remove_passthrough(store, root), trace

