"""Computation-node algebra over an interning store.

A node is either atomic (one scoped table) or composite: a sequence of
(marginalization operator, variable block) pairs applied, leftmost outermost,
to the combination of its children.  Nodes are immutable and live in an
append-only store that interns structure, so structurally equal nodes share
one id and the expression is a DAG rather than a tree.

Equality is by interned child ids, not deep structure; atomic nodes compare
by table identity, matching the table-identity semantics of ScopedTable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .diagram import InfluenceDiagram, mode_ops, sov0
from .factors import (
    COMBINE_OPS,
    MARGINAL_OPS,
    InternalError,
    Op,
    ScopedTable,
    UnknownVariableError,
    identity,
)

SovPairs = tuple[tuple[Op, tuple[int, ...]], ...]


def canonical_sov(pairs: Iterable[tuple[Op, Iterable[int]]]) -> SovPairs:
    """Sort variables inside blocks, drop empty blocks, merge adjacent same-op blocks."""
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


@dataclass(frozen=True)
class CompNode:
    """Atomic when `table` is set (sov/children empty, comb None)."""

    sov: SovPairs
    comb: Op | None
    children: tuple[int, ...]
    table: ScopedTable | None = None

    @property
    def is_atomic(self) -> bool:
        return self.table is not None

    def sov_vars(self) -> frozenset[int]:
        return frozenset(v for _, block in self.sov for v in block)


class NodeStore:
    """Append-only interning arena; single writer, then safe to read concurrently."""

    def __init__(self, sizes: Sequence[int], names: Sequence[str] | None = None,
                 unit_interval: bool = False):
        self.sizes = tuple(int(s) for s in sizes)
        self.names = tuple(names) if names is not None else \
            tuple(f"v{i}" for i in range(len(self.sizes)))
        self.unit_interval = unit_interval
        self.nodes: list[CompNode] = []
        self._index: dict[object, int] = {}
        self._scopes: list[frozenset[int]] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> CompNode:
        return self.nodes[nid]

    def scope(self, nid: int) -> frozenset[int]:
        return self._scopes[nid]

    def atomic(self, table: ScopedTable) -> int:
        return self.intern(CompNode((), None, (), table))

    def composite(self, sov: Iterable[tuple[Op, Iterable[int]]], comb: Op,
                  children: Iterable[int]) -> int:
        return self.intern(CompNode(tuple(sov), comb, tuple(children)))

    def intern(self, node: CompNode) -> int:
        """Return the id of a structurally equal stored node, interning if new.

        A composite node's sov and children are canonicalized here, so they
        may arrive in any order.  Only a new key is validated: every stored
        key passed validation when it was stored.  Validation relies on the
        canonical form: each sov block is sorted and non-empty and the
        children are sorted, so checking the end points of each range covers
        every id in it.
        """
        if node.is_atomic:
            key: object = ("atom", id(node.table))
            found = self._index.get(key)
            if found is not None:
                return found
            scope = frozenset(node.table.scope)
        else:
            sov = canonical_sov(node.sov)
            children = tuple(sorted(set(node.children)))
            key = (sov, node.comb, children)
            found = self._index.get(key)
            if found is not None:
                return found
            if node.comb not in COMBINE_OPS:
                raise InternalError(f"bad combination operator {node.comb}")
            for op, block in sov:
                if op not in MARGINAL_OPS:
                    raise InternalError(f"{op} cannot marginalize")
                if block[0] < 0 or block[-1] >= len(self.sizes):
                    raise InternalError(f"unknown variable in sov block {block}")
            if children and (children[0] < 0 or children[-1] >= len(self.nodes)):
                raise InternalError(f"dangling child id in {children}")
            node = CompNode(sov, node.comb, children)
            scope = frozenset().union(*map(self._scopes.__getitem__, children)) \
                - node.sov_vars()
        nid = len(self.nodes)
        self.nodes.append(node)
        self._index[key] = nid
        self._scopes.append(scope)
        return nid


def store_for(d: InfluenceDiagram) -> NodeStore:
    return NodeStore(d.sizes, d.names, mode_ops(d.mode).unit_interval)


def initial_node(store: NodeStore, d: InfluenceDiagram) -> int:
    """Root node whose value is the diagram's optimal value.

    One group per utility: prob mode combines all conditional tables with the
    utility under TIMES and sums groups; poss mode combines the complemented
    tables (1 - pi, built once and shared) with the utility under MAX and
    takes MIN over groups.  The root applies the initial elimination sequence.
    """
    ops = mode_ops(d.mode)
    if d.mode == "poss":
        base = [_complement(d.cpts[x]) for x in sorted(d.cpts)]
    else:
        base = [d.cpts[x] for x in sorted(d.cpts)]
    base_ids = [store.atomic(t) for t in base]
    groups = [store.composite((), ops.group_comb, base_ids + [store.atomic(u)])
              for u in d.utilities]
    return store.composite(sov0(d), ops.outer_comb, groups)


def _complement(t: ScopedTable) -> ScopedTable:
    return ScopedTable(t.scope, t.sizes, 1.0 - t.values, tag="probability",
                       name=f"co_{t.name}" if t.name else None, cpt_for=t.cpt_for)


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
        acc = identity(node.comb, store.unit_interval)
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


def reachable(store: NodeStore, root: int) -> list[int]:
    """Ids reachable from `root`, ascending."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        stack.extend(store.nodes[nid].children)
    return sorted(seen)


def node_count(store: NodeStore, root: int) -> int:
    return len(reachable(store, root))


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


def _sov_label(store: NodeStore, sov: SovPairs) -> str:
    return " ".join(
        f"{op.value}_{{{','.join(store.names[v] for v in block)}}}" for op, block in sov)


def to_dot(store: NodeStore, root: int | None = None) -> str:
    """Deterministic DOT rendering of the node DAG (ids ascending)."""
    ids = reachable(store, root) if root is not None else list(range(len(store.nodes)))
    lines = ["digraph nodes {", "  rankdir=BT;", "  node [shape=record];"]
    for nid in ids:
        node = store.nodes[nid]
        if node.table is not None:
            label = node.table.name or "table"
            sc = ",".join(store.names[v] for v in node.table.scope)
            lines.append(f'  n{nid} [label="{{{label}({sc})}}", shape=box];')
        else:
            sov = _sov_label(store, node.sov) or "id"
            lines.append(f'  n{nid} [label="{{{sov} | {node.comb.value}}}"];')
    for nid in ids:
        for c in store.nodes[nid].children:
            lines.append(f"  n{nid} -> n{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"
