"""Computation-node algebra over an interning store.

A node is either atomic (one scoped table) or composite: a sequence of
(marginalization operator, variable block) pairs applied, leftmost outermost,
to the combination of its children.  Nodes are immutable and live in an
append-only store that interns structure, so structurally equal nodes share
one id and the expression is a DAG rather than a tree.

Each stored node is a `CompNode` record, a `NamedTuple`: a tuple subclass
with no per-instance `__dict__`, so a field cannot be assigned after the
record is built, and `is_atomic` is a field set then rather than a property.
`NodeStore.intern` canonicalizes a composite's parts, builds its record and
probes the index with it.  Records compare by value, field by field, as
tuples do.  Equality is therefore by interned child ids, not deep
structure; atomic nodes compare by table identity, matching the
table-identity semantics of ScopedTable.

A composite's index key is its own record.  `intern` inserts the record it
built with one `dict.setdefault`, so a composite is hashed once whether it
is new or not; on a hit the record is dropped, on a miss it is stored once,
as the node and as its key, and a key that fails validation is taken out of
the index again before the error is raised.  An atom is keyed by the `id`
of its table.  `NodeStore.lookup` canonicalizes a composite's parts as
`intern` does without a scope and returns the stored id, or None; it stores
nothing, so callers that only ask whether a node exists need not know the
key's layout.

The store keeps each node's scope as an int bitmask, bit v set when variable
v is in scope (`mask_of`): union is `|`, removing a variable is `& ~bit` and
a disjointness test is `&`, each one C-level operation on a few machine
words, and an int is a fraction of the size of a frozenset and is not
tracked by the garbage collector.  `NodeStore.scope` turns the mask back
into a frozenset (`bits`) for callers outside the compile layers.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .diagram import MODES, InfluenceDiagram, ModeOps, mode_ops, sov0
from .factors import (
    COMBINE_OPS,
    MARGINAL_OPS,
    InternalError,
    Op,
    ScopedTable,
)

SovPairs = tuple[tuple[Op, tuple[int, ...]], ...]

_BIT = (1).__lshift__


def mask_of(vs: Iterable[int]) -> int:
    """The bitmask of the distinct variables `vs`."""
    return sum(map(_BIT, vs))


def bits(mask: int) -> frozenset[int]:
    """The variables of a bitmask: the positions of its set bits, read one
    at a time from the top (a cluster's scope holds few).  They are gathered
    in a set first: a frozenset copied from a set gets the smallest table
    that fits, one filled item by item a table grown for more."""
    out = set()
    while mask:
        v = mask.bit_length() - 1
        out.add(v)
        mask ^= 1 << v
    return frozenset(out)


def canonical_sov(pairs: Iterable[tuple[Op, Iterable[int]]]) -> SovPairs:
    """Sort variables inside blocks, drop empty blocks, merge adjacent same-op blocks.

    Each run of same-op blocks is gathered and sorted once, so a sov with
    many adjacent blocks of one operator costs a single sort per run.
    """
    out: list[tuple[Op, tuple[int, ...]]] = []
    seen: set[int] = set()
    run_op: Op | None = None
    run: list[int] = []
    for op, vs in pairs:
        block = set(vs)
        if not block:
            continue
        if not seen.isdisjoint(block):
            raise InternalError(
                f"variable repeated across sov blocks: {tuple(sorted(block))}")
        seen |= block
        if op != run_op:
            if run:
                out.append((run_op, tuple(sorted(run))))
            run_op, run = op, []
        run += block
    if run:
        out.append((run_op, tuple(sorted(run))))
    return tuple(out)


class CompNode(NamedTuple):
    """One stored node.  Atomic when `table` is set: `sov` and `children` are
    then empty, `comb` is None and `is_atomic` is True."""

    sov: SovPairs
    comb: Op | None
    children: tuple[int, ...]
    table: ScopedTable | None
    is_atomic: bool


_record = tuple.__new__  # builds a CompNode without NamedTuple's Python-level __new__


class NodeStore:
    """Append-only interning arena; single writer, then safe to read concurrently.

    `ops` holds the operators of the mode its nodes are built in."""

    def __init__(self, sizes: Sequence[int], names: Sequence[str] | None = None,
                 ops: ModeOps = MODES["prob"]):
        self.sizes = tuple(int(s) for s in sizes)
        self.names = tuple(names) if names is not None else \
            tuple(f"v{i}" for i in range(len(self.sizes)))
        self.ops = ops
        self.nodes: list[CompNode] = []
        self._index: dict[object, int] = {}  # a composite's record, or id(table)
        self._scopes: list[int] = []  # one bitmask per node
        # Per-node facts read by root-wide checks in one C-level pass: the
        # comb of a sov-less composite (a group), and the comb of a node
        # with a single MAX block; None elsewhere.
        self._group_combs: list[Op | None] = []
        self._max_combs: list[Op | None] = []
        # Single-MAX nodes proved to hold no group with a single-MAX member
        # of their own comb: recompose-max has nothing to merge in them.
        self._no_nested_max: set[int] = set()
        # One-slot memos of facts a decision rule proved for the last node
        # it built (ids are never reused, so a fact read for the same id
        # holds): the root decompose-max built, with the comb of its groups;
        # the node recompose-max merged, with its block's mask and, when all
        # its children were proved groups of one comb, that comb.
        self._root_comb: tuple[int, Op | None] = (-1, None)
        self._merged_max: tuple[int, int, Op | None] = (-1, 0, None)

    def scope(self, nid: int) -> frozenset[int]:
        return bits(self._scopes[nid])

    def atomic(self, table: ScopedTable) -> int:
        return self.intern((), None, (), table=table)

    def lookup(self, sov: Iterable[tuple[Op, Iterable[int]]], comb: Op,
               children: Iterable[int]) -> int | None:
        """The id of the stored composite with these parts, or None; stores
        nothing.  The parts are canonicalized as `intern` canonicalizes them."""
        return self._index.get(
            (canonical_sov(sov), comb, tuple(sorted(set(children))), None, False))

    def intern(self, sov: Iterable[tuple[Op, Iterable[int]]], comb: Op | None,
               children: Iterable[int], scope: int | None = None,
               table: ScopedTable | None = None) -> int:
        """Return the id of the stored node with these parts, storing it if new.

        With `table` set the node is that table's atom (the other parts must
        be empty), interned by table identity.  Otherwise it is a composite:
        its sov and children are canonicalized here, so they may arrive in
        any order.  Its record is built and inserted with one
        `dict.setdefault`, which hashes it once: a stored key gives its id
        back, and a new key is validated before anything else is stored, and
        taken out of the index again if it is refused, so the store is as it
        was and the same call raises again.  Every stored key passed
        validation when it was stored.  Validation relies on the canonical
        form: each sov block is sorted and non-empty and the children are
        sorted, so checking the end points of each range covers every id in
        it.

        A caller that derived a composite from stored nodes may pass its
        `scope`, a bitmask.  It then promises three things: `sov` is already
        canonical, the children are distinct, and `scope` equals the union
        of the children's scopes minus the sov variables.  The sov is then
        used as given, the children are sorted without a set and no union is
        taken; every check still runs.  Without `scope` the children go
        through a set, so repeats collapse, and an empty sov is taken as
        `()` without `canonical_sov`.
        """
        if table is not None:
            key: object = id(table)
            found = self._index.get(key)
            if found is not None:
                return found
            node = _record(CompNode, ((), None, (), table, True))
            scope = mask_of(table.scope)
            group_comb = max_comb = None
            nid = self._index[key] = len(self.nodes)
        else:
            if scope is None:
                sov = canonical_sov(sov) if sov else ()
                children = tuple(sorted(set(children)))
            else:
                children = tuple(sorted(children))
            # the record is its own key: built once, hashed once
            node = _record(CompNode, (sov, comb, children, None, False))
            nid = len(self.nodes)
            found = self._index.setdefault(node, nid)
            if found != nid:
                return found
            try:  # a refused key leaves the index as it was
                if comb not in COMBINE_OPS:
                    raise InternalError(f"bad combination operator {comb}")
                for op, block in sov:
                    if op not in MARGINAL_OPS:
                        raise InternalError(f"{op} cannot marginalize")
                    if block[0] < 0 or block[-1] >= len(self.sizes):
                        raise InternalError(f"unknown variable in sov block {block}")
                if children and (children[0] < 0 or children[-1] >= nid):
                    raise InternalError(f"dangling child id in {children}")
            except BaseException:
                del self._index[node]
                raise
            if scope is None:
                scope = reduce(or_, map(self._scopes.__getitem__, children), 0)
                if sov:
                    scope &= ~mask_of(chain.from_iterable(block for _, block in sov))
            group_comb = None if sov else comb
            max_comb = comb if len(sov) == 1 and sov[0][0] is Op.MAX else None
        self.nodes.append(node)
        self._scopes.append(scope)
        self._group_combs.append(group_comb)
        self._max_combs.append(max_comb)
        return nid


def store_for(d: InfluenceDiagram) -> NodeStore:
    return NodeStore(d.sizes, d.names, mode_ops(d.mode))


def initial_node(store: NodeStore, d: InfluenceDiagram) -> int:
    """Root node whose value is the diagram's optimal value.

    One group per utility: prob mode combines the conditional tables with the
    utility under TIMES and sums groups; poss mode combines the complemented
    tables (1 - pi, built once and shared) with the utility under MAX and
    takes MIN over groups.  The root applies the initial elimination sequence.
    The barren variables (`InfluenceDiagram.barren`) are left out, tables and
    sov entries both: they do not change the value.  The decision blocks
    around a chance block they empty merge into one.
    """
    ops = mode_ops(d.mode)
    barren = d.barren
    kept = [d.cpts[x] for x in sorted(d.cpts) if x not in barren]
    if ops.unit_interval:
        kept = list(map(_complement, kept))
    base_ids = [store.atomic(t) for t in kept]
    groups = [store.intern((), ops.group_comb, base_ids + [store.atomic(u)])
              for u in d.utilities]
    sov = [(op, [v for v in block if v not in barren]) for op, block in sov0(d)]
    return store.intern(sov, ops.outer_comb, groups)


def _complement(t: ScopedTable) -> ScopedTable:
    return ScopedTable(t.scope, t.sizes, 1.0 - t.values,
                       name=f"co_{t.name}" if t.name else None, cpt_for=t.cpt_for)


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


def _sov_label(store: NodeStore, sov: SovPairs) -> str:
    return " ".join(
        f"{op.value}_{{{','.join(store.names[v] for v in block)}}}" for op, block in sov)


def to_dot(store: NodeStore, root: int) -> str:
    """Deterministic DOT rendering of the node DAG under `root` (ids ascending)."""
    ids = reachable(store, root)
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
