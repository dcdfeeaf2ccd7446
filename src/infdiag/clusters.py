"""Cluster DAG construction from a mono-operator node DAG.

Every composite node is decomposed on its own, straight from its children's
scopes.  A node with one variable or none needs no order search: its sov
is the order.  For a node with two or more, `find_order` takes the
children's scopes as hyperedges and returns an elimination order (found
heuristically or exhaustively).  Either way, bucket elimination turns the
order into a chain of clusters, and the children that mention no
eliminated variable go to the node's final cluster.  Fragments of shared
nodes are built once and acquire multiple parents.  Scopes arrive as the
store's bitmasks: a part goes into a bucket when `mask & bit` is set, and a
mask becomes a frozenset only for a cluster's `V` and for the hyperedges
`find_order` reads.  Cluster records are `NamedTuple`s, built like
`CompNode`.

The buckets are filled one of two ways, which give the same buckets in the
same order.  An order of fewer than `ROUTE_MIN` (16) variables scans the
pending parts once per variable.  A longer one routes each child, and each
message when it is made, once: to the bucket of the earliest order position
it holds.  Both keep parts in the order they were made, children in child
order and then messages, so a bucket lists the same parts either way.  On
`chain(n)` the merged MAX block eliminates n + 1 variables over n + 1
children, and the scan tests about n²/2 scopes there.  Routing finds a
part's position by walking its variables in Python, which costs more than
the scan on the short orders of the random and dense workloads: routing
every order took `clusterize` over a seed-1 pass from 39 to 44 ms on
`families`, 9.9 to 13.4 ms on `random_sweep` and 4.7 to 7.6 ms on
`dense_prob`.  So the split follows the order's length.  A routed part is
let go once its bucket is built, as the scan lets it go, so the parts do
not all stay alive until the node is done.

The induced width is the size of the largest hyperedge *created* while
eliminating, so the work per cluster reads d^(1+width).  A bucket spans its
variable plus the hyperedge its elimination creates, so the width is read
from the clusters: the largest one that eliminates a variable, less one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from operator import is_
from typing import Iterable, Mapping, NamedTuple, Sequence

from .factors import InternalError, Op, ResourceGuardError, ScopedTable
from .nodes import NodeStore, _record, bits, mask_of, reachable

EXHAUSTIVE_LIMIT = 10
HEURISTICS = ("min-fill", "min-degree", "exhaustive")


class Cluster(NamedTuple):
    """One cluster record, built like `CompNode` without NamedTuple's
    Python-level __new__."""

    id: int
    V: frozenset[int]
    psi: tuple[ScopedTable, ...]
    sons: tuple[int, ...]
    elim: tuple[int, ...]
    ops: tuple[Op, Op]  # (marginalization, combination)


@dataclass(frozen=True)
class MCDag:
    clusters: tuple[Cluster, ...]
    root: int
    w_mcdag: int = 0


def find_order(edges: Iterable[frozenset[int]], elim: Iterable[int],
               heuristic: str = "min-fill") -> tuple[int, ...]:
    """An elimination order of `elim` over the hyperedges `edges`."""
    todo = set(elim)
    if heuristic not in HEURISTICS:
        raise InternalError(f"unknown ordering heuristic {heuristic!r}")
    if heuristic == "exhaustive" and len(todo) > EXHAUSTIVE_LIMIT:
        raise ResourceGuardError(
            f"exhaustive ordering is limited to {EXHAUSTIVE_LIMIT} variables")
    # Neighbour sets of the primal graph: a candidate's created edge is its
    # neighbourhood.  A variable to eliminate that is in no edge has none.
    adj: defaultdict[int, set[int]] = defaultdict(set, {v: set() for v in todo})
    for e in edges:
        for v in e:
            adj[v].update(e)
    for v, nb in adj.items():
        nb.discard(v)
    if heuristic == "exhaustive":
        return _exhaustive_order(adj, frozenset(todo))
    degree = heuristic == "min-degree"
    order: list[int] = []
    remaining = sorted(todo)
    while remaining:
        best_score = -1
        best = remaining[0]
        for x in remaining:  # ascending scan: ties keep the lowest id
            nb = adj[x]
            score = len(nb) if degree else _fill_in(adj, nb)
            if best_score < 0 or score < best_score:
                best_score, best = score, x
                if score == 0:
                    break  # no later candidate can score lower
        _eliminate(adj, best)
        order.append(best)
        remaining.remove(best)
    return tuple(order)


def _eliminate(adj: dict[int, set[int]], x: int) -> None:
    """Eliminate `x` from the primal graph `adj` in place: its neighbours
    become a clique."""
    nb = adj.pop(x)
    for a in nb:
        na = adj[a]
        na.update(nb)
        na.discard(a)
        na.discard(x)


def _fill_in(adj: Mapping[int, set[int]], nb: set[int]) -> int:
    """Number of non-adjacent pairs among the neighbours `nb`."""
    k = len(nb) - 1
    return sum(k - len(nb & adj[a]) for a in nb) // 2


def _exhaustive_order(adj: dict[int, set[int]], elim: frozenset[int]
                      ) -> tuple[int, ...]:
    """An order of `elim` of least width over the primal graph `adj`.

    `best(done)` is the least width of eliminating the rest of `elim` once
    `done` is gone, with the order that attains it: at each step the lowest
    id whose remainder can stay optimal.
    """

    @cache
    def best(done: frozenset[int]) -> tuple[int, tuple[int, ...]]:
        if done == elim:
            return 0, ()
        now = {v: set(nb) for v, nb in adj.items()}
        for y in done:  # the graph left does not depend on their order
            _eliminate(now, y)
        options = []
        for x in elim - done:
            width, order = best(done | {x})
            options.append((max(len(now[x]), width), (x,) + order))
        return min(options)  # least width, then the lowest first variable

    return best(frozenset())[1]


# --------------------------------------------------------------------------
# Bucket elimination per node

def _add_cluster(clusters: list[Cluster], V: frozenset[int],
                 psi: Sequence[ScopedTable], sons: Sequence[int],
                 elim: tuple[int, ...], ops: tuple[Op, Op]) -> int:
    cid = len(clusters)
    clusters.append(_record(Cluster, (cid, V, tuple(psi), tuple(sons), elim, ops)))
    return cid


_Part = tuple[int, ScopedTable | None, int | None]  # (scope bitmask, table, son)

# Orders of at least this many variables route each part once; shorter ones
# scan the pending parts per variable.
ROUTE_MIN = 16


def clusterize(store: NodeStore, nid: int, order: Sequence[int],
               clusters: list[Cluster], fragment_of: Mapping[int, int]) -> int:
    """Bucket-eliminate one mono-operator node; returns its fragment root.

    `order` lists the node's variables in elimination order; each must be
    mentioned by some child.  `fragment_of` must already map every
    composite child to its fragment.  New clusters are appended to
    `clusters` sons-first, so ascending cluster ids stay topological.
    """
    node = store.nodes[nid]
    if node.is_atomic:
        raise InternalError("clusterize needs a composite node")
    if len(node.sov) > 1:
        raise InternalError("clusterize needs a mono-operator node")
    if tuple(sorted(order)) != (node.sov[0][1] if node.sov else ()):
        raise InternalError("order must eliminate exactly the node's variables")
    ops = store.ops.pairs.get(node.comb)
    if ops is None:
        raise InternalError(f"combination {node.comb} is foreign to this mode")
    nodes = store.nodes
    scopes = store._scopes
    # Parts not yet eliminated, as (scope bitmask, table, son): the
    # children, then each bucket's message.  A part goes into the bucket of
    # the first variable of the order it holds, and what is left over at
    # the end goes into the node's final cluster.
    pending: list[_Part] = []
    for c in node.children:
        cn = nodes[c]
        pending.append((scopes[c], cn.table, None) if cn.is_atomic
                       else (scopes[c], None, fragment_of[c]))
    if len(order) >= ROUTE_MIN:
        pending = _routed(pending, order, clusters, ops)
    else:
        for x in order:
            bit = 1 << x
            bucket: list[_Part] = []
            rest: list[_Part] = []
            for part in pending:
                (bucket if part[0] & bit else rest).append(part)
            rest.append(_eliminate_bucket(clusters, bucket, x, ops))
            pending = rest

    free = scopes[nid]
    if order and len(pending) == 1 and pending[0][0] == free:
        # The one part left is the last bucket's message, and that bucket
        # already retains the free scope.
        return pending[0][2]
    return _add_cluster(clusters, bits(free), [t for _, t, _ in pending if t is not None],
                        [s for _, t, s in pending if t is None], (), ops)


def _eliminate_bucket(clusters: list[Cluster], bucket: Sequence[_Part], x: int,
                      ops: tuple[Op, Op]) -> _Part:
    """Append the cluster eliminating `x` from the parts of its bucket, in
    their order; returns its message."""
    if not bucket:
        raise InternalError(f"variable {x} is eliminated but no child mentions it")
    bit = 1 << x
    V = bit
    psi: list[ScopedTable] = []
    sons: list[int] = []
    for scope, table, son in bucket:
        V |= scope
        if table is not None:
            psi.append(table)
        else:
            sons.append(son)
    cid = _add_cluster(clusters, bits(V), psi, sons, (x,), ops)
    return (V & ~bit, None, cid)


def _routed(parts: list[_Part | None], order: Sequence[int], clusters: list[Cluster],
            ops: tuple[Op, Op]) -> list[_Part]:
    """Bucket-eliminate `order` over `parts`, routing each part, and each
    message when it is made, once: to the bucket of the earliest order
    position it holds.  Returns the parts no bucket takes.

    The buckets and the parts left over are those of the per-variable scan,
    in the same order: both hold parts in the order they were made."""
    k = len(order)
    position = dict(zip(order, range(k)))
    in_order = mask_of(order)

    def first(mask: int) -> int:  # k when the part holds no order variable
        mask &= in_order
        p = k
        while mask:
            v = mask.bit_length() - 1
            mask ^= 1 << v
            if position[v] < p:
                p = position[v]
        return p

    # the parts ranked by position, stably; the messages wait in `later`
    firsts = [first(part[0]) for part in parts]
    ranked = sorted(range(len(parts)), key=firsts.__getitem__)
    later: dict[int, list[_Part]] = {}
    left: list[_Part] = []
    j = 0
    for i, x in enumerate(order):
        bucket: list[_Part] = []
        while j < len(ranked) and firsts[ranked[j]] == i:
            r = ranked[j]
            bucket.append(parts[r])
            parts[r] = None  # freed with its bucket, as the scan frees it
            j += 1
        bucket += later.pop(i, ())
        message = _eliminate_bucket(clusters, bucket, x, ops)
        p = first(message[0])
        (later.setdefault(p, []) if p < k else left).append(message)
    return [parts[r] for r in ranked[j:]] + left


# --------------------------------------------------------------------------
# Whole-DAG assembly

def assemble(store: NodeStore, root: int, heuristic: str = "min-fill") -> MCDag:
    """Decompose every reachable composite node and wire the cluster DAG.

    A node with one variable or none takes its order from its sov; only a
    node with two or more asks `find_order`.  `w_mcdag` is the largest
    cluster that eliminates a variable, less one.
    """
    if heuristic not in HEURISTICS:
        raise InternalError(f"unknown ordering heuristic {heuristic!r}")
    clusters: list[Cluster] = []
    fragment_of: dict[int, int] = {}
    root_node = store.nodes[root]
    if root_node.is_atomic:
        rid = _add_cluster(clusters, frozenset(root_node.table.scope), [root_node.table],
                           [], (), store.ops.pairs[store.ops.group_comb])
        return MCDag(tuple(clusters), rid)
    nodes = store.nodes
    for nid in reachable(store, root):  # ascending ids: children first
        node = nodes[nid]
        if node.is_atomic:
            continue
        sov = node.sov
        if not sov:
            order: Sequence[int] = ()
        elif len(sov) == 1 and len(sov[0][1]) == 1:
            order = sov[0][1]
        else:
            sov_vars = [v for _, block in sov for v in block]
            order = find_order(map(bits, map(store._scopes.__getitem__, node.children)),
                               sov_vars, heuristic)
        fragment_of[nid] = clusterize(store, nid, order, clusters, fragment_of)
    width = max((len(V) - 1 for _, V, _, _, elim, _ in clusters if elim), default=0)
    m = MCDag(tuple(clusters), fragment_of[root], width)
    check_containment(m)
    return m


def check_containment(m: MCDag) -> None:
    """Table scopes live inside their cluster; son separators inside parents."""
    clusters = m.clusters
    for cid, V, psi, sons, _, _ in clusters:
        for t in psi:
            if not V.issuperset(t.scope):
                raise InternalError(f"cluster {cid} holds a table outside its scope")
        for s in sons:
            _, son_V, _, _, son_elim, _ = clusters[s]
            if not (son_V - set(son_elim)) <= V:
                raise InternalError(f"separator of cluster {s} leaks out of {cid}")


def merge_clusters(m: MCDag) -> MCDag:
    """Unify clusters identical in (V, tables, merged sons, elimination, ops).

    One bottom-up pass reaches the fixpoint because son ids are canonical by
    the time a parent is keyed.  Duplicate sons after merging are kept: the
    message is deliberately combined once per original occurrence.  A
    cluster whose id and sons come through unchanged keeps its record, and
    when every record does, `m` itself is returned: merging changed nothing
    for `check_containment` to look at again.
    """
    canon: dict[tuple, int] = {}
    remap: dict[int, int] = {}
    out: list[Cluster] = []
    for c in m.clusters:
        cid, V, psi, old_sons, elim, ops = c
        sons = tuple(sorted(map(remap.__getitem__, old_sons)))
        key = (V, tuple(sorted(map(id, psi))), sons, tuple(sorted(elim)), ops)
        if key in canon:
            remap[cid] = canon[key]
            continue
        nid = len(out)
        canon[key] = nid
        remap[cid] = nid
        out.append(c if nid == cid and sons == old_sons
                   else _record(Cluster, (nid, V, psi, sons, elim, ops)))
    if len(out) == len(m.clusters) and all(map(is_, out, m.clusters)):
        return m
    merged = MCDag(tuple(out), remap[m.root], m.w_mcdag)
    check_containment(merged)
    return merged


def to_dot(m: MCDag, names: Sequence[str] | None = None) -> str:
    def label(v: int) -> str:
        return names[v] if names is not None else str(v)

    lines = ["digraph mcdag {", "  rankdir=BT;"]
    for c in m.clusters:
        vs = ",".join(label(v) for v in sorted(c.V))
        ops = f"({c.ops[0].value},{c.ops[1].value})"
        shape = "doubleoctagon" if c.id == m.root else "box"
        lines.append(
            f'  c{c.id} [shape={shape} label="{{{vs}}} {ops} |T|={len(c.psi)}"];')
    for c in m.clusters:
        for s in c.sons:
            lines.append(f"  c{s} -> c{c.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"
