"""Cluster DAG construction from a mono-operator node DAG.

Every composite node is decomposed on its own: the scopes of its children
form a hypergraph, an elimination order for the node's variables is found
(heuristically or exhaustively), and bucket elimination turns the order into
a chain of clusters.  Fragments of shared nodes are built once and acquire
multiple parents.  The induced width is the size of the largest hyperedge
*created* while eliminating, so the work per cluster reads d^(1+width).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .factors import InternalError, Op, ResourceGuardError, ScopedTable
from .nodes import NodeStore, reachable

EXHAUSTIVE_LIMIT = 10


@dataclass(frozen=True)
class Hypergraph:
    vertices: frozenset[int]
    edges: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        for e in self.edges:
            if not e <= self.vertices:
                raise InternalError("hyperedge outside the vertex set")


@dataclass(frozen=True)
class EliminationOrder:
    order: tuple[int, ...]
    step_sizes: tuple[int, ...]
    width: int

    def __post_init__(self) -> None:
        if len(self.order) != len(self.step_sizes):
            raise InternalError("one created-edge size per eliminated variable")
        if self.width != max(self.step_sizes, default=0):
            raise InternalError("width must be the largest created edge")


@dataclass(frozen=True)
class Cluster:
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
    node_widths: dict[int, int] = field(compare=False)
    w_mcdag: int = 0


def hypergraph_of(store: NodeStore, nid: int) -> Hypergraph:
    node = store.nodes[nid]
    if node.is_atomic:
        raise InternalError("hypergraph of an atomic node")
    scopes = [frozenset(store.scope(c)) for c in node.children]
    verts = frozenset().union(*scopes) if scopes else frozenset()
    return Hypergraph(verts, frozenset(scopes))


def _eliminate_step(edges: set[frozenset[int]], x: int
                    ) -> tuple[set[frozenset[int]], frozenset[int]]:
    hits = [e for e in edges if x in e]
    rest = {e for e in edges if x not in e}
    created: frozenset[int] = frozenset()
    if hits:
        created = frozenset().union(*hits) - {x}
        rest.add(created)
    return rest, created


def find_order(g: Hypergraph, elim: Iterable[int],
               heuristic: str = "min-fill") -> EliminationOrder:
    todo = set(elim)
    if not todo <= g.vertices:
        raise InternalError("elimination set outside the hypergraph")
    if heuristic not in ("min-fill", "min-degree", "exhaustive"):
        raise InternalError(f"unknown ordering heuristic {heuristic!r}")
    if len(todo) == 1:  # every heuristic agrees; no primal graph needed
        (x,) = todo
        created = set().union(*(e for e in g.edges if x in e))
        created.discard(x)
        return EliminationOrder((x,), (len(created),), len(created))
    if heuristic == "exhaustive":
        if len(todo) > EXHAUSTIVE_LIMIT:
            raise ResourceGuardError(
                f"exhaustive ordering is limited to {EXHAUSTIVE_LIMIT} variables")
        return _exhaustive_order(g, frozenset(todo))
    # Neighbour sets of the primal graph: a candidate's created edge is its
    # neighbourhood, and eliminating it turns that neighbourhood into a clique.
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edges:
        for v in e:
            adj[v].update(e)
    for v, nb in adj.items():
        nb.discard(v)
    degree = heuristic == "min-degree"
    order: list[int] = []
    sizes: list[int] = []
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
        nb = adj.pop(best)
        for a in nb:
            na = adj[a]
            na.update(nb)
            na.discard(a)
            na.discard(best)
        order.append(best)
        sizes.append(len(nb))
        remaining.remove(best)
    return EliminationOrder(tuple(order), tuple(sizes), max(sizes, default=0))


def _fill_in(adj: Mapping[int, set[int]], nb: set[int]) -> int:
    """Number of non-adjacent pairs among the neighbours `nb`."""
    k = len(nb) - 1
    return sum(k - len(nb & adj[a]) for a in nb) // 2


def _exhaustive_order(g: Hypergraph, elim: frozenset[int]) -> EliminationOrder:
    after: dict[frozenset[int], set[frozenset[int]]] = {}

    def graph_after(done: frozenset[int]) -> set[frozenset[int]]:
        if done not in after:
            edges = set(g.edges)
            for x in sorted(done):  # the result is order-independent
                edges, _ = _eliminate_step(edges, x)
            after[done] = edges
        return after[done]

    memo: dict[frozenset[int], int] = {frozenset(): 0}

    def best(remaining: frozenset[int]) -> int:
        if remaining not in memo:
            edges = graph_after(elim - remaining)
            out = None
            for x in remaining:
                _, created = _eliminate_step(edges, x)
                w = max(len(created), best(remaining - {x}))
                if out is None or w < out:
                    out = w
            memo[remaining] = out
        return memo[remaining]

    order: list[int] = []
    sizes: list[int] = []
    remaining = elim
    while remaining:
        edges = graph_after(elim - remaining)
        target = best(remaining)
        for x in sorted(remaining):
            _, created = _eliminate_step(edges, x)
            if max(len(created), best(remaining - {x})) == target:
                order.append(x)
                sizes.append(len(created))
                remaining = remaining - {x}
                break
    return EliminationOrder(tuple(order), tuple(sizes), max(sizes, default=0))


# --------------------------------------------------------------------------
# Bucket elimination per node

def _ops_for(store: NodeStore, comb: Op) -> tuple[Op, Op]:
    if store.unit_interval:
        table = {Op.MAX: (Op.MIN, Op.MAX), Op.MIN: (Op.MAX, Op.MIN)}
    else:
        table = {Op.TIMES: (Op.SUM, Op.TIMES), Op.PLUS: (Op.MAX, Op.PLUS)}
    if comb not in table:
        raise InternalError(f"combination {comb} is foreign to this mode")
    return table[comb]


def _add_cluster(clusters: list[Cluster], V: Iterable[int],
                 psi: Sequence[ScopedTable], sons: Sequence[int],
                 elim: Sequence[int], ops: tuple[Op, Op]) -> int:
    cid = len(clusters)
    clusters.append(Cluster(cid, frozenset(V), tuple(psi), tuple(sons),
                            tuple(elim), ops))
    return cid


def clusterize(store: NodeStore, nid: int, order: EliminationOrder,
               clusters: list[Cluster], fragment_of: Mapping[int, int]) -> int:
    """Bucket-eliminate one mono-operator node; returns its fragment root.

    `fragment_of` must already map every composite child to its fragment.
    New clusters are appended to `clusters` sons-first, so ascending cluster
    ids stay topological.
    """
    node = store.nodes[nid]
    if node.is_atomic:
        raise InternalError("clusterize needs a composite node")
    if len(node.sov) > 1:
        raise InternalError("clusterize needs a mono-operator node")
    sov_vars = set(node.sov[0][1]) if node.sov else set()
    if set(order.order) != sov_vars:
        raise InternalError("order must eliminate exactly the node's variables")
    ops = _ops_for(store, node.comb)
    pos = {x: i for i, x in enumerate(order.order)}
    buckets: list[list[tuple[frozenset[int], ScopedTable | None, int | None]]] = [
        [] for _ in order.order]
    leftovers: list[tuple[frozenset[int], ScopedTable | None, int | None]] = []

    def route(item: tuple[frozenset[int], ScopedTable | None, int | None],
              start: int) -> None:
        scope = item[0]
        idxs = [pos[v] for v in scope if v in pos and pos[v] >= start]
        if idxs:
            buckets[min(idxs)].append(item)
        else:
            leftovers.append(item)

    for c in node.children:
        cn = store.nodes[c]
        if cn.is_atomic:
            route((frozenset(cn.table.scope), cn.table, None), 0)
        else:
            route((frozenset(store.scope(c)), None, fragment_of[c]), 0)

    finals: list[tuple[frozenset[int], int]] = []
    for i, x in enumerate(order.order):
        V = {x}
        psi: list[ScopedTable] = []
        sons: list[int] = []
        for scope, table, son in buckets[i]:
            V |= scope
            if table is not None:
                psi.append(table)
            else:
                sons.append(son)
        cid = _add_cluster(clusters, V, psi, sons, (x,), ops)
        msg_scope = frozenset(V) - {x}
        rest = [pos[v] for v in msg_scope if v in pos and pos[v] > i]
        if rest:
            buckets[min(rest)].append((msg_scope, None, cid))
        else:
            finals.append((msg_scope, cid))

    free = frozenset(store.scope(nid))
    if len(finals) == 1 and not leftovers and finals[0][0] == free:
        return finals[0][1]  # the last bucket already retains the free scope
    psi = []
    sons = []
    for scope, table, son in leftovers:
        if table is not None:
            psi.append(table)
        else:
            sons.append(son)
    sons.extend(cid for _, cid in finals)
    return _add_cluster(clusters, free, psi, sons, (), ops)


# --------------------------------------------------------------------------
# Whole-DAG assembly

def assemble(store: NodeStore, root: int, heuristic: str = "min-fill") -> MCDag:
    """Decompose every reachable composite node and wire the cluster DAG."""
    clusters: list[Cluster] = []
    fragment_of: dict[int, int] = {}
    node_widths: dict[int, int] = {}
    root_node = store.nodes[root]
    if root_node.is_atomic:
        ops = (Op.MAX, Op.MIN) if store.unit_interval else (Op.SUM, Op.TIMES)
        rid = _add_cluster(clusters, frozenset(root_node.table.scope),
                           [root_node.table], [], (), ops)
        return MCDag(tuple(clusters), rid, {root: 0}, 0)
    for nid in reachable(store, root):  # ascending ids: children first
        node = store.nodes[nid]
        if node.is_atomic:
            continue
        sov_vars = [v for _, block in node.sov for v in block]
        order = find_order(hypergraph_of(store, nid), sov_vars, heuristic)
        fragment_of[nid] = clusterize(store, nid, order, clusters, fragment_of)
        node_widths[nid] = order.width
    m = MCDag(tuple(clusters), fragment_of[root], node_widths,
              max(node_widths.values(), default=0))
    check_containment(m)
    return m


def check_containment(m: MCDag) -> None:
    """Table scopes live inside their cluster; son separators inside parents."""
    for c in m.clusters:
        for t in c.psi:
            if not set(t.scope) <= c.V:
                raise InternalError(f"cluster {c.id} holds a table outside its scope")
        for s in c.sons:
            son = m.clusters[s]
            if not (son.V - set(son.elim)) <= c.V:
                raise InternalError(f"separator of cluster {s} leaks out of {c.id}")


def merge_clusters(m: MCDag) -> MCDag:
    """Unify clusters identical in (V, tables, merged sons, elimination, ops).

    One bottom-up pass reaches the fixpoint because son ids are canonical by
    the time a parent is keyed.  Duplicate sons after merging are kept: the
    message is deliberately combined once per original occurrence.  A
    cluster whose id and sons come through unchanged keeps its record.
    """
    canon: dict[tuple, int] = {}
    remap: dict[int, int] = {}
    out: list[Cluster] = []
    for c in m.clusters:
        sons = tuple(sorted(map(remap.__getitem__, c.sons)))
        key = (c.V, tuple(sorted(map(id, c.psi))), sons, tuple(sorted(c.elim)), c.ops)
        if key in canon:
            remap[c.id] = canon[key]
            continue
        nid = len(out)
        canon[key] = nid
        remap[c.id] = nid
        out.append(c if nid == c.id and sons == c.sons
                   else Cluster(nid, c.V, c.psi, sons, c.elim, c.ops))
    merged = MCDag(tuple(out), remap[m.root], dict(m.node_widths), m.w_mcdag)
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
