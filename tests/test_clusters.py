"""Cluster DAG construction: orders, buckets, assembly, merging."""

import numpy as np
import pytest

from infdiag import clusters
from infdiag.clusters import (
    Cluster,
    EliminationOrder,
    Hypergraph,
    MCDag,
    assemble,
    clusterize,
    find_order,
    hypergraph_of,
    merge_clusters,
    to_dot,
)
from infdiag.diagram import fixture, parse, random_id
from infdiag.factors import InternalError, Op, ResourceGuardError, ScopedTable
from infdiag.nodes import NodeStore, initial_node, store_for
from infdiag.rewrite import macrostructure
from oracles import oracle_order, width_of_order

R1, R2, D = 0, 1, 2  # fig2 variable ids


def macro_root(d):
    store = store_for(d)
    root, _ = macrostructure(store, initial_node(store, d))
    return store, root


def fig2_parts():
    store, root = macro_root(fixture("fig2"))
    node = store.nodes[root]
    by_len = {}
    for c in node.children:
        cn = store.nodes[c]
        if not cn.is_atomic:
            by_len[len(cn.sov[0][1])] = c
    return store, root, by_len[1], by_len[2]  # root, sum over r1, sum over r1 r2


def table(scope, sizes, tag="generic", name=None, cpt_for=None):
    shape = tuple(sizes[v] for v in scope)
    return ScopedTable(tuple(scope), shape, np.ones(shape), tag, name, cpt_for)


# -- hypergraphs ------------------------------------------------------------

def test_hypergraph_of_reads_child_scopes():
    store, _, _, s2 = fig2_parts()
    g = hypergraph_of(store, s2)
    assert g.vertices == {R1, R2, D}
    assert g.edges == {frozenset({R1}), frozenset({R1, R2}), frozenset({D, R2})}


def test_hypergraph_of_rejects_atoms():
    store, root, _, _ = fig2_parts()
    atom = next(c for c in store.nodes[root].children if store.nodes[c].is_atomic)
    with pytest.raises(InternalError):
        hypergraph_of(store, atom)


def test_hypergraph_rejects_stray_edge():
    with pytest.raises(InternalError):
        Hypergraph(frozenset({0}), frozenset({frozenset({0, 1})}))


def test_elimination_order_validates_width():
    with pytest.raises(InternalError):
        EliminationOrder((0, 1), (1, 1), 2)
    with pytest.raises(InternalError):
        EliminationOrder((0,), (1, 1), 1)


# -- find_order --------------------------------------------------------------

def test_find_order_fig2_node_has_width_one():
    store, _, _, s2 = fig2_parts()
    g = hypergraph_of(store, s2)
    for heuristic in ("min-fill", "min-degree", "exhaustive"):
        order = find_order(g, [R1, R2], heuristic)
        assert order.order == (R1, R2)
        assert order.width == 1


def test_find_order_empty_set():
    g = Hypergraph(frozenset({0, 1}), frozenset({frozenset({0, 1})}))
    order = find_order(g, [])
    assert order.order == () and order.step_sizes == () and order.width == 0


def test_find_order_rejects_foreign_variables():
    g = Hypergraph(frozenset({0}), frozenset({frozenset({0})}))
    with pytest.raises(InternalError):
        find_order(g, [5])


def test_find_order_rejects_unknown_heuristic():
    g = Hypergraph(frozenset({0}), frozenset({frozenset({0})}))
    with pytest.raises(InternalError):
        find_order(g, [0], "best-effort")


def test_exhaustive_guard():
    vs = frozenset(range(11))
    g = Hypergraph(vs, frozenset(frozenset({i}) for i in vs))
    with pytest.raises(ResourceGuardError):
        find_order(g, vs, "exhaustive")


def test_forced_first_versus_free_order():
    # Star of pairwise couplings {x_i, last} plus a chain link {x_1, y}: any
    # order ending with `last` stays at width 1, but taking it first joins
    # every x_i into one edge of size n.
    n = 4
    xs = list(range(1, n + 1))
    y, last = n + 1, n + 2
    edges = {frozenset({y}), frozenset({xs[0], y})}
    edges |= {frozenset({x, last}) for x in xs}
    g = Hypergraph(frozenset(xs + [y, last]), frozenset(edges))
    free = find_order(g, xs + [y, last], "exhaustive")
    assert free.width == 1
    forced = width_of_order(g, [last] + xs + [y])
    assert forced.step_sizes[0] == n
    assert forced.width == n


def test_width_of_order_replays_consistently():
    store, _, _, s2 = fig2_parts()
    g = hypergraph_of(store, s2)
    order = find_order(g, [R1, R2])
    replay = width_of_order(g, order.order)
    assert replay == order


def test_heuristics_never_beat_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(40):
        nv = int(rng.integers(2, 8))
        verts = frozenset(range(nv))
        edges = set()
        for _ in range(int(rng.integers(1, 7))):
            k = int(rng.integers(1, min(4, nv) + 1))
            edges.add(frozenset(int(v) for v in rng.choice(nv, size=k, replace=False)))
        g = Hypergraph(verts, frozenset(edges))
        elim = sorted(int(v) for v in rng.choice(nv, size=int(rng.integers(1, nv + 1)),
                                                 replace=False))
        wexact = find_order(g, elim, "exhaustive").width
        for heuristic in ("min-fill", "min-degree"):
            order = find_order(g, elim, heuristic)
            assert sorted(order.order) == elim
            assert order.width >= wexact
            assert width_of_order(g, order.order) == order


def test_find_order_matches_hyperedge_scan_oracle():
    rng = np.random.default_rng(17)
    isolated_elim = outside = 0
    for _ in range(500):
        nv = int(rng.integers(1, 31))
        # the last vertices may stay in no edge at all
        span = int(rng.integers(1, nv + 1))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * span + 1))):
            k = int(rng.integers(1, min(5, span) + 1))
            edges.add(frozenset(int(v) for v in rng.choice(span, size=k, replace=False)))
        g = Hypergraph(frozenset(range(nv)), frozenset(edges))
        elim = [v for v in range(nv) if rng.random() < 0.8]
        covered = set().union(*edges)
        isolated_elim += any(v not in covered for v in elim)
        outside += len(elim) < nv
        for heuristic in ("min-fill", "min-degree"):
            assert find_order(g, elim, heuristic) == oracle_order(g, elim, heuristic), \
                (sorted(map(sorted, edges)), elim, heuristic)
    assert isolated_elim > 50 and outside > 50


@pytest.mark.parametrize("family", ["chain", "star"])
@pytest.mark.parametrize("n", list(range(2, 12)) + [64, 128])
def test_assemble_matches_oracle_order_replay(family, n, monkeypatch):
    store, root = macro_root(fixture(family, n))
    got = assemble(store, root)
    monkeypatch.setattr(clusters, "find_order", oracle_order)
    want = assemble(store, root)
    assert got.root == want.root and got.node_widths == want.node_widths
    assert [(c.V, c.elim, c.sons, c.ops) for c in got.clusters] == \
        [(c.V, c.elim, c.sons, c.ops) for c in want.clusters]


# -- clusterize ---------------------------------------------------------------

def test_clusterize_fig2_node_buckets():
    store, _, _, s2 = fig2_parts()
    order = find_order(hypergraph_of(store, s2), [R1, R2])
    clusters = []
    rid = clusterize(store, s2, order, clusters, {})
    assert len(clusters) == 2
    first, second = clusters
    assert first.V == {R1, R2} and first.elim == (R1,)
    assert sorted(t.name for t in first.psi) == ["P_r1", "P_r2"]
    assert first.sons == ()
    assert second.V == {R2, D} and second.elim == (R2,)
    assert [t.name for t in second.psi] == ["u_dr2"]
    assert second.sons == (first.id,)
    assert rid == second.id  # the last bucket already retains the free scope
    assert all(c.ops == (Op.SUM, Op.TIMES) for c in clusters)


def test_clusterize_empty_elimination():
    store = NodeStore([2, 2], ["a", "b"])
    t1 = table((0,), [2, 2])
    t2 = table((0, 1), [2, 2])
    nid = store.composite([], Op.TIMES, [store.atomic(t1), store.atomic(t2)])
    clusters = []
    rid = clusterize(store, nid, EliminationOrder((), (), 0), clusters, {})
    assert len(clusters) == 1
    assert clusters[rid].V == {0, 1} and clusters[rid].elim == ()
    assert set(clusters[rid].psi) == {t1, t2}


def test_clusterize_rejects_wrong_order():
    store, _, _, s2 = fig2_parts()
    with pytest.raises(InternalError):
        clusterize(store, s2, EliminationOrder((R1,), (1,), 1), [], {})


def test_clusterize_rejects_atoms_and_multi_operator_nodes():
    store = NodeStore([2, 2], ["a", "b"])
    atom = store.atomic(table((0,), [2, 2]))
    with pytest.raises(InternalError):
        clusterize(store, atom, EliminationOrder((), (), 0), [], {})
    mixed = store.composite([(Op.SUM, (0,)), (Op.MAX, (1,))], Op.TIMES,
                            [store.atomic(table((0, 1), [2, 2]))])
    with pytest.raises(InternalError):
        clusterize(store, mixed, EliminationOrder((0, 1), (1, 0), 1), [], {})


# -- assemble -----------------------------------------------------------------

def test_assemble_fig2():
    store, root = macro_root(fixture("fig2"))
    m = assemble(store, root)
    assert m.w_mcdag == 1
    assert len(m.clusters) == 4
    root_cluster = m.clusters[m.root]
    assert root_cluster.V == {D} and root_cluster.elim == (D,)
    assert root_cluster.ops == (Op.MAX, Op.PLUS)
    assert [t.name for t in root_cluster.psi] == ["u_d"]
    assert len(root_cluster.sons) == 2
    assert all(c.ops in ((Op.SUM, Op.TIMES), (Op.MAX, Op.PLUS)) for c in m.clusters)


def test_assemble_star_and_chain_widths():
    for n in range(2, 7):
        store, root = macro_root(fixture("star", n))
        assert assemble(store, root).w_mcdag == 1
        store, root = macro_root(fixture("chain", n))
        assert assemble(store, root).w_mcdag == 1


def test_assemble_shares_fragments():
    store, root = macro_root(fixture("fig3"))
    m = assemble(store, root)
    parents = {c.id: 0 for c in m.clusters}
    for c in m.clusters:
        for s in c.sons:
            parents[s] += 1
    assert max(parents.values()) >= 2  # the shared chance block feeds two branches


def test_assemble_atomic_root():
    d = parse("IDNET 1\nMODE prob\nVAR c 2 CHANCE\nPROB c | : 0.5 0.5\n"
              "UTIL u : 7.0\nORDER c\n")
    store = store_for(d)
    root, _ = macrostructure(store, initial_node(store, d))
    assert store.nodes[root].is_atomic
    m = assemble(store, root)
    assert len(m.clusters) == 1 and m.w_mcdag == 0
    assert m.clusters[m.root].psi[0].name == "u"


def test_assemble_poss_ops():
    d = random_id(5, 2, 3, 2, mode="poss", seed=11)
    store, root = macro_root(d)
    m = assemble(store, root)
    assert all(c.ops in ((Op.MIN, Op.MAX), (Op.MAX, Op.MIN)) for c in m.clusters)


def test_assemble_is_deterministic():
    a = assemble(*macro_root(fixture("fig3")))
    b = assemble(*macro_root(fixture("fig3")))
    assert len(a.clusters) == len(b.clusters) and a.root == b.root
    for x, y in zip(a.clusters, b.clusters):
        assert (x.V, x.sons, x.elim, x.ops) == (y.V, y.sons, y.elim, y.ops)
        assert [t.name for t in x.psi] == [t.name for t in y.psi]
    assert a.node_widths == b.node_widths
    assert to_dot(a, None) == to_dot(b, None)


def test_assemble_exhaustive_never_wider():
    for seed in range(6):
        d = random_id(7, 2, 3, 2, seed=seed)
        store, root = macro_root(d)
        base = assemble(store, root, heuristic="exhaustive")
        for heuristic in ("min-fill", "min-degree"):
            m = assemble(store, root, heuristic=heuristic)
            assert m.w_mcdag >= base.w_mcdag
            for nid, w in base.node_widths.items():
                assert m.node_widths[nid] >= w


# -- merging ------------------------------------------------------------------

def test_merge_unifies_identical_chance_blocks():
    store = NodeStore([2, 2], ["x", "y"])
    p_x = table((0,), [2, 2], tag="probability", name="P_x", cpt_for=0)
    p_yx = table((0, 1), [2, 2], tag="probability", name="P_y", cpt_for=1)
    u1 = table((1,), [2, 2], tag="utility", name="u1")
    u2 = table((1,), [2, 2], tag="utility", name="u2")
    ax, ayx = store.atomic(p_x), store.atomic(p_yx)
    g1 = store.composite([(Op.SUM, (0,))], Op.TIMES, [ax, ayx, store.atomic(u1)])
    g2 = store.composite([(Op.SUM, (0,))], Op.TIMES, [ax, ayx, store.atomic(u2)])
    root = store.composite([], Op.PLUS, [g1, g2])
    m = assemble(store, root)
    assert len(m.clusters) == 5
    merged = merge_clusters(m)
    assert len(merged.clusters) == 4
    shared = [c for c in merged.clusters if c.V == {0, 1}]
    assert len(shared) == 1
    parents = [c for c in merged.clusters if shared[0].id in c.sons]
    assert len(parents) == 2
    assert merged.w_mcdag == m.w_mcdag


def test_merge_keeps_distinct_clusters():
    m = assemble(*macro_root(fixture("fig2")))
    merged = merge_clusters(m)
    assert len(merged.clusters) == len(m.clusters)
    again = merge_clusters(merged)
    assert len(again.clusters) == len(merged.clusters)


def test_merge_requires_same_table_objects():
    # Equal values in distinct table objects must not be unified.
    store = NodeStore([2, 2], ["x", "y"])
    u = table((1,), [2, 2], tag="utility", name="u")
    mk = lambda: table((0, 1), [2, 2], tag="probability", name="P", cpt_for=1)
    g1 = store.composite([(Op.SUM, (0,))], Op.TIMES, [store.atomic(mk()), store.atomic(u)])
    g2 = store.composite([(Op.SUM, (0,))], Op.TIMES, [store.atomic(mk()), store.atomic(u)])
    root = store.composite([], Op.PLUS, [g1, g2])
    merged = merge_clusters(assemble(store, root))
    assert len(merged.clusters) == len(assemble(store, root).clusters)


# -- rendering ------------------------------------------------------------------

def test_to_dot_shape():
    store, root = macro_root(fixture("fig2"))
    m = assemble(store, root)
    dot = to_dot(m, store.names)
    assert dot.startswith("digraph mcdag {")
    assert dot.count(" -> ") == sum(len(c.sons) for c in m.clusters)
    assert "{r1,r2} (sum,times) |T|=2" in dot
    assert "doubleoctagon" in dot
