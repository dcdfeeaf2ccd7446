"""Cluster DAG construction: orders, buckets, assembly, merging."""

import hashlib
import itertools

import numpy as np
import pytest

from infdiag import clusters
from infdiag.clusters import (
    EXHAUSTIVE_LIMIT,
    HEURISTICS,
    Cluster,
    MCDag,
    assemble,
    clusterize,
    find_order,
    merge_clusters,
    to_dot,
)
from infdiag.diagram import MODES, fixture, mode_ops, parse, random_id
from infdiag.factors import InternalError, Op, ResourceGuardError, ScopedTable
from infdiag.nodes import NodeStore, initial_node, reachable, store_for
from infdiag.rewrite import macrostructure
from oracles import child_scopes, oracle_order, oracle_width, width_of_order
from test_rewrite import _hmm, _sweep
from test_solve import FOLD_CASES, pinned_sweep

R1, R2, D = 0, 1, 2  # fig2 variable ids


def macro_root(d):
    store = store_for(d)
    root, _ = macrostructure(store, initial_node(store, d))
    return store, root


def node_widths(store, root, heuristic="min-fill", order=find_order):
    """The width of each composite node's elimination order, by node id,
    found as `assemble` finds it; `assemble` keeps only their max."""
    out = {}
    for nid in reachable(store, root):
        node = store.nodes[nid]
        if not node.is_atomic:
            edges = child_scopes(store, nid)
            sov_vars = [v for _, block in node.sov for v in block]
            out[nid] = max(width_of_order(edges, order(edges, sov_vars, heuristic)), default=0)
    return out


def fig2_parts():
    store, root = macro_root(fixture("fig2"))
    node = store.nodes[root]
    by_len = {}
    for c in node.children:
        cn = store.nodes[c]
        if not cn.is_atomic:
            by_len[len(cn.sov[0][1])] = c
    return store, root, by_len[1], by_len[2]  # root, sum over r1, sum over r1 r2


def table(scope, sizes, name=None, cpt_for=None):
    shape = tuple(sizes[v] for v in scope)
    return ScopedTable(tuple(scope), shape, np.ones(shape), name=name, cpt_for=cpt_for)


# -- find_order --------------------------------------------------------------

def test_find_order_fig2_node_has_width_one():
    store, _, _, s2 = fig2_parts()
    edges = child_scopes(store, s2)
    assert set(edges) == {frozenset({R1}), frozenset({R1, R2}), frozenset({D, R2})}
    for heuristic in ("min-fill", "min-degree", "exhaustive"):
        order = find_order(edges, [R1, R2], heuristic)
        assert order == (R1, R2)
        assert width_of_order(edges, order) == (1, 1)


def test_find_order_empty_set():
    assert find_order([frozenset({0, 1})], []) == ()


def test_find_order_rejects_unknown_heuristic():
    with pytest.raises(InternalError):
        find_order([frozenset({0})], [0], "best-effort")


def test_exhaustive_guard():
    vs = range(11)
    with pytest.raises(ResourceGuardError):
        find_order([frozenset({i}) for i in vs], vs, "exhaustive")


def test_forced_first_versus_free_order():
    # Star of pairwise couplings {x_i, last} plus a chain link {x_1, y}: any
    # order ending with `last` stays at width 1, but taking it first joins
    # every x_i into one edge of size n.
    n = 4
    xs = list(range(1, n + 1))
    y, last = n + 1, n + 2
    edges = {frozenset({y}), frozenset({xs[0], y})}
    edges |= {frozenset({x, last}) for x in xs}
    free = find_order(edges, xs + [y, last], "exhaustive")
    assert max(width_of_order(edges, free)) == 1
    forced = width_of_order(edges, [last] + xs + [y])
    assert forced[0] == n
    assert max(forced) == n


def test_width_of_order_replays_consistently():
    # The replayed created-edge sizes are the sizes, less one, of the
    # clusters that bucket elimination builds along the same order.
    store, _, _, s2 = fig2_parts()
    edges = child_scopes(store, s2)
    order = find_order(edges, [R1, R2])
    built = []
    clusterize(store, s2, order, built, {})
    assert width_of_order(edges, order) == tuple(len(c.V) - 1 for c in built if c.elim)


def test_heuristics_never_beat_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(40):
        nv = int(rng.integers(2, 8))
        edges = set()
        for _ in range(int(rng.integers(1, 7))):
            k = int(rng.integers(1, min(4, nv) + 1))
            edges.add(frozenset(int(v) for v in rng.choice(nv, size=k, replace=False)))
        elim = sorted(int(v) for v in rng.choice(nv, size=int(rng.integers(1, nv + 1)),
                                                 replace=False))
        wexact = max(width_of_order(edges, find_order(edges, elim, "exhaustive")))
        for heuristic in ("min-fill", "min-degree"):
            order = find_order(edges, elim, heuristic)
            assert sorted(order) == elim
            assert max(width_of_order(edges, order)) >= wexact


def test_find_order_of_one_variable_matches_the_general_walk():
    # One variable is ordered by the general walk under every heuristic: its
    # step is the union of the edges holding it, less itself, and 0 for a
    # variable in no edge.
    rng = np.random.default_rng(23)
    isolated = 0
    for _ in range(200):
        nv = int(rng.integers(1, 9))
        span = int(rng.integers(1, nv + 1))  # vertices past `span` are in no edge
        edges = set()
        for _ in range(int(rng.integers(0, 2 * span + 1))):
            k = int(rng.integers(1, min(4, span) + 1))
            edges.add(frozenset(int(v) for v in rng.choice(span, size=k, replace=False)))
        for x in range(nv):
            isolated += not any(x in e for e in edges)
            step = len(set().union(*(e for e in edges if x in e)) - {x})
            assert width_of_order(edges, [x]) == (step,)
            for heuristic in ("min-fill", "min-degree"):
                assert oracle_order(edges, [x], heuristic) == (x,)
            for heuristic in ("min-fill", "min-degree", "exhaustive"):
                assert find_order(edges, [x], heuristic) == (x,), (sorted(map(sorted, edges)), x)
    assert isolated > 50


def test_exhaustive_order_is_optimal():
    # No permutation of the eliminated variables replays narrower.  Vertices
    # past `span` are in no edge, and some of them are eliminated.
    rng = np.random.default_rng(23)
    isolated = 0
    for _ in range(150):
        nv = int(rng.integers(1, 9))
        span = int(rng.integers(1, nv + 1))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * span + 1))):
            k = int(rng.integers(1, min(4, span) + 1))
            edges.add(frozenset(int(v) for v in rng.choice(span, size=k, replace=False)))
        elim = [int(v) for v in rng.choice(nv, size=int(rng.integers(1, min(6, nv) + 1)),
                                           replace=False)]
        isolated += any(v >= span for v in elim)
        order = find_order(edges, elim, "exhaustive")
        assert sorted(order) == sorted(elim)
        best = min(max(width_of_order(edges, p)) for p in itertools.permutations(elim))
        assert max(width_of_order(edges, order)) == best, (sorted(map(sorted, edges)), elim)
        assert order == exhaustive_tie_break_oracle(edges, elim), \
            (sorted(map(sorted, edges)), elim)
    assert isolated > 30


def exhaustive_tie_break_oracle(edges, elim):
    """At each step the lowest x with max(created(x), W(rest)) = W(remaining),
    W being the least width over the permutations of what is left."""

    def least(prefix, rest):
        return min(max(width_of_order(edges, prefix + list(p))[len(prefix):], default=0)
                   for p in itertools.permutations(rest))

    prefix, rest = [], sorted(elim)
    while rest:
        target = least(prefix, rest)
        x = next(x for x in rest
                 if max(width_of_order(edges, prefix + [x])[-1],
                        least(prefix + [x], [r for r in rest if r != x])) == target)
        prefix.append(x)
        rest.remove(x)
    return tuple(prefix)


def test_exhaustive_search_eliminates_once_per_subset_member(monkeypatch):
    # The exact search visits each subset of the k variables once and builds
    # its graph by eliminating the subset's members: at most k * 2^(k-1) steps.
    k = EXHAUSTIVE_LIMIT
    calls = 0
    real = clusters._eliminate

    def counting(adj, x):
        nonlocal calls
        calls += 1
        real(adj, x)

    monkeypatch.setattr(clusters, "_eliminate", counting)
    edges = [frozenset({i, (i + 1) % k}) for i in range(k)] + [frozenset({0, k // 2})]
    order = find_order(edges, range(k), "exhaustive")
    assert max(width_of_order(edges, order)) == 2
    assert 0 < calls <= k * 2 ** (k - 1)


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
        elim = [v for v in range(nv) if rng.random() < 0.8]
        covered = set().union(*edges)
        isolated_elim += any(v not in covered for v in elim)
        outside += len(elim) < nv
        for heuristic in ("min-fill", "min-degree"):
            assert find_order(edges, elim, heuristic) == oracle_order(edges, elim, heuristic), \
                (sorted(map(sorted, edges)), elim, heuristic)
    assert isolated_elim > 50 and outside > 50


@pytest.mark.parametrize("family", ["chain", "star"])
@pytest.mark.parametrize("n", list(range(2, 12)) + [64, 128])
def test_assemble_matches_oracle_order_replay(family, n, monkeypatch):
    store, root = macro_root(fixture(family, n))
    got = assemble(store, root)
    monkeypatch.setattr(clusters, "find_order", oracle_order)
    want = assemble(store, root)
    assert (got.root, got.w_mcdag) == (want.root, want.w_mcdag)
    assert node_widths(store, root) == node_widths(store, root, order=oracle_order)
    assert [(c.V, c.elim, c.sons, c.ops) for c in got.clusters] == \
        [(c.V, c.elim, c.sons, c.ops) for c in want.clusters]


# -- clusterize ---------------------------------------------------------------

def test_clusterize_fig2_node_buckets():
    store, _, _, s2 = fig2_parts()
    order = find_order(child_scopes(store, s2), [R1, R2])
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
    nid = store.intern([], Op.TIMES, [store.atomic(t1), store.atomic(t2)])
    clusters = []
    rid = clusterize(store, nid, (), clusters, {})
    assert len(clusters) == 1
    assert clusters[rid].V == {0, 1} and clusters[rid].elim == ()
    assert set(clusters[rid].psi) == {t1, t2}


def test_clusterize_empty_elimination_over_one_son_keeps_its_own_cluster():
    store = NodeStore([2, 2], ["a", "b"])
    inner = store.intern([(Op.SUM, (1,))], Op.TIMES,
                         [store.atomic(table((0, 1), [2, 2]))])
    outer = store.intern([], Op.TIMES, [inner])
    clusters = []
    fragment_of = {inner: clusterize(store, inner, (1,), clusters, {})}
    rid = clusterize(store, outer, (), clusters, fragment_of)
    assert rid == len(clusters) - 1 != fragment_of[inner]
    assert clusters[rid].V == {0} and clusters[rid].elim == ()
    assert clusters[rid].sons == (fragment_of[inner],) and clusters[rid].psi == ()


def test_clusterize_rejects_wrong_order():
    store, _, _, s2 = fig2_parts()
    with pytest.raises(InternalError):
        clusterize(store, s2, (R1,), [], {})


def test_clusterize_rejects_atoms_and_multi_operator_nodes():
    store = NodeStore([2, 2], ["a", "b"])
    atom = store.atomic(table((0,), [2, 2]))
    with pytest.raises(InternalError):
        clusterize(store, atom, (), [], {})
    mixed = store.intern([(Op.SUM, (0,)), (Op.MAX, (1,))], Op.TIMES,
                         [store.atomic(table((0, 1), [2, 2]))])
    with pytest.raises(InternalError):
        clusterize(store, mixed, (0, 1), [], {})


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
    # In both modes the one cluster takes its mode's group pair.
    for mode, prior, util in [("prob", "0.5 0.5", "7.0"), ("poss", "1.0 0.5", "0.7")]:
        d = parse(f"IDNET 1\nMODE {mode}\nVAR c 2 CHANCE\nPROB c | : {prior}\n"
                  f"UTIL u : {util}\nORDER c\n")
        store = store_for(d)
        root, _ = macrostructure(store, initial_node(store, d))
        assert store.nodes[root].is_atomic
        m = assemble(store, root)
        assert len(m.clusters) == 1 and m.w_mcdag == 0
        assert m.clusters[m.root].psi[0].name == "u"
        ops = mode_ops(mode)
        assert m.clusters[m.root].ops == ops.pairs[ops.group_comb]


def test_assemble_poss_ops():
    d = random_id(5, 2, 3, 2, mode="poss", seed=11)
    store, root = macro_root(d)
    m = assemble(store, root)
    assert all(c.ops in ((Op.MIN, Op.MAX), (Op.MAX, Op.MIN)) for c in m.clusters)


def test_every_cluster_takes_its_pair_from_the_mode_table():
    # A cluster's (marginalization, combination) pair is its mode's pair for
    # its combination, and the sweep meets all four pairs of the two modes.
    ds = [fixture(name) for name in ("fig2", "fig3", "chain(6)", "star(6)")]
    ds += [random_id(4 + seed % 9, seed % 4, 3, 3, mode=mode, seed=seed)
           for mode in ("prob", "poss") for seed in range(40)]
    seen = set()
    for d in ds:
        pairs = mode_ops(d.mode).pairs
        for c in merge_clusters(assemble(*macro_root(d))).clusters:
            assert pairs[c.ops[1]] == c.ops, (d.mode, c.id, c.ops)
            seen.add(c.ops)
    assert seen == {pair for ops in MODES.values() for pair in ops.pairs.values()}
    assert len(seen) == 4


def test_assemble_is_deterministic():
    a = assemble(*macro_root(fixture("fig3")))
    b = assemble(*macro_root(fixture("fig3")))
    assert len(a.clusters) == len(b.clusters) and a.root == b.root
    for x, y in zip(a.clusters, b.clusters):
        assert (x.V, x.sons, x.elim, x.ops) == (y.V, y.sons, y.elim, y.ops)
        assert [t.name for t in x.psi] == [t.name for t in y.psi]
    assert a.w_mcdag == b.w_mcdag
    assert node_widths(*macro_root(fixture("fig3"))) == node_widths(*macro_root(fixture("fig3")))
    assert to_dot(a, None) == to_dot(b, None)


def test_assemble_exhaustive_never_wider():
    for seed in range(6):
        d = random_id(7, 2, 3, 2, seed=seed)
        store, root = macro_root(d)
        base = assemble(store, root, heuristic="exhaustive")
        for heuristic in ("min-fill", "min-degree"):
            m = assemble(store, root, heuristic=heuristic)
            assert m.w_mcdag >= base.w_mcdag
            widths = node_widths(store, root, heuristic)
            for nid, w in node_widths(store, root, "exhaustive").items():
                assert widths[nid] >= w


def node_vars(store, root):
    """The variable count of each reachable composite node, by node id."""
    return {nid: sum(len(block) for _, block in store.nodes[nid].sov)
            for nid in reachable(store, root) if not store.nodes[nid].is_atomic}


def test_assemble_checks_the_heuristic_where_no_node_needs_an_order():
    store, root = macro_root(fixture("star", 3))
    assert max(node_vars(store, root).values()) <= 1
    with pytest.raises(InternalError, match="unknown ordering heuristic"):
        assemble(store, root, heuristic="nope")
    d = parse("IDNET 1\nMODE prob\nVAR c 2 CHANCE\nPROB c | : 0.5 0.5\n"
              "UTIL u : 7.0\nORDER c\n")
    store = store_for(d)
    root, _ = macrostructure(store, initial_node(store, d))
    assert store.nodes[root].is_atomic
    with pytest.raises(InternalError, match="unknown ordering heuristic"):
        assemble(store, root, heuristic="nope")


def test_assemble_refuses_a_variable_no_child_mentions():
    store = NodeStore([2, 2, 2], ["a", "b", "c"])
    atom = store.atomic(table((0,), [2, 2, 2]))
    one = store.intern([(Op.SUM, (1,))], Op.TIMES, [atom])
    with pytest.raises(InternalError, match="no child mentions"):
        assemble(store, one)
    pair = store.intern([(Op.SUM, (0, 2))], Op.TIMES, [atom])
    with pytest.raises(InternalError, match="no child mentions"):
        assemble(store, pair)  # find_order orders it, clusterize refuses it
    with pytest.raises(InternalError, match="no child mentions"):
        clusterize(store, pair, (0, 2), [], {})


def test_a_routed_order_refuses_a_variable_no_child_mentions(monkeypatch):
    # Routed, the same refusal names the same variable, after the same
    # clusters: the ones eliminating the variables before it.
    store = NodeStore([2] * 4)
    atoms = [store.atomic(table((v,), [2] * 4)) for v in (0, 1, 3)]
    node = store.intern([(Op.SUM, (0, 1, 2, 3))], Op.TIMES, atoms)
    built = {}
    for route_min in (1, 10 ** 9):
        monkeypatch.setattr(clusters, "ROUTE_MIN", route_min)
        built[route_min] = []
        with pytest.raises(InternalError, match="variable 2 is eliminated but no child"):
            clusterize(store, node, (1, 0, 2, 3), built[route_min], {})
    assert [c.elim for c in built[1]] == [(1,), (0,)]
    assert _records(MCDag(tuple(built[1]), 0)) == _records(MCDag(tuple(built[10 ** 9]), 0))


def _width_diagrams():
    ds = _sweep()
    ds += [fixture(name, n=n) for name in ("chain", "star")
           for n in range(1, 14) if n not in (1, 2, 3, 5, 8, 13)]
    return ds


@pytest.mark.parametrize("heuristic", ["min-fill", "min-degree", "exhaustive"])
def test_width_read_from_the_clusters_matches_the_order_widths(heuristic):
    checked = 0
    for d in _width_diagrams():
        store, root = macro_root(d)
        if store.nodes[root].is_atomic:
            continue
        if heuristic == "exhaustive" and \
                max(node_vars(store, root).values()) > EXHAUSTIVE_LIMIT:
            continue
        assert assemble(store, root, heuristic).w_mcdag == \
            oracle_width(store, root, heuristic)
        checked += 1
    assert checked > 80


def test_width_of_a_sub_dag_ignores_the_free_scope_of_its_root():
    # Below the root a fragment's free scope can be wider than any bucket:
    # it is the width of an elimination still to come, not of this DAG.
    store = NodeStore([2, 2, 2, 2], ["a", "b", "c", "d"])
    group = store.intern([], Op.TIMES, [store.atomic(table((0, 1, 2), [2] * 4)),
                                           store.atomic(table((3,), [2] * 4))])
    assert assemble(store, group).w_mcdag == 0 == oracle_width(store, group)
    wide = 0
    for d in [fixture("fig2"), fixture("fig3"), fixture("chain", 5), fixture("star", 5)] + \
            [random_id(6 + seed, 2, 3, 3, seed=seed) for seed in range(4)]:
        store, root = macro_root(d)
        for nid in node_vars(store, root):
            m = assemble(store, nid)
            assert m.w_mcdag == oracle_width(store, nid), (nid, d.names)
            wide += len(m.clusters[m.root].V) - 1 > m.w_mcdag
    assert wide > 0


CLUSTER_DAG_DIGESTS = {
    "min-fill":
        "67439465f7eda0e0dcd5fb18d071e0921600f823bfd6e4f556e9586e33fc9e40",
    "min-degree":
        "3059382ca0508f0ec64f588e256f37c51d2aa1cdf88ae64976e6272b67c3fcd0",
    "exhaustive":
        "396eae3c3530b0a5ff7f04e3ec6015945a3080046c4e945c55d4156847963952",
}


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_assembled_cluster_dags_are_pinned(heuristic):
    # Every cluster's id, sorted V, table names, sons, elimination and ops,
    # then the root and w_mcdag, over the sweep plus chain/star n = 1..8.
    ds = _sweep() + [fixture(f, n) for f in ("chain", "star") for n in range(1, 9)]
    h = hashlib.sha256()
    hashed = 0
    for d in ds:
        store, root = macro_root(d)
        if heuristic == "exhaustive" and not store.nodes[root].is_atomic and \
                max(node_vars(store, root).values()) > EXHAUSTIVE_LIMIT:
            continue
        m = assemble(store, root, heuristic)
        for c in m.clusters:
            h.update(repr((c.id, sorted(c.V), [t.name for t in c.psi], c.sons, c.elim,
                           [op.value for op in c.ops])).encode())
        h.update(repr((m.root, m.w_mcdag)).encode())
        hashed += 1
    assert hashed > 100
    assert h.hexdigest() == CLUSTER_DAG_DIGESTS[heuristic]


def count_find_order(monkeypatch):
    calls = []
    real = clusters.find_order

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(clusters, "find_order", counting)
    return calls


def test_find_order_is_asked_only_for_nodes_of_two_or_more_variables(monkeypatch):
    calls = count_find_order(monkeypatch)
    for d in _sweep():
        store, root = macro_root(d)
        del calls[:]
        assemble(store, root)
        assert len(calls) == sum(k >= 2 for k in node_vars(store, root).values())


@pytest.mark.parametrize("family", ["chain", "star"])
def test_find_order_calls_do_not_grow_with_the_family(family, monkeypatch):
    calls = count_find_order(monkeypatch)
    counts = []
    for n in (2, 3, 5, 8, 13, 32, 64):
        store, root = macro_root(fixture(family, n))
        del calls[:]
        assemble(store, root)
        counts.append(len(calls))
    assert len(set(counts)) == 1
    if family == "star":
        assert counts[0] == 0


# -- routing long orders ----------------------------------------------------------

def _records(m):
    """Every field of every cluster, tables by identity, then root and width."""
    return ([(c.id, c.V, tuple(map(id, c.psi)), c.sons, c.elim, c.ops) for c in m.clusters],
            m.root, m.w_mcdag)


def _routing_diagrams():
    ds = list(FOLD_CASES.values()) + pinned_sweep()
    ds += [fixture(f, n) for f in ("chain", "star") for n in (16, 64, 128)]
    return ds + [parse(_hmm(200))]


@pytest.mark.parametrize("heuristic", ["min-fill", "min-degree"])
def test_routing_builds_the_clusters_the_scan_builds(heuristic, monkeypatch):
    # A long order routes each part once, a short one scans the pending parts
    # per variable.  Routing every order (threshold 1) and scanning every
    # order (threshold above all) must build the same records, tables and
    # sons in the same order.
    long_orders = 0
    for d in _routing_diagrams():
        store, root = macro_root(d)
        long_orders += max(node_vars(store, root).values(), default=0) >= clusters.ROUTE_MIN
        monkeypatch.setattr(clusters, "ROUTE_MIN", 1)
        m = assemble(store, root, heuristic)
        monkeypatch.setattr(clusters, "ROUTE_MIN", 10 ** 9)
        assert _records(m) == _records(assemble(store, root, heuristic)), d.names
        monkeypatch.undo()
    assert long_orders >= 4


class _Tested(int):
    """A stored scope that counts each `&` it takes part in: how `clusterize`
    tests a part against a bucket."""

    tests = 0

    def __and__(self, other):
        _Tested.tests += 1
        return int(self) & other

    __rand__ = __and__


@pytest.mark.parametrize("family", ["chain", "hmm"])
def test_long_orders_route_each_part_in_linear_python_work(family):
    # chain(n)'s merged MAX block and hmm(n)'s merged sum node eliminate
    # about n variables over about n children.  Scanning every pending part
    # per variable tested the children's scopes about n²/2 times; routing
    # tests each once.  Doubling n must about double the tests, not
    # quadruple them.
    tests = {}
    for n in (128, 256):
        store, root = macro_root(fixture("chain", n) if family == "chain" else parse(_hmm(n)))
        store._scopes = list(map(_Tested, store._scopes))
        _Tested.tests = 0
        assemble(store, root)
        tests[n] = _Tested.tests
    assert 0 < tests[128] <= tests[256] <= 2.2 * tests[128], tests


# -- merging ------------------------------------------------------------------

def test_merge_unifies_identical_chance_blocks():
    store = NodeStore([2, 2], ["x", "y"])
    p_x = table((0,), [2, 2], name="P_x", cpt_for=0)
    p_yx = table((0, 1), [2, 2], name="P_y", cpt_for=1)
    u1 = table((1,), [2, 2], name="u1")
    u2 = table((1,), [2, 2], name="u2")
    ax, ayx = store.atomic(p_x), store.atomic(p_yx)
    g1 = store.intern([(Op.SUM, (0,))], Op.TIMES, [ax, ayx, store.atomic(u1)])
    g2 = store.intern([(Op.SUM, (0,))], Op.TIMES, [ax, ayx, store.atomic(u2)])
    root = store.intern([], Op.PLUS, [g1, g2])
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


@pytest.mark.parametrize("d", [fixture("fig2"), fixture("fig3"), fixture("chain", 8),
                               fixture("star", 8), random_id(9, 2, 3, 2, seed=1)],
                         ids=["fig2", "fig3", "chain8", "star8", "random1"])
def test_merge_keeps_the_records_it_does_not_change(d):
    m = assemble(*macro_root(d))
    merged = merge_clusters(m)
    assert len(merged.clusters) == len(m.clusters)  # nothing merges here
    assert all(a is b for a, b in zip(merged.clusters, m.clusters))


@pytest.mark.parametrize("d", [fixture("fig3"), fixture("chain", 8), fixture("star", 8)],
                         ids=["fig3", "chain8", "star8"])
def test_merge_returns_its_input_when_nothing_merges(d):
    m = assemble(*macro_root(d))
    assert merge_clusters(m) is m


def test_merge_requires_same_table_objects():
    # Equal values in distinct table objects must not be unified.
    store = NodeStore([2, 2], ["x", "y"])
    u = table((1,), [2, 2], name="u")
    mk = lambda: table((0, 1), [2, 2], name="P", cpt_for=1)
    g1 = store.intern([(Op.SUM, (0,))], Op.TIMES, [store.atomic(mk()), store.atomic(u)])
    g2 = store.intern([(Op.SUM, (0,))], Op.TIMES, [store.atomic(mk()), store.atomic(u)])
    root = store.intern([], Op.PLUS, [g1, g2])
    merged = merge_clusters(assemble(store, root))
    assert len(merged.clusters) == len(assemble(store, root).clusters)


# -- what the message pass rests on ------------------------------------------------

FOLD_UNION_CASES = (
    [("fig2", fixture("fig2")), ("fig3", fixture("fig3"))]
    + [(f"{f}{n}", fixture(f, n)) for f in ("chain", "star") for n in range(1, 9)]
    + [(f"{mode}{s}", random_id(9, 2, 3, 2, mode=mode, seed=s))
       for mode in ("prob", "poss") for s in range(40)])


@pytest.mark.parametrize("merge", [False, True], ids=["assembled", "merged"])
def test_fold_union_is_the_cluster_scope(merge):
    # `evaluate` folds a cluster's tables and son separators, then eliminates
    # its variable.  Bucket elimination sends every item that holds a variable
    # to that variable's bucket or to an earlier one, whose message carries it
    # on, so the fold spans all of V and holds the variable it eliminates.
    for name, d in FOLD_UNION_CASES:
        m = assemble(*macro_root(d))
        if merge:
            m = merge_clusters(m)
        for c in m.clusters:
            union = set().union(*(t.scope for t in c.psi))
            for s in c.sons:
                union |= m.clusters[s].V - set(m.clusters[s].elim)
            assert union == c.V, (name, c.id)
            assert set(c.elim) <= union, (name, c.id)


# -- rendering ------------------------------------------------------------------

def test_to_dot_shape():
    store, root = macro_root(fixture("fig2"))
    m = assemble(store, root)
    dot = to_dot(m, store.names)
    assert dot.startswith("digraph mcdag {")
    assert dot.count(" -> ") == sum(len(c.sons) for c in m.clusters)
    assert "{r1,r2} (sum,times) |T|=2" in dot
    assert "doubleoctagon" in dot
