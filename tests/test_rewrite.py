"""Rewriting rules: worked examples on the two figures, rule-level checks,
and driver invariants (soundness, size bound, determinism)."""

import json

import numpy as np
import pytest

from infdiag.diagram import fixture, mode_ops, parse, random_id, sov0
from infdiag.factors import InternalError, Op, ScopedTable
from infdiag.nodes import (NodeStore, eval_node, initial_node, node_count,
                           store_for, structural_signature)
from infdiag.rewrite import (TraceEvent, assert_mono_operator, decompose_max,
                             decompose_sum, drop_unit_children, macrostructure,
                             recompose_max, recompose_sum, remove_passthrough,
                             simplify_normalized, trace_to_jsonl)

from harness import check_trace
from oracles import oracle_value


def atom(store: NodeStore, name: str) -> int:
    for i, n in enumerate(store.nodes):
        if n.is_atomic and n.table.name == name:
            return i
    raise KeyError(name)


def shape(store: NodeStore, nid: int):
    node = store.nodes[nid]
    if node.is_atomic:
        return ("atom", node.table.name)
    kids = tuple(sorted((shape(store, c) for c in node.children), key=repr))
    return (tuple((op.value, block) for op, block in node.sov), node.comb.value, kids)


def fig2_store():
    d = fixture("fig2")
    store = store_for(d)
    return d, store, initial_node(store, d)


# --------------------------------------------------------------------------
# Individual rules

def test_decompose_sum_shares_the_inner_node():
    d, store, root = fig2_store()
    trace = []
    out = decompose_sum(store, root, 0, trace)
    node = store.nodes[out]
    assert node.sov == ((Op.MAX, (2,)), (Op.SUM, (1,)))
    p1, p2 = atom(store, "P_r1"), atom(store, "P_r2")
    shared = store.composite([(Op.SUM, (0,))], Op.TIMES, [p1, p2])
    full = store.composite([(Op.SUM, (0,))], Op.TIMES, [p1, p2, atom(store, "u_dr1")])
    want = {
        store.composite([], Op.TIMES, [full]),
        store.composite([], Op.TIMES, [atom(store, "u_dr2"), shared]),
        store.composite([], Op.TIMES, [atom(store, "u_d"), shared]),
    }
    assert set(node.children) == want
    assert trace == [TraceEvent("decompose-sum", root, out, var=0)]


def test_decompose_rules_check_their_shape():
    d, store, root = fig2_store()
    with pytest.raises(InternalError):
        decompose_sum(store, root, 2)  # the decision is not in the chance block
    with pytest.raises(InternalError):
        decompose_max(store, root, 2)  # the innermost block is a chance block
    with pytest.raises(InternalError):
        decompose_sum(store, atom(store, "u_d"), 0)


def test_recompose_sum_merges_free_nested_sums():
    store = NodeStore((2, 3))
    a = store.atomic(ScopedTable((0,), (2,), np.array([1.0, 2.0]), name="a"))
    b = store.atomic(ScopedTable((0, 1), (2, 3), np.arange(6.0), name="b"))
    inner = store.composite([(Op.SUM, (1,))], Op.TIMES, [b])
    outer = store.composite([(Op.SUM, (0,))], Op.TIMES, [a, inner])
    trace = []
    out = recompose_sum(store, outer, trace)
    assert store.nodes[out].sov == ((Op.SUM, (0, 1)),)
    assert set(store.nodes[out].children) == {a, b}
    assert [e.rule for e in trace] == ["recompose-sum"]
    assert eval_node(store, out, {}) == pytest.approx(eval_node(store, outer, {}))


def test_recompose_sum_gates():
    store = NodeStore((2, 3))
    a = store.atomic(ScopedTable((0,), (2,), np.array([1.0, 2.0]), name="a"))
    b = store.atomic(ScopedTable((0, 1), (2, 3), np.arange(6.0), name="b"))
    c = store.atomic(ScopedTable((1,), (3,), np.ones(3), name="c"))
    inner = store.composite([(Op.SUM, (1,))], Op.TIMES, [b])
    # a sibling scoped on the inner variable blocks the merge
    blocked = store.composite([(Op.SUM, (0,))], Op.TIMES, [a, c, inner])
    assert recompose_sum(store, blocked) == blocked
    # a factor shared between inside and outside blocks it too
    inner2 = store.composite([(Op.SUM, (1,))], Op.TIMES, [a, b])
    sharing = store.composite([(Op.SUM, (0,))], Op.TIMES, [a, inner2])
    assert recompose_sum(store, sharing) == sharing


def test_simplify_normalized_drops_spent_tables():
    d, store, _ = fig2_store()
    p1, p2 = atom(store, "P_r1"), atom(store, "P_r2")
    g = store.composite([(Op.SUM, (0, 1))], Op.TIMES, [p1, p2])
    trace = []
    out = simplify_normalized(store, g, trace)
    node = store.nodes[out]
    assert node.sov == () and node.children == () and node.comb is Op.TIMES
    assert [(e.rule, e.var) for e in trace] == [
        ("simplify-normalized", 1), ("simplify-normalized", 0)]


def test_simplify_normalized_keeps_needed_tables():
    d, store, _ = fig2_store()
    p1, p2 = atom(store, "P_r1"), atom(store, "P_r2")
    g = store.composite([(Op.SUM, (0, 1))], Op.TIMES, [p1, p2, atom(store, "u_dr2")])
    assert simplify_normalized(store, g) == g
    # a plain table over the same variables is not a conditional table
    w = store.atomic(ScopedTable((0, 1), (2, 2), store.nodes[p2].table.values,
                                 tag="utility", name="w"))
    g2 = store.composite([(Op.SUM, (0, 1))], Op.TIMES, [p1, w])
    assert simplify_normalized(store, g2) == g2


def test_drop_unit_children_removes_empty_products():
    store = NodeStore((2,))
    a = store.atomic(ScopedTable((0,), (2,), np.array([1.0, 2.0]), name="a"))
    unit = store.composite([], Op.TIMES, [])
    foreign = store.composite([], Op.PLUS, [])  # identity of plus, not of times
    n = store.composite([], Op.TIMES, [a, unit, foreign])
    trace = []
    out = drop_unit_children(store, n, trace)
    assert set(store.nodes[out].children) == {a, foreign}
    assert [e.rule for e in trace] == ["drop-unit"]
    assert drop_unit_children(store, out) == out


def test_decompose_max_wraps_the_whole_root_when_nothing_is_common():
    d, store, _ = fig2_store()
    p1, p2 = atom(store, "P_r1"), atom(store, "P_r2")
    s1 = store.composite([(Op.SUM, (0,))], Op.TIMES, [p1, atom(store, "u_dr1")])
    s2 = store.composite([(Op.SUM, (0, 1))], Op.TIMES, [p1, p2, atom(store, "u_dr2")])
    w1 = store.composite([], Op.TIMES, [s1])
    w2 = store.composite([], Op.TIMES, [s2])
    w3 = store.composite([], Op.TIMES, [atom(store, "u_d")])
    root = store.composite([(Op.MAX, (2,))], Op.PLUS, [w1, w2, w3])
    trace = []
    out = decompose_max(store, root, 2, trace)
    node = store.nodes[out]
    assert node.sov == ()
    (wrap,) = node.children
    inner = trace[-1].inner
    assert store.nodes[wrap].children == (inner,)
    assert store.nodes[inner].sov == ((Op.MAX, (2,)),)
    assert set(store.nodes[inner].children) == {w1, w2, w3}


def test_decompose_max_hoists_common_factors():
    d = fixture("fig3")
    store = store_for(d)
    root = initial_node(store, d)
    trace = []
    out = decompose_max(store, root, 4, trace)
    node = store.nodes[out]
    assert node.sov == ((Op.MAX, (2,)), (Op.SUM, (1,)), (Op.MAX, (3,)), (Op.SUM, (0,)))
    inner = trace[-1].inner
    wraps = [c for c in node.children if inner in store.nodes[c].children]
    assert len(wraps) == 1
    p1, p2 = atom(store, "P_r1"), atom(store, "P_r2")
    assert set(store.nodes[wraps[0]].children) == {p1, p2, inner}
    assert {shape(store, s) for s in store.nodes[inner].children} == {
        ((), "times", (("atom", "u_d2d3"),)),
        ((), "times", (("atom", "u_r2d1d3"),)),
    }


def test_decompose_max_drops_an_absent_decision():
    store = NodeStore((2, 2))
    u = store.atomic(ScopedTable((0,), (2,), np.array([1.0, 2.0]),
                                 tag="utility", name="u"))
    w = store.composite([], Op.TIMES, [u])
    root = store.composite([(Op.MAX, (1,))], Op.PLUS, [w])
    trace = []
    out = decompose_max(store, root, 1, trace)
    assert store.nodes[out].sov == ()
    assert store.nodes[out].children == (w,)
    assert trace[-1].inner is None


def test_decompose_max_refuses_signed_common_factors():
    store = NodeStore((2, 2))
    shared = store.atomic(ScopedTable((0,), (2,), np.array([-1.0, 1.0]),
                                      tag="utility", name="s"))
    ua = store.atomic(ScopedTable((1,), (2,), np.array([0.0, 1.0]),
                                  tag="utility", name="ua"))
    ub = store.atomic(ScopedTable((1,), (2,), np.array([2.0, 1.0]),
                                  tag="utility", name="ub"))
    g1 = store.composite([], Op.TIMES, [shared, ua])
    g2 = store.composite([], Op.TIMES, [shared, ub])
    root = store.composite([(Op.MAX, (1,))], Op.PLUS, [g1, g2])
    with pytest.raises(InternalError):
        decompose_max(store, root, 1)


def test_recompose_max_merges_a_nested_decision():
    store = NodeStore((2, 2, 2))  # outer decision 0, nested decision 1, chance 2
    u1 = store.atomic(ScopedTable((1,), (2,), np.array([0.2, 0.9]),
                                  tag="utility", name="u1"))
    u2 = store.atomic(ScopedTable((0,), (2,), np.array([0.5, 0.1]),
                                  tag="utility", name="u2"))
    pf = store.atomic(ScopedTable((2,), (2,), np.array([0.3, 0.7]),
                                  tag="probability", name="pf"))
    nested = store.composite([(Op.MAX, (1,))], Op.PLUS,
                             [store.composite([], Op.TIMES, [u1])])
    g = store.composite([], Op.TIMES, [pf, nested])
    sib = store.composite([], Op.TIMES, [u2])
    node = store.composite([(Op.MAX, (0,))], Op.PLUS, [g, sib])
    trace = []
    out = recompose_max(store, node, trace)
    assert store.nodes[out].sov == ((Op.MAX, (0, 1)),)
    groups = set(store.nodes[out].children)
    assert sib in groups
    groups.discard(sib)
    (merged,) = groups
    assert set(store.nodes[merged].children) == {pf, u1}
    assert [e.rule for e in trace] == ["recompose-max"]
    check_trace(store, trace, np.random.default_rng(0))


def test_recompose_max_gates():
    store = NodeStore((2, 2, 2))
    u1 = store.atomic(ScopedTable((1,), (2,), np.array([0.2, 0.9]),
                                  tag="utility", name="u1"))
    u3 = store.atomic(ScopedTable((0, 1), (2, 2), np.array([0.1, 0.2, 0.3, 0.4]),
                                  tag="utility", name="u3"))
    pf = store.atomic(ScopedTable((2,), (2,), np.array([0.3, 0.7]),
                                  tag="probability", name="pf"))
    neg = store.atomic(ScopedTable((2,), (2,), np.array([-1.0, 1.0]),
                                   tag="utility", name="neg"))
    nested = store.composite([(Op.MAX, (1,))], Op.PLUS,
                             [store.composite([], Op.TIMES, [u1])])
    # the nested decision appears in a sibling group: no merge
    g = store.composite([], Op.TIMES, [pf, nested])
    sib = store.composite([], Op.TIMES, [u3])
    node = store.composite([(Op.MAX, (0,))], Op.PLUS, [g, sib])
    assert recompose_max(store, node) == node
    # a possibly negative factor cannot be pushed inside the nested max
    g2 = store.composite([], Op.TIMES, [neg, nested])
    u2 = store.atomic(ScopedTable((0,), (2,), np.array([0.5, 0.1]),
                                  tag="utility", name="u2"))
    sib2 = store.composite([], Op.TIMES, [u2])
    node2 = store.composite([(Op.MAX, (0,))], Op.PLUS, [g2, sib2])
    with pytest.raises(InternalError):
        recompose_max(store, node2)


def test_remove_passthrough_collapses_and_guards():
    store = NodeStore((2,))
    a = store.atomic(ScopedTable((0,), (2,), np.array([1.0, 2.0]), name="a"))
    w = store.composite([], Op.TIMES, [a])
    w2 = store.composite([], Op.PLUS, [w])
    assert remove_passthrough(store, w2) == a
    bad = store.composite([], Op.TIMES, [w, a])
    with pytest.raises(InternalError):
        remove_passthrough(store, bad)
    keep = store.composite([(Op.SUM, (0,))], Op.TIMES, [a])
    assert remove_passthrough(store, keep) == keep


# --------------------------------------------------------------------------
# The driver on the worked figures

FIG2_TRACE = [
    ("decompose-sum", 0), ("decompose-sum", 1),
    ("recompose-sum", None), ("recompose-sum", None), ("recompose-sum", None),
    ("simplify-normalized", 1), ("simplify-normalized", 1), ("simplify-normalized", 0),
    ("drop-unit", None), ("decompose-max", 2),
]


def test_macro_fig2_golden():
    d, store, root = fig2_store()
    final, trace = macrostructure(store, root, plan=sov0(d))
    assert [(e.rule, e.var) for e in trace] == FIG2_TRACE
    srt = lambda items: tuple(sorted(items, key=repr))
    assert shape(store, final) == ((("max", (2,)),), "plus", srt([
        ("atom", "u_d"),
        ((("sum", (0,)),), "times", srt([("atom", "P_r1"), ("atom", "u_dr1")])),
        ((("sum", (0, 1)),), "times",
         srt([("atom", "P_r1"), ("atom", "P_r2"), ("atom", "u_dr2")])),
    ]))
    ops = mode_ops("prob")
    assert_mono_operator(store, final, ops.chance_marg, ops.group_comb, ops.outer_comb)
    assert eval_node(store, final, {}) == pytest.approx(oracle_value(d), rel=1e-9)


def test_macro_fig3_golden():
    d = fixture("fig3")
    store = store_for(d)
    final, trace = macrostructure(store, initial_node(store, d), plan=sov0(d))
    assert [(e.rule, e.var) for e in trace] == [
        ("decompose-max", 4), ("decompose-sum", 0), ("decompose-max", 3),
        ("recompose-max", None), ("decompose-sum", 1), ("recompose-sum", None),
        ("simplify-normalized", 1), ("simplify-normalized", 0),
        ("drop-unit", None), ("decompose-max", 2)]
    node = store.nodes[final]
    assert node.sov == ((Op.MAX, (2,)),) and node.comb is Op.PLUS
    kids = set(node.children)
    assert atom(store, "u_d1") in kids
    kids.discard(atom(store, "u_d1"))
    (outer_sum,) = kids
    assert store.nodes[outer_sum].sov == ((Op.SUM, (1,)),)
    (m23,) = store.nodes[outer_sum].children
    node23 = store.nodes[m23]
    assert node23.sov == ((Op.MAX, (3, 4)),) and node23.comb is Op.PLUS
    p1, p2 = atom(store, "P_r1"), atom(store, "P_r2")
    shared = store.composite([(Op.SUM, (0,))], Op.TIMES, [p1, p2])
    assert set(node23.children) == {
        store.composite([(Op.SUM, (0,))], Op.TIMES, [p1, p2, atom(store, "u_r1d2")]),
        store.composite([], Op.TIMES, [shared, atom(store, "u_d2d3")]),
        store.composite([], Op.TIMES, [shared, atom(store, "u_r2d1d3")]),
    }
    assert eval_node(store, final, {}) == pytest.approx(oracle_value(d), rel=1e-9)


def test_macro_star_shape():
    for n in (2, 4):
        d = fixture("star", n=n)
        store = store_for(d)
        final, _ = macrostructure(store, initial_node(store, d), plan=sov0(d))
        node = store.nodes[final]
        assert node.sov == () and node.comb is Op.PLUS and len(node.children) == n
        for c in node.children:
            cn = store.nodes[c]
            assert cn.comb is Op.PLUS and len(cn.sov) == 1
            assert cn.sov[0][0] is Op.MAX and len(cn.sov[0][1]) == 1
            (g,) = cn.children
            assert store.nodes[g].sov == ((Op.SUM, (n,)),)
            assert len(store.nodes[g].children) == 2
        assert eval_node(store, final, {}) == pytest.approx(oracle_value(d), rel=1e-9)


def test_macro_chain_shape():
    for n in (2, 4):
        d = fixture("chain", n=n)
        store = store_for(d)
        final, _ = macrostructure(store, initial_node(store, d), plan=sov0(d))
        node = store.nodes[final]
        assert node.sov == ((Op.MAX, tuple(range(n)) + (n + 1,)),)
        atoms = [c for c in node.children if store.nodes[c].is_atomic]
        comps = [c for c in node.children if not store.nodes[c].is_atomic]
        assert len(atoms) == n and len(comps) == 1
        assert store.nodes[comps[0]].sov == ((Op.SUM, (n,)),)
        assert eval_node(store, final, {}) == pytest.approx(oracle_value(d), rel=1e-9)


def test_macro_collapses_constant_value_to_an_atom():
    d = parse("IDNET 1\nMODE prob\nVAR c 2 CHANCE\nPROB c | : 0.5 0.5\n"
              "UTIL u : 7.0\nORDER c\n")
    store = store_for(d)
    final, _ = macrostructure(store, initial_node(store, d), plan=sov0(d))
    assert store.nodes[final].is_atomic
    assert eval_node(store, final, {}) == pytest.approx(7.0)


def test_macro_rejects_inconsistent_plans():
    d, store, root = fig2_store()
    with pytest.raises(InternalError):
        macrostructure(store, root, plan=[(Op.SUM, (0, 1)), (Op.MAX, (2,))])


# --------------------------------------------------------------------------
# Driver invariants

def test_macro_matches_enumeration_on_random_diagrams():
    for mode in ("prob", "poss"):
        for seed in range(12):
            nvars = seed % 6 + 1
            d = random_id(nvars, min(seed % 3, nvars), 3, 2, mode=mode, seed=seed)
            store = store_for(d)
            final, _ = macrostructure(store, initial_node(store, d),
                                      plan=sov0(d), debug=True)
            got = eval_node(store, final, {})
            assert got == pytest.approx(oracle_value(d), rel=1e-9, abs=1e-12), (mode, seed)


def test_every_rule_application_is_sound():
    rng = np.random.default_rng(7)
    checked = 0
    for mode in ("prob", "poss"):
        for seed in range(8):
            nvars = seed % 5 + 2
            d = random_id(nvars, min(2, nvars), 3, 2, mode=mode, seed=100 + seed)
            store = store_for(d)
            _, trace = macrostructure(store, initial_node(store, d), plan=sov0(d))
            checked += check_trace(store, trace, rng)
    assert checked >= 50


def test_macro_size_bound_and_mono_operator():
    cases = [fixture("fig2"), fixture("fig3"), fixture("chain", n=5),
             fixture("star", n=5)]
    for seed in range(10):
        nvars = seed % 7 + 1
        cases.append(random_id(nvars, min(2, nvars), 3, 2, seed=seed))
    for d in cases:
        store = store_for(d)
        final, _ = macrostructure(store, initial_node(store, d), plan=sov0(d))
        n_p, n_u, n_v = len(d.cpts), len(d.utilities), len(d.variables)
        assert node_count(store, final) <= 4 * n_v * (n_u + n_p) + n_p + n_u + 4
        ops = mode_ops(d.mode)
        assert_mono_operator(store, final, ops.chance_marg, ops.group_comb,
                             ops.outer_comb)


def test_macro_is_deterministic():
    runs = []
    for _ in range(2):
        d = fixture("fig3")
        store = store_for(d)
        final, trace = macrostructure(store, initial_node(store, d), plan=sov0(d))
        runs.append((final, tuple(trace), structural_signature(store, final)))
    assert runs[0] == runs[1]


def test_block_order_does_not_change_the_result():
    d = fixture("fig2")
    sigs = []
    for block in ((1, 0), (0, 1)):
        store = store_for(d)
        final, _ = macrostructure(store, initial_node(store, d),
                                  plan=[(Op.MAX, (2,)), (Op.SUM, block)])
        sigs.append(structural_signature(store, final))
    assert sigs[0] == sigs[1]
    d = fixture("star", n=3)
    sigs = []
    for block in ((0, 1, 2), (2, 0, 1)):
        store = store_for(d)
        final, _ = macrostructure(store, initial_node(store, d),
                                  plan=[(Op.MAX, block), (Op.SUM, (3,))])
        sigs.append(structural_signature(store, final))
    assert sigs[0] == sigs[1]


def test_trace_serializes_to_json_lines():
    d, store, root = fig2_store()
    _, trace = macrostructure(store, root, plan=sov0(d))
    text = trace_to_jsonl(trace)
    lines = text.strip().split("\n")
    assert len(lines) == len(trace)
    assert json.loads(lines[0]) == {"rule": "decompose-sum", "target": trace[0].target,
                                    "produced": trace[0].produced, "var": 0}
    for line in lines:
        assert set(json.loads(line)) <= {"rule", "target", "produced", "var", "inner"}
    assert trace_to_jsonl([]) == ""


def test_macro_interning_grows_linearly_on_chains(monkeypatch):
    # A rule interns only what it changes: doubling the chain about doubles
    # the NodeStore.intern calls of the rewrite instead of quadrupling them.
    intern = NodeStore.intern
    calls = {}
    for n in (64, 128):
        d = fixture("chain", n=n)
        store = store_for(d)
        root = initial_node(store, d)
        count = [0]

        def counting(self, node, count=count):
            count[0] += 1
            return intern(self, node)

        monkeypatch.setattr(NodeStore, "intern", counting)
        macrostructure(store, root)
        monkeypatch.setattr(NodeStore, "intern", intern)
        calls[n] = count[0]
    assert 0 < calls[64] < calls[128] <= 2.2 * calls[64]
