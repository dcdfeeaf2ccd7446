"""Rewriting rules: worked examples on the two figures, rule-level checks,
and driver invariants (soundness, size bound, determinism)."""

import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from infdiag import rewrite
from infdiag.baseline import brute_force
from infdiag.diagram import fixture, mode_ops, parse, random_id, sov0
from infdiag.factors import InternalError, Op, ScopedTable
from infdiag.nodes import (CompNode, NodeStore, bits, canonical_sov, initial_node,
                           reachable, store_for)
from infdiag.rewrite import (TraceEvent, decompose_max, decompose_sum, drop_unit_children,
                             macrostructure, recompose_max, recompose_sum,
                             remove_passthrough, simplify_normalized)
from infdiag.solve import solve_diagram

from harness import assert_mono_operator, check_trace, root_plan
from oracles import (eval_node, oracle_acyclic, oracle_value, structural_signature,
                     trace_to_jsonl, with_extra_parents)


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
    out, inners = decompose_sum(store, root, 0, trace)
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
    assert sorted(inners) == sorted({shared, full})
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
                                 name="w"))
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
    out, inner = decompose_max(store, root, 2, trace)
    node = store.nodes[out]
    assert node.sov == ()
    (wrap,) = node.children
    assert inner == trace[-1].inner
    assert store.nodes[wrap].children == (inner,)
    assert store.nodes[inner].sov == ((Op.MAX, (2,)),)
    assert set(store.nodes[inner].children) == {w1, w2, w3}


def test_decompose_max_hoists_common_factors():
    d = fixture("fig3")
    store = store_for(d)
    root = initial_node(store, d)
    trace = []
    out, inner = decompose_max(store, root, 4, trace)
    node = store.nodes[out]
    assert node.sov == ((Op.MAX, (2,)), (Op.SUM, (1,)), (Op.MAX, (3,)), (Op.SUM, (0,)))
    assert inner == trace[-1].inner
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
                                 name="u"))
    w = store.composite([], Op.TIMES, [u])
    root = store.composite([(Op.MAX, (1,))], Op.PLUS, [w])
    trace = []
    out, inner = decompose_max(store, root, 1, trace)
    assert store.nodes[out].sov == ()
    assert store.nodes[out].children == (w,)
    assert inner is None and trace[-1].inner is None


def test_decompose_max_refuses_a_wrapper_that_collides_with_a_group():
    # The wrapper built over the new max node is already a root group that
    # does not mention the decision: merging the two would drop a term.
    store = NodeStore((2,))
    u = store.atomic(ScopedTable((0,), (2,), np.array([1.0, 2.0]), name="u"))
    g1 = store.composite([], Op.TIMES, [u])
    inner = store.composite([(Op.MAX, (0,))], Op.PLUS, [g1])
    g2 = store.composite([], Op.TIMES, [inner])
    root = store.composite([(Op.MAX, (0,))], Op.PLUS, [g1, g2])
    with pytest.raises(InternalError, match="collides with an unrelated group"):
        decompose_max(store, root, 0)


def test_decompose_max_refuses_signed_common_factors():
    store = NodeStore((2, 2))
    shared = store.atomic(ScopedTable((0,), (2,), np.array([-1.0, 1.0]),
                                      name="s"))
    ua = store.atomic(ScopedTable((1,), (2,), np.array([0.0, 1.0]),
                                  name="ua"))
    ub = store.atomic(ScopedTable((1,), (2,), np.array([2.0, 1.0]),
                                  name="ub"))
    g1 = store.composite([], Op.TIMES, [shared, ua])
    g2 = store.composite([], Op.TIMES, [shared, ub])
    root = store.composite([(Op.MAX, (1,))], Op.PLUS, [g1, g2])
    with pytest.raises(InternalError):
        decompose_max(store, root, 1)


def test_recompose_max_merges_a_nested_decision():
    store = NodeStore((2, 2, 2))  # outer decision 0, nested decision 1, chance 2
    u1 = store.atomic(ScopedTable((1,), (2,), np.array([0.2, 0.9]),
                                  name="u1"))
    u2 = store.atomic(ScopedTable((0,), (2,), np.array([0.5, 0.1]),
                                  name="u2"))
    pf = store.atomic(ScopedTable((2,), (2,), np.array([0.3, 0.7]),
                                  name="pf", cpt_for=2))
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


@pytest.mark.parametrize("beside", [False, True], ids=["alone", "with_sibling_and_factor"])
def test_recompose_max_merges_to_the_fixpoint(beside):
    # Three nested decisions merge in two steps.  The node the first merge
    # builds still holds a nested max, so it must not be taken as proved
    # free of one: neither when the nested node was never scanned (alone),
    # nor when a sibling group and a factor beside it are merged in.
    store = NodeStore((2, 2, 2, 2))  # decisions 0, 1, 2; chance 3
    u = store.atomic(ScopedTable((2,), (2,), np.array([0.2, 0.9]), name="u"))
    nested2 = store.composite([(Op.MAX, (2,))], Op.PLUS, [store.composite([], Op.TIMES, [u])])
    nested1 = store.composite([(Op.MAX, (1,))], Op.PLUS,
                              [store.composite([], Op.TIMES, [nested2])])
    kids = [nested1]
    groups = []
    if beside:
        pf = store.atomic(ScopedTable((3,), (2,), np.array([0.3, 0.7]), name="pf", cpt_for=3))
        u0 = store.atomic(ScopedTable((0,), (2,), np.array([0.5, 0.1]), name="u0"))
        kids.append(pf)
        groups.append(store.composite([], Op.TIMES, [u0]))
    groups.append(store.composite([], Op.TIMES, kids))
    node = store.composite([(Op.MAX, (0,))], Op.PLUS, groups)
    trace = []
    out = recompose_max(store, node, trace)
    assert [e.rule for e in trace] == ["recompose-max"] * 2
    assert store.nodes[out].sov == ((Op.MAX, (0, 1, 2)),)
    assert trace[0].produced not in store._no_nested_max
    assert out in store._no_nested_max
    assert recompose_max(store, out) == out
    check_trace(store, trace, np.random.default_rng(0))


def test_recompose_max_gates():
    store = NodeStore((2, 2, 2))
    u1 = store.atomic(ScopedTable((1,), (2,), np.array([0.2, 0.9]),
                                  name="u1"))
    u3 = store.atomic(ScopedTable((0, 1), (2, 2), np.array([0.1, 0.2, 0.3, 0.4]),
                                  name="u3"))
    pf = store.atomic(ScopedTable((2,), (2,), np.array([0.3, 0.7]),
                                  name="pf", cpt_for=2))
    neg = store.atomic(ScopedTable((2,), (2,), np.array([-1.0, 1.0]),
                                   name="neg"))
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
                                  name="u2"))
    sib2 = store.composite([], Op.TIMES, [u2])
    node2 = store.composite([(Op.MAX, (0,))], Op.PLUS, [g2, sib2])
    with pytest.raises(InternalError):
        recompose_max(store, node2)


# x is observed before d and, through its table, tells d about y: the table
# of x has a variable in a block inner to x's, so x is not barren.
OBSERVED_BEFORE_A_DECISION = """\
IDNET 1
MODE prob
VAR x 2 CHANCE
VAR d 2 DECISION
VAR y 2 CHANCE
PROB y | : 0.5 0.5
PROB x | y : 0.85 0.15 0.15 0.85
UTIL u d y : 1.0 0.0 0.0 1.0
ORDER x / d / y
"""


def test_drop_barren_keeps_a_table_over_an_inner_variable():
    d = parse(OBSERVED_BEFORE_A_DECISION)
    assert d.barren == frozenset()
    assert brute_force(d)[0] == pytest.approx(0.85, rel=1e-12)
    assert solve_diagram(d).meu == pytest.approx(0.85, rel=1e-12)


def _barren_chain(mode: str) -> str:
    # b is barren; once its table is gone, so is its parent a.  Dropping
    # them empties the chance block between d1 and d2.
    prior, cond, other = {"prob": ("0.3 0.7", "0.9 0.1 0.2 0.8", "0.4 0.6"),
                          "poss": ("1.0 0.4", "0.3 1.0 1.0 0.2", "0.6 1.0")}[mode]
    return (f"IDNET 1\nMODE {mode}\nVAR d1 2 DECISION\nVAR a 2 CHANCE\n"
            f"VAR b 2 CHANCE\nVAR d2 2 DECISION\nVAR c 2 CHANCE\n"
            f"PROB a | : {prior}\nPROB b | a : {cond}\nPROB c | : {other}\n"
            f"UTIL u d1 d2 c : 0.1 0.9 0.5 0.3 0.7 0.2 0.4 0.8\n"
            f"UTIL v d2 : 0.3 0.6\nORDER / d1 / a b / d2 / c\n")


@pytest.mark.parametrize("mode", ["prob", "poss"])
def test_drop_barren_drops_a_chain_in_one_event(mode):
    # The chain leaves as a whole, found on the diagram: neither table is
    # interned, and the decision blocks around the emptied block merge.
    d = parse(_barren_chain(mode))
    d1, a, b, d2, c = (d.names.index(n) for n in ("d1", "a", "b", "d2", "c"))
    assert d.barren == {a, b}
    store = store_for(d)
    root = initial_node(store, d)
    ops = mode_ops(mode)
    assert store.nodes[root].sov == ((Op.MAX, (d1, d2)), (ops.chance_marg, (c,)))
    final, trace = macrostructure(store, root)
    assert not {n.table.cpt_for for n in store.nodes if n.is_atomic} & {a, b}
    check_trace(store, trace, np.random.default_rng(3))
    want = brute_force(d)[0]
    if mode == "prob":
        assert eval_node(store, final, {}) == pytest.approx(want, rel=1e-9)
        assert solve_diagram(d).meu == pytest.approx(want, rel=1e-9)
    else:
        assert eval_node(store, final, {}) == want
        assert solve_diagram(d).meu == want


def test_cluster_engine_matches_brute_force_with_extra_parents():
    # Extra parents put tables over later variables, which `random_id`
    # never does, so some barren variables must stay (condition 2 of
    # `InfluenceDiagram.barren`).
    rng = np.random.default_rng(12)
    solved = fired = 0
    for seed in range(300):
        mode = ("prob", "poss")[seed % 2]
        d = with_extra_parents(random_id(8, 3, 3, 2, mode, seed=seed), rng)
        if not oracle_acyclic(d):
            continue
        fired += bool(d.barren)
        want, got = brute_force(d)[0], solve_diagram(d).meu
        if mode == "prob":
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), seed
        else:
            assert got == want, seed
        solved += 1
    assert solved > 100 and fired > solved // 2


def with_an_informant(d, rng):
    """`d` where a barren variable `x` observed before a decision `D` gets a
    fresh table over a chance variable `y` of a block after `D`'s, and a new
    utility reads `D` and `y`; with `x`, or None when `d` has no such triple.
    `x` is still mentioned by its own table only, so condition 1 of
    `InfluenceDiagram.barren` still holds for it."""
    block_of = {v: i for i, block in enumerate(d.blocks) for v in block}
    triples = [(x, D, y) for x in sorted(d.barren) for D in d.decision_ids
               for y in d.chance_ids if block_of[x] < block_of[D] < block_of[y]]
    if not triples:
        return None
    x, D, y = triples[int(rng.integers(len(triples)))]
    t = d.cpts[x]
    scope = (y,) + t.scope
    sizes = tuple(d.size_of(v) for v in scope)
    rows = rng.random((math.prod(sizes[:-1]), sizes[-1])) + 0.05
    rows /= (rows.sum if d.mode == "prob" else rows.max)(axis=1, keepdims=True)
    cpts = {**d.cpts, x: ScopedTable(scope, sizes, rows.reshape(-1), name=t.name, cpt_for=x)}
    u = ScopedTable((D, y), (d.size_of(D), d.size_of(y)),
                    rng.random(d.size_of(D) * d.size_of(y)), name="u_informed")
    return dataclasses.replace(d, cpts=cpts, utilities=d.utilities + (u,)), x


def test_a_table_over_a_later_variable_keeps_its_variable():
    # Condition 2 of `InfluenceDiagram.barren` alone keeps `x`: dropped, it
    # could no longer tell `D` about `y`, and the value would fall.
    rng = np.random.default_rng(5)
    kept = 0
    for seed in range(120):
        mode = ("prob", "poss")[seed % 2]
        d = random_id(8, 2 + seed % 2, 3, 2, mode, seed=seed)
        planted = with_an_informant(d, rng)
        if planted is None:
            continue
        d, x = planted
        assert x not in d.barren, seed
        kept += 1
        want, got = brute_force(d)[0], solve_diagram(d).meu
        if mode == "prob":
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), seed
        else:
            assert got == want, seed
    assert kept > 50


def test_plan_naming_a_barren_variable_is_refused():
    d = parse(_barren_chain("prob"))
    store = store_for(d)
    with pytest.raises(InternalError):
        macrostructure(store, initial_node(store, d), plan=sov0(d))
    macrostructure(store, initial_node(store, d), plan=root_plan(d))


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
    final, _ = macrostructure(store, initial_node(store, d), plan=root_plan(d))
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
                                      plan=root_plan(d))
            got = eval_node(store, final, {})
            assert got == pytest.approx(oracle_value(d), rel=1e-9, abs=1e-12), (mode, seed)


def test_every_rule_application_is_sound():
    rng = np.random.default_rng(7)
    checked = 0
    for mode in ("prob", "poss"):
        barren = 0
        for seed in range(8):
            nvars = seed % 5 + 2
            d = random_id(nvars, min(2, nvars), 3, 2, mode=mode, seed=100 + seed)
            store = store_for(d)
            _, trace = macrostructure(store, initial_node(store, d), plan=root_plan(d))
            checked += check_trace(store, trace, rng)
            barren += bool(d.barren)
        assert barren >= 1, mode
    assert checked >= 50


def test_macro_size_bound_and_mono_operator():
    cases = [fixture("fig2"), fixture("fig3"), fixture("chain", n=5),
             fixture("star", n=5)]
    for seed in range(10):
        nvars = seed % 7 + 1
        cases.append(random_id(nvars, min(2, nvars), 3, 2, seed=seed))
    for d in cases:
        store = store_for(d)
        final, _ = macrostructure(store, initial_node(store, d), plan=root_plan(d))
        n_p, n_u, n_v = len(d.cpts), len(d.utilities), len(d.variables)
        assert len(reachable(store, final)) <= 4 * n_v * (n_u + n_p) + n_p + n_u + 4
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

        def counting(self, sov, comb, children, scope=None, table=None, count=count):
            count[0] += 1
            return intern(self, sov, comb, children, scope=scope, table=table)

        monkeypatch.setattr(NodeStore, "intern", counting)
        macrostructure(store, root)
        monkeypatch.setattr(NodeStore, "intern", intern)
        calls[n] = count[0]
    assert 0 < calls[64] < calls[128] <= 2.2 * calls[64]


def test_decision_steps_read_each_group_in_linear_python_work(monkeypatch):
    # A decision step checks the root's groups, and a merge its inner
    # groups, in one C-level pass; `_group_members` is called per group only
    # where a rule rebuilds that group or names an offender.  Doubling the
    # chain or the star must about double its calls, not quadruple them.
    members = rewrite._group_members
    for name in ("chain", "star"):
        calls = {}
        for n in (64, 128):
            d = fixture(name, n=n)
            store = store_for(d)
            root = initial_node(store, d)
            count = [0]

            def counting(*args, count=count):
                count[0] += 1
                return members(*args)

            monkeypatch.setattr(rewrite, "_group_members", counting)
            macrostructure(store, root)
            monkeypatch.setattr(rewrite, "_group_members", members)
            calls[n] = count[0]
        assert 0 < calls[64] <= calls[128] <= 2.2 * calls[64], (name, calls)


def test_decision_steps_read_group_members_in_linear_python_work(monkeypatch):
    # A merged decision node keeps the groups of the nested one, which the
    # store records as holding no nested max, so it is not scanned again;
    # and decompose-max reads the members of the groups mentioning the
    # decision only.  Doubling the chain or the star must about double the
    # group ids whose members the rewrite reads, not quadruple them.
    children = rewrite._children
    for name in ("chain", "star"):
        reads = {}
        for n in (128, 256):
            d = fixture(name, n=n)
            store = store_for(d)
            root = initial_node(store, d)
            count = [0]

            def counting(store, ids, count=count):
                ids = list(ids)
                count[0] += len(ids)
                return children(store, ids)

            monkeypatch.setattr(rewrite, "_children", counting)
            macrostructure(store, root)
            monkeypatch.setattr(rewrite, "_children", children)
            reads[n] = count[0]
        assert 0 < reads[128] <= reads[256] <= 2.2 * reads[128], (name, reads)


def _sweep():
    """Fixtures and seeded random diagrams in both modes: 100 diagrams."""
    ds = [fixture("fig2"), fixture("fig3")]
    ds += [fixture(name, n=n) for name in ("chain", "star") for n in (1, 2, 3, 5, 8, 13)]
    ds += [random_id(4 + seed % 30, 1 + seed % 5, 3, 3, mode=mode, seed=seed)
           for seed in range(43) for mode in ("prob", "poss")]
    return ds


def test_store_after_the_rewrite_of_chain_256_holds_little_memory():
    # Each decision step of chain(n) builds nodes whose scopes hold about n
    # variables; kept as frozensets they cost about 64 bytes a variable
    # (5.0 MB here), as bitmasks a few machine words a node.
    d = fixture("chain", n=256)
    gc.collect()
    tracemalloc.start()
    try:
        store = store_for(d)
        macrostructure(store, initial_node(store, d))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(store.nodes) > 2000
    assert held <= 2.5e6, held


def test_derived_scopes_and_sovs_are_right(monkeypatch):
    # A rule that passes `intern` a scope promises the union of the
    # children's scopes minus the sov variables, and a canonical sov.
    intern = NodeStore.intern
    derived = [0]

    def checking(self, sov, comb, children, scope=None, table=None):
        if scope is not None:
            derived[0] += 1
            assert canonical_sov(sov) == sov, (sov, comb, children)
            union = frozenset().union(*(self.scope(c) for c in children))
            eliminated = {v for _, block in sov for v in block}
            assert bits(scope) == union - eliminated, ((sov, comb, children), scope)
        return intern(self, sov, comb, children, scope=scope, table=table)

    monkeypatch.setattr(NodeStore, "intern", checking)
    ds = [fixture("fig2"), fixture("fig3")]
    ds += [fixture(name, n=n) for name in ("chain", "star") for n in (*range(1, 10), 70)]
    ds += [random_id(3 + seed % 37, seed % 6, 3, 3, mode=mode, seed=seed)
           for seed in range(100) for mode in ("prob", "poss")]
    for d in ds:
        for plan in (None, root_plan(d)):
            store = store_for(d)
            macrostructure(store, initial_node(store, d), plan=plan)
    assert derived[0] > 10_000


def _swept_stores():
    """A store per `_sweep()` diagram and plan mode, after the full rewrite."""
    for d in _sweep():
        for plan in (None, root_plan(d)):
            store = store_for(d)
            macrostructure(store, initial_node(store, d), plan=plan)
            yield store


def test_nodes_recorded_without_a_nested_max_hold_none():
    # recompose-max returns at once on a node in `_no_nested_max`, so each
    # recorded node must be a single-MAX node none of whose groups holds a
    # single-MAX member of the node's own comb, scanned or inherited.
    chains = [fixture(name, n=n) for name in ("chain", "star") for n in range(1, 14)]
    stores = list(_swept_stores())
    for d in chains:
        store = store_for(d)
        macrostructure(store, initial_node(store, d))
        stores.append(store)
    recorded = 0
    for store in stores:
        for nid in store._no_nested_max:
            node = store.nodes[nid]
            assert not node.is_atomic and len(node.sov) == 1
            assert node.sov[0][0] is Op.MAX
            for g in map(store.nodes.__getitem__, node.children):
                if g.is_atomic or g.sov != ():
                    continue
                for member in map(store.nodes.__getitem__, g.children):
                    assert member.is_atomic or member.comb is not node.comb \
                        or len(member.sov) != 1 or member.sov[0][0] is not Op.MAX, nid
            recorded += 1
    assert recorded > 500


def test_every_node_build_passes_through_intern(monkeypatch):
    # Every stored node must be built by `NodeStore.intern`, looked up on the
    # class at call time: the benchmark's traced passes wrap that name to
    # count and time node builds, and a build that bypasses it goes unseen.
    intern = NodeStore.intern
    misses = [0]

    def counting(self, sov, comb, children, scope=None, table=None):
        size = len(self.nodes)
        nid = intern(self, sov, comb, children, scope=scope, table=table)
        misses[0] += len(self.nodes) - size
        return nid

    monkeypatch.setattr(NodeStore, "intern", counting)
    stores = 0
    for store in _swept_stores():
        assert misses[0] == len(store.nodes)
        misses[0] = 0
        stores += 1
    assert stores == 200


def test_stored_node_records_hold_their_invariants():
    for store in _swept_stores():
        for node in store.nodes:
            assert type(node) is CompNode
            assert node.is_atomic == (node.table is not None)
            if node.is_atomic:
                assert (node.sov, node.comb, node.children) == ((), None, ())
            else:
                assert node.children == tuple(sorted(set(node.children)))
                assert canonical_sov(node.sov) == node.sov
    node = store.nodes[-1]
    assert not hasattr(node, "__dict__")
    for field in CompNode._fields:
        with pytest.raises(AttributeError):
            setattr(node, field, None)
    with pytest.raises(AttributeError):
        node.extra = 1
    event = TraceEvent("drop-unit", 3, 4)
    assert event == TraceEvent("drop-unit", 3, 4, var=None, inner=None)
    assert event != TraceEvent("drop-unit", 3, 5)
    assert not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.produced = 5


def test_fixtures_have_no_barren_variable():
    # Every chance variable of the worked figures and the two families is
    # read by a utility or a later table, so their goldens do not move.
    ds = [fixture("fig2"), fixture("fig3")]
    ds += [fixture(name, n=n) for name in ("chain", "star") for n in range(1, 14)]
    for d in ds:
        assert d.barren == frozenset(), d.names


def test_rewrite_output_is_pinned():
    # Node ids appear in the trace, so a change that builds, skips or
    # reorders one interning shows here.  Re-pinned when the barren step
    # came in: it removes whole events and nodes (every decompose-sum,
    # simplify-normalized and drop-unit of a barren variable).  On the
    # diagrams where it does not fire, trace and store size stayed the same.
    # Re-pinned again when barren variables left the store: their tables are
    # no longer interned, which shifts node ids, and the drop-barren event is
    # gone.  The rule sequence less that event, and the final node's
    # structural signature, stayed the same on all 100 diagrams; on the 18
    # without a barren variable, trace and store size stayed the same.
    h = hashlib.sha256()
    ds = _sweep()
    for d in ds:
        for plan in (None, root_plan(d)):
            store = store_for(d)
            final, trace = macrostructure(store, initial_node(store, d), plan=plan)
            h.update(trace_to_jsonl(trace).encode())
            h.update(f"{final} {len(store.nodes)}\n".encode())
    assert len(ds) == 100
    assert h.hexdigest() == \
        "c17526234e4823c4de288a345dd931c17cb9a2bc3ed894e3cbb3bd7fec41de28"
