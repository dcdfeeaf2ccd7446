"""Cluster DAG evaluation, policies, and the end-to-end solver."""

import dataclasses

import numpy as np
import pytest

from infdiag.clusters import assemble, merge_clusters
from infdiag.diagram import fixture, parse, random_id
from infdiag.factors import (
    ChoiceTable,
    InternalError,
    Op,
    OpCounter,
    ResourceGuardError,
    ScopedTable,
)
from infdiag.nodes import initial_node, store_for
from infdiag.rewrite import macrostructure
from infdiag.solve import (
    Policy,
    _substitute,
    evaluate,
    evaluate_policy,
    extract_policies,
    policies_from_choices,
    solve_diagram,
)

from oracles import oracle_value

TOL = 1e-9


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def mcdag_of(d, heuristic="min-fill", merge=True):
    store = store_for(d)
    root, _ = macrostructure(store, initial_node(store, d))
    m = assemble(store, root, heuristic=heuristic)
    return merge_clusters(m) if merge else m


def policies_of(m, d, with_sets=False):
    return extract_policies(m, d, evaluate(m, d.sizes)[1], with_sets=with_sets)


# -- evaluate -----------------------------------------------------------------

def test_zero_utilities_give_zero():
    d = parse("IDNET 1\nMODE prob\nVAR c 2 CHANCE\nVAR d 2 DECISION\n"
              "PROB c | : 0.3 0.7\nUTIL u c d : 0 0 0 0\nORDER / d / c\n")
    assert evaluate(mcdag_of(d), d.sizes)[0] == 0.0


def test_single_decision_direct_arithmetic():
    d = parse("IDNET 1\nMODE prob\nVAR d 3 DECISION\n"
              "UTIL u d : 1 5 3\nORDER / d /\n")
    m = mcdag_of(d)
    meu, messages = evaluate(m, d.sizes)
    assert meu == 5.0
    (policy,) = extract_policies(m, d, messages)
    assert policy.var == 0 and policy.context == ()
    assert int(policy.rule.lookup({})) == 1


def test_tie_keeps_lowest_index_and_full_set():
    d = parse("IDNET 1\nMODE prob\nVAR d 2 DECISION\n"
              "UTIL u d : 4 4\nORDER / d /\n")
    (policy,) = policies_of(mcdag_of(d), d, with_sets=True)
    assert int(policy.rule.lookup({})) == 0
    assert policy.choices_for({}) == {0, 1}


@pytest.mark.parametrize("d", [fixture("fig2"), fixture("fig3"), fixture("chain", 6),
                               random_id(8, 2, 3, 2, seed=4),
                               random_id(8, 2, 3, 2, mode="poss", seed=4)],
                         ids=["fig2", "fig3", "chain6", "prob", "poss"])
def test_rules_do_not_depend_on_tie_sets(d):
    plain = solve_diagram(d, with_sets=False)
    full = solve_diagram(d, with_sets=True)
    assert plain.meu == full.meu
    assert len(plain.policies) == len(full.policies)
    for p, q in zip(plain.policies, full.policies):
        assert (p.var, p.context, p.rule.scope) == (q.var, q.context, q.rule.scope)
        assert p.rule.values.tobytes() == q.rule.values.tobytes()
        assert p.choice_sets is None and q.choice_sets is not None


def test_policies_from_choices_needs_recorded_sets():
    d = parse("IDNET 1\nMODE prob\nVAR d 2 DECISION\n"
              "UTIL u d : 4 4\nORDER / d /\n")
    choice = ChoiceTable((), (), (0,), (2,), np.zeros(1, dtype=np.intp), None)
    (policy,) = policies_from_choices(d, {0: choice})
    assert int(policy.rule.lookup({})) == 0
    with pytest.raises(InternalError, match="tie sets"):
        policies_from_choices(d, {0: choice}, with_sets=True)


def test_fig2_value_and_policy_match_oracle():
    d = fixture("fig2")
    m = mcdag_of(d)
    meu, messages = evaluate(m, d.sizes)
    assert close(meu, oracle_value(d))
    policies = extract_policies(m, d, messages)
    assert close(evaluate_policy(d, policies), meu)


def test_fig3_policy_substitution_chain():
    d = fixture("fig3")
    m = mcdag_of(d)
    meu, messages = evaluate(m, d.sizes)
    assert close(meu, oracle_value(d))
    policies = {p.var: p for p in extract_policies(m, d, messages)}
    d2 = d.names.index("d2")
    d3 = d.names.index("d3")
    r2 = d.names.index("r2")
    d1 = d.names.index("d1")
    assert set(policies[d3].rule.scope) <= set(policies[d3].context)
    assert set(policies[d2].rule.scope) <= {d1, r2}
    assert close(evaluate_policy(d, list(policies.values())), meu)


def test_merging_preserves_the_value():
    for seed in range(4):
        d = random_id(7, 2, 3, 2, seed=seed)
        plain = mcdag_of(d, merge=False)
        merged = merge_clusters(plain)
        a, b = evaluate(plain, d.sizes)[0], evaluate(merged, d.sizes)[0]
        assert close(a, b, 1e-12)


def test_every_cluster_evaluated_once():
    d = fixture("fig3")
    m = mcdag_of(d)
    _, values = evaluate(m, d.sizes)
    assert len(values) == len(m.clusters)


def test_mixed_mode_ops_are_rejected():
    d = fixture("fig2")
    m = mcdag_of(d)
    bad = dataclasses.replace(m.clusters[0], ops=(Op.MIN, Op.MAX))
    broken = dataclasses.replace(m, clusters=(bad,) + m.clusters[1:])
    with pytest.raises(InternalError):
        evaluate(broken, d.sizes)


# -- substitution -------------------------------------------------------------

def test_substitute_picks_ruled_values():
    t = ScopedTable((0, 1), (2, 2), np.array([1.0, 2.0, 3.0, 4.0]))
    rule = ScopedTable((), (), np.array([1.0]))
    out = _substitute(t, 1, rule)
    assert out.scope == (0,)
    assert list(out.values) == [2.0, 4.0]
    ctx_rule = ScopedTable((2,), (2,), np.array([0.0, 1.0]))
    out = _substitute(t, 1, ctx_rule)
    assert out.scope == (0, 2)
    assert list(out.values) == [1.0, 2.0, 3.0, 4.0]


def test_substitute_rejects_bad_shapes():
    t = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    with pytest.raises(InternalError):
        _substitute(t, 1, ScopedTable.scalar(0.0))
    with pytest.raises(InternalError):
        _substitute(t, 0, ScopedTable((0,), (2,), np.zeros(2)))


# -- random sweeps ------------------------------------------------------------

def test_random_prob_diagrams_match_oracle_and_policies():
    for seed in range(30):
        d = random_id(6, 2, 3, 2, seed=seed)
        m = mcdag_of(d)
        meu, messages = evaluate(m, d.sizes)
        assert close(meu, oracle_value(d)), f"seed {seed}"
        policies = extract_policies(m, d, messages, with_sets=True)
        assert close(evaluate_policy(d, policies), meu), f"seed {seed}"
        for p in policies:
            assert set(p.rule.scope) <= set(p.context)


def test_random_poss_diagrams_match_oracle_exactly():
    for seed in range(20):
        d = random_id(6, 2, 3, 2, mode="poss", seed=seed)
        m = mcdag_of(d)
        meu, messages = evaluate(m, d.sizes)
        assert meu == oracle_value(d), f"seed {seed}"
        policies = extract_policies(m, d, messages)
        assert evaluate_policy(d, policies) == meu, f"seed {seed}"


def test_heuristic_choice_never_changes_the_value():
    d = random_id(7, 3, 3, 2, seed=42)
    want = oracle_value(d)
    for heuristic in ("min-fill", "min-degree", "exhaustive"):
        assert close(evaluate(mcdag_of(d, heuristic=heuristic), d.sizes)[0], want)


def test_positive_scaling_keeps_representative_policies():
    for seed in (1, 5, 9):
        d = random_id(6, 2, 3, 2, seed=seed)
        scaled = dataclasses.replace(
            d, utilities=tuple(
                ScopedTable(t.scope, t.sizes, t.values * 3.7, t.tag, t.name)
                for t in d.utilities))
        a = policies_of(mcdag_of(d), d)
        b = policies_of(mcdag_of(scaled), scaled)
        for pa, pb in zip(a, b):
            assert pa.var == pb.var and pa.rule.scope == pb.rule.scope
            assert np.array_equal(pa.rule.values, pb.rule.values)


# -- evaluate_policy ----------------------------------------------------------

def test_policy_evaluation_requires_all_decisions():
    d = fixture("fig2")
    with pytest.raises(InternalError):
        evaluate_policy(d, [])


def test_policy_evaluation_guards_enumeration():
    d = random_id(17, 0, 2, 2, seed=0)
    with pytest.raises(ResourceGuardError):
        evaluate_policy(d, [])


def test_deterministic_path_reaches_one():
    d = parse(
        "IDNET 1\nMODE prob\n"
        "VAR d 2 DECISION\nVAR c 2 CHANCE\n"
        "PROB c | d : 1 0 0 1\n"
        "UTIL u c : 0 1\n"
        "ORDER / d / c\n")
    m = mcdag_of(d)
    meu, messages = evaluate(m, d.sizes)
    policies = extract_policies(m, d, messages)
    assert close(meu, 1.0)
    assert close(evaluate_policy(d, policies), 1.0)
    assert int(policies[0].rule.lookup({})) == 1


# -- end to end ---------------------------------------------------------------

def test_solve_diagram_report():
    d = fixture("fig2")
    report = solve_diagram(d)
    assert report.engine == "mcdag"
    assert close(report.meu, oracle_value(d))
    assert report.w_mcdag == 1
    assert report.cluster_count == 4
    assert report.trace_len > 0
    assert report.wall_time >= 0.0
    assert len(report.policies) == 1
    assert close(evaluate_policy(d, report.policies), report.meu)
    fig3 = fixture("fig3")
    assert close(solve_diagram(fig3).meu, oracle_value(fig3))


@pytest.mark.parametrize("d", [fixture("fig3"), fixture("chain", 8), fixture("star", 6),
                               random_id(8, 2, 3, 2, seed=4),
                               random_id(10, 3, 3, 3, seed=7)],
                         ids=["fig3", "chain8", "star6", "prob4", "prob7"])
def test_solve_runs_the_message_pass_once(d):
    # sum and times occur only in chance clusters, i.e. in the message pass
    alone = OpCounter()
    evaluate(mcdag_of(d), d.sizes, alone)
    solved = OpCounter()
    solve_diagram(d, counter=solved)
    assert alone.by_kind.get("sum", 0) > 0
    for kind in ("sum", "times"):
        assert solved.by_kind.get(kind, 0) == alone.by_kind.get(kind, 0), kind


def test_fig3_solve_op_total():
    counter = OpCounter()
    solve_diagram(fixture("fig3"), counter=counter)
    assert counter.total == 94


def test_extract_policies_consumes_the_messages():
    d = fixture("fig3")
    m = mcdag_of(d)
    _, messages = evaluate(m, d.sizes)
    extract_policies(m, d, messages)
    assert messages == {}
