"""Cluster DAG evaluation, policies, and the end-to-end solver."""

import dataclasses
import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from infdiag import factors, solve
from infdiag.clusters import Cluster, MCDag, assemble, merge_clusters
from infdiag.diagram import MODES, fixture, parse, random_id
from infdiag.factors import (
    ChoiceTable,
    InternalError,
    Op,
    OpCounter,
    ResourceGuardError,
    ScopedTable,
    identity,
)
from infdiag.nodes import initial_node, store_for
from infdiag.rewrite import macrostructure
from infdiag.solve import (
    Policy,
    _substitute,
    evaluate,
    evaluate_policy,
    extract_policies,
    plan,
    policies_from_choices,
    solve_diagram,
)

from oracles import oracle_argmax, oracle_evaluate, oracle_value

TOL = 1e-9


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def mcdag_of(d, heuristic="min-fill", merge=True):
    store = store_for(d)
    root, _ = macrostructure(store, initial_node(store, d))
    m = assemble(store, root, heuristic=heuristic)
    return merge_clusters(m) if merge else m


def run(m, d, with_sets=False):
    """The message pass and the policy pass over `m`, as `solve_diagram`
    runs them: the MEU and the policies."""
    schedule = plan(m, d)
    meu, kept = evaluate(m, None, schedule, with_sets)
    return meu, extract_policies(d, schedule, kept, with_sets)


def policies_of(m, d, with_sets=False):
    return run(m, d, with_sets)[1]


# -- evaluate -----------------------------------------------------------------

def test_zero_utilities_give_zero():
    d = parse("IDNET 1\nMODE prob\nVAR c 2 CHANCE\nVAR d 2 DECISION\n"
              "PROB c | : 0.3 0.7\nUTIL u c d : 0 0 0 0\nORDER / d / c\n")
    assert evaluate(mcdag_of(d))[0] == 0.0


def test_single_decision_direct_arithmetic():
    d = parse("IDNET 1\nMODE prob\nVAR d 3 DECISION\n"
              "UTIL u d : 1 5 3\nORDER / d /\n")
    meu, (policy,) = run(mcdag_of(d), d)
    assert meu == 5.0
    assert policy.var == 0 and policy.context == ()
    assert int(policy.rule.values[0]) == 1


def test_tie_keeps_lowest_index_and_full_set():
    d = parse("IDNET 1\nMODE prob\nVAR d 2 DECISION\n"
              "UTIL u d : 4 4\nORDER / d /\n")
    (policy,) = policies_of(mcdag_of(d), d, with_sets=True)
    assert int(policy.rule.values[0]) == 0
    assert policy.rule.attaining.tolist() == [[True, True]]


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
        assert p.rule.attaining is None and q.rule.attaining is not None


def test_policies_from_choices_needs_recorded_sets():
    d = parse("IDNET 1\nMODE prob\nVAR d 2 DECISION\n"
              "UTIL u d : 4 4\nORDER / d /\n")
    choice = ChoiceTable((), (), np.zeros(1, dtype=np.intp), None)
    (policy,) = policies_from_choices(d, {0: choice})
    assert int(policy.rule.values[0]) == 0
    with pytest.raises(InternalError, match="tie sets"):
        policies_from_choices(d, {0: choice}, with_sets=True)
    recorded = ChoiceTable((), (), np.zeros(1, dtype=np.intp), np.ones((1, 2), dtype=bool))
    with pytest.raises(InternalError, match="recorded but not asked for"):
        policies_from_choices(d, {0: recorded})


def test_fig2_value_and_policy_match_oracle():
    d = fixture("fig2")
    meu, policies = run(mcdag_of(d), d)
    assert close(meu, oracle_value(d))
    assert close(evaluate_policy(d, policies), meu)


def test_fig3_policy_substitution_chain():
    d = fixture("fig3")
    meu, policies = run(mcdag_of(d), d)
    assert close(meu, oracle_value(d))
    policies = {p.var: p for p in policies}
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
        a, b = evaluate(plain)[0], evaluate(merged)[0]
        assert close(a, b, 1e-12)


def test_each_pair_folds_from_its_combination_identity():
    idents = {pair: identity(pair[1], ops.unit_interval)
              for ops in MODES.values() for pair in ops.pairs.values()}
    assert idents == {(Op.SUM, Op.TIMES): 1.0, (Op.MAX, Op.PLUS): 0.0,
                      (Op.MIN, Op.MAX): 0.0, (Op.MAX, Op.MIN): 1.0}


def test_evaluate_refuses_a_cluster_without_a_part():
    # Assembly gives every cluster a table or a son; one without either
    # has nothing to fold, an internal error (exit 3 from the command line).
    empty = Cluster(0, frozenset(), (), (), (), (Op.SUM, Op.TIMES))
    with pytest.raises(InternalError, match="no parts"):
        evaluate(MCDag((empty,), 0))


def test_evaluate_refuses_pairs_of_two_modes():
    m = mcdag_of(fixture("fig2"))
    first = m.clusters[0]._replace(ops=(Op.MAX, Op.MIN))
    with pytest.raises(InternalError, match="mix modes"):
        evaluate(dataclasses.replace(m, clusters=(first,) + m.clusters[1:]))


def test_every_cluster_evaluated_once():
    d = fixture("fig3")
    m = mcdag_of(d)
    _, tables = evaluate(m)
    assert set(tables) == {c.id for c in m.clusters if c.ops[0] is Op.MAX and c.elim}
    assert len(tables) == len(d.decision_ids)
    # with the plan, d1 and d3 are chosen at elimination; d2's table is
    # kept, as it holds d3, which d2 does not observe
    _, kept = evaluate(m, plan=plan(m, d))
    assert set(kept) == set(tables)
    chosen = {m.clusters[cid].elim[0] for cid, (_, k) in kept.items()
              if isinstance(k, ChoiceTable)}
    assert chosen == {d.names.index("d1"), d.names.index("d3")}
    doubled = dataclasses.replace(m, clusters=m.clusters[:1] + m.clusters)
    with pytest.raises(InternalError, match="evaluated twice"):
        evaluate(doubled)


def descending_scopes(d):
    """The same diagram with each utility's scope and each CPT's parents
    listed in descending id order, so the message pass must transpose them."""
    def flipped(t, fixed):  # the last `fixed` axes stay in place
        k = len(t.scope) - fixed
        order = list(range(k))[::-1] + list(range(k, len(t.scope)))
        return ScopedTable(tuple(t.scope[i] for i in order), tuple(t.sizes[i] for i in order),
                           t.array.transpose(order).reshape(-1), name=t.name, cpt_for=t.cpt_for)

    return dataclasses.replace(d, cpts={x: flipped(t, 1) for x, t in d.cpts.items()},
                               utilities=tuple(flipped(u, 0) for u in d.utilities))


# Domains of up to 16 make numpy sum a contiguous axis pairwise, so a fold
# that left its result in another memory layout would change the bits.
FOLD_CASES = {"fig2": fixture("fig2"), "fig3": fixture("fig3")}
FOLD_CASES.update({f"{f}{n}": fixture(f, n) for f in ("chain", "star") for n in range(2, 12)})
FOLD_CASES.update({f"prob{s}": random_id(7, 2, 3, 2, seed=s) for s in range(20)})
FOLD_CASES.update({f"poss{s}": random_id(7, 2, 3, 2, mode="poss", seed=s) for s in range(20)})
FOLD_CASES.update({f"wide{s}": descending_scopes(random_id(6, 2, 16, 3, seed=s))
                   for s in range(10)})
FOLD_DIAGRAMS = pytest.mark.parametrize("d", FOLD_CASES.values(), ids=FOLD_CASES.keys())


@FOLD_DIAGRAMS
def test_evaluate_matches_the_table_fold(d):
    # A kept table equals the oracle's combined table byte for byte; a choice
    # taken at elimination equals the oracle's argmax of that table, ties too.
    m = mcdag_of(d)
    want_ops = OpCounter()
    want_meu, want_tables = oracle_evaluate(m, want_ops)
    for plan in (None, solve.plan(m, d)):
        for with_sets in (False, True):
            got_ops = OpCounter()
            meu, kept = evaluate(m, got_ops, plan, with_sets)
            assert meu == want_meu
            assert set(kept) == set(want_tables)
            for cid, (scope, arr) in kept.items():
                w = want_tables[cid]
                assert scope == w.scope, cid
                if isinstance(arr, ChoiceTable):
                    (x,) = m.clusters[cid].elim
                    keep, _, lowest, attaining = oracle_argmax(scope, w.array, x)
                    assert (arr.scope, arr.sizes) == \
                        (keep, tuple(w.sizes[w.scope.index(v)] for v in keep)), cid
                    assert arr.values.tolist() == lowest, cid
                    sets = None if arr.attaining is None else \
                        [tuple(np.flatnonzero(row).tolist()) for row in arr.attaining]
                    assert sets == (attaining if with_sets else None), cid
                else:
                    assert arr.shape == w.sizes, cid
                    assert arr.tobytes() == w.values.tobytes(), cid
            assert got_ops.by_kind == want_ops.by_kind


def kept_bytes(kept):
    """What `evaluate` kept, as bytes: each table, or each choice's rule and tie sets."""
    out = {}
    for cid, (scope, arr) in kept.items():
        if isinstance(arr, ChoiceTable):
            sets = None if arr.attaining is None else arr.attaining.tobytes()
            out[cid] = (scope, arr.scope, arr.sizes, arr.values.dtype.str,
                        arr.values.tobytes(), sets)
        else:
            out[cid] = (scope, arr.shape, arr.tobytes())
    return out


def slice_min_passes(d, slice_min, monkeypatch):
    """The bytes and op counts of the message pass and the policy pass over
    `d`, with and without a policy plan and tie sets, at `slice_min`."""
    monkeypatch.setattr(factors, "_SLICE_MIN", slice_min)
    m = mcdag_of(d)
    run = []
    for plan in (None, solve.plan(m, d)):
        for with_sets in (False, True):
            ops = OpCounter()
            meu, kept = evaluate(m, ops, plan, with_sets)
            got = [np.float64(meu).tobytes(), kept_bytes(kept)]
            if plan:
                got += [(p.var, p.context, p.rule.scope, p.rule.values.tobytes(),
                         None if p.rule.attaining is None else p.rule.attaining.tobytes())
                        for p in extract_policies(d, plan, kept, with_sets, ops)]
            run.append((got, ops.by_kind))
    return run


@FOLD_DIAGRAMS
def test_slice_path_changes_no_bit(d, monkeypatch):
    # _SLICE_MIN at 1 sends every reduction of an axis under 8 values down
    # the slice path, most of which these small diagrams keep below it; at
    # 10**9 none goes.  Both passes must give the same bytes and counts.
    assert slice_min_passes(d, 1, monkeypatch) == slice_min_passes(d, 10 ** 9, monkeypatch)


def negative_zero_utilities(d):
    """The same diagram with every utility cell -0.0."""
    return dataclasses.replace(d, utilities=tuple(
        dataclasses.replace(u, values=np.full(u.values.size, -0.0)) for u in d.utilities))


SUM_CASES = {k: d for k, d in FOLD_CASES.items() if d.mode == "prob"}
SUM_CASES.update({f"zero{s}": negative_zero_utilities(random_id(7, 2, 3, 2, seed=s))
                  for s in range(3)})


def test_sum_slice_path_changes_no_bit(monkeypatch):
    # At _SLICE_MIN 1 the SUMs of these prob-mode passes over an axis of
    # under 8 values fold slice by slice, at 10**9 numpy sums: same MEU
    # bytes, tables, rules and op counts.  With every utility -0.0 each such
    # sum adds -0.0 alone, which numpy's sum, starting from 0.0, reads as 0.0.
    folds = []
    reduce_slices = factors._reduce_slices
    monkeypatch.setattr(factors, "_reduce_slices",
                        lambda slices, ufunc: folds.append(ufunc) or reduce_slices(slices, ufunc))
    sliced = set()
    for name, d in SUM_CASES.items():
        folds.clear()
        on = slice_min_passes(d, 1, monkeypatch)
        if np.add in folds:
            sliced.add(name)
        folds.clear()
        assert on == slice_min_passes(d, 10 ** 9, monkeypatch), name
        assert folds == [], name
    assert {"fig2", "fig3", "zero0", "zero1", "zero2"} <= sliced


def test_mixed_mode_ops_are_rejected():
    d = fixture("fig2")
    m = mcdag_of(d)
    bad = m.clusters[0]._replace(ops=(Op.MIN, Op.MAX))
    broken = dataclasses.replace(m, clusters=(bad,) + m.clusters[1:])
    with pytest.raises(InternalError):
        evaluate(broken)


@pytest.mark.parametrize("ops", [(Op.SUM, Op.TIMES), (Op.MAX, Op.PLUS)])
def test_eliminating_a_variable_no_part_holds_is_an_internal_error(ops):
    # Assembly never builds such a cluster (see test_fold_union_is_the_cluster_scope);
    # a hand-built one is refused instead of being summed or maximized away.
    u = ScopedTable((1,), (2,), np.array([1.0, 2.0]))
    c = Cluster(0, frozenset({0, 1}), (u,), (), (0,), ops)
    with pytest.raises(InternalError, match="none of its parts holds"):
        evaluate(MCDag((c,), 0))
    with pytest.raises(InternalError, match="none of its parts holds"):
        oracle_evaluate(MCDag((c,), 0), OpCounter())


# -- substitution -------------------------------------------------------------

def test_substitute_picks_ruled_values():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    scope, out = _substitute((0, 1), arr, 1, (), np.array(1))
    assert scope == (0,)
    assert list(out.reshape(-1)) == [2.0, 4.0]
    scope, out = _substitute((0, 1), arr, 1, (2,), np.array([0, 1]))
    assert scope == (0, 2)
    assert list(out.reshape(-1)) == [1.0, 2.0, 3.0, 4.0]


def test_substitute_matches_take_along_axis():
    # Each side draws its own size-1 axes: a variable the other lacks, or
    # one whose domain has a single value.
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        sizes = [int(s) for s in rng.integers(1, 4, n)]
        var = int(rng.integers(n))
        others = [v for v in range(n) if v != var]
        scope = tuple(rng.permutation(
            [var] + [v for v in others if rng.random() < 0.6]).tolist())
        rule_scope = tuple(rng.permutation(
            [v for v in others if rng.random() < 0.6]).tolist())
        arr = rng.random([sizes[v] for v in scope])
        rule = rng.integers(0, sizes[var], [sizes[v] for v in rule_scope])
        union = tuple(sorted(set(scope) | set(rule_scope)))
        axis = union.index(var)
        want = np.take_along_axis(factors.align(arr, scope, union),
                                  factors.align(rule, rule_scope, union),
                                  axis=axis).squeeze(axis)
        out_scope, out = _substitute(scope, arr, var, rule_scope, rule)
        assert out_scope == union[:axis] + union[axis + 1:]
        assert isinstance(out, np.ndarray) and out.shape == want.shape
        assert out.tobytes() == want.tobytes()


def test_substitute_rejects_bad_shapes():
    arr = np.array([1.0, 2.0])
    with pytest.raises(InternalError):
        _substitute((0,), arr, 1, (), np.array(0))
    with pytest.raises(InternalError):
        _substitute((0,), arr, 0, (0,), np.zeros(2, dtype=np.intp))


@pytest.mark.parametrize("mode", ["prob", "poss"])
def test_policy_pass_refuses_a_substitution_past_the_guard(monkeypatch, mode):
    # Decision 7's rule (scope {2, 3, 5}) goes into decision 6's kept table
    # ({3, 6, 7}): the result, {2, 3, 5, 6}, spans 54 cells, the largest
    # cluster only 36.  The plan refuses it before any fold runs.
    d = random_id(10, 3, 3, 3, mode, seed=100)
    want = solve_diagram(d).meu
    assert max(math.prod(d.sizes[v] for v in c.V) for c in mcdag_of(d).clusters) == 36
    monkeypatch.setattr(solve, "CELL_GUARD", 53)
    counter = OpCounter()
    with pytest.raises(ResourceGuardError, match=r"\b54 cells"):
        solve_diagram(d, counter=counter)
    assert counter.total == 0
    monkeypatch.setattr(solve, "CELL_GUARD", 54)
    assert solve_diagram(d).meu == want


# -- random sweeps ------------------------------------------------------------

def test_random_prob_diagrams_match_oracle_and_policies():
    for seed in range(30):
        d = random_id(6, 2, 3, 2, seed=seed)
        meu, policies = run(mcdag_of(d), d, with_sets=True)
        assert close(meu, oracle_value(d)), f"seed {seed}"
        assert close(evaluate_policy(d, policies), meu), f"seed {seed}"
        for p in policies:
            assert set(p.rule.scope) <= set(p.context)


def test_random_poss_diagrams_match_oracle_exactly():
    for seed in range(20):
        d = random_id(6, 2, 3, 2, mode="poss", seed=seed)
        meu, policies = run(mcdag_of(d), d)
        assert meu == oracle_value(d), f"seed {seed}"
        assert evaluate_policy(d, policies) == meu, f"seed {seed}"


def test_heuristic_choice_never_changes_the_value():
    d = random_id(7, 3, 3, 2, seed=42)
    want = oracle_value(d)
    for heuristic in ("min-fill", "min-degree", "exhaustive"):
        assert close(evaluate(mcdag_of(d, heuristic=heuristic))[0], want)


def test_positive_scaling_keeps_representative_policies():
    for seed in (1, 5, 9):
        d = random_id(6, 2, 3, 2, seed=seed)
        scaled = dataclasses.replace(
            d, utilities=tuple(
                ScopedTable(t.scope, t.sizes, t.values * 3.7, name=t.name)
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


@pytest.mark.parametrize("out_of_domain", [lambda v, size: v + size,
                                           lambda v, size: np.full_like(v, -1)],
                         ids=["above", "below"])
def test_policy_evaluation_refuses_a_choice_outside_the_domain(out_of_domain):
    d = fixture("fig3")  # one rule over no variable, two over two
    run = solve_diagram(d)
    assert close(evaluate_policy(d, run.policies), run.meu)
    for i, p in enumerate(run.policies):
        r = p.rule
        bad = ChoiceTable(r.scope, r.sizes, out_of_domain(r.values, d.size_of(p.var)), None)
        policies = run.policies[:i] + [dataclasses.replace(p, rule=bad)] + run.policies[i + 1:]
        with pytest.raises(InternalError, match="chose"):
            evaluate_policy(d, policies)


@pytest.mark.parametrize("limit", [2 ** 6, 2 ** 8, 2 ** 10])
def test_cluster_engine_refuses_up_front_exactly_what_fold_refuses(monkeypatch, limit):
    # Lower the guard of `plan` and of `fold` in turn: the pre-flight
    # must refuse a diagram iff the arithmetic would, so it never refuses work
    # that would fit, and it refuses before `evaluate` runs.
    def refuses(d, up_front, in_fold):
        monkeypatch.setattr(solve, "CELL_GUARD", up_front)
        monkeypatch.setattr(factors, "CELL_GUARD", in_fold)
        try:
            solve_diagram(d)
        except ResourceGuardError as e:
            assert str(e).startswith("cluster " if up_front < in_fold else "combination "), e
            return True
        return False

    seen = set()
    for seed in range(120):
        d = random_id(6 + seed % 14, 1 + seed % 3, 4, 3, mode=("prob", "poss")[seed % 2],
                      seed=seed)
        refused = refuses(d, limit, 2 ** 62)
        assert refused == refuses(d, 2 ** 62, limit), f"seed {seed}"
        seen.add(refused)
    assert seen == {False, True}


def test_plan_refuses_what_the_policy_pass_would_build(monkeypatch):
    # Measured at the normal guard: the largest fold (a cluster of two or
    # more parts) and the largest substitution result.  With the guard
    # lowered, `solve_diagram` refuses exactly when one of them is over it,
    # for that reason, and before any arithmetic: its counter reads 0.
    substitute, built = solve._substitute, [0]

    def recorded(*args):
        part = substitute(*args)
        built[0] = max(built[0], part[1].size)
        return part

    monkeypatch.setattr(solve, "_substitute", recorded)
    cases = []
    for mode in ("prob", "poss"):
        for seed in range(120):
            d = random_id(6 + seed % 6, 3 + seed % 3, 8, 2, mode=mode, seed=seed)
            folds = max((math.prod(d.sizes[v] for v in c.V) for c in mcdag_of(d).clusters
                         if len(c.psi) + len(c.sons) > 1), default=0)
            built[0] = 0
            solve_diagram(d)
            cases.append((mode, seed, d, folds, built[0]))
    seen = set()
    for limit in (2 ** 6, 2 ** 8, 2 ** 10):
        monkeypatch.setattr(solve, "CELL_GUARD", limit)
        for mode, seed, d, folds, substituted in cases:
            want = "cluster" if folds > limit else \
                "substituting" if substituted > limit else None
            counter = OpCounter()
            try:
                solve_diagram(d, counter=counter)
                got = None
            except ResourceGuardError as e:
                got = str(e).split()[0]
                assert counter.total == 0, (mode, seed, limit)
            assert got == want, (mode, seed, limit)
            seen.add(got)
    assert seen == {None, "cluster", "substituting"}


def test_plan_refuses_a_malformed_cluster_dag():
    # The plan reads only cluster ids, scopes, eliminations and operators,
    # so each fault is planted by editing one record of fig3's cluster DAG.
    d = fixture("fig3")
    m = mcdag_of(d)
    r1, r2, d1, d2, d3 = (d.names.index(n) for n in ("r1", "r2", "d1", "d2", "d3"))
    by_elim = {c.elim: c for c in m.clusters if c.elim}
    assert [x for x, _, _ in plan(m, d).steps] == [d1, d3, d2]

    def planted(old, **changes):
        new = old._replace(**changes)
        return dataclasses.replace(m, clusters=tuple(new if c is old else c
                                                     for c in m.clusters))

    twice = dataclasses.replace(m, clusters=m.clusters + (
        by_elim[(d1,)]._replace(id=len(m.clusters)),))
    for bad, match in [
            (twice, "eliminated in two clusters"),
            (planted(by_elim[(d2,)], elim=()), "never max-eliminated"),
            (planted(by_elim[(r2,)], ops=(Op.MAX, Op.PLUS)), "not a decision"),
            (planted(by_elim[(d3,)], id=by_elim[(d2,)].id - 1), "reached before"),
            (planted(by_elim[(d1,)], V=by_elim[(d1,)].V | {r1}), r"unobserved \[0\]"),
            (planted(by_elim[(d2,)], sons=by_elim[(d2,)].sons + (by_elim[(d3,)].id,)),
             "before it is evaluated")]:
        with pytest.raises(InternalError, match=match):
            plan(bad, d)


def test_a_malformed_cluster_dag_is_refused_before_any_fold(monkeypatch):
    # Each fault that the message pass could not run, planted into fig3's
    # cluster DAG, passes the decision steps and is refused by the plan's
    # scope walk; `evaluate` without a schedule runs the same walk first.
    d = fixture("fig3")
    m = mcdag_of(d)
    r1, r2, d2, d3 = (d.names.index(n) for n in ("r1", "r2", "d2", "d3"))
    by_elim = {c.elim: c for c in m.clusters if c.elim}
    leaf = next(c for c in m.clusters if c.ops[0] is Op.SUM and not c.sons)
    holder = next(c for c in m.clusters if c.ops[0] is Op.SUM and not c.elim)
    fold, folds = factors.fold, []

    def counted(*args):
        folds.append(args)
        return fold(*args)

    monkeypatch.setattr(factors, "fold", counted)
    monkeypatch.setattr(solve, "fold", counted)  # solve imports it by name

    def planted(old, **changes):
        new = old._replace(**changes)
        return dataclasses.replace(m, clusters=tuple(new if c is old else c
                                                     for c in m.clusters))

    pos = m.clusters.index(leaf)
    for bad, match in [
            (planted(leaf, ops=(Op.MIN, Op.MAX)), "mix modes"),
            (dataclasses.replace(m, clusters=m.clusters[:pos + 1] + m.clusters[pos:]),
             "evaluated twice"),
            (planted(holder, elim=(r1,)), rf"eliminates \[{r1}\], which none of its parts holds"),
            (dataclasses.replace(m, root=by_elim[(r2,)].id), r"root message kept scope \("),
            (planted(by_elim[(d2,)], sons=by_elim[(d2,)].sons + (by_elim[(d3,)].id,)),
             "before it is evaluated")]:
        with pytest.raises(InternalError, match=match) as planned:
            plan(bad, d)
        with pytest.raises(InternalError) as evaluated:
            evaluate(bad)
        assert str(evaluated.value) == str(planned.value)
    assert folds == []
    evaluate(m)
    assert folds


def test_cell_guard_refuses_before_allocating():
    d = random_id(60, 6, 6, 6, seed=0)  # largest cluster: 4.5e11 cells
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match="cells"):
            solve_diagram(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_deterministic_path_reaches_one():
    d = parse(
        "IDNET 1\nMODE prob\n"
        "VAR d 2 DECISION\nVAR c 2 CHANCE\n"
        "PROB c | d : 1 0 0 1\n"
        "UTIL u c : 0 1\n"
        "ORDER / d / c\n")
    meu, policies = run(mcdag_of(d), d)
    assert close(meu, 1.0)
    assert close(evaluate_policy(d, policies), 1.0)
    assert int(policies[0].rule.values[0]) == 1


# -- end to end ---------------------------------------------------------------

def test_solve_diagram_report():
    d = fixture("fig2")
    report = solve_diagram(d)
    assert close(report.meu, oracle_value(d))
    assert report.w_mcdag == 1
    assert report.cluster_count == 4
    assert report.trace_len > 0
    assert len(report.policies) == 1
    assert close(evaluate_policy(d, report.policies), report.meu)
    fig3 = fixture("fig3")
    assert close(solve_diagram(fig3).meu, oracle_value(fig3))


@pytest.mark.parametrize("d", [fixture("fig3"), fixture("chain", 8), fixture("star", 6),
                               random_id(8, 2, 3, 2, seed=4),
                               random_id(10, 3, 3, 3, seed=7),
                               random_id(8, 2, 3, 2, mode="poss", seed=0)],
                         ids=["fig3", "chain8", "star6", "prob4", "prob7", "poss0"])
def test_solve_runs_the_message_pass_once(d):
    # the policy pass adds only the argmax's max ops to the message pass
    alone = OpCounter()
    evaluate(mcdag_of(d), alone)
    solved = OpCounter()
    solve_diagram(d, counter=solved)
    kinds = (set(alone.by_kind) | set(solved.by_kind)) - {"max"}
    assert kinds
    for kind in kinds:
        assert solved.by_kind.get(kind, 0) == alone.by_kind.get(kind, 0), kind


def test_the_node_store_is_released_before_the_message_pass(monkeypatch):
    # The collector is off and never run, so a reference cycle that kept the
    # store alive would fail this too.
    stores, passes = [], []
    store_for, evaluate = solve.store_for, solve.evaluate

    def watched_store(d):
        store = store_for(d)
        stores.append(weakref.ref(store))
        return store

    def checked_evaluate(*args, **kwargs):
        passes.append(stores[-1]() is None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solve, "store_for", watched_store)
    monkeypatch.setattr(solve, "evaluate", checked_evaluate)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for d in (fixture("fig3"), fixture("chain", 8),
                  random_id(10, 3, 3, 3, mode="poss", seed=7)):
            solve_diagram(d)
    finally:
        if enabled:
            gc.enable()
    assert passes == [True] * 3


@pytest.mark.parametrize("family", ["chain", "star"])
def test_a_solve_peaks_with_its_compile_layers(family):
    # On these width-1 DAGs the node store is most of a solve's memory: with
    # it released before the passes, they add nothing to the compile peak.
    d = fixture(family, 128)

    def compile_layers():
        store = store_for(d)
        root, _ = macrostructure(store, initial_node(store, d))
        merge_clusters(assemble(store, root))

    def peak(fn):
        fn()  # warm-up: first-call caches are not the solve's
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: solve_diagram(d)) <= 1.05 * peak(compile_layers)


def test_fig3_solve_op_total():
    counter = OpCounter()
    solve_diagram(fixture("fig3"), counter=counter)
    # 13 max ops: d1's and d3's choices are taken when `evaluate` eliminates
    # them, so only d2's argmax is charged again by the policy pass
    assert counter.total == 71


def test_extract_policies_consumes_the_messages():
    d = fixture("fig3")
    m = mcdag_of(d)
    schedule = plan(m, d)
    _, tables = evaluate(m, plan=schedule)
    extract_policies(d, schedule, tables)
    assert tables == {}


def test_cluster_engine_outputs_are_pinned():
    # MEU bytes, w_mcdag, cluster count, op counts by kind except `max`, and
    # each policy's scope, value bytes and tie sets, with and without tie sets,
    # on the fixtures and a seeded sweep in both modes.  `max` is left out:
    # how often the policy pass charges it is bookkeeping, not output.
    ds = [fixture("fig2"), fixture("fig3")]
    ds += [fixture(f, n) for f in ("chain", "star") for n in range(1, 9)]
    ds += [random_id(4 + seed % 9, seed % 3, 3, 3, mode=mode, seed=seed)
           for mode in ("prob", "poss") for seed in range(80)]
    h = hashlib.sha256()
    for d in ds:
        for with_sets in (False, True):
            counter = OpCounter()
            run = solve_diagram(d, with_sets=with_sets, counter=counter)
            kinds = sorted((k, n) for k, n in counter.by_kind.items() if k != "max")
            h.update(repr((np.float64(run.meu).tobytes(), run.w_mcdag, run.cluster_count,
                           kinds)).encode())
            for p in run.policies:
                sets = None if p.rule.attaining is None else \
                    [np.flatnonzero(row).tolist() for row in p.rule.attaining]
                h.update(repr((p.var, p.context, p.rule.scope,
                               p.rule.values.astype(np.float64).tobytes(), sets)).encode())
    assert h.hexdigest() == \
        "51ba514f5c6285bd28ed20d3a3939bbcb2bffa876d5c30768d747cdf6db26a42"
