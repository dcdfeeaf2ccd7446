"""Table algebra against brute enumeration oracles.

The oracles below walk assignments one by one with plain dict lookups, so any
layout or broadcasting mistake in the vectorized implementation shows up as a
value mismatch rather than silently producing a consistent-but-wrong order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infdiag.factors import (
    AssignmentError,
    ChoiceTable,
    FactorError,
    Op,
    ScopedTable,
    UniverseError,
    UnknownVariableError,
    argmax_marginalize,
    check_semiring_axioms,
    combine,
    combine_all,
    current_counter,
    identity,
    marginalize,
    restrict,
    tally,
)

SCALAR = {
    Op.SUM: lambda a, b: a + b,
    Op.PLUS: lambda a, b: a + b,
    Op.TIMES: lambda a, b: a * b,
    Op.MAX: max,
    Op.MIN: min,
}


def assignments(scope, sizes):
    """All assignments in table order: last scope variable fastest."""
    for combo in itertools.product(*(range(s) for s in sizes)):
        yield dict(zip(scope, combo))


def enum_combine(t1: ScopedTable, t2: ScopedTable, op: Op) -> ScopedTable:
    sizes = {}
    for t in (t1, t2):
        sizes.update(zip(t.scope, t.sizes))
    scope = tuple(sorted(sizes))
    shape = tuple(sizes[v] for v in scope)
    vals = [
        SCALAR[op](t1.lookup(a), t2.lookup(a))
        for a in assignments(scope, shape)
    ]
    return ScopedTable(scope, shape, np.array(vals))


def enum_marginalize(t: ScopedTable, vars, op: Op) -> ScopedTable:
    keep = tuple(v for v in t.scope if v not in set(vars))
    keep_sizes = tuple(t.size_of(v) for v in keep)
    elim = [v for v in t.scope if v in set(vars)]
    vals = []
    for outer in assignments(keep, keep_sizes):
        acc = None
        for inner in assignments(tuple(elim), tuple(t.size_of(v) for v in elim)):
            x = t.lookup({**outer, **inner})
            acc = x if acc is None else SCALAR[op](acc, x)
        vals.append(acc)
    return ScopedTable(keep, keep_sizes, np.array(vals))


def enum_restrict(t: ScopedTable, assignment) -> ScopedTable:
    keep = tuple(v for v in t.scope if v not in assignment)
    keep_sizes = tuple(t.size_of(v) for v in keep)
    vals = [t.lookup({**a, **assignment}) for a in assignments(keep, keep_sizes)]
    return ScopedTable(keep, keep_sizes, np.array(vals))


def table_strategy(draw):
    n_vars = draw(st.integers(0, 4))
    universe = draw(
        st.lists(st.integers(0, 9), min_size=n_vars, max_size=n_vars, unique=True)
    )
    scope = tuple(draw(st.permutations(universe)))
    sizes = tuple(draw(st.integers(1, 4)) for _ in scope)
    count = int(np.prod(sizes)) if sizes else 1
    vals = draw(
        st.lists(
            st.floats(-8, 8, allow_nan=False, width=32),
            min_size=count,
            max_size=count,
        )
    )
    return ScopedTable(scope, sizes, np.array(vals, dtype=float))


tables = st.composite(table_strategy)()


def paired_tables(draw):
    t1 = draw(tables)
    n_vars = draw(st.integers(0, 3))
    pool = list(t1.scope) + [v for v in range(10) if v not in t1.scope]
    scope2 = tuple(draw(st.permutations(pool[: max(len(pool), 1)]))[:n_vars])
    sizes2 = tuple(
        t1.size_of(v) if v in t1.scope else draw(st.integers(1, 4)) for v in scope2
    )
    count = int(np.prod(sizes2)) if sizes2 else 1
    vals = draw(
        st.lists(
            st.floats(-8, 8, allow_nan=False, width=32),
            min_size=count,
            max_size=count,
        )
    )
    return t1, ScopedTable(scope2, sizes2, np.array(vals, dtype=float))


pairs = st.composite(paired_tables)()


def test_layout_last_variable_fastest():
    t = ScopedTable((3, 7), (2, 2), np.array([1.0, 2.0, 3.0, 4.0]))
    assert t.lookup({3: 0, 7: 0}) == 1.0
    assert t.lookup({3: 0, 7: 1}) == 2.0
    assert t.lookup({3: 1, 7: 0}) == 3.0
    assert t.lookup({3: 1, 7: 1}) == 4.0


def test_combine_known_product():
    a = ScopedTable((0,), (2,), np.array([0.3, 0.7]))
    b = ScopedTable((1,), (2,), np.array([2.0, 4.0]))
    out = combine(a, b, Op.TIMES)
    assert out.scope == (0, 1)
    assert np.allclose(out.values, [0.6, 1.2, 1.4, 2.8])


def test_combine_canonicalizes_scope_order():
    a = ScopedTable((5, 2), (2, 3), np.arange(6, dtype=float))
    b = ScopedTable((2,), (3,), np.array([1.0, 10.0, 100.0]))
    out = combine(a, b, Op.TIMES)
    assert out.scope == (2, 5)
    oracle = enum_combine(a, b, Op.TIMES)
    assert np.allclose(out.values, oracle.values)


def test_restrict_layout():
    t = ScopedTable((1, 4), (2, 2), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(restrict(t, {1: 0}).values, [1.0, 2.0])
    assert np.allclose(restrict(t, {1: 1}).values, [3.0, 4.0])
    assert np.allclose(restrict(t, {4: 0}).values, [1.0, 3.0])
    assert restrict(t, {1: 1, 4: 0}).values[0] == 3.0
    assert restrict(t, {1: 1, 4: 0}).scope == ()


def test_scalar_table():
    t = ScopedTable.scalar(4.5)
    assert t.scope == () and t.size == 1
    assert t.lookup({}) == 4.5


@settings(max_examples=200, deadline=None)
@given(pairs, st.sampled_from([Op.TIMES, Op.PLUS, Op.MAX, Op.MIN]))
def test_combine_matches_enumeration(ts, op):
    t1, t2 = ts
    out = combine(t1, t2, op)
    oracle = enum_combine(t1, t2, op)
    assert out.scope == oracle.scope
    assert np.allclose(out.values, oracle.values, rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(tables, st.sampled_from([Op.SUM, Op.MAX, Op.MIN]), st.data())
def test_marginalize_matches_enumeration(t, op, data):
    subset = data.draw(st.sets(st.sampled_from(list(t.scope))) if t.scope else st.just(set()))
    out = marginalize(t, sorted(subset), op)
    if not subset:
        assert out is t
        return
    oracle = enum_marginalize(t, subset, op)
    assert out.scope == oracle.scope
    assert np.allclose(out.values, oracle.values, rtol=1e-9, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(tables, st.data())
def test_restrict_matches_enumeration(t, data):
    if not t.scope:
        assert restrict(t, {}) is t
        return
    chosen = data.draw(st.sets(st.sampled_from(list(t.scope))))
    assignment = {v: data.draw(st.integers(0, t.size_of(v) - 1)) for v in chosen}
    out = restrict(t, assignment)
    oracle = enum_restrict(t, assignment)
    assert out.scope == oracle.scope
    assert np.allclose(out.values, oracle.values)


@settings(max_examples=100, deadline=None)
@given(tables)
def test_sum_then_restrict_commutes(t):
    if len(t.scope) < 2:
        return
    first, rest = t.scope[0], t.scope[1]
    a = marginalize(restrict(t, {first: 0}), [rest], Op.SUM)
    b = restrict(marginalize(t, [rest], Op.SUM), {first: 0})
    assert a.scope == b.scope
    assert np.allclose(a.values, b.values, rtol=1e-9, atol=1e-9)


def test_argmax_tracks_sets_and_representative():
    # over variable 2 (size 3), keeping variable 0 (size 2)
    t = ScopedTable((0, 2), (2, 3), np.array([1.0, 5.0, 5.0, 7.0, 2.0, 7.0]))
    marg, choice = argmax_marginalize(t, [2])
    assert np.allclose(marg.values, [5.0, 7.0])
    assert choice.attaining == ((1, 2), (0, 2))
    assert list(choice.representative) == [1, 0]
    assert choice.decode(2) == (2,)


def test_argmax_multi_variable_decode():
    t = ScopedTable((1, 3), (2, 2), np.array([0.0, 9.0, 9.0, 1.0]))
    marg, choice = argmax_marginalize(t, [3, 1])
    assert marg.scope == ()
    assert marg.values[0] == 9.0
    assert choice.elim_scope == (1, 3)
    assert choice.attaining == ((1, 2),)
    assert choice.decode(1) == (0, 1) and choice.decode(2) == (1, 0)
    assert choice.representative[0] == 1  # lowest flat index wins ties


def test_argmax_without_sets_keeps_marginal_and_representative():
    rng = np.random.default_rng(5)
    for scope, sizes, elim in [((0, 2), (2, 3), [2]), ((1, 3, 4), (3, 2, 4), [3, 1]),
                               ((0,), (4,), [0])]:
        # few distinct values, so most rows hold ties
        t = ScopedTable(scope, sizes, rng.integers(0, 3, int(np.prod(sizes))).astype(float))
        full_marg, full = argmax_marginalize(t, elim)
        marg, choice = argmax_marginalize(t, elim, sets=False)
        assert choice.attaining is None and full.attaining is not None
        assert marg.scope == full_marg.scope
        assert np.array_equal(marg.values, full_marg.values)
        assert np.array_equal(choice.representative, full.representative)
        assert (choice.retained_scope, choice.elim_scope) == \
            (full.retained_scope, full.elim_scope)


def test_counter_counts_combine_and_marginalize():
    a = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    b = ScopedTable((1,), (3,), np.array([1.0, 2.0, 3.0]))
    with tally() as counter:
        out = combine(a, b, Op.TIMES)
        assert counter.total == 6  # one per output cell
        marginalize(out, [1], Op.SUM)
        assert counter.total == 6 + (6 - 2)
        marginalize(out, [0, 1], Op.MAX)
        assert counter.total == 10 + (6 - 1)
        assert counter.by_kind == {"times": 6, "sum": 4, "max": 5}
        assert counter.additions() == 4
    assert current_counter() is not counter


def test_tally_isolates_nesting():
    a = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    with tally() as outer:
        combine(a, a, Op.TIMES)
        with tally() as inner:
            combine(a, a, Op.TIMES)
        assert inner.total == 2
        assert outer.total == 2


def test_combine_all_identity_on_empty():
    out = combine_all([], Op.TIMES, identity(Op.TIMES))
    assert out.scope == () and out.values[0] == 1.0


def test_scope_size_product_does_not_wrap():
    # 2**32 * 2**32 wraps to 0 in int64, which would match an empty buffer
    with pytest.raises(FactorError, match="does not match"):
        ScopedTable((0, 1), (2**32, 2**32), np.zeros(0))


def test_universe_mismatch_rejected():
    a = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    b = ScopedTable((0,), (3,), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(UniverseError):
        combine(a, b, Op.TIMES)


def test_unknown_variable_rejected():
    t = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    with pytest.raises(UnknownVariableError):
        marginalize(t, [5], Op.SUM)
    with pytest.raises(UnknownVariableError):
        restrict(t, {5: 0})


def test_out_of_range_assignment_rejected():
    t = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    with pytest.raises(AssignmentError):
        restrict(t, {0: 2})
    with pytest.raises(AssignmentError):
        t.lookup({0: -1})


def test_values_are_read_only():
    t = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        t.values[0] = 9.0


def test_identities():
    assert identity(Op.SUM) == 0.0
    assert identity(Op.TIMES) == 1.0
    assert identity(Op.PLUS) == 0.0
    assert identity(Op.MAX) == -math.inf
    assert identity(Op.MIN) == math.inf
    assert identity(Op.MAX, unit_interval=True) == 0.0
    assert identity(Op.MIN, unit_interval=True) == 1.0


@pytest.mark.parametrize(
    "pair",
    [(Op.SUM, Op.TIMES), (Op.MAX, Op.PLUS), (Op.MIN, Op.MAX), (Op.MAX, Op.MIN)],
    ids=["sum-product", "max-plus", "min-max", "max-min"],
)
def test_semiring_axioms_hold(pair):
    report = check_semiring_axioms(pair, samples=5000, seed=7)
    assert report.ok, report.deviations
    tol = 0.0 if pair in ((Op.MIN, Op.MAX), (Op.MAX, Op.MIN)) else 1e-12
    assert all(d <= tol for d in report.deviations.values())
