"""Table algebra against brute enumeration oracles.

The oracles below walk assignments one by one with plain dict lookups, so any
layout or broadcasting mistake in the vectorized implementation shows up as a
value mismatch rather than silently producing a consistent-but-wrong order.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infdiag.factors import (
    CELL_GUARD,
    AssignmentError,
    FactorError,
    Op,
    OpCounter,
    ResourceGuardError,
    ScopedTable,
    UniverseError,
    UnknownVariableError,
    argmax_marginalize,
    combine_all,
    fold,
    identity,
    marginalize,
)
from oracles import check_semiring_axioms, oracle_argmax

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
    keep_sizes = tuple(t.sizes[t.scope.index(v)] for v in keep)
    elim = [v for v in t.scope if v in set(vars)]
    vals = []
    for outer in assignments(keep, keep_sizes):
        acc = None
        for inner in assignments(tuple(elim), tuple(t.sizes[t.scope.index(v)] for v in elim)):
            x = t.lookup({**outer, **inner})
            acc = x if acc is None else SCALAR[op](acc, x)
        vals.append(acc)
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
        t1.sizes[t1.scope.index(v)] if v in t1.scope else draw(st.integers(1, 4)) for v in scope2
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
    out = combine_all((a, b), Op.TIMES, identity(Op.TIMES))
    assert out.scope == (0, 1)
    assert np.allclose(out.values, [0.6, 1.2, 1.4, 2.8])


def test_combine_canonicalizes_scope_order():
    a = ScopedTable((5, 2), (2, 3), np.arange(6, dtype=float))
    b = ScopedTable((2,), (3,), np.array([1.0, 10.0, 100.0]))
    out = combine_all((a, b), Op.TIMES, identity(Op.TIMES))
    assert out.scope == (2, 5)
    oracle = enum_combine(a, b, Op.TIMES)
    assert np.allclose(out.values, oracle.values)


def test_scalar_table():
    t = ScopedTable((), (), np.array([4.5]))
    assert t.scope == () and t.values.size == 1
    assert t.lookup({}) == 4.5


@settings(max_examples=200, deadline=None)
@given(pairs, st.sampled_from([Op.TIMES, Op.PLUS, Op.MAX, Op.MIN]))
def test_combine_matches_enumeration(ts, op):
    t1, t2 = ts
    out = combine_all((t1, t2), op, identity(op))
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


def test_argmax_tracks_sets_and_representative():
    # over variable 2 (size 3), keeping variable 0 (size 2)
    arr = np.array([[1.0, 5.0, 5.0], [7.0, 2.0, 7.0]])
    (scope, best), choice = argmax_marginalize(((0, 2), arr), 2)
    assert scope == (0,) and best.tolist() == [5.0, 7.0]
    assert choice.attaining.tolist() == [[False, True, True], [True, False, True]]
    assert list(choice.values) == [1, 0]
    with pytest.raises(UnknownVariableError):
        argmax_marginalize(((0, 2), arr), 1)


def test_argmax_without_sets_keeps_marginal_and_representative():
    rng = np.random.default_rng(5)
    for scope, sizes, var in [((0, 2), (2, 3), 2), ((1, 3, 4), (3, 2, 4), 3),
                              ((0,), (4,), 0)]:
        # few distinct values, so most rows hold ties
        arr = rng.integers(0, 3, sizes).astype(float)
        full_marg, full = argmax_marginalize((scope, arr), var)
        marg, choice = argmax_marginalize((scope, arr), var, sets=False)
        assert choice.attaining is None and full.attaining is not None
        assert marg[0] == full_marg[0]
        assert marg[1].tobytes() == full_marg[1].tobytes()
        assert np.array_equal(choice.values, full.values)
        assert (choice.scope, choice.sizes) == (full.scope, full.sizes)


def test_argmax_matches_the_row_oracle():
    rng = np.random.default_rng(17)
    values = np.array([-np.inf, 0.0, 1.0, 2.0])  # few values, so rows tie often
    for ndim in range(1, 5):
        for _ in range(6):
            scope = tuple(int(v) for v in rng.permutation(8)[:ndim])  # not sorted
            sizes = tuple(int(s) for s in rng.integers(1, 5, ndim))
            arr = rng.choice(values, sizes)
            for var in scope:
                keep, best, lowest, attaining = oracle_argmax(scope, arr, var)
                kept_sizes = tuple(s for v, s in zip(scope, sizes) if v != var)
                for sets in (True, False):
                    counter = OpCounter()
                    (got_scope, got), choice = argmax_marginalize(
                        (scope, arr), var, counter, sets=sets)
                    assert got_scope == choice.scope == keep
                    assert got.shape == choice.sizes == kept_sizes
                    assert got.reshape(-1).tolist() == best
                    assert choice.values.tolist() == lowest
                    if sets:
                        assert choice.attaining.shape == (got.size, arr.shape[scope.index(var)])
                        assert [tuple(np.flatnonzero(row).tolist())
                                 for row in choice.attaining] == attaining
                    else:
                        assert choice.attaining is None
                    assert counter.by_kind == {"max": arr.size - got.size}


@pytest.mark.parametrize("var", [0, 1])
def test_tie_sets_cost_a_byte_per_cell(var):
    # Every row of a 2^16 x 2 table ties.  The tie sets are a boolean mask,
    # one byte per cell, where one Python tuple per row cost about 30.
    arr = np.zeros((2 ** 16, 2))
    peak = {}
    for sets in (False, True):
        tracemalloc.start()
        try:
            argmax_marginalize(((0, 1), arr), var, sets=sets)
            peak[sets] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    if var == 0:  # two rows: the mask is nearly all there is
        assert peak[True] < 8 * arr.size
    else:  # 2^16 rows: the max and the lowest value take 8 bytes a cell anyway
        assert peak[True] < peak[False] + 2 * arr.size


def test_argmax_without_sets_copies_no_table():
    # Along an axis other than the last, numpy's argmax copies the table
    # first, eight bytes a cell; the boolean rows cost one.
    arr = np.random.default_rng(3).integers(0, 4, (2 ** 16, 2)).astype(float)
    tracemalloc.start()
    try:
        argmax_marginalize(((0, 1), arr), 0, sets=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * arr.size


def test_argmax_representative_is_numpys_first_argmax():
    # Whichever path reads it, the lowest attaining value is what
    # `arr.argmax(axis)` returns, ties planted by drawing from few values.
    rng = np.random.default_rng(29)
    for ndim in range(1, 5):
        for _ in range(10):
            sizes = tuple(int(s) for s in rng.integers(1, 6, ndim))
            arr = rng.integers(0, 3, sizes).astype(float)
            arr[rng.random(sizes) < 0.2] = -np.inf
            scope = tuple(range(ndim))
            for axis, var in enumerate(scope):
                want = arr.argmax(axis).reshape(-1)
                for sets in (True, False):
                    _, choice = argmax_marginalize((scope, arr), var, sets=sets)
                    assert np.array_equal(choice.values, want)
                    assert choice.values.dtype == want.dtype


def test_counter_counts_combine_and_marginalize():
    a = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    b = ScopedTable((1,), (3,), np.array([1.0, 2.0, 3.0]))
    counter = OpCounter()
    out = combine_all((a, b), Op.TIMES, identity(Op.TIMES), counter)
    assert counter.total == 6  # one per output cell
    marginalize(out, [1], Op.SUM, counter)
    assert counter.total == 6 + (6 - 2)
    marginalize(out, [0, 1], Op.MAX, counter)
    assert counter.total == 10 + (6 - 1)
    assert counter.by_kind == {"times": 6, "sum": 4, "max": 5}


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
        combine_all((a, b), Op.TIMES, identity(Op.TIMES))


def test_fold_refuses_a_union_over_the_cell_guard():
    axis = np.broadcast_to(1.0, (2 ** 9,))  # no memory behind the axis
    parts = [((v,), axis) for v in range(3)]
    counter = OpCounter()
    with pytest.raises(ResourceGuardError, match="cells"):
        fold(parts, Op.TIMES, 1.0, counter)
    assert counter.total == 0
    scope, arr = fold(parts[:2], Op.TIMES, 1.0, OpCounter())  # 2**18 cells fit
    assert scope == (0, 1) and arr.size == 2 ** 18 <= CELL_GUARD


def test_unknown_variable_rejected():
    t = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    with pytest.raises(UnknownVariableError):
        marginalize(t, [5], Op.SUM)
    with pytest.raises(UnknownVariableError):
        t.lookup({5: 0})


def test_out_of_range_assignment_rejected():
    t = ScopedTable((0,), (2,), np.array([1.0, 2.0]))
    with pytest.raises(AssignmentError):
        t.lookup({0: 2})
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
