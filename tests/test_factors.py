"""Table algebra against brute enumeration oracles.

The oracles below walk assignments one by one with plain dict lookups, so any
layout or broadcasting mistake in the vectorized implementation shows up as a
value mismatch rather than silently producing a consistent-but-wrong order.
"""

from __future__ import annotations

import gc
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infdiag import factors
from infdiag.diagram import fixture, parse, serialize
from infdiag.factors import (
    CELL_GUARD,
    AssignmentError,
    FactorError,
    InternalError,
    Op,
    OpCounter,
    ResourceGuardError,
    ScopedTable,
    UniverseError,
    UnknownVariableError,
    argmax_marginalize,
    combine_all,
    eliminate,
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


# -- exact reductions slice by slice -------------------------------------------

# Few values, so rows tie, and both zeros: which one a tie keeps depends on
# the order of the fold, and a sum of -0.0 alone on where it starts.  Sums
# of up to 16 of these finite values are exact.
TIE_POOL = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf])
EXACT = {Op.MAX: np.maximum, Op.MIN: np.minimum, Op.SUM: np.add}


def exact_cases():
    """(shape, axis) over k = 1..16 values on the axis, the axis first, in
    the middle and last, with one cell fewer than _SLICE_MIN before it and
    with exactly that many."""
    for k in range(1, 17):
        for lead in (factors._SLICE_MIN - 1, factors._SLICE_MIN):
            yield (k,), 0
            yield (k, lead), 0
            yield (lead, k), 1
            yield (lead, k, 3), 1
            yield (lead, 1, k), 2
            yield (1, lead, k, 1), 2  # trailing size-1 axis: numpy sees the axis as contiguous


@pytest.mark.parametrize("op", [Op.MAX, Op.MIN, Op.SUM], ids=["max", "min", "sum"])
def test_exact_eliminate_is_numpys_reduce_byte_for_byte(op):
    rng = np.random.default_rng(41)
    paths = set()
    for shape, axis in exact_cases():
        # -inf and inf in one SUM row would give nan
        arr = rng.choice(TIE_POOL[1:] if op is Op.SUM else TIE_POOL, shape)
        arr.setflags(write=False)
        scope = tuple(range(10, 10 + arr.ndim))
        counter = OpCounter()
        keep, out = eliminate((scope, arr), (scope[axis],), op, counter)
        want = np.asarray(EXACT[op].reduce(arr, axis=axis))
        assert keep == scope[:axis] + scope[axis + 1:]
        assert out.shape == want.shape and out.tobytes() == want.tobytes(), (shape, axis)
        assert counter.by_kind == {op.value: arr.size - out.size}
        # A parent folds into its son's message in place: it must own it.
        assert out.flags.c_contiguous and not np.shares_memory(out, arr)
        paths.add(factors._by_slices(arr, axis))
    assert paths == {False, True}


@pytest.mark.parametrize("slice_min", [None, 1], ids=["default", "all"])
def test_argmax_on_the_slice_path(slice_min, monkeypatch):
    # The middle and last axes lie above _SLICE_MIN; lowered to 1, it sends
    # the first axis down the slice path too.  The second axis holds 50
    # values, which numpy's reduce takes.
    if slice_min is not None:
        monkeypatch.setattr(factors, "_SLICE_MIN", slice_min)
    arr = np.random.default_rng(43).choice(TIE_POOL, (3, 50, 4, 2))
    arr.setflags(write=False)
    scope = (7, 2, 9, 4)
    assert [factors._by_slices(arr, a) for a in range(4)] == [slice_min == 1, False, True, True]
    for axis, var in enumerate(scope):
        keep, best, lowest, attaining = oracle_argmax(scope, arr, var)
        first = arr.argmax(axis).reshape(-1)
        for sets in (False, True):
            counter = OpCounter()
            (got_scope, got), choice = argmax_marginalize((scope, arr), var, counter, sets=sets)
            assert got_scope == choice.scope == keep
            assert got.tobytes() == np.maximum.reduce(arr, axis).tobytes()
            assert got.reshape(-1).tolist() == best
            assert choice.values.tolist() == lowest
            assert np.array_equal(choice.values, first) and choice.values.dtype == first.dtype
            if sets:
                assert [tuple(np.flatnonzero(row).tolist())
                        for row in choice.attaining] == attaining
            else:
                assert choice.attaining is None
            assert counter.by_kind == {"max": arr.size - got.size}


def test_sum_stays_on_numpys_reduction():
    # numpy sums a contiguous axis of 16 values pairwise; a left fold over
    # the axis's slices rounds these rows differently.
    arr = np.random.default_rng(47).standard_normal((factors._SLICE_MIN, 16))
    arr *= 10.0 ** np.arange(16)[::-1]
    left = arr[:, 0].copy()
    for i in range(1, 16):
        left += arr[:, i]
    want = np.add.reduce(arr, axis=1)
    assert left.tobytes() != want.tobytes()
    _, out = eliminate(((0, 1), arr), (1,), Op.SUM, OpCounter())
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(2, 8))
def test_sum_below_8_values_is_a_left_fold_over_the_slices(k):
    # Below 8 values numpy's sum along any axis is a left fold, so the SUM
    # slice path keeps its bits; 8 or more contiguous values are summed
    # pairwise (the test above).  256 cells beside the axis (128 or more
    # before it unless it is first), and magnitudes from 1e-8 to 1e8, so
    # most additions round.
    rng = np.random.default_rng(k)
    for axis in range(3):
        shape = [128, 2]
        shape.insert(axis, k)
        for _ in range(20):
            arr = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
            out = factors._reduce_slices(factors._slices(arr, axis), np.add)
            assert out.tobytes() == np.add.reduce(arr, axis).tobytes(), (k, axis)


@pytest.mark.parametrize("reduce", ["eliminate", "argmax"])
def test_slice_path_allocates_rows_not_a_table(reduce):
    # 2^14 rows of 4 values, reduced along the last axis: the max, the lowest
    # attaining value and a few byte masks per row, never a copy of the table.
    rows = 2 ** 14
    arr = np.random.default_rng(53).integers(0, 3, (rows, 4)).astype(float)
    assert factors._by_slices(arr, 1)
    tracemalloc.start()
    try:
        if reduce == "eliminate":
            eliminate(((0, 1), arr), (1,), Op.MAX, OpCounter())
            limit = 8 * rows + 4096
        else:
            argmax_marginalize(((0, 1), arr), 1, sets=False)
            limit = (8 + 8 + 4) * rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit < arr.nbytes


def test_a_broadcast_fold_under_small_buffers_peaks_near_its_result():
    # Two parts of 4^4 cells that share one variable fold into a 4^7-cell
    # (128 KB) union.  numpy gives each broadcast part an iterator buffer of
    # one element per cell up to its buffer size: 64 KB at its default of
    # 8192 elements, 8 KB under `small_buffers`.
    rng = np.random.default_rng(59)
    parts = [((0, 1, 2, 3), rng.random((4,) * 4)), ((3, 4, 5, 6), rng.random((4,) * 4))]
    with factors.small_buffers():
        fold(parts, Op.TIMES, OpCounter())  # warm-up: first-call caches are not the fold's
        tracemalloc.start()
        try:
            _, arr = fold(parts, Op.TIMES, OpCounter())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert arr.nbytes == 8 * 4 ** 7
    assert peak < arr.nbytes + 32 * 1024


def test_no_cyclic_gc_gives_the_caller_its_collector_back():
    # An enabled collector is on again after the body returns or raises; a
    # disabled one stays off.  Nested pauses leave it to the outermost.
    def body(fail):
        with factors.no_cyclic_gc():
            with factors.no_cyclic_gc():
                assert not gc.isenabled()
                if fail:
                    raise RuntimeError("mid-body")
            assert not gc.isenabled()

    enabled = gc.isenabled()
    try:
        for caller in (gc.enable, gc.disable):
            caller()
            want = gc.isenabled()
            body(False)
            assert gc.isenabled() == want
            with pytest.raises(RuntimeError, match="mid-body"):
                body(True)
            assert gc.isenabled() == want
    finally:
        (gc.enable if enabled else gc.disable)()


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
        fold(parts, Op.TIMES, counter)
    assert counter.total == 0
    scope, arr = fold(parts[:2], Op.TIMES, OpCounter())  # 2**18 cells fit
    assert scope == (0, 1) and arr.size == 2 ** 18 <= CELL_GUARD


def test_fold_over_no_parts_is_an_internal_error():
    # Every cluster and potential step folds at least one part.
    counter = OpCounter()
    with pytest.raises(InternalError, match="no parts"):
        fold([], Op.TIMES, counter)
    assert counter.total == 0 and counter.by_kind == {}


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
    # Parsed tables are views of one buffer per text: each is read-only, sees
    # exactly its own cells, and pickles (copies) only those.
    d = parse(serialize(fixture("fig3")))
    for t in (*d.cpts.values(), *d.utilities):
        with pytest.raises(ValueError):
            t.values[0] = 9.0
        assert t.values.size == math.prod(t.sizes)
        assert len(pickle.dumps(t.values)) < 200 + t.values.nbytes


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
