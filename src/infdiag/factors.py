"""Dense scoped tables and the scalar-operation algebra everything else runs on.

A table's scope is an ordered tuple of variable ids; the flat value buffer is
laid out so that the *last* scope variable varies fastest (C order over the
scope axes).  Combination canonicalizes the output scope to ascending variable
id; marginalization keeps the surviving order of its input.

The arithmetic lives in array-level helpers over (scope, ndarray) parts:
`align` lays a part out over a union scope, `fold` combines one or more
parts, `eliminate` marginalizes one, and `argmax_marginalize`
max-eliminates one variable of one and records which values attain the max
in a `ChoiceTable` of integer value indices, which every engine hands out
as the decision's rule.  `combine_all` and `marginalize` are thin `ScopedTable` wrappers over
them (only `combine_all` takes an identity, for an empty sequence); both
engines and the policy pass call the array-level helpers directly.

`eliminate` and `argmax_marginalize` may reduce one axis of k values slice
by slice: a copy of slice 0, then k-1 in-place ufunc calls over the other
slices.  numpy's `ufunc.reduce` restarts its inner loop once per cell before
the reduced axis (once per row when the axis is last): on a 4^8 table
reduced along its last axis that took 782 µs for MAX and 309 µs for SUM, the
slices 40 and 58 µs.  The slices run when k is below 8 and at least
`_SLICE_MIN` cells precede the axis, a crossover timed against whole kernel
calls (its comment has the numbers).  Smaller parts take one `ufunc.reduce`,
which is cheaper there, as is every reduction along the first axis.  Below 8
values numpy's own reduce is a left fold, as the slices are, so both give
the same bits.  For MAX and MIN that holds down to which of 0.0 and -0.0 a
tie keeps; from 8 values on numpy folds them in SIMD lanes, which may keep
the other one.  numpy's sum starts from 0.0 on every axis, so the SUM slices
start there too and a row of -0.0 sums to 0.0; from 8 values on numpy sums
a contiguous axis pairwise, which a left fold would round differently.

Each step charges the operation counter it is passed (a fresh one, read by
no one, when the argument is optional and omitted) with one unit per binary
scalar operation performed (combination: one per output cell;
marginalization: one per folded-away cell), which is what the
operation-count comparisons in the test suite rely on.

The engines run their passes under `small_buffers`, which sets numpy's ufunc
buffer to `_BUFSIZE` = 1024 elements (numpy's default is 8192) and restores
the caller's size on the way out, raised or not.  numpy 2.4.6 gives each
broadcast or transposed input of a ufunc call an iterator buffer of one
element per cell of the call, up to the buffer size, so a two-part
broadcast fold into a 4^7-cell (128 KB) union peaked at 258 KB with two
64 KB buffers, and peaks at 146 KB with two 8 KB ones; a call over 1024
cells or fewer is not changed.  On seed-1 benchmark runs (numpy 2.4.6) that
took `solve_peak_mb` from 0.3689 to 0.2940 MB on dense_prob, 0.3824 to
0.3036 on dense_poss and 0.1443 to 0.1150 on random_sweep; families stayed
at 0.669, as its peak is the node store.  The peak stops falling at 1024:
random_sweep's read 0.1297 MB at 2048, 0.1149 at 1024 and 0.1146 at 256
and at 16.  The cap moves no bit (the tests solve their diagrams at 16 and 8192
elements to the same bytes and op counts) and costs next to no time: a
4^7-cell broadcast fold took 30 µs instead of 35, and entering and leaving
`small_buffers` about 5 µs.  The size is read and restored with
`np.getbufsize` and `np.setbufsize`, not scoped by `np.errstate`, which
numpy 1.x does not do for it.  An older numpy may not buffer these calls at
all; there the cap does nothing and costs nothing.

`diagram.parse` and `solve.solve_diagram` run with Python's cyclic garbage
collector paused by `no_cyclic_gc`, which turns it back on after, raised or
not, and leaves a collector the caller had disabled disabled.  Both build
many small objects that reference counting frees, so the collector runs
often and finds nothing: over the parse and solve of the 120 seed-1
`families` diagrams it made 142 gen-0, 12 gen-1 and 1 gen-2 collections,
which took 21.7-24.8 ms of a 626-751 ms pass and freed no object (best of
9 passes in each of 5 runs, Python 3.11.7, 2 vCPU).  With the pause it
makes 38, 3 and 0, all between the calls, in 3.5-4.1 ms.  It is safe
because neither layer builds a reference cycle: the tests parse and solve
their diagrams with the collector off and a collection afterwards finds
nothing unreachable.  A cycle that a later change built would only be
freed late, at the first collection after the pause.  Like `small_buffers`
the pause changes process-global state: code on another thread runs with
the collector off while a parse or solve is in progress.
"""

from __future__ import annotations

import enum
import gc
import math
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np


class Op(enum.Enum):
    SUM = "sum"
    MAX = "max"
    MIN = "min"
    PLUS = "plus"
    TIMES = "times"

    def __repr__(self) -> str:  # keep golden traces readable
        return self.value

    # Members are singletons compared by identity; the C-level hash keeps
    # every node-store key lookup out of Enum.__hash__'s Python frame.
    __hash__ = object.__hash__


MARGINAL_OPS = frozenset({Op.SUM, Op.MAX, Op.MIN})
COMBINE_OPS = frozenset({Op.PLUS, Op.TIMES, Op.MAX, Op.MIN})

_UFUNC = {
    Op.SUM: np.add,
    Op.PLUS: np.add,
    Op.TIMES: np.multiply,
    Op.MAX: np.maximum,
    Op.MIN: np.minimum,
}

# Op.value is a Python-level property; the kernels read each kind from here.
_KIND = {op: op.value for op in Op}


# The ufunc buffer, in elements, that the engines' passes run under (module
# docstring).  Kernels keep no numpy state of their own.
_BUFSIZE = 1024


@contextmanager
def small_buffers() -> Iterator[None]:
    """Run the body with numpy's ufunc buffer at `_BUFSIZE` elements and
    restore the caller's size after it, whether it returns or raises."""
    caller = np.getbufsize()
    np.setbufsize(_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(caller)


@contextmanager
def no_cyclic_gc() -> Iterator[None]:
    """Run the body with Python's cyclic garbage collector paused and turn
    it back on after, whether the body returns or raises.  A collector the
    caller had already disabled stays disabled, so the pause nests."""
    caller = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if caller:
            gc.enable()


def identity(op: Op, unit_interval: bool = False) -> float:
    """Neutral element of `op`, on the reals or restricted to [0, 1]."""
    if op in (Op.SUM, Op.PLUS):
        return 0.0
    if op is Op.TIMES:
        return 1.0
    if op is Op.MAX:
        return 0.0 if unit_interval else -math.inf
    if op is Op.MIN:
        return 1.0 if unit_interval else math.inf
    raise ValueError(f"no identity for {op}")


class FactorError(ValueError):
    pass


class UniverseError(FactorError):
    """Two tables disagree on a shared variable's domain size."""


class UnknownVariableError(FactorError):
    """An operation names a variable outside the table's scope."""


class AssignmentError(FactorError):
    """A value index lies outside its variable's domain."""


class ResourceGuardError(RuntimeError):
    """A computation would exceed a hard size budget and was refused."""


class InternalError(AssertionError):
    """An internal invariant failed; indicates a bug, not bad input."""


class OpCounter:
    """Running totals of binary scalar operations, overall and per kind.

    Kinds are operator names ("sum", "plus", "times", "max", "min") plus
    "div" for the division inside potential-based chance marginalization.
    """

    __slots__ = ("total", "by_kind")

    def __init__(self) -> None:
        self.total = 0
        self.by_kind: dict[str, int] = {}

    def add(self, n: int, kind: str) -> None:
        self.total += n
        self.by_kind[kind] = self.by_kind.get(kind, 0) + n


@dataclass(frozen=True, eq=False)
class ScopedTable:
    scope: tuple[int, ...]
    sizes: tuple[int, ...]
    values: np.ndarray
    _: KW_ONLY
    name: str | None = None
    cpt_for: int | None = None  # the child variable when this is its conditional table

    def __post_init__(self) -> None:
        if len(self.scope) != len(self.sizes):
            raise FactorError("scope and sizes length mismatch")
        if len(set(self.scope)) != len(self.scope):
            raise FactorError("duplicate variable in scope")
        if any(s < 1 for s in self.sizes):
            raise FactorError("domain sizes must be positive")
        vals = np.asarray(self.values, dtype=float)
        want = math.prod(self.sizes)
        if vals.ndim != 1 or vals.size != want:
            vals = vals.reshape(-1)
            if vals.size != want:
                raise FactorError(
                    f"value count {vals.size} does not match scope size {want}"
                )
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def trusted(cls, scope: tuple[int, ...], sizes: tuple[int, ...], values: np.ndarray,
                name: str | None = None, cpt_for: int | None = None) -> ScopedTable:
        """A table built without `__post_init__`'s checks, for a caller that
        has made them: `scope` holds distinct variables, `sizes` one positive
        size each, and `values` is a read-only, C-contiguous float64 vector of
        prod(sizes) cells.  The fields are set one by one in declaration
        order, as `__init__` sets them, so every table's instance dict keeps
        sharing its keys with the others'."""
        t = object.__new__(cls)
        set_field = object.__setattr__
        set_field(t, "scope", scope)
        set_field(t, "sizes", sizes)
        set_field(t, "values", values)
        set_field(t, "name", name)
        set_field(t, "cpt_for", cpt_for)
        return t

    # -- conveniences ------------------------------------------------------

    @property
    def size(self) -> int:  # read by the benchmark's perfbench/workloads.py
        return self.values.size

    @property
    def array(self) -> np.ndarray:
        return self.values.reshape(self.sizes)

    def lookup(self, assignment: Mapping[int, int]) -> float:
        idx = []
        for var, size in zip(self.scope, self.sizes):
            try:
                val = assignment[var]
            except KeyError:
                raise UnknownVariableError(f"assignment misses variable {var}") from None
            if not 0 <= val < size:
                raise AssignmentError(f"value {val} out of range for variable {var}")
            idx.append(val)
        return float(self.array[tuple(idx)])


Part = tuple[tuple[int, ...], np.ndarray]  # (scope, array with one axis per scope variable)

CELL_GUARD = 2 ** 24  # largest union `fold` allocates
# most variables one array may span: numpy's dimension limit (32 before numpy 2)
DIM_GUARD = 64 if int(np.__version__.split(".")[0]) >= 2 else 32


def align(arr: np.ndarray, scope: tuple[int, ...], union: Sequence[int]) -> np.ndarray:
    """View of `arr` broadcastable over `union`: its axes permuted into union
    order and a size-1 axis for each union variable it lacks."""
    if scope == union:
        return arr
    order = [scope.index(v) for v in union if v in scope]
    shape = tuple(arr.shape[scope.index(v)] if v in scope else 1 for v in union)
    return arr.transpose(order).reshape(shape)


def fold(parts: Sequence[Part], op: Op, counter: OpCounter) -> Part:
    """Combine the parts left to right under `op`, charging one op per cell
    of the union reached after each step.

    Two or more parts give the ascending-id union scope and a C-contiguous
    array, so a later reduction sums in a fixed order.  One part comes back
    as it is.  No part is an internal error: every cluster and potential
    step folds at least one.  A union over more than CELL_GUARD cells, or
    more than DIM_GUARD variables, is refused before anything is allocated.
    """
    if op not in COMBINE_OPS:
        raise FactorError(f"{op} is not a combination operator")
    if len(parts) < 2:
        if not parts:
            raise InternalError("fold over no parts")
        return parts[0]
    size_of: dict[int, int] = {}
    for scope, arr in parts:
        for var, size in zip(scope, arr.shape):
            if size_of.setdefault(var, size) != size:
                raise UniverseError(
                    f"variable {var} has size {size_of[var]} in one table and {size} in another"
                )
    union = tuple(sorted(size_of))
    full = math.prod(size_of.values())
    if full > CELL_GUARD:
        raise ResourceGuardError(f"combination over {full} cells (limit {CELL_GUARD})")
    if len(union) > DIM_GUARD:
        raise ResourceGuardError(
            f"combination over {len(union)} variables (limit {DIM_GUARD})")
    ufunc, kind = _UFUNC[op], _KIND[op]
    scope, arr = parts[0]
    acc = align(arr, scope, union)
    owned = False  # acc is an array this call allocated, not a caller's
    for scope, arr in parts[1:]:
        if owned and union and acc.size == full:  # a 0-d result is a numpy scalar
            ufunc(acc, align(arr, scope, union), out=acc)
        else:
            acc = ufunc(acc, align(arr, scope, union), order="C")
            owned = True
        counter.add(acc.size, kind)
    return union, acc


# Where the slices start to pay, in cells before the reduced axis: whole
# kernel calls against `ufunc.reduce`, median time ratio of 15 interleaved
# rounds of 100 calls (numpy 2.4.6, Python 3.11.7, x86-64 with AVX-512).
# With the axis last, `eliminate` gains from about 32, 40 and 50 such cells
# at k = 2, 3 and 4 for MAX and MIN, and an argmax without tie sets from
# about 64, 100 and 128; with 4 cells after the axis, from 32 or fewer and
# 16, 32 and 50.  `np.add.reduce` is cheaper, so a SUM gains later: with
# the axis last from about 100-128, 150-200 and 170-256 cells (two runs),
# the slices taking 0.93-1.00, 1.06-1.20 and 1.15-1.33 times as long at
# 128; with 4 cells after the axis from about 40-64 cells, 0.67-0.85 times
# as long at 128.  At 128 every MAX and MIN case is at least even.  In the
# calls one pass of each benchmark workload makes, 32 or 64 saved no more
# than 128 for MAX and MIN, and 256 or 512 no more than 128 for SUM: the
# 481 SUMs of a seed-1 dense_prob pass that slice at 128 slice at 256 too.
_SLICE_MIN = 128


def _by_slices(arr: np.ndarray, axis: int) -> bool:
    """Whether `axis` of `arr` is reduced slice by slice (module docstring)."""
    return arr.shape[axis] < 8 and math.prod(arr.shape[:axis]) >= _SLICE_MIN


def _slices(arr: np.ndarray, axis: int) -> list[np.ndarray]:
    """The views of `arr` at each value of `axis`, that axis dropped; each is
    an array, 0-d ones included."""
    pre = (slice(None),) * axis
    return [arr[(*pre, i, ...)] for i in range(arr.shape[axis])]


def _reduce_slices(slices: list[np.ndarray], ufunc: np.ufunc) -> np.ndarray:
    """`ufunc.reduce` over the slices' axis as a left fold: a C-contiguous
    copy of the first slice, folded in place with each later one.  A sum
    starts from 0.0, as numpy's does, so a row of -0.0 sums to 0.0."""
    out = slices[0].copy()
    if ufunc is np.add:
        out += 0.0
    for s in slices[1:]:
        ufunc(out, s, out=out)
    return out


def eliminate(part: Part, elim: Sequence[int], op: Op, counter: OpCounter) -> Part:
    """Fold `op` over the axes of the distinct scope variables `elim`,
    charging one op per folded-away cell; kept axes keep their order."""
    if op not in MARGINAL_OPS:
        raise FactorError(f"{op} is not a marginalization operator")
    scope, arr = part
    ufunc = _UFUNC[op]
    # A part below _SLICE_MIN cells pays this one size comparison.
    if arr.size >= _SLICE_MIN and len(elim) == 1 \
            and _by_slices(arr, axis := scope.index(elim[0])):
        out = _reduce_slices(_slices(arr, axis), ufunc)
    else:
        out = np.asarray(ufunc.reduce(arr, axis=tuple(scope.index(v) for v in elim)))
    counter.add(arr.size - out.size, _KIND[op])
    return tuple(v for v in scope if v not in elim), out


def combine_all(tables: Sequence[ScopedTable], op: Op, ident: float, counter: OpCounter | None = None) -> ScopedTable:
    """Pointwise combination over the union scope (ascending variable id);
    empty sequences give the scalar identity `ident`."""
    if len(tables) < 2:
        return tables[0] if tables else ScopedTable((), (), np.array([ident]))
    scope, arr = fold([(t.scope, t.array) for t in tables], op, counter or OpCounter())
    return ScopedTable(scope, arr.shape, arr.reshape(-1))


def marginalize(t: ScopedTable, vars: Sequence[int], op: Op, counter: OpCounter | None = None) -> ScopedTable:
    """Fold `op` over the given scope variables; empty `vars` returns t unchanged."""
    if op not in MARGINAL_OPS:
        raise FactorError(f"{op} is not a marginalization operator")
    elim = tuple(dict.fromkeys(vars))
    if not elim:
        return t
    missing = [v for v in elim if v not in t.scope]
    if missing:
        raise UnknownVariableError(f"variables {missing} not in scope {t.scope}")
    keep, out = eliminate((t.scope, t.array), elim, op, counter or OpCounter())
    return ScopedTable(keep, out.shape, out.reshape(-1))


@dataclass(frozen=True, eq=False)
class ChoiceTable:
    """Per assignment of `scope`, the retained variables: which values of
    the eliminated variable attain the max.  It is also a decision rule.

    Rows run over `scope`, last variable fastest.  `values` holds, per row,
    the lowest attaining value index as an integer (the deterministic
    tie-break).  `attaining`, when the sets were asked for, is the rows ×
    values boolean mask of the attaining values, and None otherwise.
    """

    scope: tuple[int, ...]
    sizes: tuple[int, ...]
    values: np.ndarray
    attaining: np.ndarray | None


def argmax_marginalize(part: Part, var: int, counter: OpCounter | None = None,
                       sets: bool = True) -> tuple[Part, ChoiceTable]:
    """MAX-eliminate `var` from the part, charging one op per folded-away
    cell, and record per retained cell the lowest attaining value and, when
    `sets` is true, the mask of all attaining values.  Kept axes keep their
    order; argmax keeps the first of tied values.

    The max is taken slice by slice when `eliminate` would take it so (the
    module docstring says when, and why that gives numpy's bits).  With
    sets, the rows × values boolean mask, one byte per cell, gives both the
    attaining values and the lowest of them.  Without sets, on the slice
    path, the lowest attaining value is the count of leading slices that
    miss the max, summed slice by slice; otherwise `argmax` runs on the part
    itself when `var` is on the last axis, and on the mask along any other,
    where numpy would first copy the whole part, eight bytes per cell."""
    scope, arr = part
    if var not in scope:
        raise UnknownVariableError(f"variable {var} not in scope {scope}")
    axis = scope.index(var)
    keep = scope[:axis] + scope[axis + 1:]
    keep_sizes = arr.shape[:axis] + arr.shape[axis + 1:]
    (counter or OpCounter()).add(arr.size - arr.size // arr.shape[axis], _KIND[Op.MAX])
    slices = _slices(arr, axis) if arr.size >= _SLICE_MIN and _by_slices(arr, axis) else None
    best = _reduce_slices(slices, np.maximum) if slices else np.asarray(arr.max(axis))
    if slices and not sets:
        miss = slices[0] != best
        count = miss.astype(np.uint8)  # k < 8; bool to uint8 is a view, not a cast
        for s in slices[1:-1]:  # a row that misses all before the last attains there
            miss &= s != best
            count += miss.view(np.uint8)
        attaining, rep = None, count.astype(np.intp).reshape(-1)
    elif sets or axis != arr.ndim - 1:
        last = (*range(axis), *range(axis + 1, arr.ndim), axis)  # `var` moved last
        rows = np.equal(arr.transpose(last), best[..., None],
                        order="C").reshape(-1, arr.shape[axis])
        attaining, rep = rows if sets else None, rows.argmax(axis=1)
    else:
        attaining, rep = None, arr.argmax(axis).reshape(-1)
    return (keep, best), ChoiceTable(keep, keep_sizes, rep, attaining)
