"""Dense scoped tables and the scalar-operation algebra everything else runs on.

A table's scope is an ordered tuple of variable ids; the flat value buffer is
laid out so that the *last* scope variable varies fastest (C order over the
scope axes).  Combination canonicalizes the output scope to ascending variable
id; marginalization keeps the surviving order of its input.

The arithmetic lives in array-level helpers over (scope, ndarray) parts:
`align` lays a part out over a union scope, `fold` combines parts,
`eliminate` marginalizes one, and `argmax_marginalize` max-eliminates one
variable of one and records which values attain the max in a `ChoiceTable`
of integer value indices, which every engine hands out as the decision's
rule.  `combine_all` and `marginalize` are thin `ScopedTable` wrappers over
them; both engines and the policy pass call the array-level helpers
directly.
Each step charges the operation counter it is passed (a fresh one, read by
no one, when the argument is optional and omitted) with one unit per binary
scalar operation performed (combination: one per output cell;
marginalization: one per folded-away cell), which is what the
operation-count comparisons in the test suite rely on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import KW_ONLY, dataclass
from typing import Mapping, Sequence

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

    def add(self, n: int, kind: str | None = None) -> None:
        self.total += n
        if kind is not None:
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

    # -- conveniences ------------------------------------------------------

    @property
    def size(self) -> int:  # read by the benchmark's perfbench/workloads.py
        return self.values.size

    @property
    def array(self) -> np.ndarray:
        return self.values.reshape(self.sizes) if self.scope else self.values.reshape(())

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
        return float(self.array[tuple(idx)]) if self.scope else float(self.values[0])


Part = tuple[tuple[int, ...], np.ndarray]  # (scope, array with one axis per scope variable)

CELL_GUARD = 2 ** 24  # largest union `fold` allocates


def align(arr: np.ndarray, scope: tuple[int, ...], union: Sequence[int]) -> np.ndarray:
    """View of `arr` broadcastable over `union`: its axes permuted into union
    order and a size-1 axis for each union variable it lacks."""
    if scope == union:
        return arr
    order = [scope.index(v) for v in union if v in scope]
    shape = tuple(arr.shape[scope.index(v)] if v in scope else 1 for v in union)
    return arr.transpose(order).reshape(shape)


def fold(parts: Sequence[Part], op: Op, ident: float, counter: OpCounter) -> Part:
    """Combine the parts left to right under `op`, charging one op per cell
    of the union reached after each step.

    Two or more parts give the ascending-id union scope and a C-contiguous
    array, so a later reduction sums in a fixed order.  One part comes back
    as it is; none gives the 0-d identity.  A union over more than
    CELL_GUARD cells is refused before anything is allocated.
    """
    if op not in COMBINE_OPS:
        raise FactorError(f"{op} is not a combination operator")
    if len(parts) < 2:
        return parts[0] if parts else ((), np.full((), ident))
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
    ufunc, kind = _UFUNC[op], op.value
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


def eliminate(part: Part, elim: Sequence[int], op: Op, counter: OpCounter) -> Part:
    """Fold `op` over the axes of the distinct scope variables `elim`,
    charging one op per folded-away cell; kept axes keep their order."""
    if op not in MARGINAL_OPS:
        raise FactorError(f"{op} is not a marginalization operator")
    scope, arr = part
    out = np.asarray(_UFUNC[op].reduce(arr, axis=tuple(scope.index(v) for v in elim)))
    counter.add(arr.size - out.size, op.value)
    return tuple(v for v in scope if v not in elim), out


def combine_all(tables: Sequence[ScopedTable], op: Op, ident: float, counter: OpCounter | None = None) -> ScopedTable:
    """Pointwise combination over the union scope (ascending variable id);
    empty sequences give the scalar identity."""
    if len(tables) == 1:
        return tables[0]
    scope, arr = fold([(t.scope, t.array) for t in tables], op, ident,
                      counter or OpCounter())
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

    The lowest attaining value is read along the rows of the rows × values
    boolean mask, one byte per cell.  Only without sets and with `var` on
    the last axis does `argmax` run on the part itself: along another axis
    numpy would first copy the whole part, eight bytes per cell."""
    scope, arr = part
    if var not in scope:
        raise UnknownVariableError(f"variable {var} not in scope {scope}")
    axis = scope.index(var)
    keep = scope[:axis] + scope[axis + 1:]
    keep_sizes = arr.shape[:axis] + arr.shape[axis + 1:]
    (counter or OpCounter()).add(arr.size - arr.size // arr.shape[axis], Op.MAX.value)
    best = np.asarray(arr.max(axis))
    if sets or axis != arr.ndim - 1:
        rows = np.equal(np.moveaxis(arr, axis, -1), best[..., None],
                        order="C").reshape(-1, arr.shape[axis])
        attaining, rep = rows if sets else None, rows.argmax(axis=1)
    else:
        attaining, rep = None, arr.argmax(axis).reshape(-1)
    return (keep, best), ChoiceTable(keep, keep_sizes, rep, attaining)
