"""Dense scoped tables and the scalar-operation algebra everything else runs on.

A table's scope is an ordered tuple of variable ids; the flat value buffer is
laid out so that the *last* scope variable varies fastest (C order over the
scope axes).  Combination canonicalizes the output scope to ascending variable
id; marginalization and restriction keep the surviving order of their input.

Every combine/marginalize call charges a context-local operation counter with
one unit per binary scalar operation performed (combine: one per output cell;
marginalize: one per folded-away cell), which is what the operation-count
comparisons in the test suite rely on.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
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

    def additions(self) -> int:
        return self.by_kind.get("sum", 0) + self.by_kind.get("plus", 0)


_GLOBAL_COUNTER = OpCounter()
_counter_var: ContextVar[OpCounter] = ContextVar("op_counter", default=_GLOBAL_COUNTER)


def current_counter() -> OpCounter:
    return _counter_var.get()


@contextmanager
def tally() -> Iterator[OpCounter]:
    """Swap in a fresh counter for the enclosed block (context-local)."""
    counter = OpCounter()
    token = _counter_var.set(counter)
    try:
        yield counter
    finally:
        _counter_var.reset(token)


@dataclass(frozen=True, eq=False)
class ScopedTable:
    scope: tuple[int, ...]
    sizes: tuple[int, ...]
    values: np.ndarray
    tag: str = "generic"  # "probability" | "utility" | "generic"
    name: str | None = None
    cpt_for: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.scope) != len(self.sizes):
            raise FactorError("scope and sizes length mismatch")
        if len(set(self.scope)) != len(self.scope):
            raise FactorError("duplicate variable in scope")
        if any(s < 1 for s in self.sizes):
            raise FactorError("domain sizes must be positive")
        vals = np.asarray(self.values, dtype=float)
        want = int(np.prod(self.sizes)) if self.sizes else 1
        if vals.ndim != 1 or vals.size != want:
            vals = vals.reshape(-1)
            if vals.size != want:
                raise FactorError(
                    f"value count {vals.size} does not match scope size {want}"
                )
        if self.tag == "probability" and vals.size and float(vals.min()) < 0.0:
            raise FactorError("probability-tagged table has a negative cell")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- conveniences ------------------------------------------------------

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def array(self) -> np.ndarray:
        return self.values.reshape(self.sizes) if self.scope else self.values.reshape(())

    def size_of(self, var: int) -> int:
        return self.sizes[self.scope.index(var)]

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

    @staticmethod
    def scalar(value: float, tag: str = "generic", name: str | None = None) -> "ScopedTable":
        return ScopedTable((), (), np.asarray([value], dtype=float), tag, name)


def _universe(tables: Sequence[ScopedTable]) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for t in tables:
        for var, size in zip(t.scope, t.sizes):
            if sizes.setdefault(var, size) != size:
                raise UniverseError(
                    f"variable {var} has size {sizes[var]} in one table and {size} in another"
                )
    return sizes


def _aligned_view(t: ScopedTable, union: tuple[int, ...]) -> np.ndarray:
    """View of t broadcastable over the union scope (axes in union order)."""
    arr = t.values.reshape(t.sizes) if t.scope else t.values.reshape(())
    order = [t.scope.index(v) for v in union if v in t.scope]
    arr = arr.transpose(order) if order else arr
    shape = tuple(t.size_of(v) if v in t.scope else 1 for v in union)
    return arr.reshape(shape)


def combine(t1: ScopedTable, t2: ScopedTable, op: Op, counter: OpCounter | None = None) -> ScopedTable:
    """Pointwise combination over the union scope (ascending variable id)."""
    if op not in COMBINE_OPS:
        raise FactorError(f"{op} is not a combination operator")
    sizes = _universe((t1, t2))
    union = tuple(sorted(sizes))
    out = _UFUNC[op](_aligned_view(t1, union), _aligned_view(t2, union))
    out = np.broadcast_to(out, tuple(sizes[v] for v in union))
    (counter or current_counter()).add(int(out.size), op.value)
    tag = "generic"
    if t1.tag == t2.tag == "probability" and op is Op.TIMES:
        tag = "probability"
    elif t1.tag == t2.tag == "utility" and op is Op.PLUS:
        tag = "utility"
    return ScopedTable(union, tuple(sizes[v] for v in union), out.reshape(-1).copy(), tag)


def combine_all(tables: Sequence[ScopedTable], op: Op, ident: float, counter: OpCounter | None = None) -> ScopedTable:
    """Fold `combine` over a sequence; empty sequences give the scalar identity."""
    if not tables:
        return ScopedTable.scalar(ident)
    acc = tables[0]
    for t in tables[1:]:
        acc = combine(acc, t, op, counter)
    return acc


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
    arr = t.values.reshape(t.sizes)
    axes = tuple(t.scope.index(v) for v in elim)
    if op is Op.SUM:
        out = arr.sum(axis=axes)
    elif op is Op.MAX:
        out = arr.max(axis=axes)
    else:
        out = arr.min(axis=axes)
    (counter or current_counter()).add(int(arr.size - out.size), op.value)
    keep = tuple(v for v in t.scope if v not in elim)
    keep_sizes = tuple(t.size_of(v) for v in keep)
    return ScopedTable(keep, keep_sizes, np.asarray(out).reshape(-1).copy(), t.tag)


@dataclass(frozen=True)
class ChoiceTable:
    """Per retained assignment: which eliminated assignments attain the max.

    Eliminated assignments are flat indices over the eliminated variables in
    ascending id order, last fastest.  `representative` holds the lowest such
    index (the deterministic tie-break), `attaining` the full set, or None
    when the sets were not asked for.
    """

    retained_scope: tuple[int, ...]
    retained_sizes: tuple[int, ...]
    elim_scope: tuple[int, ...]
    elim_sizes: tuple[int, ...]
    representative: np.ndarray
    attaining: tuple[tuple[int, ...], ...] | None

    def decode(self, flat: int) -> tuple[int, ...]:
        """Flat eliminated index -> per-variable values (ascending id order)."""
        out = []
        rem = int(flat)
        for size in reversed(self.elim_sizes):
            out.append(rem % size)
            rem //= size
        return tuple(reversed(out))


def argmax_marginalize(t: ScopedTable, vars: Sequence[int], counter: OpCounter | None = None,
                       sets: bool = True) -> tuple[ScopedTable, ChoiceTable]:
    """MAX-marginalize and record, per retained cell, the lowest attaining
    index and, when `sets` is true, the whole attaining set."""
    elim = tuple(sorted(dict.fromkeys(vars)))
    missing = [v for v in elim if v not in t.scope]
    if missing:
        raise UnknownVariableError(f"variables {missing} not in scope {t.scope}")
    keep = tuple(v for v in t.scope if v not in elim)
    arr = t.values.reshape(t.sizes)
    perm = [t.scope.index(v) for v in keep] + [t.scope.index(v) for v in elim]
    keep_sizes = tuple(t.size_of(v) for v in keep)
    elim_sizes = tuple(t.size_of(v) for v in elim)
    ret_n = int(np.prod(keep_sizes)) if keep else 1
    flat = arr.transpose(perm).reshape(ret_n, -1)
    best = flat.max(axis=1)
    (counter or current_counter()).add(int(flat.size - best.size), Op.MAX.value)
    rep = flat.argmax(axis=1)
    attain = tuple(tuple(int(j) for j in np.flatnonzero(row == mx))
                   for row, mx in zip(flat, best)) if sets else None
    marg = ScopedTable(keep, keep_sizes, best.copy(), t.tag)
    choice = ChoiceTable(keep, keep_sizes, elim, elim_sizes, rep.copy(), attain)
    return marg, choice


def restrict(t: ScopedTable, assignment: Mapping[int, int]) -> ScopedTable:
    """Slice the table at the given values; assigned variables leave the scope."""
    if not assignment:
        return t
    missing = [v for v in assignment if v not in t.scope]
    if missing:
        raise UnknownVariableError(f"variables {missing} not in scope {t.scope}")
    index = []
    for var, size in zip(t.scope, t.sizes):
        if var in assignment:
            val = assignment[var]
            if not 0 <= val < size:
                raise AssignmentError(f"value {val} out of range for variable {var}")
            index.append(val)
        else:
            index.append(slice(None))
    arr = t.values.reshape(t.sizes)[tuple(index)]
    keep = tuple(v for v in t.scope if v not in assignment)
    keep_sizes = tuple(t.size_of(v) for v in keep)
    return ScopedTable(keep, keep_sizes, np.asarray(arr).reshape(-1).copy(), t.tag, t.name, t.cpt_for)


# -- semiring sanity -------------------------------------------------------


@dataclass
class SemiringReport:
    pair: tuple[Op, Op]
    samples: int
    deviations: dict[str, float]
    ok: bool


def check_semiring_axioms(pair: tuple[Op, Op], samples: int = 10_000, seed: int = 0) -> SemiringReport:
    """Sampled commutativity/associativity/distributivity/identity checks.

    Pairs made of MIN/MAX only must hold exactly; pairs involving PLUS or
    TIMES are allowed a 1e-12 relative slack for float re-association.
    """
    marg, comb = pair
    if marg not in MARGINAL_OPS or comb not in COMBINE_OPS:
        raise FactorError(f"{pair} is not a marginalization/combination pair")
    unit = pair in ((Op.MIN, Op.MAX), (Op.MAX, Op.MIN))
    rng = np.random.default_rng(seed)
    if unit:
        draw = lambda: rng.random(samples)
        extras = np.array([0.0, 1.0, 0.5])
    else:
        draw = lambda: rng.uniform(-2.0, 2.0, samples)
        extras = np.array([0.0, 1.0, -1.0, identity(marg, unit), identity(comb, unit)])
        extras = extras[np.isfinite(extras) | (extras == identity(marg, unit))]
    a, b, c = (np.concatenate([draw(), extras]) for _ in range(3))
    plus, times = _UFUNC[marg], _UFUNC[comb]
    e_plus, e_times = identity(marg, unit), identity(comb, unit)

    def dev(x: np.ndarray, y: np.ndarray) -> float:
        with np.errstate(invalid="ignore"):
            diff = np.abs(x - y)
            diff[np.isnan(diff) & (x == y)] = 0.0  # inf == inf
            scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
            rel = np.where(
                np.isfinite(diff),
                diff / np.where(np.isfinite(scale), scale, 1.0),
                np.where(x == y, 0.0, np.inf),
            )
        return float(np.max(rel)) if rel.size else 0.0

    checks = {
        "aggregate-commutes": dev(plus(a, b), plus(b, a)),
        "aggregate-associates": dev(plus(plus(a, b), c), plus(a, plus(b, c))),
        "combine-commutes": dev(times(a, b), times(b, a)),
        "combine-associates": dev(times(times(a, b), c), times(a, times(b, c))),
        "distributes": dev(times(a, plus(b, c)), plus(times(a, b), times(a, c))),
        "aggregate-identity": dev(plus(a, np.full_like(a, e_plus)), a),
        "combine-identity": dev(times(a, np.full_like(a, e_times)), a),
    }
    tol = 0.0 if unit else 1e-12
    return SemiringReport(pair, samples, checks, all(d <= tol for d in checks.values()))
