"""Influence-diagram data model, IDNET text format, fixtures, and a random generator.

A diagram holds chance variables (each with a conditional table), decision
variables, and utility leaves.  Temporal structure is carried by ``blocks``:
an alternating sequence I0, D1, I1, ..., Dq, Iq where the I_k are (possibly
empty) groups of chance variables and each D_k is a single decision.  Decision
parents are never stated explicitly; pa(D_k) is everything observed before
D_k, i.e. the union of all earlier blocks (perfect recall).

Two quantification modes are supported:
  prob  -- conditional probabilities, additive utilities, expected value
  poss  -- possibility tables and [0,1] utilities, pessimistic min/max value

In IDNET text a line ends at '\n', '\r\n' or '\r' and nowhere else.
`parse` converts every table value of one text into one float64 buffer, and
each parsed table's values are a read-only, contiguous view of its own cells
in it.  A copy of a table's values (`values.copy()`, a deep copy, a pickle)
holds only those cells; a table that stays alive keeps the whole buffer.

The numbers of a PROB or UTIL line take one of two paths, which give the
same bits for every number they accept.  The fast path reads the values
text itself as one JSON array, its spaces turned into commas, with orjson's
correctly rounded parser; it is kept when it yields one float per number,
as it does for every line `serialize` writes.  Every other line is split
into tokens, read by `float()`, and walked token by token to name the first
bad one.

Validation screens before it searches.  One batched pass over all table
values stands in for the per-table number checks, and one pass over the
tables in ascending id order, when each table's parents come before its
variable, for the acyclicity search.  Only a diagram a screen does not clear
is checked table by table, in the order that reports the first fault with
its message and line.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Mapping, NamedTuple

import numpy as np
import orjson

from .factors import (CELL_GUARD, DIM_GUARD, Op, ResourceGuardError, ScopedTable, identity,
                      no_cyclic_gc)

NORMALIZATION_TOL = 1e-9

CHANCE = "chance"
DECISION = "decision"

# Names must survive whitespace tokenization and the '/'-separated ORDER line.
_NAME_RE = re.compile(r"[^\s/|:#]+\Z")


class DiagramError(ValueError):
    """Base for all diagram problems; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FormatError(DiagramError):
    """The text is not well-formed IDNET."""


class ValidationError(DiagramError):
    """The diagram is well-formed but semantically invalid."""


class NormalizationError(ValidationError):
    """A conditional table row is not normalized, or a value is out of range."""


class CycleError(ValidationError):
    """The variable DAG contains a directed cycle."""


class PartitionError(ValidationError):
    """The temporal blocks do not partition the variables as required."""


class UtilityLeafError(ValidationError):
    """A utility is referenced as if it were a variable, or shadows one."""


class InfeasibleParamsError(DiagramError):
    """The random-generator parameters admit no valid diagram."""


class Variable(NamedTuple):
    id: int
    name: str
    size: int
    kind: str  # CHANCE or DECISION


# A Variable from its fields, without NamedTuple's Python-level __new__.
_variable = partial(tuple.__new__, Variable)


@dataclass(frozen=True)
class ModeOps:
    """The operators of a quantification mode; nothing else names them."""

    chance_marg: Op
    decision_marg: Op
    group_comb: Op  # combines the scoped tables inside one utility group
    outer_comb: Op  # combines the per-utility groups
    unit_interval: bool

    @cached_property
    def pairs(self) -> dict[Op, tuple[Op, Op]]:
        """The (marginalization, combination) pair of a cluster, by its
        combination: chance variables leave a utility group, decisions the
        combination of the groups."""
        return {self.group_comb: (self.chance_marg, self.group_comb),
                self.outer_comb: (self.decision_marg, self.outer_comb)}


MODES = {"prob": ModeOps(Op.SUM, Op.MAX, Op.TIMES, Op.PLUS, False),
         "poss": ModeOps(Op.MIN, Op.MAX, Op.MAX, Op.MIN, True)}


def mode_ops(mode: str) -> ModeOps:
    if mode not in MODES:
        raise DiagramError(f"unknown mode {mode!r}")
    return MODES[mode]


@dataclass(frozen=True, eq=False)
class InfluenceDiagram:
    """Validated decision problem.  Immutable; share freely across threads.

    variables: dense ids 0..n-1 in declaration order.
    cpts:      chance id -> table with scope (pa..., x), x varying fastest.
    utilities: named leaf tables; never empty after validation.
    blocks:    2q+1 id tuples I0, D1, ..., Dq, Iq; empties preserved.

    ``parents``, ``barren``, ``names``, ``sizes``, ``chance_ids`` and
    ``decision_ids`` are derived from these on first use, then kept.
    """

    variables: tuple[Variable, ...]
    cpts: dict[int, ScopedTable]
    utilities: tuple[ScopedTable, ...]
    blocks: tuple[tuple[int, ...], ...]
    mode: str

    @cached_property
    def parents(self) -> tuple[tuple[int, ...], ...]:
        """Per-variable sorted id tuple: a chance variable's table scope minus
        itself; a decision's every variable in an earlier block."""
        parents: list[tuple[int, ...]] = [() for _ in self.variables]
        for x, t in self.cpts.items():
            parents[x] = tuple(sorted(t.scope[:-1]))
        seen: list[int] = []
        for i, block in enumerate(self.blocks):
            if i % 2:
                parents[block[0]] = tuple(sorted(seen))
            seen.extend(block)
        return tuple(parents)

    @cached_property
    def barren(self) -> frozenset[int]:
        """The barren chance variables (Shachter 1986), which `initial_node`
        leaves out.  A chance variable `x` is barren when
          1. no utility, and no table but its own, mentions `x` once the
             tables of the other barren variables are gone, and
          2. every variable of `x`'s table is in `x`'s block or an earlier one.
        Its table then sums to 1 over `x` (its complement has minimum 0 in
        poss mode) and, nonnegative and constant in every variable eliminated
        inside `x`'s block, passes through those eliminations and the
        per-utility combination.  Condition 2 keeps that true: with
        `ORDER x / d / y` and `PROB x | y`, `x` is observed before `d` and
        tells it about `y`, and dropping it would lower the value (0.85 to
        0.5 in the tests).  Mention counts over the table and utility scopes
        reach the fixpoint (a dropped table can make its parents barren) in
        one worklist pass.
        """
        n = len(self.variables)
        block_of = [0] * n
        for i, block in enumerate(self.blocks):
            for v in block:
                block_of[v] = i
        mentions = [0] * n
        for t in (*self.cpts.values(), *self.utilities):
            for v in t.scope:
                mentions[v] += 1
        segment = block_of.__getitem__
        candidate = [False] * n
        for x, t in self.cpts.items():
            candidate[x] = max(map(segment, t.scope)) <= block_of[x]
        work = [x for x in self.cpts if candidate[x] and mentions[x] == 1]
        out: list[int] = []
        while work:
            x = work.pop()
            out.append(x)
            for v in self.cpts[x].scope:
                mentions[v] -= 1
                if mentions[v] == 1 and candidate[v]:
                    work.append(v)
        return frozenset(out)

    @cached_property
    def chance_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables if v.kind == CHANCE)

    @cached_property
    def decision_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables if v.kind == DECISION)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.variables)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def size_of(self, var: int) -> int:
        return self.variables[var].size

    def temporal_decisions(self) -> tuple[int, ...]:
        """Decision ids in temporal order (the even-position blocks)."""
        return tuple(self.blocks[i][0] for i in range(1, len(self.blocks), 2))

    def assignment_value(self, env: Mapping[int, int]) -> float:
        """Value of one full assignment before any marginalization.

        prob: joint probability times the summed utilities.  poss: the
        pessimistic max(1 - joint possibility, min utility), the joint
        possibility being the min over the tables.
        """
        # The mode branch here and in `solve.evaluate_policy` stays apart
        # from `ModeOps` on purpose: these are the references the engines are
        # checked against, so they must not read the engines' operator table.
        # The branches in `_numbers_pass_screen` and `_check_numbers` check a
        # row sum or row maximum of the input, not a marginalization.
        if self.mode == "poss":
            worst = max((1.0 - t.lookup(env) for t in self.cpts.values()), default=0.0)
            return max(worst, min(t.lookup(env) for t in self.utilities))
        weight = 1.0
        for t in self.cpts.values():
            weight *= t.lookup(env)
        return weight * sum(t.lookup(env) for t in self.utilities)


def sov0(d: InfluenceDiagram) -> list[tuple[Op, tuple[int, ...]]]:
    """Initial elimination sequence, outermost first; empty blocks omitted.

    Chance blocks marginalize with SUM (prob) or MIN (poss); decision blocks
    with MAX.  Variable order inside a block is the declaration order of the
    ORDER line, which downstream drivers consume right to left.
    """
    ops = mode_ops(d.mode)
    out: list[tuple[Op, tuple[int, ...]]] = []
    for i, block in enumerate(d.blocks):
        if not block:
            continue
        out.append((ops.decision_marg if i % 2 else ops.chance_marg, tuple(block)))
    return out


# --------------------------------------------------------------------------
# IDNET parsing

def _split_segments(tokens: list[str]) -> list[list[str]]:
    segs: list[list[str]] = [[]]
    for tok in tokens:
        if tok == "/":
            segs.append([])
        else:
            segs[-1].append(tok)
    return segs


_TABLE_KWS = ("PROB", "UTIL")


def _split_line(body: str) -> tuple[list[str], str]:
    """The whitespace tokens of one line and, for a PROB or UTIL line, the
    text after its first ':' ("" for any other line).

    A table line whose first ':' stands between two spaces, with at least
    the keyword and one more token before it, is tokenized only through
    that ':', so that each of its numbers is split once, by
    `_append_floats`; the grammar checks in `parse` read the same from that
    header as from the whole line.  Any other line is split whole, so that
    a ':' glued to a neighbouring character, or with only the keyword before
    it, keeps the messages those checks give on the whole line."""
    head, colon, values = body.partition(" : ")
    tokens = head.split()
    if colon:
        if ":" not in head and len(tokens) > 1 and tokens[0] in _TABLE_KWS:
            tokens.append(":")
            return tokens, values
        tokens = body.split()
    return tokens, body.partition(":")[2] if tokens and tokens[0] in _TABLE_KWS else ""


# What `type` maps the values of a table line to when their JSON read is clean.
_JSON_FLOATS = {float}


def _append_floats(buf: array, text: str, expected: int, what: str, line: int) -> None:
    """Append the `expected` numbers of one line segment, in ASCII decimal
    float syntax, to `buf`.

    A segment without a ',' is read as one JSON array, its spaces turned
    into commas, without a token list.  That result is kept when it holds
    `expected` Python floats: every comma then came from a single space
    between two numbers, so the segment holds exactly those `expected`
    tokens, and JSON floats are a subset of what `float()` reads, which
    orjson rounds correctly, as `float()` does.  Any other segment is read
    by `_token_floats`, which names its faults."""
    if "," not in text:
        try:
            values = orjson.loads("[" + text.replace(" ", ",") + "]")
        except orjson.JSONDecodeError:
            pass
        else:
            if len(values) == expected and set(map(type, values)) == _JSON_FLOATS:
                buf.fromlist(values)
                return
    values = _token_floats(text, line)
    if len(values) != expected:
        raise FormatError(f"{what}: expected {expected} values, got {len(values)}", line)
    buf.fromlist(values)


def _token_floats(text: str, line: int) -> list[float]:
    """The numbers of one line segment, one per whitespace token, read by
    `float()`.  `float()` alone would also read '1_0' and non-ASCII digits,
    so a segment that holds either, or a token `float()` refuses, is walked
    token by token to name the first bad token."""
    tokens = text.split()
    if "_" not in text and text.isascii():
        try:
            return list(map(float, tokens))  # a list, as fromlist takes it fastest
        except ValueError:
            pass
    for tok in tokens:
        try:
            if "_" in tok or not tok.isascii():
                raise ValueError
            float(tok)
        except ValueError:
            raise FormatError(f"bad numeric value {tok!r}", line) from None
    return list(map(float, tokens))  # the segment's only non-ASCII is whitespace


def _lines(text: str) -> list[str]:
    """The lines of `text`.  A line ends only at '\\n', '\\r\\n' or '\\r', the
    line ends `bytes.splitlines` knows; the other characters
    `str.splitlines` breaks at (U+2028 and U+0085 among them) stay inside
    their line, where tokenizing reads them as whitespace."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the end of the last line, or an empty text
    return lines


_KINDS = {"CHANCE": CHANCE, "DECISION": DECISION}


class _Loc:
    """Line numbers for validation errors; empty for programmatic diagrams."""

    def __init__(self) -> None:
        self.var: dict[int, int] = {}
        self.cpt: dict[int, int] = {}
        self.util: dict[int, int] = {}
        self.order: int | None = None


@no_cyclic_gc()
def parse(text: str | bytes) -> InfluenceDiagram:
    """Parse IDNET text into a validated diagram.

    Errors carry the 1-based line number of the offending construct; lines
    are checked in order, so the first faulty line is the one reported.
    One leading U+FEFF, the UTF-8 byte-order mark, is skipped; anywhere
    else it is an ordinary character.  Runs with the cyclic collector
    paused (`factors.no_cyclic_gc`).
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"byte {text[e.start]:#04x} is not valid UTF-8",
                              len((text[:e.start] + b".").splitlines())) from None
    if text.startswith("\ufeff"):
        text = text[1:]

    var_ids: dict[str, int] = {}  # name -> id, in declaration order
    sizes: list[int] = []  # per variable id
    kinds: list[str] = []  # per variable id
    buf = array("d")  # every table value, in line order
    # (scope, table sizes, name, start, end) per table, its values being buf[start:end]
    cpt_rows: dict[int, tuple[tuple[int, ...], tuple[int, ...], str, int, int]] = {}
    util_rows: list[tuple[tuple[int, ...], tuple[int, ...], str, int, int]] = []
    util_names: set[str] = set()
    order_segs: list[list[str]] | None = None
    loc = _Loc()
    size_of = sizes.__getitem__

    def resolve(name: str, lineno: int) -> int:
        if name in var_ids:
            return var_ids[name]
        if name in util_names:
            raise UtilityLeafError(
                f"utility {name!r} used as a variable; utilities are leaves", lineno)
        raise FormatError(f"unknown variable {name!r}", lineno)

    def resolve_all(names: list[str], lineno: int) -> tuple[int, ...]:
        try:
            return tuple(map(var_ids.__getitem__, names))
        except KeyError:
            return tuple(resolve(t, lineno) for t in names)  # names the first unknown

    lines = _lines(text)
    numbered = enumerate((line.split("#", 1)[0] for line in lines) if "#" in text else lines,
                         start=1)
    saw_header = False
    for lineno, body in numbered:  # the header, then the MODE line
        tokens = body.split()
        if not tokens:
            continue
        if not saw_header:
            if tokens != ["IDNET", "1"]:
                raise FormatError("expected header 'IDNET 1'", lineno)
            saw_header = True
            continue
        if len(tokens) != 2 or tokens[0] != "MODE" or tokens[1] not in MODES:
            raise FormatError("expected 'MODE prob' or 'MODE poss'", lineno)
        mode = tokens[1]
        break
    else:
        raise FormatError("missing IDNET header", 1)

    for lineno, body in numbered:
        tokens, values = _split_line(body)
        if not tokens:
            continue

        kw = tokens[0]
        if kw == "VAR":
            if len(tokens) != 4:
                raise FormatError("VAR takes: name, domain size, CHANCE|DECISION", lineno)
            name, size_tok, kind_tok = tokens[1], tokens[2], tokens[3]
            if not _NAME_RE.match(name):
                raise FormatError(f"illegal variable name {name!r}", lineno)
            if name in var_ids or name in util_names:
                raise FormatError(f"name {name!r} already declared", lineno)
            try:
                if "_" in size_tok or not size_tok.isascii():
                    raise ValueError  # int() reads '1_0' and non-ASCII digits
                size = int(size_tok)
            except ValueError:
                raise FormatError(f"bad domain size {size_tok!r}", lineno) from None
            if size < 1:
                raise FormatError(f"domain size must be >= 1, got {size}", lineno)
            if kind_tok not in _KINDS:
                raise FormatError(f"kind must be CHANCE or DECISION, got {kind_tok!r}", lineno)
            loc.var[len(kinds)] = lineno
            var_ids[name] = len(kinds)
            sizes.append(size)
            kinds.append(_KINDS[kind_tok])

        elif kw == "PROB":
            if len(tokens) < 4 or tokens[2] != "|" or ":" not in tokens:
                raise FormatError("PROB takes: child | parents... : values...", lineno)
            child = resolve(tokens[1], lineno)
            if kinds[child] != CHANCE:
                raise FormatError(
                    f"PROB line for decision {tokens[1]!r}; decision parents "
                    "come from the ORDER line", lineno)
            if child in cpt_rows:
                raise FormatError(f"duplicate PROB for {tokens[1]!r}", lineno)
            colon = tokens.index(":")
            scope = resolve_all(tokens[3:colon], lineno) + (child,)
            if len(set(scope)) != len(scope):
                raise FormatError("repeated variable in PROB scope", lineno)
            if len(scope) > DIM_GUARD:
                raise FormatError(
                    f"PROB scope spans {len(scope)} variables (limit {DIM_GUARD})", lineno)
            table_sizes = tuple(map(size_of, scope))
            start = len(buf)
            _append_floats(buf, values, math.prod(table_sizes), f"PROB {tokens[1]}", lineno)
            cpt_rows[child] = (scope, table_sizes, f"P_{tokens[1]}", start, len(buf))
            loc.cpt[child] = lineno

        elif kw == "UTIL":
            if len(tokens) < 3 or ":" not in tokens:
                raise FormatError("UTIL takes: name scope... : values...", lineno)
            name = tokens[1]
            if not _NAME_RE.match(name) or name == ":":
                raise FormatError(f"illegal utility name {name!r}", lineno)
            if name in var_ids:
                raise UtilityLeafError(
                    f"utility {name!r} shadows a variable; utilities are leaves", lineno)
            if name in util_names:
                raise FormatError(f"duplicate utility {name!r}", lineno)
            colon = tokens.index(":")
            scope = resolve_all(tokens[2:colon], lineno)
            if len(set(scope)) != len(scope):
                raise FormatError("repeated variable in UTIL scope", lineno)
            if len(scope) > DIM_GUARD:
                raise FormatError(
                    f"UTIL scope spans {len(scope)} variables (limit {DIM_GUARD})", lineno)
            table_sizes = tuple(map(size_of, scope))
            start = len(buf)
            _append_floats(buf, values, math.prod(table_sizes), f"UTIL {name}", lineno)
            loc.util[len(util_rows)] = lineno
            util_rows.append((scope, table_sizes, name, start, len(buf)))
            util_names.add(name)

        elif kw == "ORDER":
            if order_segs is not None:
                raise FormatError("duplicate ORDER line", lineno)
            order_segs = _split_segments(tokens[1:])
            loc.order = lineno

        else:
            raise FormatError(f"unknown directive {kw!r}", lineno)

    if order_segs is None:
        raise FormatError("missing ORDER line", len(lines))

    oline = loc.order
    if len(order_segs) % 2 == 0:
        raise FormatError(
            f"ORDER needs an odd number of '/'-separated segments, got {len(order_segs)}",
            oline)
    blocks: list[tuple[int, ...]] = []
    for i, seg in enumerate(order_segs):
        ids = resolve_all(seg, oline)
        if i % 2 == 1 and len(ids) != 1:
            raise FormatError(
                "even ORDER segments must name exactly one decision", oline)
        blocks.append(ids)

    # The checks `ScopedTable` would repeat are made above: scopes without
    # repeats, positive sizes, prod(sizes) values per table.
    flat = np.frombuffer(buf, dtype=np.float64)
    flat.setflags(write=False)
    trusted = ScopedTable.trusted
    cpts = {x: trusted(scope, table_sizes, flat[start:end], name, x)
            for x, (scope, table_sizes, name, start, end) in cpt_rows.items()}
    utilities = [trusted(scope, table_sizes, flat[start:end], name)
                 for scope, table_sizes, name, start, end in util_rows]
    if not utilities:
        utilities.append(_constant_utility(mode, util_names | set(var_ids)))

    variables = tuple(map(_variable, zip(range(len(kinds)), var_ids, sizes, kinds)))
    d = InfluenceDiagram(variables, cpts, tuple(utilities), tuple(blocks), mode)
    _validate(d, loc)
    return d


def _constant_utility(mode: str, taken: set[str]) -> ScopedTable:
    # Identity of the outer combination: 0 for sum of utilities, 1 for min.
    ops = mode_ops(mode)
    value = identity(ops.outer_comb, ops.unit_interval)
    name = "u_const"
    k = 0
    while name in taken:
        k += 1
        name = f"u_const{k}"
    return ScopedTable((), (), np.array([value]), name=name)


# --------------------------------------------------------------------------
# Serialization

def _fmt(values: np.ndarray) -> str:
    # repr() of a Python float is the shortest string that round-trips.
    return " ".join(repr(float(v)) for v in values)


def serialize(d: InfluenceDiagram) -> str:
    lines = ["IDNET 1", f"MODE {d.mode}"]
    for v in d.variables:
        lines.append(f"VAR {v.name} {v.size} {v.kind.upper()}")
    for x in d.chance_ids:
        t = d.cpts[x]
        ps = " ".join(d.variables[p].name for p in t.scope[:-1])
        lines.append(f"PROB {d.variables[x].name} |{' ' + ps if ps else ''} : {_fmt(t.values)}")
    for u in d.utilities:
        sc = " ".join(d.variables[v].name for v in u.scope)
        lines.append(f"UTIL {u.name}{' ' + sc if sc else ''} : {_fmt(u.values)}")
    segs = " / ".join(" ".join(d.variables[v].name for v in block) for block in d.blocks)
    lines.append(f"ORDER {segs}".rstrip())
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Validation

def validate(d: InfluenceDiagram) -> None:
    """Raise a ValidationError subclass on the first problem found."""
    _check_shape(d)
    _validate(d, _Loc())


def _row_label(d: InfluenceDiagram, t: ScopedTable, row: int) -> str:
    pscope = t.scope[:-1]
    if not pscope:
        return "the prior row"
    idx = np.unravel_index(row, t.sizes[:-1])
    return ", ".join(f"{d.variables[p].name}={int(i)}" for p, i in zip(pscope, idx))


def _check_table(d: InfluenceDiagram, t: ScopedTable, what: str) -> None:
    if any(not (0 <= v < len(d.variables)) for v in t.scope):
        raise ValidationError(f"{what} names an unknown variable")
    if t.sizes != tuple(d.variables[v].size for v in t.scope):
        raise ValidationError(f"{what} has sizes that mismatch its variables")


def _check_shape(d: InfluenceDiagram) -> None:
    """What `parse` already enforces line by line, for diagrams built in code:
    dense ids, legal unique names, kinds, sizes, the block grammar, each
    table's scope and sizes, and which tables are conditional ones: a chance
    variable's table has `cpt_for` set to it, a utility's has none."""
    n = len(d.variables)
    for i, v in enumerate(d.variables):
        if v.id != i:
            raise ValidationError(f"variable ids must be dense, got {v.id} at {i}")
        if v.kind not in (CHANCE, DECISION):
            raise ValidationError(f"bad kind {v.kind!r} for {v.name!r}")
        if v.size < 1:
            raise ValidationError(f"domain of {v.name!r} must be >= 1")
        if not _NAME_RE.match(v.name):
            raise ValidationError(f"illegal variable name {v.name!r}")
    names = set(d.names)
    if len(names) != n:
        raise ValidationError("duplicate variable names")

    if len(d.blocks) % 2 == 0:
        raise PartitionError(f"expected 2q+1 blocks, got {len(d.blocks)}")
    for i, block in enumerate(d.blocks):
        if any(not (0 <= x < n) for x in block):
            raise PartitionError(f"segment {i + 1} names an unknown variable id")
        if i % 2 and len(block) != 1:
            raise PartitionError("decision segments hold exactly one decision")

    for x, t in d.cpts.items():
        if not (0 <= x < n) or d.variables[x].kind != CHANCE:
            raise ValidationError(f"table {t.name!r} is attached to id {x}, not a chance variable")
        what = f"table for {d.variables[x].name!r}"
        if t.cpt_for != x or not t.scope or t.scope[-1] != x:
            raise ValidationError(f"{what} must have it last in scope")
        _check_table(d, t, what)

    if not d.utilities:
        raise ValidationError("at least one utility is required")
    seen: set[str] = set()
    for j, u in enumerate(d.utilities):
        if not u.name or not _NAME_RE.match(u.name):
            raise ValidationError(f"utility {j} needs a legal name")
        if u.name in names:
            raise UtilityLeafError(f"utility {u.name!r} shadows a variable; utilities are leaves")
        if u.name in seen:
            raise ValidationError(f"duplicate utility name {u.name!r}")
        seen.add(u.name)
        if u.cpt_for is not None:
            raise ValidationError(f"utility {u.name!r} is marked as the table of a variable")
        _check_table(d, u, f"utility {u.name!r}")


def _validate(d: InfluenceDiagram, loc: _Loc) -> None:
    """The checks that need the whole diagram, on a shape-checked one: the
    ORDER partition, a table per chance variable, the numbers, acyclicity."""
    names = d.names
    pos = [-1] * len(names)  # ORDER segment index per variable
    for i, block in enumerate(d.blocks):
        want = DECISION if i % 2 else CHANCE
        for x in block:
            if pos[x] >= 0:
                raise PartitionError(f"{names[x]!r} appears twice in the ORDER", loc.order)
            if d.variables[x].kind != want:
                raise PartitionError(
                    f"{names[x]!r} is a {d.variables[x].kind}, but "
                    f"segment {i + 1} holds {want} variables", loc.order)
            pos[x] = i
    if -1 in pos:
        missing = [names[x] for x, i in enumerate(pos) if i < 0]
        raise PartitionError(f"ORDER omits {missing}", loc.order)

    for x in d.chance_ids:
        if x not in d.cpts:
            raise ValidationError(f"chance variable {names[x]!r} has no table", loc.var.get(x))
    if not _numbers_pass_screen(d):
        _check_numbers(d, loc)

    if not _acyclic_in_id_order(d, pos):
        _check_acyclic(d, pos, loc)


def _acyclic_in_id_order(d: InfluenceDiagram, pos: list[int]) -> bool:
    """True when one pass over the conditional tables in ascending id order
    clears what `_check_acyclic` checks: every table's parents precede its
    variable, so the table edges have no cycle, and `latest`, computed by
    `_check_acyclic`'s recurrence with each parent done before its child,
    never passes a variable's own segment.  False says only that
    `_check_acyclic` must search."""
    cpts = d.cpts
    latest = pos[:]
    for x in d.chance_ids:
        parents = cpts[x].scope[:-1]
        if not parents:
            latest[x] = -1
        elif max(parents) > x:
            return False
        else:
            latest[x] = max(map(latest.__getitem__, parents))
            if latest[x] > pos[x]:
                return False
    return True


def _check_acyclic(d: InfluenceDiagram, pos: list[int], loc: _Loc) -> None:
    """Acyclicity from the tables alone.  A decision's parents are all the
    variables before it in the ORDER, so the parent graph has a cycle
    exactly when the table edges do, or when a chance variable depends
    through tables on a decision later than itself.  One DFS over table
    edges finds both; `latest` holds, per finished variable, the segment of
    the latest decision it depends on (a decision's own segment)."""
    names = d.names
    latest = pos[:]
    state = [2 if v.kind == DECISION else 0 for v in d.variables]  # 1 on stack, 2 done
    for root in d.cpts:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(d.cpts[root].scope[:-1]))]
        while stack:
            x, pending = stack[-1]
            for p in pending:
                if state[p] == 1:
                    raise CycleError(f"cycle through {names[p]!r} in the variable DAG",
                                     loc.cpt.get(x))
                if state[p] == 0:
                    state[p] = 1
                    stack.append((p, iter(d.cpts[p].scope[:-1])))
                    break
            else:
                stack.pop()
                state[x] = 2
                latest[x] = max((latest[p] for p in d.cpts[x].scope[:-1]), default=-1)
                if latest[x] > pos[x]:
                    raise CycleError(
                        f"cycle through {names[d.blocks[latest[x]][0]]!r}: {names[x]!r} "
                        "depends on it but comes before it in the ORDER", loc.cpt.get(x))


def _numbers_pass_screen(d: InfluenceDiagram) -> bool:
    """One batched pass over every table value: True when no table can fail
    `_check_numbers`.  Conditional tables must be finite and nonnegative
    (and at most 1 in poss mode), with every row sum (prob) or row maximum
    (poss) within half the tolerance of 1; half, so that a batched row sum
    that rounds differently from the per-table one cannot pass a row that
    `_check_numbers` refuses.  Utilities must be finite (in [0, 1] in poss
    mode).  False says only that `_check_numbers` must look table by table."""
    poss = d.mode == "poss"
    tables = list(d.cpts.values())
    if tables:
        values = np.concatenate([t.values for t in tables])
        lo, hi = values.min(), values.max()  # NaN fails every comparison below
        if not (lo >= 0.0 and (hi <= 1.0 if poss else hi < math.inf)):
            return False
        widths = [t.sizes[-1] for t in tables]
        row_widths = np.repeat(widths, [t.values.size // w for t, w in zip(tables, widths)])
        reduce = np.maximum.reduceat if poss else np.add.reduceat
        row_ends = reduce(values, np.cumsum(row_widths) - row_widths)
        if not np.abs(row_ends - 1.0).max() <= NORMALIZATION_TOL / 2:
            return False
    values = np.concatenate([u.values for u in d.utilities])
    lo, hi = values.min(), values.max()
    return bool(lo >= 0.0 and hi <= 1.0) if poss else bool(-math.inf < lo and hi < math.inf)


def _check_numbers(d: InfluenceDiagram, loc: _Loc) -> None:
    """The per-table number checks, in report order: each conditional table
    (sign, finiteness, rows), then each utility (finiteness, poss range)."""
    names = d.names
    for x, t in d.cpts.items():
        line = loc.cpt.get(x)
        if np.any(t.values < 0):
            raise NormalizationError(f"negative value in table for {names[x]!r}", line)
        if not np.all(np.isfinite(t.values)):
            raise ValidationError(f"non-finite value in table for {names[x]!r}", line)
        rows = t.values.reshape(-1, t.sizes[-1])
        if d.mode == "prob":
            sums = rows.sum(axis=1)
            bad = np.flatnonzero(np.abs(sums - 1.0) > NORMALIZATION_TOL)
            if bad.size:
                raise NormalizationError(
                    f"rows of P({names[x]}|...) must sum to 1: got "
                    f"{sums[bad[0]]!r} at {_row_label(d, t, int(bad[0]))}", line)
        else:
            if np.any(t.values > 1.0):
                raise NormalizationError(
                    f"possibility values for {names[x]!r} must lie in [0,1]", line)
            tops = rows.max(axis=1)
            bad = np.flatnonzero(np.abs(tops - 1.0) > NORMALIZATION_TOL)
            if bad.size:
                raise NormalizationError(
                    f"rows of pi({names[x]}|...) must reach 1: got "
                    f"{tops[bad[0]]!r} at {_row_label(d, t, int(bad[0]))}", line)

    for j, u in enumerate(d.utilities):
        line = loc.util.get(j)
        if not np.all(np.isfinite(u.values)):
            raise ValidationError(f"non-finite value in utility {u.name!r}", line)
        if d.mode == "poss" and (np.any(u.values < 0) or np.any(u.values > 1)):
            raise NormalizationError(f"utility {u.name!r} must lie in [0,1]", line)


# --------------------------------------------------------------------------
# Fixtures

def _norm_rows(rng: np.random.Generator, rows: int, size: int, mode: str) -> np.ndarray:
    vals = rng.random((rows, size)) + 0.05
    if mode == "prob":
        vals /= vals.sum(axis=1, keepdims=True)
    else:
        # x / max(x) makes the row maximum exactly 1.0, which poss mode needs.
        vals /= vals.max(axis=1, keepdims=True)
    return vals.reshape(-1)


def _util_values(rng: np.random.Generator, count: int, mode: str) -> np.ndarray:
    return rng.random(count) if mode == "poss" else rng.uniform(-1.0, 1.0, count)


class _Builder:
    """Declaration-order accumulator shared by the fixtures and the generator."""

    def __init__(self, mode: str, seed: int):
        self.mode = mode
        self.rng = np.random.default_rng(seed)
        self.vars: list[Variable] = []
        self.ids: dict[str, int] = {}
        self.cpts: dict[int, ScopedTable] = {}
        self.utils: list[ScopedTable] = []

    def var(self, name: str, size: int, kind: str) -> int:
        self.ids[name] = len(self.vars)
        self.vars.append(Variable(len(self.vars), name, size, kind))
        return self.ids[name]

    def _cells(self, name: str, sizes: tuple[int, ...]) -> int:
        """The table's cell count, refused before any number is drawn when
        it exceeds CELL_GUARD."""
        cells = math.prod(sizes)
        if cells > CELL_GUARD:
            raise ResourceGuardError(
                f"table {name} would hold {cells} cells (limit {CELL_GUARD})")
        return cells

    def cpt(self, child: str, parents: Iterable[str] = ()) -> None:
        x = self.ids[child]
        scope = tuple(self.ids[p] for p in parents) + (x,)
        sizes = tuple(self.vars[v].size for v in scope)
        size = sizes[-1]
        cells = self._cells(f"P_{child}", sizes)
        values = _norm_rows(self.rng, cells // size, size, self.mode)
        self.cpts[x] = ScopedTable(scope, sizes, values, name=f"P_{child}", cpt_for=x)

    def util(self, name: str, scope_names: Iterable[str]) -> None:
        scope = tuple(self.ids[s] for s in scope_names)
        sizes = tuple(self.vars[v].size for v in scope)
        values = _util_values(self.rng, self._cells(name, sizes), self.mode)
        self.utils.append(ScopedTable(scope, sizes, values, name=name))

    def done(self, order: str) -> InfluenceDiagram:
        segs = _split_segments(order.split())
        blocks = tuple(tuple(self.ids[t] for t in seg) for seg in segs)
        if not self.utils:
            self.utils.append(_constant_utility(self.mode, set(self.ids)))
        d = InfluenceDiagram(tuple(self.vars), self.cpts, tuple(self.utils), blocks, self.mode)
        validate(d)
        return d


_FIXTURE_RE = re.compile(r"(chain|star)\((\d+)\)\Z")


def fixture(name: str, n: int | None = None, seed: int = 0) -> InfluenceDiagram:
    """Named problem families with deterministic numbers drawn from ``seed``.

    fig2      two correlated chance variables observed after one decision
    fig3      three interleaved decisions over two chance variables
    chain(n)  n free decisions, a chance variable, then a final decision
    star(n)   n free decisions all coupled to one chance variable

    The size of chain and star comes from ``n`` or from the name itself;
    an ``n`` that the name contradicts, or that fig2 and fig3 would ignore,
    is refused.
    """
    m = _FIXTURE_RE.match(name)
    if m:
        inline = int(m.group(2))
        if n is not None and n != inline:
            raise DiagramError(f"fixture {name!r} conflicts with n={n}")
        name, n = m.group(1), inline
    elif n is not None and name in ("fig2", "fig3"):
        raise DiagramError(f"fixture {name!r} takes no n (got n={n})")

    if name == "fig2":
        b = _Builder("prob", seed)
        b.var("r1", 2, CHANCE)
        b.var("r2", 2, CHANCE)
        b.var("d", 2, DECISION)
        b.cpt("r1")
        b.cpt("r2", ["r1"])
        b.util("u_dr1", ["d", "r1"])
        b.util("u_dr2", ["d", "r2"])
        b.util("u_d", ["d"])
        return b.done("/ d / r2 r1")

    if name == "fig3":
        b = _Builder("prob", seed)
        b.var("r1", 2, CHANCE)
        b.var("r2", 2, CHANCE)
        b.var("d1", 2, DECISION)
        b.var("d2", 2, DECISION)
        b.var("d3", 2, DECISION)
        b.cpt("r1")
        b.cpt("r2", ["r1"])
        b.util("u_r1d2", ["r1", "d2"])
        b.util("u_d2d3", ["d2", "d3"])
        b.util("u_r2d1d3", ["r2", "d1", "d3"])
        b.util("u_d1", ["d1"])
        return b.done("/ d1 / r2 / d2 / r1 / d3 /")

    if name in ("chain", "star"):
        if n is None or n < 1:
            raise DiagramError(f"fixture {name!r} needs n >= 1")
        b = _Builder("prob", seed)
        for i in range(1, n + 1):
            b.var(f"x{i}", 2, DECISION)
        b.var("y", 2, CHANCE)
        if name == "chain":
            last = f"x{n + 1}"
            b.var(last, 2, DECISION)
            b.cpt("y")
            b.util("u_x1y", ["x1", "y"])
            for i in range(1, n + 1):
                b.util(f"u_x{i}{last}", [f"x{i}", last])
            segs = " / / ".join(f"x{i}" for i in range(1, n + 1))
            return b.done(f"/ {segs} / y / {last} /")
        b.cpt("y")
        for i in range(1, n + 1):
            b.util(f"u_yx{i}", ["y", f"x{i}"])
        segs = " / / ".join(f"x{i}" for i in range(1, n + 1))
        return b.done(f"/ {segs} / y")

    raise DiagramError(f"unknown fixture {name!r}")


# --------------------------------------------------------------------------
# Random generator

def random_id(vars: int, decisions: int, max_domain: int, max_parents: int,
              mode: str = "prob", seed: int = 0) -> InfluenceDiagram:
    """Seeded random diagram; same arguments and seed give a bit-identical result.

    Variable ids follow temporal order.  Chance parents are drawn among
    earlier variables, so the DAG and perfect recall hold by construction.
    """
    mode_ops(mode)  # validates the mode name
    if vars < 0 or decisions < 0 or decisions > vars or max_parents < 0:
        raise InfeasibleParamsError(
            f"need 0 <= decisions <= vars and max_parents >= 0, got "
            f"vars={vars} decisions={decisions} max_parents={max_parents}")
    if vars > 0 and max_domain < 2:
        raise InfeasibleParamsError(f"need max_domain >= 2, got {max_domain}")

    rng = np.random.default_rng(seed)
    dec_pos = set(int(v) for v in rng.choice(vars, size=decisions, replace=False)) \
        if decisions else set()
    sizes = [int(s) for s in rng.integers(2, max_domain + 1, size=vars)] if vars else []

    b = _Builder(mode, seed)
    b.rng = rng  # continue the same stream for table values
    for i in range(vars):
        kind = DECISION if i in dec_pos else CHANCE
        b.var(("d" if kind == DECISION else "c") + str(i), sizes[i], kind)
    for i in range(vars):
        if i in dec_pos:
            continue
        k = int(rng.integers(0, min(max_parents, i) + 1))
        chosen = sorted(int(p) for p in rng.choice(i, size=k, replace=False))
        b.cpt(b.vars[i].name, [b.vars[p].name for p in chosen])
    if vars > 0:
        for j in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, min(3, vars) + 1))
            scope = sorted(int(v) for v in rng.choice(vars, size=k, replace=False))
            b.util(f"u{j}", [b.vars[v].name for v in scope])

    # Temporal blocks: ids ascending, split at each decision.
    segs: list[str] = []
    acc: list[str] = []
    for i in range(vars):
        if i in dec_pos:
            segs.append(" ".join(acc))
            segs.append(b.vars[i].name)
            acc = []
        else:
            acc.append(b.vars[i].name)
    segs.append(" ".join(acc))
    return b.done(" / ".join(segs))
