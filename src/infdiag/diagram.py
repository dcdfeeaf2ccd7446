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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .factors import Op, ScopedTable

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


class NoForgettingError(ValidationError):
    """A decision's parent set is not exactly the union of earlier blocks."""


class UtilityLeafError(ValidationError):
    """A utility is referenced as if it were a variable, or shadows one."""


class InfeasibleParamsError(DiagramError):
    """The random-generator parameters admit no valid diagram."""


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    size: int
    kind: str  # CHANCE or DECISION


@dataclass(frozen=True)
class ModeOps:
    """Operator selection induced by the quantification mode."""

    chance_marg: Op
    decision_marg: Op
    group_comb: Op  # combines the scoped tables inside one utility group
    outer_comb: Op  # combines the per-utility groups
    unit_interval: bool


def mode_ops(mode: str) -> ModeOps:
    if mode == "prob":
        return ModeOps(Op.SUM, Op.MAX, Op.TIMES, Op.PLUS, False)
    if mode == "poss":
        return ModeOps(Op.MIN, Op.MAX, Op.MAX, Op.MIN, True)
    raise DiagramError(f"unknown mode {mode!r}")


@dataclass(frozen=True, eq=False)
class InfluenceDiagram:
    """Validated decision problem.  Immutable; share freely across threads.

    variables: dense ids 0..n-1 in declaration order.
    parents:   per-variable sorted id tuple (chance: table scope minus self;
               decision: derived from the temporal blocks).
    cpts:      chance id -> table with scope (pa..., x), x varying fastest.
    utilities: named leaf tables; never empty after validation.
    blocks:    2q+1 id tuples I0, D1, ..., Dq, Iq; empties preserved.
    """

    variables: tuple[Variable, ...]
    parents: tuple[tuple[int, ...], ...]
    cpts: dict[int, ScopedTable]
    utilities: tuple[ScopedTable, ...]
    blocks: tuple[tuple[int, ...], ...]
    mode: str

    @property
    def chance_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables if v.kind == CHANCE)

    @property
    def decision_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables if v.kind == DECISION)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.variables)

    @property
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


def _parse_floats(tokens: list[str], expected: int, what: str, line: int) -> np.ndarray:
    vals = []
    for tok in tokens:
        try:
            vals.append(float(tok))
        except ValueError:
            raise FormatError(f"bad numeric value {tok!r}", line) from None
    if len(vals) != expected:
        raise FormatError(f"{what}: expected {expected} values, got {len(vals)}", line)
    return np.asarray(vals, dtype=np.float64)


class _Loc:
    """Line numbers for validation errors; empty for programmatic diagrams."""

    def __init__(self) -> None:
        self.cpt: dict[int, int] = {}
        self.util: dict[int, int] = {}
        self.order: int | None = None


def parse(text: str | bytes) -> InfluenceDiagram:
    """Parse IDNET text into a validated diagram.

    Errors carry the 1-based line number of the offending construct.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    var_ids: dict[str, int] = {}
    variables: list[Variable] = []
    cpts: dict[int, ScopedTable] = {}
    utilities: list[ScopedTable] = []
    util_names: set[str] = set()
    order_segs: list[list[str]] | None = None
    mode: str | None = None
    saw_header = False
    loc = _Loc()

    def resolve(name: str, lineno: int) -> int:
        if name in var_ids:
            return var_ids[name]
        if name in util_names:
            raise UtilityLeafError(
                f"utility {name!r} used as a variable; utilities are leaves", lineno)
        raise FormatError(f"unknown variable {name!r}", lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if not saw_header:
            if tokens != ["IDNET", "1"]:
                raise FormatError("expected header 'IDNET 1'", lineno)
            saw_header = True
            continue
        if mode is None:
            if len(tokens) != 2 or tokens[0] != "MODE" or tokens[1] not in ("prob", "poss"):
                raise FormatError("expected 'MODE prob' or 'MODE poss'", lineno)
            mode = tokens[1]
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
                size = int(size_tok)
            except ValueError:
                raise FormatError(f"bad domain size {size_tok!r}", lineno) from None
            if size < 1:
                raise FormatError(f"domain size must be >= 1, got {size}", lineno)
            if kind_tok not in ("CHANCE", "DECISION"):
                raise FormatError(f"kind must be CHANCE or DECISION, got {kind_tok!r}", lineno)
            var_ids[name] = len(variables)
            variables.append(Variable(len(variables), name, size, kind_tok.lower()))

        elif kw == "PROB":
            if len(tokens) < 4 or tokens[2] != "|" or ":" not in tokens:
                raise FormatError("PROB takes: child | parents... : values...", lineno)
            child = resolve(tokens[1], lineno)
            if variables[child].kind != CHANCE:
                raise FormatError(
                    f"PROB line for decision {tokens[1]!r}; decision parents "
                    "come from the ORDER line", lineno)
            if child in cpts:
                raise FormatError(f"duplicate PROB for {tokens[1]!r}", lineno)
            colon = tokens.index(":")
            scope = tuple(resolve(t, lineno) for t in tokens[3:colon]) + (child,)
            if len(set(scope)) != len(scope):
                raise FormatError("repeated variable in PROB scope", lineno)
            sizes = tuple(variables[v].size for v in scope)
            values = _parse_floats(tokens[colon + 1:], int(np.prod(sizes)),
                                   f"PROB {tokens[1]}", lineno)
            if np.any(values < 0):
                raise NormalizationError(
                    f"negative value in table for {tokens[1]!r}", lineno)
            cpts[child] = ScopedTable(scope, sizes, values, tag="probability",
                                      name=f"P_{tokens[1]}", cpt_for=child)
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
            scope = tuple(resolve(t, lineno) for t in tokens[2:colon])
            if len(set(scope)) != len(scope):
                raise FormatError("repeated variable in UTIL scope", lineno)
            sizes = tuple(variables[v].size for v in scope)
            values = _parse_floats(tokens[colon + 1:], int(np.prod(sizes)),
                                   f"UTIL {name}", lineno)
            loc.util[len(utilities)] = lineno
            utilities.append(ScopedTable(scope, sizes, values, tag="utility", name=name))
            util_names.add(name)

        elif kw == "ORDER":
            if order_segs is not None:
                raise FormatError("duplicate ORDER line", lineno)
            order_segs = _split_segments(tokens[1:])
            loc.order = lineno

        else:
            raise FormatError(f"unknown directive {kw!r}", lineno)

    if not saw_header or mode is None:
        raise FormatError("missing IDNET header", 1)
    if order_segs is None:
        raise FormatError("missing ORDER line")

    oline = loc.order
    if len(order_segs) % 2 == 0:
        raise FormatError(
            f"ORDER needs an odd number of '/'-separated segments, got {len(order_segs)}",
            oline)
    blocks: list[tuple[int, ...]] = []
    for i, seg in enumerate(order_segs):
        ids = tuple(resolve(t, oline) for t in seg)
        if i % 2 == 1 and len(ids) != 1:
            raise FormatError(
                "even ORDER segments must name exactly one decision", oline)
        blocks.append(ids)

    if not utilities:
        utilities.append(_constant_utility(mode, util_names | set(var_ids)))

    d = _assemble(variables, cpts, tuple(utilities), tuple(blocks), mode)
    _validate(d, loc)
    return d


def _constant_utility(mode: str, taken: set[str]) -> ScopedTable:
    # Identity of the outer combination: 0 for sum of utilities, 1 for min.
    value = 1.0 if mode == "poss" else 0.0
    name = "u_const"
    k = 0
    while name in taken:
        k += 1
        name = f"u_const{k}"
    return ScopedTable((), (), np.array([value]), tag="utility", name=name)


def _assemble(variables: Sequence[Variable], cpts: dict[int, ScopedTable],
              utilities: tuple[ScopedTable, ...], blocks: tuple[tuple[int, ...], ...],
              mode: str) -> InfluenceDiagram:
    """Fill in the derived parent sets; no validation."""
    parents: list[tuple[int, ...]] = [() for _ in variables]
    for x, t in cpts.items():
        parents[x] = tuple(sorted(t.scope[:-1]))
    seen: list[int] = []
    for i, block in enumerate(blocks):
        if i % 2 == 1:
            for dvar in block:
                if 0 <= dvar < len(parents):
                    parents[dvar] = tuple(sorted(seen))
        seen.extend(block)
    return InfluenceDiagram(tuple(variables), tuple(parents), dict(cpts),
                            utilities, blocks, mode)


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


def structurally_equal(a: InfluenceDiagram, b: InfluenceDiagram) -> bool:
    """Bit-exact equality of structure and numbers (table identity ignored)."""
    if (a.variables, a.parents, a.blocks, a.mode) != (b.variables, b.parents, b.blocks, b.mode):
        return False
    if set(a.cpts) != set(b.cpts) or len(a.utilities) != len(b.utilities):
        return False
    def same(s: ScopedTable, t: ScopedTable) -> bool:
        return (s.scope == t.scope and s.sizes == t.sizes and s.name == t.name
                and s.cpt_for == t.cpt_for and np.array_equal(s.values, t.values))
    return (all(same(a.cpts[x], b.cpts[x]) for x in a.cpts)
            and all(same(u, w) for u, w in zip(a.utilities, b.utilities)))


# --------------------------------------------------------------------------
# Validation

def validate(d: InfluenceDiagram) -> None:
    """Raise a ValidationError subclass on the first problem found."""
    _validate(d, _Loc())


def _row_label(d: InfluenceDiagram, t: ScopedTable, row: int) -> str:
    pscope = t.scope[:-1]
    if not pscope:
        return "the prior row"
    idx = np.unravel_index(row, t.sizes[:-1])
    return ", ".join(f"{d.variables[p].name}={int(i)}" for p, i in zip(pscope, idx))


def _validate(d: InfluenceDiagram, loc: _Loc) -> None:
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
    names = [v.name for v in d.variables]
    if len(set(names)) != n:
        raise ValidationError("duplicate variable names")
    if len(d.parents) != n:
        raise ValidationError("parents list length mismatch")

    # Temporal blocks: odd count, alternating chance groups / decision singletons,
    # together an exact partition of the variables.
    if len(d.blocks) % 2 == 0:
        raise PartitionError(f"expected 2q+1 blocks, got {len(d.blocks)}", loc.order)
    seen: list[int] = []
    seen_set: set[int] = set()
    for i, block in enumerate(d.blocks):
        for x in block:
            if not (0 <= x < n):
                raise PartitionError(f"block names unknown variable id {x}", loc.order)
            if x in seen_set:
                raise PartitionError(
                    f"{d.variables[x].name!r} appears twice in the ORDER", loc.order)
            want = DECISION if i % 2 else CHANCE
            if d.variables[x].kind != want:
                raise PartitionError(
                    f"{d.variables[x].name!r} is a {d.variables[x].kind}, but "
                    f"segment {i + 1} holds {want} variables", loc.order)
            seen_set.add(x)
        if i % 2 == 1:
            if len(block) != 1:
                raise PartitionError("decision segments hold exactly one decision", loc.order)
            if d.parents[block[0]] != tuple(sorted(seen)):
                raise NoForgettingError(
                    f"pa({d.variables[block[0]].name}) must be exactly the variables "
                    "before it in the ORDER", loc.order)
        seen.extend(block)
    if len(seen_set) != n:
        missing = [v.name for v in d.variables if v.id not in seen_set]
        raise PartitionError(f"ORDER omits {missing}", loc.order)

    for x in d.chance_ids:
        if x not in d.cpts:
            raise ValidationError(f"chance variable {d.variables[x].name!r} has no table")
    for x in d.cpts:
        if d.variables[x].kind != CHANCE:
            raise ValidationError(f"table attached to decision {d.variables[x].name!r}")
        t = d.cpts[x]
        line = loc.cpt.get(x)
        if t.cpt_for != x or not t.scope or t.scope[-1] != x:
            raise ValidationError(
                f"table for {d.variables[x].name!r} must have it last in scope", line)
        if any(not (0 <= v < n) for v in t.scope):
            raise ValidationError(
                f"table for {d.variables[x].name!r} names an unknown variable", line)
        if tuple(sorted(t.scope[:-1])) != d.parents[x]:
            raise ValidationError(
                f"table scope for {d.variables[x].name!r} disagrees with parents", line)
        if t.sizes != tuple(d.variables[v].size for v in t.scope):
            raise ValidationError(f"table sizes for {d.variables[x].name!r} mismatch", line)
        if t.tag != "probability":
            raise ValidationError(f"table for {d.variables[x].name!r} must be probability-tagged")
        if not np.all(np.isfinite(t.values)):
            raise ValidationError(f"non-finite value in table for {d.variables[x].name!r}", line)
        rows = t.values.reshape(-1, d.variables[x].size)
        if d.mode == "prob":
            sums = rows.sum(axis=1)
            bad = np.flatnonzero(np.abs(sums - 1.0) > NORMALIZATION_TOL)
            if bad.size:
                raise NormalizationError(
                    f"rows of P({d.variables[x].name}|...) must sum to 1: got "
                    f"{sums[bad[0]]!r} at {_row_label(d, t, int(bad[0]))}", line)
        else:
            if np.any(t.values > 1.0):
                raise NormalizationError(
                    f"possibility values for {d.variables[x].name!r} must lie in [0,1]", line)
            tops = rows.max(axis=1)
            bad = np.flatnonzero(np.abs(tops - 1.0) > NORMALIZATION_TOL)
            if bad.size:
                raise NormalizationError(
                    f"rows of pi({d.variables[x].name}|...) must reach 1: got "
                    f"{tops[bad[0]]!r} at {_row_label(d, t, int(bad[0]))}", line)

    if not d.utilities:
        raise ValidationError("at least one utility is required")
    seen_names: set[str] = set()
    for j, u in enumerate(d.utilities):
        line = loc.util.get(j)
        if not u.name or not _NAME_RE.match(u.name):
            raise ValidationError(f"utility {j} needs a legal name", line)
        if u.name in names:
            raise UtilityLeafError(
                f"utility {u.name!r} shadows a variable; utilities are leaves", line)
        if u.name in seen_names:
            raise ValidationError(f"duplicate utility name {u.name!r}", line)
        seen_names.add(u.name)
        if u.tag != "utility":
            raise ValidationError(f"utility {u.name!r} must be utility-tagged")
        if any(not (0 <= v < n) for v in u.scope):
            raise ValidationError(f"utility {u.name!r} names an unknown variable", line)
        if u.sizes != tuple(d.variables[v].size for v in u.scope):
            raise ValidationError(f"utility sizes for {u.name!r} mismatch", line)
        if not np.all(np.isfinite(u.values)):
            raise ValidationError(f"non-finite value in utility {u.name!r}", line)
        if d.mode == "poss" and (np.any(u.values < 0) or np.any(u.values > 1)):
            raise NormalizationError(f"utility {u.name!r} must lie in [0,1]", line)

    # Parent-graph acyclicity (iterative DFS; decision parents are temporal,
    # so any cycle necessarily passes through chance tables).
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for root in range(n):
        if color[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, i = stack[-1]
            if i < len(d.parents[node]):
                stack[-1] = (node, i + 1)
                p = d.parents[node][i]
                if not (0 <= p < n):
                    raise ValidationError(f"unknown parent id {p}")
                if p == node:
                    raise CycleError(f"{d.variables[node].name!r} is its own parent")
                if color[p] == 1:
                    raise CycleError(
                        f"cycle through {d.variables[p].name!r} in the variable DAG")
                if color[p] == 0:
                    color[p] = 1
                    stack.append((p, 0))
            else:
                color[node] = 2
                stack.pop()


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

    def cpt(self, child: str, parents: Iterable[str] = ()) -> None:
        x = self.ids[child]
        scope = tuple(self.ids[p] for p in parents) + (x,)
        sizes = tuple(self.vars[v].size for v in scope)
        size = sizes[-1]
        values = _norm_rows(self.rng, int(np.prod(sizes)) // size, size, self.mode)
        self.cpts[x] = ScopedTable(scope, sizes, values, tag="probability",
                                   name=f"P_{child}", cpt_for=x)

    def util(self, name: str, scope_names: Iterable[str]) -> None:
        scope = tuple(self.ids[s] for s in scope_names)
        sizes = tuple(self.vars[v].size for v in scope)
        values = _util_values(self.rng, int(np.prod(sizes)), self.mode)
        self.utils.append(ScopedTable(scope, sizes, values, tag="utility", name=name))

    def done(self, order: str) -> InfluenceDiagram:
        segs = _split_segments(order.split())
        blocks = tuple(tuple(self.ids[t] for t in seg) for seg in segs)
        if not self.utils:
            self.utils.append(_constant_utility(self.mode, set(self.ids)))
        d = _assemble(self.vars, self.cpts, tuple(self.utils), blocks, self.mode)
        _validate(d, _Loc())
        return d


_FIXTURE_RE = re.compile(r"(chain|star)\((\d+)\)\Z")


def fixture(name: str, n: int | None = None, seed: int = 0) -> InfluenceDiagram:
    """Named problem families with deterministic numbers drawn from ``seed``.

    fig2      two correlated chance variables observed after one decision
    fig3      three interleaved decisions over two chance variables
    chain(n)  n free decisions, a chance variable, then a final decision
    star(n)   n free decisions all coupled to one chance variable
    """
    m = _FIXTURE_RE.match(name)
    if m:
        name, n = m.group(1), int(m.group(2))

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
