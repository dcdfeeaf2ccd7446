"""Cluster DAG evaluation, policy extraction, and end-to-end solving.

Messages travel leaves-to-root: each cluster folds its tables and its sons'
messages under its combination operator and eliminates its own variable.
The pass runs on bare arrays, shared clusters are computed once, and each
message is dropped once its last parent has read it.  What the pass keeps is
the value and, for every cluster that max-eliminates a decision, one of two
things.  When the cluster's scope holds no other decision that the decision
does not observe, its choice is taken by the argmax that eliminates it (the
policy recording of Jensen, Jensen & Dittmer), and only that choice is kept.
Otherwise the combined table before the elimination is kept.  Policies come
from a second, root-to-leaves pass: choices made closer to the root are
substituted into each kept table before taking its argmax, so each rule ends
up a function of the decision's own observations only.  Every decision,
chosen early or not, goes through the same checks there.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clusters import MCDag, assemble, merge_clusters
from .diagram import InfluenceDiagram
# `combine_all` and `marginalize` are unused here but stay imported:
# perfbench/tracing.py wraps them by name on this module.  `check_cells`
# reads CELL_GUARD through this module's name, so it can be lowered apart
# from `fold`'s.
from .factors import (  # noqa: F401
    CELL_GUARD,
    ChoiceTable,
    InternalError,
    Op,
    OpCounter,
    ResourceGuardError,
    Part,
    ScopedTable,
    align,
    argmax_marginalize,
    combine_all,
    eliminate,
    fold,
    identity,
    marginalize,
)
from .nodes import initial_node, node_count, store_for
from .rewrite import macrostructure

PROB_OPS = ((Op.SUM, Op.TIMES), (Op.MAX, Op.PLUS))
POSS_OPS = ((Op.MIN, Op.MAX), (Op.MAX, Op.MIN))

ENUM_GUARD = 2 ** 16


@dataclass(frozen=True)
class Policy:
    """Decision rule: chosen value index per context assignment.

    `context` is the full observation set pa(D); `rule` may have a smaller
    scope (the relevant part) and is constant in the dropped variables, so
    `rule.lookup` accepts any assignment covering `rule.scope`.  When tie
    sets were requested, `choice_sets` holds one frozenset per assignment of
    `rule.scope` (row-major, last variable fastest).
    """

    var: int
    context: tuple[int, ...]
    rule: ScopedTable
    choice_sets: tuple[frozenset[int], ...] | None = None

    def choices_for(self, assignment: Mapping[int, int]) -> frozenset[int]:
        if self.choice_sets is None:
            return frozenset({int(self.rule.lookup(assignment))})
        idx = 0
        for var, size in zip(self.rule.scope, self.rule.sizes):
            idx = idx * size + assignment[var]
        return self.choice_sets[idx]


@dataclass
class RunReport:
    meu: float
    policies: list[Policy]
    engine: str
    w_mcdag: int
    node_count: int
    cluster_count: int
    trace_len: int
    wall_time: float


def _check_ops(m: MCDag) -> None:
    pairs = {c.ops for c in m.clusters}
    if not (pairs <= set(PROB_OPS) or pairs <= set(POSS_OPS)):
        raise InternalError(f"operator pairs {sorted(map(str, pairs))} mix modes")


def _ident(ops: tuple[Op, Op]) -> float:
    return identity(ops[1], unit_interval=ops in POSS_OPS)


# What evaluate keeps of a max-eliminating cluster: its combined part, or
# that part's scope and the choice taken from it.
Kept = tuple[tuple[int, ...], np.ndarray | ChoiceTable]


def _later(scope: Iterable[int], x: int, observed: Mapping[int, Sequence[int]]
           ) -> list[int]:
    """The decisions in `scope` other than `x` that `x` does not observe,
    ascending: each is chosen closer to the root, and its rule must be
    substituted into `x`'s table before `x`'s argmax.  `observed` maps each
    decision to its parents."""
    pa = observed[x]
    return sorted(v for v in scope if v != x and v in observed and v not in pa)


def evaluate(m: MCDag, counter: OpCounter | None = None,
             observed: Mapping[int, Sequence[int]] | None = None,
             with_sets: bool = False) -> tuple[float, dict[int, Kept]]:
    """The leaves-to-root pass: the MEU and, by cluster id, what the policy
    pass needs from every cluster that max-eliminates a variable.

    That is the combined part before the elimination, unless `observed`
    (each decision's parents) shows that the eliminated decision needs no
    later decision substituted (`_later` is empty on the cluster's scope).
    Its choice is then taken here, by the same argmax that eliminates it,
    with tie sets when `with_sets`, and kept as `(scope, ChoiceTable)`.

    Sons come before parents and each cluster is computed once.  A message
    is freed once the last cluster that reads it has read it.  A cluster's
    tables and son messages span its whole scope `V`, its own variable
    included: bucket elimination sends every item that holds a variable to
    that variable's bucket or to an earlier one, whose message carries it on.
    """
    _check_ops(m)
    counter = counter or OpCounter()
    observed = observed or {}
    last_reader = {s: c.id for c in m.clusters for s in c.sons}
    messages: dict[int, Part] = {}
    kept: dict[int, Kept] = {}
    done: set[int] = set()
    for c in m.clusters:  # ascending ids are topological
        if c.id in done:
            raise InternalError("cluster evaluated twice")
        done.add(c.id)
        marg, comb = c.ops
        parts = [(t.scope, t.array) for t in c.psi] + [messages[s] for s in c.sons]
        for s in c.sons:
            if last_reader[s] == c.id:
                messages.pop(s, None)  # a merged cluster may list a son twice
        out = fold(parts, comb, _ident(c.ops), counter)
        if c.elim:
            missing = [v for v in c.elim if v not in out[0]]
            if missing:
                raise InternalError(f"cluster {c.id} eliminates {missing}, "
                                    "which none of its parts holds")
            x = c.elim[0]
            if marg is Op.MAX and c.elim == (x,) and x in observed \
                    and not _later(out[0], x, observed):
                scope = out[0]
                out, choice = argmax_marginalize(out, x, counter, sets=with_sets)
                kept[c.id] = scope, choice
            else:
                if marg is Op.MAX:
                    kept[c.id] = out
                out = eliminate(out, c.elim, marg, counter)
        messages[c.id] = out
        del parts, out  # free this cluster's arrays before the next fold
    scope, arr = messages[m.root]
    if scope:
        raise InternalError(f"root message kept scope {scope}")
    return float(arr), kept


# --------------------------------------------------------------------------
# Policies

def _substitute(scope: tuple[int, ...], arr: np.ndarray, var: int,
                rule_scope: tuple[int, ...], rule: np.ndarray) -> Part:
    """Replace `var` in the part by the value index the rule (an integer
    array over `rule_scope`) picks in each context."""
    if var not in scope or var in rule_scope:
        raise InternalError("substitution needs the variable free in the table only")
    union = tuple(sorted(set(scope) | set(rule_scope)))
    axis = union.index(var)
    # size-1 axes on either side broadcast against the other's full axes
    picked = np.take_along_axis(align(arr, scope, union), align(rule, rule_scope, union),
                                axis=axis)
    return union[:axis] + union[axis + 1:], picked.squeeze(axis)


def _rule(d: InfluenceDiagram, x: int, choice: ChoiceTable) -> ScopedTable:
    return ScopedTable(choice.retained_scope, choice.retained_sizes,
                       choice.representative.astype(float),
                       name=f"rule_{d.variables[x].name}")


def policies_from_choices(d: InfluenceDiagram, choices: Mapping[int, ChoiceTable],
                          with_sets: bool = False) -> list[Policy]:
    """One policy per decision, in id order, from each decision's argmax."""
    out = []
    for x in d.decision_ids:
        choice = choices.get(x)
        if choice is None:  # no influence anywhere: every choice is optimal
            size = d.size_of(x)
            choice = ChoiceTable((), (), np.zeros(1, dtype=np.intp), (tuple(range(size)),))
        sets = None
        if with_sets:
            if choice.attaining is None:
                raise InternalError(f"tie sets of decision {x} were not recorded")
            sets = tuple(frozenset(row) for row in choice.attaining)
        out.append(Policy(x, tuple(d.parents[x]), _rule(d, x, choice), sets))
    return out


def extract_policies(m: MCDag, d: InfluenceDiagram, kept: dict[int, Kept],
                     with_sets: bool = False,
                     counter: OpCounter | None = None) -> list[Policy]:
    """The root-to-leaves pass over what `evaluate` kept for `m`.

    A decision whose choice `evaluate` took is checked like the others and
    its choice used as it is; the rest get the rules of later decisions
    substituted, then their argmax.  Consumes `kept`: each entry is popped
    when its decision is processed, so the dict is empty before the rules
    are built.
    """
    decisions = set(d.decision_ids)
    observed = decision_parents(d)
    cluster_of: dict[int, int] = {}
    mentioned: set[int] = set()
    for c in m.clusters:
        mentioned |= c.V & decisions
        if c.ops[0] is Op.MAX and c.elim:
            (x,) = c.elim
            if x not in decisions:
                raise InternalError(f"variable {x} max-eliminated but not a decision")
            if x in cluster_of:
                raise InternalError(f"decision {x} eliminated in two clusters")
            cluster_of[x] = c.id
    for x in sorted(mentioned - set(cluster_of)):
        raise InternalError(f"decision {x} appears but is never max-eliminated")

    choices: dict[int, ChoiceTable] = {}
    for x, cid in sorted(cluster_of.items(), key=lambda kv: -kv[1]):
        scope, arr = kept.pop(cid)
        chosen = isinstance(arr, ChoiceTable)
        while not chosen and (later := _later(scope, x, observed)):
            y = later[0]
            if y not in choices:
                raise InternalError(
                    f"decision {y} reached before its own cluster was processed")
            ch = choices[y]
            scope, arr = _substitute(scope, arr, y, ch.retained_scope,
                                     ch.representative.reshape(ch.retained_sizes))
        stray = [v for v in scope if v != x and v not in observed[x]]
        if stray:
            raise InternalError(
                f"rule for decision {x} would depend on unobserved {stray}")
        if x not in scope:
            raise InternalError(f"decision {x} missing from its own cluster table")
        if not chosen:
            _, arr = argmax_marginalize((scope, arr), x, counter, sets=with_sets)
        choices[x] = arr
    return policies_from_choices(d, choices, with_sets)


def evaluate_policy(d: InfluenceDiagram, policies: Sequence[Policy]) -> float:
    """Value of fixed rules by direct enumeration, independent of the engine."""
    by_var = {p.var: p for p in policies}
    missing = [x for x in d.decision_ids if x not in by_var]
    if missing:
        raise InternalError(f"no policy for decisions {missing}")
    chance = d.chance_ids
    total = 1
    for v in chance:
        total *= d.size_of(v)
    if total > ENUM_GUARD:
        raise ResourceGuardError(
            f"policy evaluation enumerates {total} assignments (limit {ENUM_GUARD})")
    poss = d.mode == "poss"
    acc: float | None = None
    for assign in product(*(range(d.size_of(v)) for v in chance)):
        env = dict(zip(chance, assign))
        for x in d.temporal_decisions():
            val = int(round(by_var[x].rule.lookup(env)))
            if not 0 <= val < d.size_of(x):
                raise InternalError(f"rule for {d.names[x]} chose {val}")
            env[x] = val
        value = d.assignment_value(env)
        if acc is None:
            acc = value
        else:
            acc = min(acc, value) if poss else acc + value
    return 0.0 if acc is None else acc


# --------------------------------------------------------------------------
# End to end

def check_cells(m: MCDag, sizes: Sequence[int]) -> None:
    """Refuse, before any arithmetic, a cluster whose fold would combine more
    than CELL_GUARD cells.  `fold` combines only a cluster of two or more
    parts, and their union is the cluster's scope `V`."""
    for c in m.clusters:
        if len(c.psi) + len(c.sons) > 1:
            cells = math.prod(map(sizes.__getitem__, c.V))
            if cells > CELL_GUARD:
                raise ResourceGuardError(
                    f"cluster {c.id} combines {cells} cells (limit {CELL_GUARD})")


def decision_parents(d: InfluenceDiagram) -> dict[int, tuple[int, ...]]:
    """Each decision's observed parents, by decision id, as the tuples
    `d.parents` already holds.  A decision observes every variable of an
    earlier block, so on a long chain one set per decision would take several
    times their memory (0.56 against 0.07 MB on chain(128))."""
    return {x: d.parents[x] for x in d.decision_ids}


def solve_diagram(d: InfluenceDiagram, heuristic: str = "min-fill",
                  with_sets: bool = False,
                  counter: OpCounter | None = None) -> RunReport:
    start = time.perf_counter()
    store = store_for(d)
    root, trace = macrostructure(store, initial_node(store, d))
    m = merge_clusters(assemble(store, root, heuristic=heuristic))
    check_cells(m, store.sizes)
    meu, kept = evaluate(m, counter, decision_parents(d), with_sets)
    return RunReport(
        meu=meu,
        policies=extract_policies(m, d, kept, with_sets, counter),
        engine="mcdag",
        w_mcdag=m.w_mcdag,
        node_count=node_count(store, root),
        cluster_count=len(m.clusters),
        trace_len=len(trace),
        wall_time=time.perf_counter() - start,
    )
