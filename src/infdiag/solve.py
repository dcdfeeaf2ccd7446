"""Cluster DAG evaluation, policy extraction, and end-to-end solving.

Messages travel leaves-to-root: each cluster folds its tables and its sons'
messages under its combination operator and eliminates its own variable.
The pass runs on bare arrays, shared clusters are computed once, and each
message is dropped once its last parent has read it.  What the pass keeps is
the value and, for every cluster that max-eliminates a decision, the combined
table before that elimination.  Policies come from a second, root-to-leaves
pass over those decision tables: choices made closer to the root are
substituted into a decision's table before taking the argmax, so each rule
ends up a function of the decision's own observations only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .clusters import MCDag, assemble, merge_clusters
from .diagram import InfluenceDiagram
# `combine_all` and `marginalize` are unused here but stay imported:
# perfbench/tracing.py wraps them by name on this module.
from .factors import (  # noqa: F401
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


def evaluate(m: MCDag, sizes: Sequence[int],
             counter: OpCounter | None = None) -> tuple[float, dict[int, Part]]:
    """The leaves-to-root pass: the MEU and, by cluster id, the combined
    part of every cluster that max-eliminates a variable.

    Sons come before parents and each cluster is computed once.  A message
    is freed once the last cluster that reads it has read it.
    """
    _check_ops(m)
    counter = counter or OpCounter()
    last_reader = {s: c.id for c in m.clusters for s in c.sons}
    messages: dict[int, Part] = {}
    tables: dict[int, Part] = {}
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
        scope, arr = fold(parts, comb, _ident(c.ops), counter)
        if marg is Op.MAX and c.elim:
            tables[c.id] = scope, arr
        present = [v for v in c.elim if v in scope]
        absent = [v for v in c.elim if v not in scope]
        out = eliminate((scope, arr), present, marg, counter) if present else (scope, arr)
        if absent and marg is Op.SUM:
            scale = 1.0
            for v in absent:
                scale *= sizes[v]
            out = fold([out, ((), np.full((), scale))], Op.TIMES, 1.0, counter)
        messages[c.id] = out
        del parts, arr, out  # free this cluster's arrays before the next fold
    scope, arr = messages[m.root]
    if scope:
        raise InternalError(f"root message kept scope {scope}")
    return float(arr), tables


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


def extract_policies(m: MCDag, d: InfluenceDiagram, tables: dict[int, Part],
                     with_sets: bool = False,
                     counter: OpCounter | None = None) -> list[Policy]:
    """The root-to-leaves pass over the decision parts `evaluate` returned
    for `m`.

    Consumes `tables`: each is popped when its decision is processed, so the
    dict is empty before the rules are built.
    """
    decisions = set(d.decision_ids)
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
        scope, arr = tables.pop(cid)
        pa = set(d.parents[x])
        while True:
            later = sorted(v for v in scope
                           if v != x and v in decisions and v not in pa)
            if not later:
                break
            y = later[0]
            if y not in choices:
                raise InternalError(
                    f"decision {y} reached before its own cluster was processed")
            ch = choices[y]
            scope, arr = _substitute(scope, arr, y, ch.retained_scope,
                                     ch.representative.reshape(ch.retained_sizes))
        stray = [v for v in scope if v != x and v not in pa]
        if stray:
            raise InternalError(
                f"rule for decision {x} would depend on unobserved {stray}")
        if x not in scope:
            raise InternalError(f"decision {x} missing from its own cluster table")
        _, choices[x] = argmax_marginalize((scope, arr), x, counter, sets=with_sets)
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

def solve_diagram(d: InfluenceDiagram, heuristic: str = "min-fill",
                  with_sets: bool = False,
                  counter: OpCounter | None = None) -> RunReport:
    start = time.perf_counter()
    store = store_for(d)
    root, trace = macrostructure(store, initial_node(store, d))
    m = merge_clusters(assemble(store, root, heuristic=heuristic))
    meu, tables = evaluate(m, d.sizes, counter)
    return RunReport(
        meu=meu,
        policies=extract_policies(m, d, tables, with_sets, counter),
        engine="mcdag",
        w_mcdag=m.w_mcdag,
        node_count=node_count(store, root),
        cluster_count=len(m.clusters),
        trace_len=len(trace),
        wall_time=time.perf_counter() - start,
    )
