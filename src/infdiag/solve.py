"""Cluster DAG evaluation, policy extraction, and end-to-end solving.

Messages travel leaves-to-root: each cluster combines its tables with its
sons' messages and eliminates its own variable.  Shared clusters are computed
once.  That single pass gives the value and keeps every message.  Policies
come from a second, root-to-leaves pass that reads those messages rather than
recomputing them: at the cluster that eliminates a decision, choices made
closer to the root are substituted into the combined table before taking the
argmax, so each rule ends up a function of the decision's own observations
only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .clusters import MCDag, assemble, merge_clusters
from .diagram import InfluenceDiagram
from .factors import (
    ChoiceTable,
    InternalError,
    Op,
    OpCounter,
    ResourceGuardError,
    ScopedTable,
    _aligned_view,
    argmax_marginalize,
    combine,
    combine_all,
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


def evaluate(m: MCDag, sizes: Sequence[int] | None = None,
             counter: OpCounter | None = None) -> tuple[float, dict[int, ScopedTable]]:
    """The leaves-to-root pass: the MEU and one message per cluster by id.

    Sons come before parents and each cluster is computed once.
    """
    _check_ops(m)
    messages: dict[int, ScopedTable] = {}
    for c in m.clusters:  # ascending ids are topological
        parts = list(c.psi) + [messages[s] for s in c.sons]
        combined = combine_all(parts, c.ops[1], _ident(c.ops), counter)
        present = [v for v in c.elim if v in combined.scope]
        absent = [v for v in c.elim if v not in combined.scope]
        out = marginalize(combined, present, c.ops[0], counter) if present else combined
        if absent and c.ops[0] is Op.SUM:
            if sizes is None:
                raise InternalError(
                    "domain sizes are needed to sum out a variable no table mentions")
            scale = 1.0
            for v in absent:
                scale *= sizes[v]
            out = combine(out, ScopedTable.scalar(scale), Op.TIMES, counter)
        if c.id in messages:
            raise InternalError("cluster evaluated twice")
        messages[c.id] = out
    root = messages[m.root]
    if root.scope:
        raise InternalError(f"root message kept scope {root.scope}")
    return float(root.values[0]), messages


# --------------------------------------------------------------------------
# Policies

def _substitute(t: ScopedTable, var: int, rule: ScopedTable) -> ScopedTable:
    """Replace `var` in `t` by the choice the rule makes in each context."""
    if var not in t.scope or var in rule.scope:
        raise InternalError("substitution needs the variable free in the table only")
    union = tuple(sorted(set(t.scope) | set(rule.scope)))
    size_of = dict(zip(t.scope, t.sizes)) | dict(zip(rule.scope, rule.sizes))
    shape = tuple(size_of[v] for v in union)
    axis = union.index(var)
    arr = np.broadcast_to(_aligned_view(t, union), shape)
    idx = np.broadcast_to(np.rint(_aligned_view(rule, union)).astype(np.intp),
                          shape[:axis] + (1,) + shape[axis + 1:])
    picked = np.take_along_axis(arr, idx, axis=axis)
    keep = tuple(v for v in union if v != var)
    return ScopedTable(keep, tuple(size_of[v] for v in keep),
                       picked.reshape(-1).copy())


def _rule(d: InfluenceDiagram, x: int, choice: ChoiceTable) -> ScopedTable:
    return ScopedTable(choice.retained_scope, choice.retained_sizes,
                       choice.representative.astype(float),
                       tag="policy", name=f"rule_{d.variables[x].name}")


def policies_from_choices(d: InfluenceDiagram, choices: Mapping[int, ChoiceTable],
                          with_sets: bool = False) -> list[Policy]:
    """One policy per decision, in id order, from each decision's argmax."""
    out = []
    for x in d.decision_ids:
        choice = choices.get(x)
        if choice is None:  # no influence anywhere: every choice is optimal
            size = d.size_of(x)
            choice = ChoiceTable((), (), (x,), (size,), np.zeros(1, dtype=np.intp),
                                 (tuple(range(size)),))
        sets = None
        if with_sets:
            if choice.attaining is None:
                raise InternalError(f"tie sets of decision {x} were not recorded")
            sets = tuple(frozenset(row) for row in choice.attaining)
        out.append(Policy(x, tuple(d.parents[x]), _rule(d, x, choice), sets))
    return out


def extract_policies(m: MCDag, d: InfluenceDiagram, messages: dict[int, ScopedTable],
                     with_sets: bool = False,
                     counter: OpCounter | None = None) -> list[Policy]:
    """The root-to-leaves pass over the messages `evaluate` returned for `m`.

    Consumes `messages`: the dict is cleared before the rules are built, so
    the tables are freed early.
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
        c = m.clusters[cid]
        parts = list(c.psi) + [messages[s] for s in c.sons]
        t = combine_all(parts, c.ops[1], _ident(c.ops), counter)
        pa = set(d.parents[x])
        while True:
            later = sorted(v for v in t.scope
                           if v != x and v in decisions and v not in pa)
            if not later:
                break
            y = later[0]
            if y not in choices:
                raise InternalError(
                    f"decision {y} reached before its own cluster was processed")
            t = _substitute(t, y, _rule(d, y, choices[y]))
        stray = [v for v in t.scope if v != x and v not in pa]
        if stray:
            raise InternalError(
                f"rule for decision {x} would depend on unobserved {stray}")
        if x not in t.scope:
            raise InternalError(f"decision {x} missing from its own cluster table")
        _, choices[x] = argmax_marginalize(t, [x], counter, sets=with_sets)
    messages.clear()  # free the messages before the rules are built
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
                  merge: bool = True, with_sets: bool = False,
                  counter: OpCounter | None = None) -> RunReport:
    start = time.perf_counter()
    store = store_for(d)
    root, trace = macrostructure(store, initial_node(store, d))
    m = assemble(store, root, heuristic=heuristic)
    if merge:
        m = merge_clusters(m)
    meu, messages = evaluate(m, d.sizes, counter)
    return RunReport(
        meu=meu,
        policies=extract_policies(m, d, messages, with_sets, counter),
        engine="mcdag",
        w_mcdag=m.w_mcdag,
        node_count=node_count(store, root),
        cluster_count=len(m.clusters),
        trace_len=len(trace),
        wall_time=time.perf_counter() - start,
    )
