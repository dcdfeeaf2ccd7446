"""Cluster DAG evaluation, policy extraction, and end-to-end solving.

`plan` reads scopes, sizes and observations, before any arithmetic, and lays
out both passes as one `Schedule`.  Its policy steps give, for each
decision, the later decisions whose rules are substituted into its cluster's
combined table before its argmax, so that the rule depends on the decision's
observations only.  A decision with none is chosen: its choice is taken from
the argmax that eliminates it in the message pass (the policy recording of
Jensen, Jensen & Dittmer).  Each message is freed at its last reader.  On
its way `plan` refuses a fold, then a substitution, whose result would span
more than CELL_GUARD cells, and then, as internal errors, a cluster DAG that
the passes could not run.  `evaluate` carries the schedule out, leaves to
root on bare arrays: each cluster folds its tables and its sons' messages
under its combination operator and eliminates its own variable.
`extract_policies` runs the steps root to leaves.  A decision's rule is the
`ChoiceTable` of its argmax, integer value indices from there to the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .clusters import Cluster, MCDag, assemble, merge_clusters
from .diagram import MODES, InfluenceDiagram
# `combine_all` and `marginalize` are unused here but stay imported:
# perfbench/tracing.py wraps them by name on this module.  `plan` reads
# CELL_GUARD through this module's name, so it can be lowered apart from fold's.
from .factors import (  # noqa: F401
    CELL_GUARD,
    ChoiceTable,
    InternalError,
    Op,
    OpCounter,
    ResourceGuardError,
    Part,
    align,
    argmax_marginalize,
    combine_all,
    eliminate,
    fold,
    marginalize,
)
from .nodes import initial_node, reachable, store_for
from .rewrite import macrostructure

ENUM_GUARD = 2 ** 16


@dataclass(frozen=True)
class Policy:
    """Decision rule: chosen value index per context assignment.

    `context` is the full observation set pa(D); `rule` may have a smaller
    scope (the relevant part) and is constant in the dropped variables.
    `rule.values` holds one integer value index per assignment of
    `rule.scope` (row-major, last variable fastest).  `rule.attaining` is
    None unless tie sets were requested; then it is a boolean array with one
    row per such assignment and one column per value of the decision, true
    where that value attains the max.
    """

    var: int
    context: tuple[int, ...]
    rule: ChoiceTable


@dataclass
class RunReport:
    meu: float
    policies: list[Policy]
    w_mcdag: int
    node_count: int
    cluster_count: int
    trace_len: int


# What evaluate keeps of a max-eliminating cluster: its combined part, or
# that part's scope and the choice taken from it.
Kept = tuple[tuple[int, ...], np.ndarray | ChoiceTable]
# A policy pass step: (decision, its cluster's id, later decisions to substitute)
PolicyStep = tuple[int, int, tuple[int, ...]]


@dataclass(frozen=True)
class Schedule:
    """Both passes over one cluster DAG: the policy steps in descending
    cluster id, the ids of the clusters whose choice is taken at
    elimination, and the last cluster that reads each son's message."""

    steps: tuple[PolicyStep, ...]
    chosen: frozenset[int]
    last_reader: dict[int, int]


def plan(m: MCDag, d: InfluenceDiagram) -> Schedule:
    """The schedule of `m`.  Refused first, as too large: a cluster of two or
    more parts whose scope `V`, the union it folds, spans over CELL_GUARD
    cells.  Decision `x`'s table spans its cluster's `V`; while that holds a
    decision that `x` does not observe, the smallest, `y`, goes in: the
    scope becomes its union with `y`'s retained scope (`y`'s own after its
    substitutions), less `y`, and is refused past CELL_GUARD.  The internal
    errors follow, and last those of `_scope_walk`."""
    decisions, sizes = set(d.decision_ids), d.sizes
    cluster_of: dict[int, Cluster] = {}
    mentioned: set[int] = set()
    for c in m.clusters:
        cid, V, psi, sons, elim, ops = c
        if len(psi) + len(sons) > 1:
            cells = math.prod(map(sizes.__getitem__, V))
            if cells > CELL_GUARD:
                raise ResourceGuardError(
                    f"cluster {cid} combines {cells} cells (limit {CELL_GUARD})")
        mentioned |= V & decisions
        if ops[0] is Op.MAX and elim:
            (x,) = elim
            if x not in decisions:
                raise InternalError(f"variable {x} max-eliminated but not a decision")
            if x in cluster_of:
                raise InternalError(f"decision {x} eliminated in two clusters")
            cluster_of[x] = c
    for x in sorted(mentioned - set(cluster_of)):
        raise InternalError(f"decision {x} appears but is never max-eliminated")

    retained: dict[int, set[int]] = {}
    steps = []
    for x, c in sorted(cluster_of.items(), key=lambda kv: -kv[1].id):
        pa = d.parents[x]
        scope = set(c.V)
        later = []
        while ys := [v for v in scope if v != x and v in decisions and v not in pa]:
            y = min(ys)
            if y not in retained:
                raise InternalError(
                    f"decision {y} reached before its own cluster was processed")
            scope |= retained[y]
            scope.discard(y)
            cells = math.prod(map(sizes.__getitem__, scope))
            if cells > CELL_GUARD:
                raise ResourceGuardError(
                    f"substituting decision {y} spans {cells} cells (limit {CELL_GUARD})")
            later.append(y)
        stray = sorted(v for v in scope if v != x and v not in pa)
        if stray:
            raise InternalError(
                f"rule for decision {x} would depend on unobserved {stray}")
        retained[x] = scope - {x}
        steps.append((x, c.id, tuple(later)))
    return _scope_walk(m, steps)


def _scope_walk(m: MCDag, steps: Sequence[PolicyStep]) -> Schedule:
    """The schedule of `steps` over `m`, read from `m` alone, once it has
    refused what the message pass could not run.  A son's message spans the
    son's `V` less its `elim`, as each cluster's parts span its `V`."""
    pairs = {c.ops for c in m.clusters}
    if not any(pairs.issubset(ops.pairs.values()) for ops in MODES.values()):
        raise InternalError(f"operator pairs {sorted(map(str, pairs))} mix modes")
    seen: dict[int, Cluster] = {}
    last_reader: dict[int, int] = {}
    for c in m.clusters:  # ascending ids are topological
        cid, _, psi, sons, elim, _ = c
        if cid in seen:
            raise InternalError("cluster evaluated twice")
        for s in sons:
            if s not in seen:
                raise InternalError(f"cluster {cid} reads son {s} before it is evaluated")
            last_reader[s] = cid
        missing = []
        for v in elim:  # loops: with `any` and generators the walk took 2.7x as long
            for t in psi:
                if v in t.scope:
                    break
            else:
                for s in sons:
                    if v in seen[s].V and v not in seen[s].elim:
                        break
                else:
                    missing.append(v)
        if missing:
            raise InternalError(f"cluster {cid} eliminates {missing}, "
                                "which none of its parts holds")
        seen[cid] = c
    if scope := tuple(sorted(seen[m.root].V.difference(seen[m.root].elim))):
        raise InternalError(f"root message kept scope {scope}")
    return Schedule(tuple(steps), frozenset(cid for _, cid, later in steps if not later),
                    last_reader)


def evaluate(m: MCDag, counter: OpCounter | None = None,
             plan: Schedule | None = None,
             with_sets: bool = False) -> tuple[float, dict[int, Kept]]:
    """The message pass that `plan` laid out for `m`: the MEU and, by cluster
    id, `(scope, ChoiceTable)` for each chosen cluster (with tie sets when
    `with_sets`) and the combined part of every other max-eliminating one.
    With no schedule the same scope walk checks `m`, with no steps to choose."""
    schedule = _scope_walk(m, ()) if plan is None else plan
    counter = counter or OpCounter()
    chosen, last_reader = schedule.chosen, schedule.last_reader
    messages: dict[int, Part] = {}
    kept: dict[int, Kept] = {}
    # Records are unpacked once: a NamedTuple field read costs a descriptor call.
    for cid, _, psi, sons, elim, (marg, comb) in m.clusters:
        parts = [(t.scope, t.array) for t in psi] + [messages[s] for s in sons]
        for s in sons:
            if last_reader[s] == cid:
                messages.pop(s, None)  # a merged cluster may list a son twice
        out = fold(parts, comb, counter)
        if elim:
            if cid in chosen:
                scope = out[0]
                out, choice = argmax_marginalize(out, elim[0], counter, sets=with_sets)
                kept[cid] = scope, choice
            else:
                if marg is Op.MAX:
                    kept[cid] = out
                out = eliminate(out, elim, marg, counter)
        messages[cid] = out
        del parts, out  # free this cluster's arrays before the next fold
    return float(messages[m.root][1]), kept


# --------------------------------------------------------------------------
# Policies

def _substitute(scope: tuple[int, ...], arr: np.ndarray, var: int,
                rule_scope: tuple[int, ...], rule: np.ndarray) -> Part:
    """Replace `var` in the part by the value index the rule (an integer
    array over `rule_scope`) picks in each context.  The result spans the
    union of the scopes less `var`, a size `plan` has bounded."""
    if var not in scope or var in rule_scope:
        raise InternalError("substitution needs the variable free in the table only")
    union = tuple(sorted(set(scope) | set(rule_scope)))
    axis = union.index(var)
    out = union[:axis] + union[axis + 1:]
    full = align(arr, scope, union)
    # One index array per axis, broadcast over the output's: an arange on
    # every axis but `var`'s, which takes the rule.  Size-1 axes on either
    # side broadcast against the other's full axes.
    last = len(out) - 1
    index = [np.arange(n).reshape((n,) + (1,) * (last - k))
             for k, n in enumerate(full.shape[:axis] + full.shape[axis + 1:])]
    index.insert(axis, align(rule, rule_scope, out))
    return out, np.asarray(full[tuple(index)])


def policies_from_choices(d: InfluenceDiagram, choices: Mapping[int, ChoiceTable],
                          with_sets: bool = False) -> list[Policy]:
    """One policy per decision, in id order, each decision's argmax as its
    rule.  The choices must hold tie sets exactly when `with_sets` asks for
    them."""
    out = []
    for x in d.decision_ids:
        choice = choices.get(x)
        if choice is None:  # no influence anywhere: every choice is optimal
            attaining = None
            if with_sets:
                size = d.size_of(x)
                if size > CELL_GUARD:
                    raise ResourceGuardError(f"the tie set of decision {d.names[x]} "
                                             f"spans {size} cells (limit {CELL_GUARD})")
                attaining = np.ones((1, size), dtype=bool)
            choice = ChoiceTable((), (), np.zeros(1, dtype=np.intp), attaining)
        if (choice.attaining is not None) != with_sets:
            raise InternalError(f"tie sets of decision {x} were " + (
                "not recorded" if with_sets else "recorded but not asked for"))
        out.append(Policy(x, tuple(d.parents[x]), choice))
    return out


def extract_policies(d: InfluenceDiagram, schedule: Schedule,
                     kept: dict[int, Kept], with_sets: bool = False,
                     counter: OpCounter | None = None) -> list[Policy]:
    """The root-to-leaves pass: the schedule's steps over what `evaluate`
    kept with it.  A chosen cluster's choice is used as it is; every other
    kept table gets its step's later rules substituted, then its argmax.
    Consumes `kept`: the dict is empty before the rules are built."""
    choices: dict[int, ChoiceTable] = {}
    for x, cid, later in schedule.steps:
        scope, arr = kept.pop(cid)
        if later:
            for y in later:
                ch = choices[y]
                scope, arr = _substitute(scope, arr, y, ch.scope,
                                         ch.values.reshape(ch.sizes))
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
            rule = by_var[x].rule
            val = int(rule.values.reshape(rule.sizes)[tuple(env[v] for v in rule.scope)])
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
    """Solve `d`: its MEU and policies, with the sizes of what compiled it.

    The node store and the rewrite trace live through the compile layers
    only.  The report's node count and trace length are read once the
    cluster DAG is merged, and both are released before `plan`: the plan
    and the two passes read the cluster DAG and the diagram alone.
    """
    store = store_for(d)
    root, trace = macrostructure(store, initial_node(store, d))
    m = merge_clusters(assemble(store, root, heuristic=heuristic))
    nodes, trace_len = len(reachable(store, root)), len(trace)
    del store, trace
    schedule = plan(m, d)
    meu, kept = evaluate(m, counter, schedule, with_sets)
    return RunReport(
        meu=meu,
        policies=extract_policies(d, schedule, kept, with_sets, counter),
        w_mcdag=m.w_mcdag,
        node_count=nodes,
        cluster_count=len(m.clusters),
        trace_len=trace_len,
    )
