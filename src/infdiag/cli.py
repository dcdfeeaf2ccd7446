"""Command line front end.

Subcommands: solve (three engines), width (cluster vs constrained), compile
(DOT emission of the node DAG or the cluster DAG), check (cross-engine
verdict), gen (fixtures and seeded random instances).  Exit codes: 0 ok,
1 input error, 2 resource guard, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from . import baseline, clusters, nodes, solve
from .diagram import DiagramError, InfluenceDiagram, fixture, parse, random_id, serialize
from .factors import ChoiceTable, FactorError, InternalError, ResourceGuardError
from .rewrite import macrostructure

HEURISTICS = ("min-fill", "min-degree", "exhaustive")


def _load(path: str) -> InfluenceDiagram:
    return parse(Path(path).read_text())


def _policy_json(d: InfluenceDiagram, p: solve.Policy) -> dict:
    rule = [int(round(float(v))) for v in np.asarray(p.rule.values).ravel()]
    out = {
        "var": d.names[p.var],
        "context": [d.names[v] for v in p.context],
        "relevant": [d.names[v] for v in p.rule.scope],
        "rule": rule,
    }
    if p.choice_sets is not None:
        out["choices"] = [sorted(s) for s in p.choice_sets]
    return out


def _print_policies(d: InfluenceDiagram, policies: Sequence[solve.Policy]) -> None:
    for p in policies:
        name = d.names[p.var]
        if not p.rule.scope:
            print(f"policy {name} = {int(round(float(p.rule.values[0])))}")
            continue
        for assign in product(*(range(s) for s in p.rule.sizes)):
            ctx = ", ".join(f"{d.names[v]}={a}" for v, a in zip(p.rule.scope, assign))
            chosen = int(round(p.rule.lookup(dict(zip(p.rule.scope, assign)))))
            print(f"policy {name}({ctx}) = {chosen}")


def _brute_policies(d: InfluenceDiagram,
                    notes: dict[int, dict[tuple[int, ...], frozenset[int]]],
                    with_sets: bool) -> list[solve.Policy]:
    """Policies over the full observed context, from brute force's tie notes."""
    choices: dict[int, ChoiceTable] = {}
    for x, table in notes.items():
        pa = tuple(d.parents[x])
        sizes = tuple(d.size_of(v) for v in pa)
        rows = [tuple(sorted(table[ctx])) for ctx in product(*(range(s) for s in sizes))]
        choices[x] = ChoiceTable(pa, sizes, (x,), (d.size_of(x),),
                                 np.array([row[0] for row in rows]), tuple(rows))
    return solve.policies_from_choices(d, choices, with_sets)


def cmd_solve(args: argparse.Namespace) -> int:
    d = _load(args.file)
    report: dict = {"schema": 1, "engine": args.engine, "file": args.file}
    start = time.perf_counter()
    if args.engine == "mcdag":
        run = solve.solve_diagram(d, heuristic=args.heuristic,
                                  merge=not args.no_merge, with_sets=args.sets)
        policies = run.policies
        report.update(meu=run.meu, w_mcdag=run.w_mcdag, w_potential=None,
                      node_count=run.node_count, cluster_count=run.cluster_count,
                      trace_len=run.trace_len)
    elif args.engine == "potential":
        value, policies, width = baseline.potential_ve(
            d, heuristic=args.heuristic, with_sets=args.sets)
        report.update(meu=value, w_mcdag=None, w_potential=width,
                      node_count=None, cluster_count=None, trace_len=None)
    else:
        value, notes = baseline.brute_force(d)
        policies = _brute_policies(d, notes, args.sets)
        report.update(meu=value, w_mcdag=None, w_potential=None,
                      node_count=None, cluster_count=None, trace_len=None)
    report["wall_time"] = time.perf_counter() - start
    report["policies"] = [_policy_json(d, p) for p in policies]
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"MEU {report['meu']!r}")
    _print_policies(d, policies)
    return 0


def cmd_width(args: argparse.Namespace) -> int:
    d = _load(args.file)
    store = nodes.store_for(d)
    root, _ = macrostructure(store, nodes.initial_node(store, d))
    w_mcdag = clusters.assemble(store, root, heuristic=args.heuristic).w_mcdag
    w_pot = baseline.constrained_width(d, "heuristic")
    report = {"schema": 1, "file": args.file,
              "w_mcdag": {args.heuristic: w_mcdag},
              "w_constrained": {"heuristic": w_pot}}
    if args.exact:
        exact_m = clusters.assemble(store, root, heuristic="exhaustive").w_mcdag
        exact_p = baseline.constrained_width(d, "exhaustive")
        if exact_m > exact_p:
            raise InternalError(
                f"cluster width {exact_m} exceeds the constrained width {exact_p}")
        report["w_mcdag"]["exact"] = exact_m
        report["w_constrained"]["exact"] = exact_p
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"w_mcdag ({args.heuristic}) {w_mcdag}")
    print(f"w_constrained (heuristic) {w_pot}")
    if args.exact:
        print(f"w_mcdag (exact) {report['w_mcdag']['exact']}")
        print(f"w_constrained (exact) {report['w_constrained']['exact']}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    d = _load(args.file)
    store = nodes.store_for(d)
    root, _ = macrostructure(store, nodes.initial_node(store, d))
    if args.stage == "nodes":
        dot = nodes.to_dot(store, root)
    else:
        m = clusters.assemble(store, root, heuristic=args.heuristic)
        if not args.no_merge:
            m = clusters.merge_clusters(m)
        dot = clusters.to_dot(m, store.names)
    if args.dot:
        Path(args.dot).write_text(dot)
    else:
        sys.stdout.write(dot)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    d = _load(args.file)
    tol = args.tol

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    run = solve.solve_diagram(d, heuristic=args.heuristic)
    brute, _ = baseline.brute_force(d)
    results = [("mcdag", run.meu), ("brute", brute)]
    results.append(("policy(mcdag)", solve.evaluate_policy(d, run.policies)))
    if d.mode == "prob":
        value, policies, _ = baseline.potential_ve(d)
        results.append(("potential", value))
        results.append(("policy(potential)", solve.evaluate_policy(d, policies)))
    else:
        print("potential: skipped (poss mode)")
    ok = True
    for name, value in results:
        verdict = "" if close(value, brute) else "  <- differs from brute"
        ok = ok and not verdict
        print(f"{name}: {value!r}{verdict}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def cmd_gen(args: argparse.Namespace) -> int:
    if args.fixture:
        if args.mode == "poss":
            raise DiagramError("fixtures are prob-mode; drop --mode poss")
        d = fixture(args.fixture, n=args.n, seed=args.seed)
    else:
        if args.vars is None:
            raise DiagramError("gen needs --fixture NAME or --vars N")
        d = random_id(args.vars, args.decisions, args.max_domain,
                      args.max_parents, mode=args.mode, seed=args.seed)
    text = serialize(d)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infdiag",
        description="Exact influence diagram solving over multi-operator cluster DAGs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--heuristic", choices=HEURISTICS, default="min-fill")

    p = sub.add_parser("solve", help="compute the optimal value and policies")
    p.add_argument("file")
    p.add_argument("--engine", choices=("mcdag", "potential", "brute"),
                   default="mcdag")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-merge", action="store_true",
                   help="skip unifying identical clusters")
    p.add_argument("--sets", action="store_true",
                   help="report full argmax sets, not just representatives")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("width", help="compare cluster and constrained widths")
    p.add_argument("file")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("compile", help="emit DOT for an intermediate stage")
    p.add_argument("file")
    p.add_argument("--stage", choices=("nodes", "mcdag"), default="nodes")
    p.add_argument("--dot", metavar="PATH", help="write to a file instead of stdout")
    p.add_argument("--no-merge", action="store_true")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="cross-check all engines on one file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="write a fixture or seeded random instance")
    p.add_argument("--fixture", metavar="NAME",
                   help="fig2, fig3, chain or star (with --n or an inline size)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--vars", type=int, default=None)
    p.add_argument("--decisions", type=int, default=1)
    p.add_argument("--max-domain", type=int, default=3)
    p.add_argument("--max-parents", type=int, default=2)
    p.add_argument("--mode", choices=("prob", "poss"), default="prob")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except ResourceGuardError as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return 2
    except (DiagramError, FactorError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
