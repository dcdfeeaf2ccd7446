"""Acceptance run: the structural worked examples, the width separations,
soundness and oracle sweeps, operation counts, size and scaling bounds, the
possibilistic instantiation, and the semiring axioms.  Each criterion prints
one ``ACCEPTANCE nn name: PASS`` line (FAIL plus the assertion otherwise)
and enforces its own wall-clock budget.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from infdiag import baseline, clusters, solve
from infdiag.diagram import MODES, fixture, random_id, sov0
from infdiag.factors import Op, OpCounter
from infdiag.nodes import initial_node, reachable, store_for
from infdiag.rewrite import macrostructure

from harness import check_trace
from oracles import check_semiring_axioms, oracle_value


@contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s)")


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def additions(counter: OpCounter) -> int:
    return counter.by_kind.get("sum", 0) + counter.by_kind.get("plus", 0)


def mcdag_width_exact(d) -> int:
    store = store_for(d)
    root, _ = macrostructure(store, initial_node(store, d))
    return clusters.assemble(store, root, heuristic="exhaustive").w_mcdag


def test_01_fig2_golden_pipeline():
    with criterion(1, "fig2-golden-pipeline", 1.0):
        d = fixture("fig2")
        store = store_for(d)
        final, trace = macrostructure(store, initial_node(store, d), plan=sov0(d))
        assert [(e.rule, e.var) for e in trace] == [
            ("decompose-sum", 0), ("decompose-sum", 1),
            ("recompose-sum", None), ("recompose-sum", None),
            ("recompose-sum", None),
            ("simplify-normalized", 1), ("simplify-normalized", 1),
            ("simplify-normalized", 0),
            ("drop-unit", None), ("decompose-max", 2)]

        def named(nid):
            n = store.nodes[nid]
            return n.table.name if n.is_atomic else None

        # final root: max over d of a PLUS group
        root = store.nodes[final]
        assert root.sov == ((Op.MAX, (2,)),) and root.comb is Op.PLUS

        # the joint-elimination member (sum over r1 and r2 of the three tables)
        wanted = None
        for cid in root.children:
            n = store.nodes[cid]
            if not n.is_atomic and n.sov == ((Op.SUM, (0, 1)),):
                wanted = n
        assert wanted is not None and wanted.comb is Op.TIMES
        assert sorted(named(c) for c in wanted.children) == [
            "P_r1", "P_r2", "u_dr2"]

        # an intermediate node summing over r1 alone was shared: two distinct
        # interned parents mention it (the store is append-only, so parents
        # created mid-trace are still visible)
        shared = [i for i, n in enumerate(store.nodes)
                  if not n.is_atomic and n.sov == ((Op.SUM, (0,)),)
                  and n.comb is Op.TIMES]
        referents = {i: sum(1 for n in store.nodes
                            if not n.is_atomic and i in n.children)
                     for i in shared}
        assert any(k >= 2 for k in referents.values()), referents


def test_02_fig2_width_gap():
    with criterion(2, "fig2-width-gap", 1.0):
        d = fixture("fig2")
        assert mcdag_width_exact(d) == 1
        assert baseline.constrained_width(d, "exhaustive") == 2


def test_03_parameterized_width_gaps():
    with criterion(3, "family-width-gaps", 5.0):
        for family in ("chain", "star"):
            for n in range(2, 7):
                d = fixture(family, n=n)
                assert mcdag_width_exact(d) == 1, (family, n)
                assert baseline.constrained_width(d, "exhaustive") == n, (family, n)


def test_04_fig3_joint_elimination():
    with criterion(4, "fig3-joint-elimination", 1.0):
        d = fixture("fig3")
        store = store_for(d)
        final, _ = macrostructure(store, initial_node(store, d))
        d2, d3 = d.names.index("d2"), d.names.index("d3")
        seen = set()

        def walk(nid):
            if nid in seen:
                return False
            seen.add(nid)
            n = store.nodes[nid]
            if n.is_atomic:
                return False
            if any(op is Op.MAX and set(block) == {d2, d3} for op, block in n.sov):
                return True
            return any(walk(c) for c in n.children)

        assert walk(final), "no node jointly maximizes over d2 and d3"


def test_05_rule_soundness_sites():
    with criterion(5, "rule-soundness-500-sites", 60.0):
        rng = np.random.default_rng(20260821)
        checked = 0
        seed = 0
        while checked < 500:
            d = random_id(vars=5, decisions=2, max_domain=2, max_parents=2,
                          seed=seed)
            store = store_for(d)
            _, trace = macrostructure(store, initial_node(store, d))
            checked += check_trace(store, trace, rng)
            seed += 1
        assert checked >= 500


def test_06_three_engine_oracle_sweep():
    with criterion(6, "three-engine-oracle-sweep", 120.0):
        rng = np.random.default_rng(7)
        for seed in range(200):
            nvars = int(rng.integers(3, 11))
            ndec = int(rng.integers(0, min(3, nvars) + 1))
            d = random_id(vars=nvars, decisions=ndec, max_domain=3,
                          max_parents=3, seed=seed)
            run = solve.solve_diagram(d)
            brute, _ = baseline.brute_force(d)
            pot, pot_policies, _ = baseline.potential_ve(d)
            assert close(run.meu, brute), (seed, run.meu, brute)
            assert close(pot, brute), (seed, pot, brute)
            assert close(solve.evaluate_policy(d, run.policies), run.meu), seed
            assert close(solve.evaluate_policy(d, pot_policies), run.meu), seed


def test_07_width_dominance():
    with criterion(7, "cluster-width-dominance", 300.0):
        rng = np.random.default_rng(11)
        for seed in range(100):
            nvars = int(rng.integers(3, 9))
            ndec = int(rng.integers(0, 3))
            d = random_id(vars=nvars, decisions=ndec, max_domain=3,
                          max_parents=3, seed=1000 + seed)
            assert mcdag_width_exact(d) <= baseline.constrained_width(
                d, "exhaustive"), seed
        for family in ("chain", "star"):
            d = fixture(family, n=4)
            assert mcdag_width_exact(d) < baseline.constrained_width(
                d, "exhaustive"), family


def test_08_operation_counts_on_star():
    with criterion(8, "star-operation-counts", 10.0):
        dom = 2
        for n in range(2, 7):
            d = fixture("star", n=n)
            store = store_for(d)
            root, _ = macrostructure(store, initial_node(store, d))
            m = clusters.merge_clusters(clusters.assemble(store, root))
            split = OpCounter()
            solve.evaluate(m, counter=split)
            joint = OpCounter()
            baseline.potential_ve(d, counter=joint)
            # duplicated route: one small sum per utility plus the final group
            assert additions(split) == n * (dom * dom - dom) + (n - 1), n
            # joint route: the pool combine grows a fresh axis per utility
            assert additions(joint) == (sum(dom ** k for k in range(2, n + 2))
                                        + (dom ** (n + 1) - dom ** n)
                                        + (dom - 1)), n
            assert additions(split) <= additions(joint)
        # the gap is already an order of magnitude at n = 6
        assert additions(split) * 10 < additions(joint)


def test_09_size_bound_and_scaling():
    with criterion(9, "rewrite-size-and-scaling", 60.0):
        def within_bound(d) -> None:
            store = store_for(d)
            final, _ = macrostructure(store, initial_node(store, d))
            n_vars = len(d.variables)
            n_utils = len(d.utilities)
            n_cpts = len(d.cpts)
            bound = 4 * n_vars * (n_utils + n_cpts) + n_cpts + n_utils + 4
            assert len(reachable(store, final)) <= bound, d.names

        within_bound(fixture("fig2"))
        within_bound(fixture("fig3"))
        for family in ("chain", "star"):
            for n in range(2, 7):
                within_bound(fixture(family, n=n))
        for seed in range(50):
            within_bound(random_id(vars=7, decisions=2, max_domain=3,
                                   max_parents=3, seed=seed))

        def rewrite_time(n: int) -> float:
            best = float("inf")
            for _ in range(3):
                d = fixture("star", n=n)
                store = store_for(d)
                root = initial_node(store, d)
                start = time.perf_counter()
                macrostructure(store, root)
                best = min(best, time.perf_counter() - start)
            return best

        times = [rewrite_time(n) for n in (8, 16, 32)]
        floor = 1e-3  # below a millisecond the ratio is timer noise
        for small, big in zip(times, times[1:]):
            assert big / max(small, floor) < 8.0, times


def test_10_possibilistic_sweep():
    with criterion(10, "possibilistic-sweep", 60.0):
        rng = np.random.default_rng(13)
        for seed in range(100):
            nvars = int(rng.integers(3, 8))
            ndec = int(rng.integers(0, 3))
            d = random_id(vars=nvars, decisions=ndec, max_domain=3,
                          max_parents=3, mode="poss", seed=2000 + seed)
            run = solve.solve_diagram(d)
            brute, _ = baseline.brute_force(d)
            assert run.meu == brute, (seed, run.meu, brute)
            assert solve.evaluate_policy(d, run.policies) == run.meu, seed


def test_11_semiring_axioms():
    with criterion(11, "semiring-axioms", 5.0):
        for pair in (p for ops in MODES.values() for p in ops.pairs.values()):
            report = check_semiring_axioms(pair, samples=10_000)
            assert report.ok, (pair, report.deviations)
