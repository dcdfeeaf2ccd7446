"""The contract between the solver and `perfbench/reference.py`.

The benchmark counts a solve as correct only when the reference accepts its
value and its policies.  The reference reads each policy's rule by `scope`,
`sizes` and the integer value indices in `values`.  If the solver changes
that format, every solve of a benchmark run counts as failed.  A few
instances of each workload check that the solver's answers pass, and a rule
that chooses outside its decision's domain checks that the reference still
refuses one.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from infdiag import baseline, cli, solve
from infdiag.diagram import fixture, parse
from infdiag.factors import ChoiceTable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("families", "random_sweep", "dense_prob", "dense_poss")


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # keep perfbench/ clean
        mp.syspath_prepend(str(PERFBENCH))
        try:
            yield importlib.import_module("reference"), importlib.import_module("workloads")
        finally:
            sys.modules.pop("reference", None)
            sys.modules.pop("workloads", None)


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_accepts_the_solvers_answers(perfbench, name):
    reference, workloads = perfbench
    for inst in workloads.WORKLOADS[name](1)[:2]:
        d = parse(inst.text)
        run = solve.solve_diagram(d)
        assert reference.checker(name, d)(run.meu, run.policies), inst.label


def test_every_engines_rules_are_well_formed(perfbench):
    reference, _ = perfbench
    d = fixture("fig2")
    _, notes = baseline.brute_force(d)
    for with_sets in (False, True):
        assert reference.well_formed(d, baseline.potential_ve(d, with_sets=with_sets)[1])
        assert reference.well_formed(d, cli._brute_policies(d, notes, with_sets))


def test_a_rule_outside_its_domain_is_refused(perfbench):
    reference, _ = perfbench
    d = fixture("fig2")
    policies = solve.solve_diagram(d).policies
    assert reference.well_formed(d, policies)
    for i, p in enumerate(policies):
        r = p.rule
        shifted = ChoiceTable(r.scope, r.sizes, r.values + d.size_of(p.var), None)
        bad = policies[:i] + [dataclasses.replace(p, rule=shifted)] + policies[i + 1:]
        assert not reference.well_formed(d, bad), d.names[p.var]
