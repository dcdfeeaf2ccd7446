"""Potential-pair elimination, constrained widths, and the brute-force engine."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from infdiag import baseline, factors
from infdiag.baseline import (
    InvalidEliminationError,
    Potential,
    brute_force,
    constrained_width,
    pot_combine,
    pot_marg_chance,
    pot_marg_decision,
    potential_ve,
)
from infdiag.clusters import HEURISTICS
from infdiag.diagram import DiagramError, fixture, parse, random_id
from infdiag.factors import FactorError, InternalError, Op, OpCounter, ResourceGuardError
from infdiag.solve import evaluate_policy, solve_diagram

from oracles import oracle_value

TOL = 1e-9


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def tab(scope, sizes, values):
    return tuple(scope), np.asarray(values, float).reshape(tuple(sizes))


def scalar(value):
    return (), np.full((), float(value))


def lookup(part, env):
    scope, arr = part
    return float(arr[tuple(env[v] for v in scope)])


def flat(part):
    return np.asarray(part[1]).reshape(-1)


# -- potential algebra --------------------------------------------------------

def test_potential_rejects_negative_mass():
    with pytest.raises(FactorError):
        Potential(tab((0,), (2,), [0.5, -0.1]), scalar(0.0))


def test_combine_identity_components():
    p = tab((0,), (2,), [0.3, 0.7])
    u = tab((1,), (2,), [2.0, 4.0])
    out = pot_combine(Potential(p, scalar(0.0)),
                      Potential(scalar(1.0), u))
    assert out.p[0] == (0,) and np.allclose(flat(out.p), [0.3, 0.7])
    assert out.u[0] == (1,) and np.allclose(flat(out.u), [2.0, 4.0])


def test_combine_commutes():
    rng = np.random.default_rng(0)
    a = Potential(tab((0, 1), (2, 3), rng.uniform(0.1, 1, 6)),
                  tab((1,), (3,), rng.normal(size=3)))
    b = Potential(tab((1, 2), (3, 2), rng.uniform(0.1, 1, 6)),
                  tab((0, 2), (2, 2), rng.normal(size=4)))
    x, y = pot_combine(a, b), pot_combine(b, a)
    assert x.p[0] == y.p[0] and np.allclose(flat(x.p), flat(y.p))
    assert x.u[0] == y.u[0] and np.allclose(flat(x.u), flat(y.u))


def test_combine_cross_scope_against_enumeration():
    a = Potential(tab((0,), (2,), [0.2, 0.8]), tab((0,), (2,), [1.0, 2.0]))
    b = Potential(tab((1,), (2,), [0.5, 0.5]), tab((1,), (2,), [10.0, 20.0]))
    out = pot_combine(a, b)
    for i in range(2):
        for j in range(2):
            env = {0: i, 1: j}
            assert close(lookup(out.p, env), lookup(a.p, env) * lookup(b.p, env))
            assert close(lookup(out.u, env), lookup(a.u, env) + lookup(b.u, env))


def test_marg_chance_uniform_example():
    pi = Potential(tab((0,), (2,), [0.5, 0.5]), tab((0,), (2,), [2.0, 4.0]))
    out = pot_marg_chance(pi, [0])
    assert out.p[0] == () and close(float(out.p[1]), 1.0)
    assert out.u[0] == () and close(float(out.u[1]), 3.0)


def test_marg_chance_zero_slice_convention():
    p = tab((0, 1), (2, 2), [0.0, 0.0, 0.5, 0.5])
    u = tab((0, 1), (2, 2), [3.0, 4.0, 5.0, 7.0])
    out = pot_marg_chance(Potential(p, u), [1])
    assert out.u[0] == (0,)
    assert out.u[1][0] == 0.0  # 0/0 slice
    assert close(out.u[1][1], 6.0)


def test_marg_chance_against_enumeration():
    rng = np.random.default_rng(5)
    p = tab((0, 1, 2), (2, 3, 2), rng.uniform(0.05, 1, 12))
    u = tab((1, 2), (3, 2), rng.normal(size=6))
    out = pot_marg_chance(Potential(p, u), [1])
    for a in range(2):
        for c in range(2):
            env = {0: a, 2: c}
            mass = sum(lookup(p, env | {1: b}) for b in range(3))
            mean = sum(lookup(p, env | {1: b}) * lookup(u, env | {1: b})
                       for b in range(3)) / mass
            assert close(lookup(out.p, env), mass)
            assert close(lookup(out.u, env), mean)


def test_marg_chance_refuses_variables_outside_p():
    # A chance variable's own CPT keeps it in p until its step, so a sum
    # over a variable that only u holds, or no part holds, is refused.
    pi = Potential(scalar(1.0), tab((0,), (3,), [2.0, 2.0, 2.0]))
    for elim in ([0], [1]):
        with pytest.raises(FactorError, match="probability part"):
            pot_marg_chance(pi, elim)


def test_marg_decision_examples():
    pi = Potential(scalar(1.0), tab((0,), (2,), [1.0, 5.0]))
    out, choice = pot_marg_decision(pi, 0)
    assert float(out.u[1]) == 5.0
    assert choice.values[0] == 1
    tie, choice = pot_marg_decision(
        Potential(scalar(1.0), tab((0,), (2,), [4.0, 4.0])), 0)
    assert choice.values[0] == 0
    assert choice.attaining.tolist() == [[True, True]]


def test_marg_decision_projects_nominal_scope():
    p = tab((0, 1), (2, 2), [0.3, 0.7, 0.3, 0.7])  # constant in the decision 0
    u = tab((0,), (2,), [1.0, 2.0])
    out, _ = pot_marg_decision(Potential(p, u), 0)
    assert out.p[0] == (1,)
    assert np.allclose(flat(out.p), [0.3, 0.7])


def test_marg_decision_rejects_genuine_dependence():
    p = tab((0, 1), (2, 2), [0.3, 0.7, 0.6, 0.4])
    u = tab((0,), (2,), [1.0, 2.0])
    with pytest.raises(InvalidEliminationError):
        pot_marg_decision(Potential(p, u), 0)


def test_marg_decision_requires_utility_scope():
    with pytest.raises(FactorError):
        pot_marg_decision(Potential(scalar(1.0), scalar(0.0)), 0)


def test_shenoy_shafer_commutation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = Potential(tab((0, 1), (2, 2), rng.uniform(0.1, 1, 4)),
                      tab((0,), (2,), rng.normal(size=2)))
        b = Potential(tab((1, 2), (2, 2), rng.uniform(0.1, 1, 4)),
                      tab((2,), (2,), rng.normal(size=2)))
        lhs = pot_marg_chance(pot_combine(a, b), [0])
        rhs = pot_combine(pot_marg_chance(a, [0]), b)
        assert lhs.p[0] == rhs.p[0] and lhs.u[0] == rhs.u[0]
        assert np.allclose(flat(lhs.p), flat(rhs.p), rtol=1e-12)
        assert np.allclose(flat(lhs.u), flat(rhs.u), rtol=1e-9)
        # decision marginal commutes when the other operand ignores it
        da = Potential(tab((1,), (2,), rng.uniform(0.1, 1, 2)),
                       tab((0, 1), (2, 2), rng.normal(size=4)))
        lhs2, _ = pot_marg_decision(pot_combine(da, b), 0)
        rhs2 = pot_combine(pot_marg_decision(da, 0)[0], b)
        assert np.allclose(flat(lhs2.u), flat(rhs2.u), rtol=1e-12)


# -- potential_ve --------------------------------------------------------------

def test_potential_ve_fig2_value_and_width():
    d = fixture("fig2")
    value, policies, width = potential_ve(d)
    brute, _ = brute_force(d)
    assert close(value, brute)
    assert width == 2
    assert close(evaluate_policy(d, policies), value)


def test_potential_ve_no_decisions():
    d = random_id(5, 0, 3, 2, seed=3)
    value, policies, _ = potential_ve(d)
    assert close(value, oracle_value(d))
    assert policies == []


def test_potential_ve_zero_utilities():
    d = parse("IDNET 1\nMODE prob\nVAR c 2 CHANCE\nVAR d 2 DECISION\n"
              "PROB c | : 0.4 0.6\nUTIL u c d : 0 0 0 0\nORDER / d / c\n")
    value, _, _ = potential_ve(d)
    assert value == 0.0


def test_potential_ve_rejects_poss_mode():
    d = random_id(4, 1, 2, 2, mode="poss", seed=0)
    with pytest.raises(DiagramError):
        potential_ve(d)


def test_potential_ve_random_sweep():
    for seed in range(25):
        d = random_id(6, 2, 3, 2, seed=seed)
        value, policies, width = potential_ve(d)
        brute, _ = brute_force(d)
        assert close(value, brute), f"seed {seed}"
        assert close(evaluate_policy(d, policies), value), f"seed {seed}"
        assert width >= constrained_width(d, "exhaustive"), f"seed {seed}"


def test_potential_ve_refuses_before_building_a_table(monkeypatch):
    d = random_id(60, 6, 6, 6, seed=0)  # largest cluster: 4.5e11 cells
    peaks = {}
    for name, run in (("mcdag", solve_diagram), ("potential", potential_ve)):
        if name == "potential":
            def no_fold(*args, **kwargs):
                raise AssertionError("the potential engine combined a table")
            monkeypatch.setattr(factors, "fold", no_fold)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="cells"):
                run(d)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # both engines refuse from scopes, before any table is combined
    assert max(peaks.values()) < 2 ** 20, peaks


@pytest.mark.parametrize("limit", [2 ** 6, 2 ** 8, 2 ** 10])
def test_potential_ve_refuses_up_front_exactly_what_fold_refuses(monkeypatch, limit):
    # Lower the guard of the scope pass and of `fold` in turn: the pass must
    # refuse a diagram iff the arithmetic would, so it never refuses work
    # that would fit.
    def refuses(d, up_front, in_fold):
        monkeypatch.setattr(baseline, "CELL_GUARD", up_front)
        monkeypatch.setattr(factors, "CELL_GUARD", in_fold)
        try:
            potential_ve(d)
        except ResourceGuardError:
            return True
        return False

    seen = set()
    for seed in range(120):
        d = random_id(6 + seed % 14, 1 + seed % 3, 4, 3, seed=seed)
        refused = refuses(d, limit, 2 ** 62)
        assert refused == refuses(d, 2 ** 62, limit), f"seed {seed}"
        seen.add(refused)
    assert seen == {False, True}


def test_potential_ve_outputs_are_pinned():
    # Op counts by kind, widths, and each rule's scope, value bytes and tie
    # sets over a seeded sweep, with and without tie sets.  Everything hashed
    # is an integer (rule values are value indices), so the digest does not
    # depend on how the floating-point arithmetic rounds.
    h = hashlib.sha256()
    for seed in range(80):
        d = random_id(4 + seed % 9, seed % 3, 3, 3, seed=seed)
        for with_sets in (False, True):
            counter = OpCounter()
            _, policies, width = potential_ve(d, counter=counter, with_sets=with_sets)
            h.update(repr((sorted(counter.by_kind.items()), width)).encode())
            for p in policies:
                sets = None if p.rule.attaining is None else \
                    [np.flatnonzero(row).tolist() for row in p.rule.attaining]
                h.update(repr((p.var, p.rule.scope, p.rule.values.astype(np.float64).tobytes(),
                               sets)).encode())
    assert h.hexdigest() == \
        "f9af21949338f75d6ed31882df9a1ebd306c88df88e05ff566e9046dc87e8e1d"


def test_potential_ve_heuristics_agree_on_value():
    d = random_id(7, 2, 3, 2, seed=13)
    a, _, _ = potential_ve(d, heuristic="min-fill")
    b, _, _ = potential_ve(d, heuristic="min-degree")
    assert close(a, b)


# -- constrained width ----------------------------------------------------------

def test_constrained_width_fig2():
    assert constrained_width(fixture("fig2"), "exhaustive") == 2
    assert constrained_width(fixture("fig2")) >= 2


def test_constrained_width_chain_and_star():
    for n in range(2, 7):
        assert constrained_width(fixture("chain", n), "exhaustive" if n <= 6 else "min-fill") == n
        assert constrained_width(fixture("star", n), "exhaustive" if n <= 7 else "min-fill") == n


def test_constrained_width_exhaustive_guard():
    d = random_id(9, 2, 2, 2, seed=0)
    with pytest.raises(ResourceGuardError):
        constrained_width(d, "exhaustive")
    assert constrained_width(d, "min-fill") >= 0
    with pytest.raises(InternalError, match="unknown ordering heuristic"):
        constrained_width(d, "heuristic")


def test_constrained_width_is_the_width_potential_ve_reaches():
    # One walk gives both numbers, under every heuristic: the exact width
    # when both are asked for "exhaustive".
    ds = [fixture("fig2"), fixture("fig3")]
    ds += [fixture("chain", n) for n in range(1, 7)]
    ds += [fixture("star", n) for n in range(1, 8)]
    ds += [random_id(4 + seed % 5, seed % 3, 3, 2, seed=seed) for seed in range(40)]
    for d in ds:
        assert len(d.variables) <= 8
        assert potential_ve(d)[2] == constrained_width(d)
        for heuristic in HEURISTICS:
            assert potential_ve(d, heuristic)[2] == constrained_width(d, heuristic)


def test_constrained_width_heuristic_never_below_exhaustive():
    for seed in range(15):
        d = random_id(7, 2, 3, 2, seed=seed)
        for heuristic in ("min-fill", "min-degree"):
            assert constrained_width(d, heuristic) >= constrained_width(d, "exhaustive")


# -- brute force -----------------------------------------------------------------

def test_brute_force_direct_arithmetic():
    d = parse("IDNET 1\nMODE prob\nVAR d 2 DECISION\nVAR x 2 CHANCE\n"
              "PROB x | : 0.5 0.5\nUTIL u d x : 0 0 1 3\nORDER / d / x\n")
    value, notes = brute_force(d)
    assert close(value, 2.0)
    assert notes[0] == {(): frozenset({1})}


def test_brute_force_poss_example():
    d = parse("IDNET 1\nMODE poss\nVAR x 2 CHANCE\n"
              "PROB x | : 1 0.4\nUTIL u x : 0.7 0.2\nORDER x\n")
    value, _ = brute_force(d)
    assert value == 0.6


def test_brute_force_tie_annotation():
    d = parse("IDNET 1\nMODE prob\nVAR d 2 DECISION\nUTIL u d : 4 4\nORDER / d /\n")
    _, notes = brute_force(d)
    assert notes[0][()] == frozenset({0, 1})


def test_brute_force_guard(monkeypatch):
    d = random_id(17, 0, 2, 2, seed=0)
    with pytest.raises(ResourceGuardError):
        brute_force(d)
    monkeypatch.setattr(baseline, "BRUTE_GUARD", 2 ** 17)
    value, _ = brute_force(d)
    assert np.isfinite(value)


def test_brute_force_contexts_are_parent_assignments():
    d = fixture("fig3")
    _, notes = brute_force(d)
    for x, table in notes.items():
        want = 1
        for p in d.parents[x]:
            want *= d.size_of(p)
        assert len(table) == want


def test_brute_force_matches_independent_oracle():
    for seed in range(15):
        d = random_id(6, 2, 3, 2, seed=seed)
        assert close(brute_force(d)[0], oracle_value(d)), f"seed {seed}"
    for seed in range(10):
        d = random_id(6, 2, 3, 2, mode="poss", seed=seed)
        assert brute_force(d)[0] == oracle_value(d), f"seed {seed}"
