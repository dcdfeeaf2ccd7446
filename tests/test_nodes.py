import numpy as np
import pytest

from infdiag.diagram import fixture, mode_ops, parse, random_id, sov0
from infdiag.factors import InternalError, Op, ScopedTable, UnknownVariableError
from infdiag.nodes import (
    NodeStore,
    bits,
    canonical_sov,
    initial_node,
    mask_of,
    reachable,
    store_for,
    to_dot,
)
from infdiag.rewrite import macrostructure
from oracles import eval_node, oracle_canonical_sov, oracle_value, structural_signature


def _table(scope, sizes, values, **kw):
    return ScopedTable(tuple(scope), tuple(sizes), np.asarray(values, float), **kw)


def test_canonical_sov_merges_sorts_and_drops_empties():
    raw = [(Op.MAX, (2,)), (Op.MAX, (1,)), (Op.SUM, ()), (Op.SUM, (5, 3))]
    assert canonical_sov(raw) == ((Op.MAX, (1, 2)), (Op.SUM, (3, 5)))
    assert canonical_sov([]) == ()
    with pytest.raises(InternalError):
        canonical_sov([(Op.MAX, (1,)), (Op.SUM, (1,))])


def _same_canonical_sov(pairs):
    """`canonical_sov` and the old merge agree: the same sov, or the same refusal."""
    try:
        want = oracle_canonical_sov(pairs)
    except InternalError as e:
        with pytest.raises(InternalError) as got:
            canonical_sov(pairs)
        assert str(got.value) == str(e)
        return None
    assert canonical_sov(pairs) == want
    return want


@pytest.mark.parametrize("family", ["chain", "star"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 64, 127, 128])
def test_canonical_sov_matches_the_old_merge_on_sov0(family, n):
    d = fixture(family, n)
    pairs = sov0(d)
    want = _same_canonical_sov(pairs)
    assert [v for _, block in want for v in block] == sorted(v for _, b in pairs for v in b)
    assert all(a[0] != b[0] for a, b in zip(want, want[1:]))  # runs merged


def test_canonical_sov_matches_the_old_merge_on_random_plans():
    rng = np.random.default_rng(19)
    ops = (Op.SUM, Op.MAX, Op.MIN)
    refused = 0
    for _ in range(2000):
        pairs = []
        for _ in range(rng.integers(0, 9)):
            k = int(rng.integers(0, 4))
            pairs.append((ops[rng.integers(0, 3)] if rng.random() < 0.5 else Op.MAX,
                          [int(v) for v in rng.integers(0, 24, size=k)]))
        refused += _same_canonical_sov(pairs) is None
    assert 100 < refused < 1900  # both outcomes are exercised


def test_atomic_interning_is_by_table_identity():
    store = NodeStore((2, 2))
    t = _table((0,), (2,), [0.3, 0.7])
    same_values = _table((0,), (2,), [0.3, 0.7])
    assert store.atomic(t) == store.atomic(t)
    assert store.atomic(t) != store.atomic(same_values)


def test_composite_interning_canonicalizes():
    store = NodeStore((2, 2, 2))
    a = store.atomic(_table((0,), (2,), [1.0, 2.0]))
    b = store.atomic(_table((1, 2), (2, 2), [1.0, 2.0, 3.0, 4.0]))
    n1 = store.composite([(Op.MAX, (2,)), (Op.MAX, (1,))], Op.TIMES, [a, b])
    n2 = store.composite([(Op.MAX, (1, 2))], Op.TIMES, [b, a])
    n3 = store.composite([(Op.MAX, (2, 1))], Op.TIMES, [a, b, a])
    assert n1 == n2 == n3
    assert store.nodes[n1].children == tuple(sorted((a, b)))
    # interning an already-stored node's parts gives the same id back
    node = store.nodes[n1]
    assert store.intern(node.sov, node.comb, node.children) == n1
    assert store.intern((), None, (), table=store.nodes[a].table) == a


def test_intern_canonicalizes_raw_parts_once():
    store = NodeStore((2, 2, 2, 2))
    a = store.atomic(_table((0,), (2,), [1.0, 2.0]))
    b = store.atomic(_table((1, 2), (2, 2), [1.0, 2.0, 3.0, 4.0]))
    c = store.atomic(_table((3,), (2,), [5.0, 6.0]))
    n1 = store.intern(((Op.MAX, (2, 1)), (Op.SUM, (3,))), Op.TIMES, (c, a, b))
    size = len(store.nodes)
    raw = [
        (((Op.MAX, (1, 2)), (Op.SUM, (3,))), Op.TIMES, (a, b, c)),
        (((Op.MAX, (2,)), (Op.MAX, (1,)), (Op.SUM, (3,))), Op.TIMES, (b, c, a, b, c)),
        (((Op.SUM, ()), (Op.MAX, (2, 1)), (Op.SUM, (3,))), Op.TIMES, (a, a, b, c)),
    ]
    for sov, comb, children in raw:
        assert store.intern(sov, comb, children) == n1
    assert store.composite([(Op.MAX, [2, 1]), (Op.SUM, [3])], Op.TIMES, [b, a, c]) == n1
    assert len(store.nodes) == size  # found keys add nothing
    stored = store.nodes[n1]
    assert stored.sov == ((Op.MAX, (1, 2)), (Op.SUM, (3,)))
    assert stored.children == tuple(sorted((a, b, c)))
    assert store.scope(n1) == {0}


def test_a_composite_is_its_own_index_key():
    d = fixture("chain", 16)
    store = store_for(d)
    macrostructure(store, initial_node(store, d))
    composites = [k for k in store._index if not isinstance(k, int)]
    assert len(composites) == sum(not n.is_atomic for n in store.nodes)
    for key in composites:
        assert key is store.nodes[store._index[key]]


def test_lookup_finds_without_storing():
    d = fixture("chain", 16)
    store = store_for(d)
    root, _ = macrostructure(store, initial_node(store, d))
    size = len(store.nodes)
    for nid in reachable(store, root):
        node = store.nodes[nid]
        if not node.is_atomic:
            assert store.lookup(node.sov, node.comb, node.children) == nid
            # parts in any order, as `intern` takes them
            assert store.lookup([(op, block[::-1]) for op, block in node.sov], node.comb,
                                node.children[::-1] + node.children) == nid
    node = store.nodes[root]
    assert store.lookup((), Op.MIN, node.children) is None
    assert store.lookup(node.sov, node.comb, node.children[1:]) is None
    assert len(store.nodes) == size


@pytest.mark.parametrize("s", [frozenset(), {0}, {1}, {62}, {63}, {64}, {65}, {200},
                               {0, 1, 62, 63, 64, 65, 200}])
def test_bits_inverts_mask_of(s):
    mask = mask_of(s)
    assert mask == sum(2 ** v for v in s)
    assert bits(mask) == s
    assert type(bits(mask)) is frozenset


def test_scope_formula():
    d = fixture("fig2")
    store = store_for(d)
    u_dr2 = store.atomic(d.utilities[1])
    assert store.scope(u_dr2) == {2, 1}
    p1 = store.atomic(d.cpts[0])
    p21 = store.atomic(d.cpts[1])
    shared = store.composite([(Op.SUM, (0,))], Op.TIMES, [p1, p21])
    assert store.scope(shared) == {1}
    empty = store.composite([], Op.TIMES, [])
    assert store.scope(empty) == frozenset()
    both = store.composite([(Op.SUM, (0, 1))], Op.TIMES, [p1, p21, u_dr2])
    assert store.scope(both) == {2}


def test_empty_product_values():
    real = NodeStore((2,))
    assert eval_node(real, real.composite([], Op.TIMES, []), {}) == 1.0
    assert eval_node(real, real.composite([], Op.PLUS, []), {}) == 0.0
    unit = NodeStore((2,), ops=mode_ops("poss"))
    assert eval_node(unit, unit.composite([], Op.MAX, []), {}) == 0.0
    assert eval_node(unit, unit.composite([], Op.MIN, []), {}) == 1.0


def test_eval_atomic_is_lookup_and_prior_sums_to_one():
    store = NodeStore((3,))
    prior = _table((0,), (3,), [0.2, 0.3, 0.5])
    a = store.atomic(prior)
    assert eval_node(store, a, {0: 2}) == 0.5
    summed = store.composite([(Op.SUM, (0,))], Op.TIMES, [a])
    assert abs(eval_node(store, summed, {}) - 1.0) < 1e-12


def test_eval_rightmost_block_is_innermost():
    # max_x sum_y t: for t = [[0, 5], [4, 0]] the value is max(5, 4) = 5,
    # whereas sum_y max_x t would give 4 + 5 = 9.
    store = NodeStore((2, 2))
    t = store.atomic(_table((0, 1), (2, 2), [0.0, 5.0, 4.0, 0.0]))
    n = store.composite([(Op.MAX, (0,)), (Op.SUM, (1,))], Op.TIMES, [t])
    assert eval_node(store, n, {}) == 5.0
    m = store.composite([(Op.SUM, (1,)), (Op.MAX, (0,))], Op.TIMES, [t])
    assert eval_node(store, m, {}) == 9.0


def test_initial_node_fig2_shape():
    d = fixture("fig2")
    store = store_for(d)
    root = initial_node(store, d)
    node = store.nodes[root]
    assert node.comb is Op.PLUS
    assert node.sov == ((Op.MAX, (2,)), (Op.SUM, (0, 1)))
    assert len(node.children) == 3
    for g in node.children:
        group = store.nodes[g]
        assert group.comb is Op.TIMES and group.sov == ()
        assert len(group.children) == 3
    # 2 shared conditional-table atoms + 3 utility atoms + 3 groups + root
    assert len(reachable(store, root)) == 9
    assert len(store.nodes) == 9
    assert store.scope(root) == frozenset()


def test_initial_node_no_chance_degenerate():
    d = parse("IDNET 1\nMODE prob\nVAR d 2 DECISION\nUTIL u d : 3.0 1.0\nORDER / d /\n")
    store = store_for(d)
    root = initial_node(store, d)
    node = store.nodes[root]
    assert node.sov == ((Op.MAX, (0,)),)
    (g,) = node.children
    assert store.nodes[g].comb is Op.TIMES
    (atom,) = store.nodes[g].children
    assert store.nodes[atom].table is d.utilities[0]
    assert eval_node(store, root, {}) == 3.0


def test_initial_node_poss_uses_complements():
    d = random_id(5, 2, 2, 2, "poss", seed=4)
    store = store_for(d)
    assert store.ops.unit_interval
    root = initial_node(store, d)
    node = store.nodes[root]
    assert node.comb is Op.MIN
    ops = {op for op, _ in node.sov}
    assert ops <= {Op.MIN, Op.MAX}
    groups = [store.nodes[g] for g in node.children]
    assert len(groups) == len(d.utilities)
    shared = set(groups[0].children)
    for g in groups[1:]:
        shared &= set(g.children)
    # every group holds all complement atoms plus its own utility
    assert len(shared) == len(d.cpts)
    for nid in shared:
        t = store.nodes[nid].table
        assert t.cpt_for is not None
        assert np.allclose(t.values, 1.0 - d.cpts[t.cpt_for].values)
    for g in groups:
        assert g.comb is Op.MAX and len(g.children) == len(d.cpts) + 1


@pytest.mark.parametrize("mode", ["prob", "poss"])
def test_eval_initial_node_matches_enumeration(mode):
    for seed in range(12):
        d = random_id(6, 2, 2, 3, mode, seed=seed)
        store = store_for(d)
        root = initial_node(store, d)
        got = eval_node(store, root, {})
        want = oracle_value(d)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_eval_initial_node_fixtures():
    for d in (fixture("fig2"), fixture("fig3"), fixture("chain", 2), fixture("star", 3)):
        store = store_for(d)
        root = initial_node(store, d)
        assert eval_node(store, root, {}) == pytest.approx(oracle_value(d), rel=1e-9)


def test_eval_env_must_match_scope():
    store = NodeStore((2, 2))
    a = store.atomic(_table((0,), (2,), [1.0, 2.0]))
    with pytest.raises(UnknownVariableError):
        eval_node(store, a, {})
    with pytest.raises(UnknownVariableError):
        eval_node(store, a, {0: 0, 1: 1})


# Checked against a store over one variable that holds one node, id 0.
BAD_CONSTRUCTIONS = [
    ([], Op.TIMES, [7]),  # dangling child
    ([], Op.TIMES, [7, 0]),  # dangling child sorting after a valid one
    ([], Op.TIMES, [-1]),  # negative child id
    ([], Op.TIMES, [0, -1]),  # negative child id before a valid one
    ([], Op.SUM, []),  # SUM cannot combine
    ([(Op.TIMES, (0,))], Op.PLUS, []),  # TIMES cannot marginalize
    ([(Op.SUM, (9,))], Op.TIMES, []),  # unknown variable
    ([(Op.SUM, (0, 9))], Op.TIMES, [0]),  # unknown variable after a known one
    ([(Op.SUM, (-1,))], Op.TIMES, [0]),  # negative variable
    ([(Op.MAX, (0,)), (Op.SUM, (0,))], Op.TIMES, []),  # variable in two blocks
]


def test_bad_constructions_raise_internal_errors():
    store = NodeStore((2,))
    store.atomic(_table((0,), (2,), [0.3, 0.7]))
    for sov, comb, children in BAD_CONSTRUCTIONS:
        with pytest.raises(InternalError):
            store.composite(sov, comb, children)
        with pytest.raises(InternalError):
            store.intern(tuple(sov), comb, tuple(children))
    assert len(store.nodes) == 1


def test_op_members_hash_as_singletons():
    assert {Op.SUM: 1}[Op("sum")] == 1
    assert hash(Op.MAX) == hash(Op("max"))
    assert Op("times") is Op.TIMES
    assert len({Op.SUM, Op("sum"), Op.MAX}) == 2


def test_structural_signature_is_store_independent():
    d = fixture("fig2")
    s1, s2 = store_for(d), store_for(d)
    r1 = initial_node(s1, d)
    # build the same structure with a different interning order
    s2.atomic(d.utilities[2])
    s2.atomic(d.cpts[1])
    r2 = initial_node(s2, d)
    assert s1.atomic(d.cpts[0]) != s2.atomic(d.cpts[0])  # interning orders differ
    assert structural_signature(s1, r1) == structural_signature(s2, r2)
    reseeded = fixture("fig2", seed=9)
    s3 = store_for(reseeded)
    r3 = initial_node(s3, reseeded)
    # different numbers -> different atomic content -> different signature
    assert structural_signature(s1, r1) != structural_signature(s3, r3)


def test_structural_signature_same_numbers_twice():
    a, b = fixture("fig3"), fixture("fig3")
    sa, sb = store_for(a), store_for(b)
    assert structural_signature(sa, initial_node(sa, a)) == \
        structural_signature(sb, initial_node(sb, b))


def test_to_dot_is_deterministic_and_covers_reachable():
    d = fixture("fig2")
    store = store_for(d)
    root = initial_node(store, d)
    dot = to_dot(store, root)
    assert dot == to_dot(store, root)
    assert dot.count("->") == sum(len(store.nodes[n].children)
                                  for n in reachable(store, root))
    assert "max_{d}" in dot and "sum_{r1,r2}" in dot and "plus" in dot
    assert dot.count("[label=") == 9
