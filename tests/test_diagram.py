import dataclasses
import math
import struct
import sys
import tracemalloc
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infdiag import diagram
from infdiag.factors import Op, ScopedTable, combine_all, marginalize
from infdiag.diagram import (
    CHANCE,
    DECISION,
    CycleError,
    DiagramError,
    FormatError,
    InfeasibleParamsError,
    NormalizationError,
    PartitionError,
    UtilityLeafError,
    ValidationError,
    fixture,
    mode_ops,
    parse,
    random_id,
    serialize,
    sov0,
    validate,
)
from oracles import (oracle_acyclic, oracle_numbers, structurally_equal,
                     with_extra_parents)

MINIMAL = """\
IDNET 1
MODE prob
VAR r1 2 CHANCE
VAR r2 2 CHANCE
VAR d 2 DECISION
PROB r1 | : 0.3 0.7
PROB r2 | r1 : 0.2 0.8 0.6 0.4
UTIL u_dr1 d r1 : 1.0 2.0 3.0 4.0
ORDER / d / r2 r1
"""


def test_parse_minimal_structure():
    d = parse(MINIMAL)
    assert d.mode == "prob"
    assert d.names == ("r1", "r2", "d")
    assert [v.kind for v in d.variables] == [CHANCE, CHANCE, DECISION]
    assert d.blocks == ((), (2,), (1, 0))
    assert d.parents == ((), (0,), ())
    assert d.cpts[1].scope == (0, 1)
    assert d.cpts[1].cpt_for == 1
    assert np.array_equal(d.cpts[1].values, [0.2, 0.8, 0.6, 0.4])
    assert d.utilities[0].name == "u_dr1"
    assert d.utilities[0].scope == (2, 0)


def test_parse_accepts_bytes_comments_and_blank_lines():
    noisy = "# leading comment\n\n" + MINIMAL.replace(
        "MODE prob", "MODE prob   # trailing comment")
    d = parse(noisy.encode("utf-8"))
    assert structurally_equal(d, parse(MINIMAL))


BOM = "\ufeff"  # the byte-order mark; EF BB BF in UTF-8


@pytest.mark.parametrize("d", [fixture("fig2"), fixture("fig3"), fixture("chain", 5)],
                         ids=["fig2", "fig3", "chain5"])
def test_a_leading_utf8_bom_is_skipped(d):
    text = BOM + serialize(d)
    raw = text.encode("utf-8")
    assert raw[:3] == b"\xef\xbb\xbf"
    assert structurally_equal(parse(raw), d)
    assert structurally_equal(parse(text), d)


def test_a_bom_anywhere_else_is_refused_with_its_line():
    text = serialize(fixture("fig2"))
    cases = [
        (BOM * 2 + text, "expected header 'IDNET 1'"),  # only one is skipped
        ("# note\n" + BOM + text, "expected header 'IDNET 1'"),
        (text.replace("MODE", BOM + "MODE"), "expected 'MODE prob'"),
        (text.replace("VAR d", BOM + "VAR d"), "unknown directive"),
        (text.replace(" 0.", " 0." + BOM, 1), "bad numeric value"),
        (text.replace("ORDER", "ORDER " + BOM), "unknown variable"),
    ]
    for bad, needle in cases:
        line = bad[:bad.rindex(BOM)].count("\n") + 1
        assert line > 1 or bad.startswith(BOM * 2)
        _expect(bad, FormatError, needle, line=line)
        _expect(bad.encode("utf-8"), FormatError, needle, line=line)
        if not bad.startswith(BOM):  # a leading mark before it changes nothing
            _expect(BOM + bad, FormatError, needle, line=line)


# The characters `str.splitlines` ends a line at besides '\n' and '\r'.
OTHER_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", OTHER_LINE_BREAKS)
def test_only_newline_and_carriage_return_end_a_line(char):
    text = MINIMAL.replace("MODE prob", f"MODE prob  # a{char}b")
    assert structurally_equal(parse(text), parse(MINIMAL))
    assert structurally_equal(parse(text.encode("utf-8")), parse(MINIMAL))
    # A fault on a later line is numbered by its '\n's alone.
    _expect(text.replace("ORDER", "ODER"), FormatError, "unknown directive 'ODER'", line=9)
    # Inside a line the character separates tokens, as other whitespace does.
    assert structurally_equal(parse(MINIMAL.replace("VAR d 2", f"VAR d{char}2")),
                              parse(MINIMAL))


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_cr_files_parse(end):
    assert structurally_equal(parse(MINIMAL.replace("\n", end)), parse(MINIMAL))
    text = "IDNET 1\nMODE prob\nVAR x 2 CHANCE\nPROB x | : 0.5 0.5\nUTIL u x : 0.0 0.0\n"
    _expect(text.replace("\n", end), FormatError, "missing ORDER", line=5)
    _expect(text.replace("\n", end) + end, FormatError, "missing ORDER", line=6)
    raw = "IDNET 1\nMODE prob\n# caf\xe9\n".replace("\n", end).encode("latin-1")
    _expect(raw, FormatError, "not valid UTF-8", line=3)


def test_round_trip_is_identity():
    for d in (parse(MINIMAL), fixture("fig2"), fixture("fig3"),
              fixture("chain", 3), fixture("star", 4),
              random_id(8, 3, 3, 3, "prob", seed=5),
              random_id(8, 3, 3, 3, "poss", seed=5)):
        again = parse(serialize(d))
        assert structurally_equal(d, again)
        assert serialize(again) == serialize(d)


def test_sov0_examples():
    assert sov0(fixture("fig2")) == [(Op.MAX, (2,)), (Op.SUM, (1, 0))]
    assert sov0(fixture("fig3")) == [
        (Op.MAX, (2,)), (Op.SUM, (1,)), (Op.MAX, (3,)), (Op.SUM, (0,)), (Op.MAX, (4,))]
    single = parse("IDNET 1\nMODE prob\nVAR x 2 CHANCE\nPROB x | : 0.5 0.5\n"
                   "UTIL u x : 0.0 1.0\nORDER x\n")
    assert sov0(single) == [(Op.SUM, (0,))]


def test_sov0_uses_min_for_poss_chance_blocks():
    d = random_id(6, 2, 3, 2, "poss", seed=3)
    ops = {op for op, _ in sov0(d)}
    assert Op.SUM not in ops
    assert ops <= {Op.MIN, Op.MAX}


def test_sov0_blocks_partition_all_variables():
    for seed in range(25):
        d = random_id(9, 3, 3, 3, "prob", seed=seed)
        flat = [x for _, block in sov0(d) for x in block]
        assert sorted(flat) == list(range(len(d.variables)))
        assert all(block for _, block in sov0(d))


def test_mode_ops_tables():
    p = mode_ops("prob")
    assert (p.chance_marg, p.decision_marg) == (Op.SUM, Op.MAX)
    assert (p.group_comb, p.outer_comb, p.unit_interval) == (Op.TIMES, Op.PLUS, False)
    q = mode_ops("poss")
    assert (q.chance_marg, q.decision_marg) == (Op.MIN, Op.MAX)
    assert (q.group_comb, q.outer_comb, q.unit_interval) == (Op.MAX, Op.MIN, True)
    with pytest.raises(DiagramError):
        mode_ops("fuzzy")


# -- errors ----------------------------------------------------------------

def _expect(text: str, exc: type, needle: str = "", line: int | None = None):
    with pytest.raises(exc) as info:
        parse(text)
    if needle:
        assert needle in str(info.value)
    if line is not None:
        assert info.value.line == line
    return info.value


def test_bad_header_and_mode():
    _expect("IDNET 2\n", FormatError, "IDNET 1", line=1)
    _expect("IDNET 1\nMODE fuzzy\n", FormatError, "MODE", line=2)


def test_unnormalized_row_names_variable_and_parent_assignment():
    text = MINIMAL.replace("0.2 0.8 0.6 0.4", "0.4 0.5 0.6 0.4")
    err = _expect(text, NormalizationError, "r2", line=7)
    assert "r1=0" in str(err)


def test_poss_rows_must_reach_one():
    text = ("IDNET 1\nMODE poss\nVAR x 2 CHANCE\nPROB x | : 0.9 0.8\n"
            "UTIL u x : 0.1 0.2\nORDER x\n")
    _expect(text, NormalizationError, "reach 1", line=4)


@pytest.mark.parametrize("mode, row", [("prob", "-0.5 1.5"), ("poss", "-0.5 1.0")])
def test_negative_table_cell_rejected_at_its_prob_line(mode, row):
    # the row sums (prob) or reaches (poss) 1, so only the sign is wrong
    text = (f"IDNET 1\nMODE {mode}\nVAR x 2 CHANCE\nPROB x | : {row}\n"
            "UTIL u x : 0.1 0.2\nORDER x\n")
    _expect(text, NormalizationError, "negative", line=4)


# Faults for the batched number check, by mode.  The row scalings include
# deviations just past the tolerance and inside it.
_ROW_EPS = (1e-3, 2e-9, 1.5e-9, 7e-10, 4e-10, 1e-12)
NUMBER_FAULTS = {
    "prob": ("negative", "nan", "inf", "-inf", "row", "utility-nan", "utility-inf"),
    "poss": ("negative", "nan", "inf", "row", "above-one", "utility-nan",
             "utility-below-zero", "utility-above-one"),
}


def _with_number_faults(d, rng):
    """`d` with one to three faults drawn from NUMBER_FAULTS, tables in
    declaration order as `parse` stores them."""
    cpts = {x: d.cpts[x] for x in d.chance_ids}
    utilities = list(d.utilities)
    for _ in range(rng.integers(1, 4)):
        kind = str(rng.choice(NUMBER_FAULTS[d.mode]))
        if kind.startswith("utility"):
            j = int(rng.integers(len(utilities)))
            u = utilities[j]
            v = u.values.copy()
            v[rng.integers(v.size)] = {"utility-nan": math.nan, "utility-inf": math.inf,
                                       "utility-below-zero": -0.25,
                                       "utility-above-one": 1.0 + 1e-12}[kind]
            utilities[j] = dataclasses.replace(u, values=v)
            continue
        x = int(rng.choice(list(cpts)))
        t = cpts[x]
        v = t.values.copy()
        k = int(rng.integers(v.size))
        if kind == "row":
            row = slice(k - k % t.sizes[-1], k - k % t.sizes[-1] + t.sizes[-1])
            eps = float(rng.choice(_ROW_EPS))
            v[row] *= 1.0 + eps if d.mode == "prob" else 1.0 - eps
        else:
            v[k] = {"negative": -v[k] or -0.5, "nan": math.nan, "inf": math.inf,
                    "-inf": -math.inf, "above-one": 1.0 + float(rng.choice((0.5, 1e-12)))}[kind]
        cpts[x] = dataclasses.replace(t, values=v)
    return dataclasses.replace(d, cpts=cpts, utilities=tuple(utilities))


def _outcome(check):
    try:
        check()
    except DiagramError as e:
        return type(e), str(e), e.line
    return None


@pytest.mark.parametrize("mode", ["prob", "poss"])
def test_batched_number_check_matches_the_per_table_loop(mode):
    rng = np.random.default_rng(11)
    refused = 0
    for seed in range(120):
        d = _with_number_faults(random_id(3 + seed % 12, seed % 3, 3, 3, mode, seed), rng)
        text = serialize(d)
        line_of = {tuple(l.split()[:2]): i for i, l in enumerate(text.splitlines(), 1)}
        cpt_lines = {x: line_of["PROB", d.names[x]] for x in d.cpts}
        util_lines = {j: line_of["UTIL", u.name] for j, u in enumerate(d.utilities)}
        want = _outcome(lambda: oracle_numbers(d, cpt_lines, util_lines))
        assert _outcome(lambda: parse(text)) == want, (seed, text)
        refused += want is not None
    assert 80 < refused < 120  # most inputs are refused; a few faults stay within tolerance


def test_poss_utilities_confined_to_unit_interval():
    text = ("IDNET 1\nMODE poss\nVAR x 2 CHANCE\nPROB x | : 1.0 0.8\n"
            "UTIL u x : 0.1 1.5\nORDER x\n")
    _expect(text, NormalizationError, "u", line=5)


def test_unknown_variable_and_utility_as_parent():
    _expect(MINIMAL.replace("PROB r2 | r1", "PROB r2 | zz"), FormatError, "zz", line=7)
    text = ("IDNET 1\nMODE prob\nVAR x 2 CHANCE\nUTIL w x : 0.0 0.0\n"
            "PROB x | w : 0.5 0.5\nORDER x\n")
    _expect(text, UtilityLeafError, "w", line=5)


def test_utility_shadowing_a_variable_is_rejected():
    text = MINIMAL.replace("UTIL u_dr1", "UTIL r1")
    _expect(text, UtilityLeafError, "r1")


def test_prob_line_for_decision_rejected():
    text = MINIMAL + "PROB d | : 0.5 0.5\n"
    _expect(text, FormatError, "ORDER line", line=10)


def test_duplicate_declarations_rejected():
    _expect(MINIMAL + "PROB r1 | : 0.5 0.5\n", FormatError, "duplicate")
    _expect(MINIMAL + "UTIL u_dr1 d : 0.0 0.0\n", FormatError, "duplicate")
    _expect(MINIMAL + "VAR r1 2 CHANCE\n", FormatError, "already declared")
    _expect(MINIMAL + "ORDER / d / r2 r1\n", FormatError, "duplicate ORDER")


def test_value_count_mismatch():
    _expect(MINIMAL.replace("0.3 0.7", "0.3 0.7 0.1"), FormatError,
            "expected 2 values, got 3", line=6)
    _expect(MINIMAL.replace("1.0 2.0 3.0 4.0", "1.0"), FormatError,
            "expected 4 values", line=8)


@pytest.mark.parametrize("old, new, token, line", [
    ("0.3 0.7", "0.3 0_7", "0_7", 6),  # float() reads '0_7' as 7.0
    ("0.3 0.7", "0.3 ٠.7", "٠.7", 6),  # float() reads the Arabic-Indic zero as 0
    ("1.0 2.0 3.0 4.0", "1.0 2.0 3.0 1_0", "1_0", 8),
    ("1.0 2.0 3.0 4.0", "1.0 ２ 3.0 4.0", "２", 8),  # a fullwidth digit
    ("1.0 2.0 3.0 4.0", "1.0 x 3.0 1_0", "x", 8),  # the first bad token is named
])
def test_table_values_use_ascii_float_syntax(old, new, token, line):
    err = _expect(MINIMAL.replace(old, new), FormatError, "bad numeric value", line=line)
    assert repr(token) in str(err)


# -- the JSON parse of a table line against float() ---------------------------

def float_path(buf, text, expected, what, line):
    """`_append_floats` by `float()` alone, token by token: the reference for
    the values it appends and the errors it raises."""
    tokens = text.split()
    for tok in tokens:
        try:
            if "_" in tok or not tok.isascii():
                raise ValueError
            buf.append(float(tok))
        except ValueError:
            raise FormatError(f"bad numeric value {tok!r}", line) from None
    if len(tokens) != expected:
        raise FormatError(f"{what}: expected {expected} values, got {len(tokens)}", line)


FINITE = (st.integers(0, 2 ** 64 - 1)
          .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
          .filter(math.isfinite))
FORMATS = (repr, "%.17e".__mod__, "%.25e".__mod__)
# Subnormals, the smallest of them, the largest double and both zeros.
EDGE_DOUBLES = (5e-324, -5e-324, 2.225073858507201e-308, 1e-310, 2.2250738585072014e-308,
                -0.0, 0.0, 1.7976931348623157e308, -1.7976931348623157e308)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(FINITE, st.sampled_from(FORMATS)), min_size=1, max_size=40))
@example([(x, fmt) for x in EDGE_DOUBLES for fmt in FORMATS])
def test_finite_doubles_read_as_float_reads_them(cells):
    text = " ".join(fmt(x) for x, fmt in cells)
    got, want = array("d"), array("d")
    diagram._append_floats(got, text, len(cells), "UTIL u", 8)
    float_path(want, text, len(cells), "UTIL u", 8)
    assert got.tobytes() == want.tobytes() == array("d", [x for x, _ in cells]).tobytes()


def parse_outcome(text):
    """The bytes of every table's values, or the error's class, message and line."""
    try:
        d = parse(text)
    except DiagramError as e:
        return type(e), str(e), e.line
    return b"".join(t.values.tobytes() for t in (*d.cpts.values(), *d.utilities))


# Tokens the JSON parse refuses, or reads as something other than one float:
# orjson reads '-0' as int 0, which would lose the sign.
EDGE_TOKENS = ["-0", "0", "7", "-0.0", "1" + "0" * 30, "nan", "inf", "-inf", "1_0", ".5",
               "1.", "01", "+1", "0x1", "٠.5", "0.5,0.5", "true", "null", "[1]", '"1"',
               "1e400", "-1e400", "1e-400"]


@pytest.mark.parametrize("where", ["PROB", "UTIL"])
@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_edge_tokens_give_what_float_gives(token, where, monkeypatch):
    # On the PROB line the token's partner is 1.0, so a zero keeps the row valid.
    if where == "PROB":
        text = MINIMAL.replace("PROB r1 | : 0.3 0.7", f"PROB r1 | : {token} 1.0")
    else:
        text = MINIMAL.replace("1.0 2.0 3.0 4.0", f"1.0 {token} 3.0 4.0")
    got = parse_outcome(text)
    monkeypatch.setattr(diagram, "_append_floats", float_path)
    assert got == parse_outcome(text)


@pytest.mark.parametrize("old, new, needle, line", [
    # a bad number on an earlier table line, an unknown directive on a later one
    (("0.3 0.7", "0.3 1_0"), ("ORDER", "ODER"), "bad numeric value '1_0'", 6),
    # an unknown directive on an earlier line, a bad number on a later one
    (("PROB r1", "BOGUS x\nPROB r1"), ("3.0 4.0", "3.0 1_0"), "unknown directive 'BOGUS'", 6),
    # a value-count mismatch on an earlier table line, a bad number on a later one
    (("0.3 0.7", "0.3 0.7 0.1"), ("3.0 4.0", "3.0 1_0"), "expected 2 values, got 3", 6),
    # within one line the bad number is named, whatever the count
    (("0.3 0.7", "0.3 0.7 1_0"), ("ORDER", "ODER"), "bad numeric value '1_0'", 6),
])
def test_the_first_faulty_line_is_reported(old, new, needle, line):
    _expect(MINIMAL.replace(*old).replace(*new), FormatError, needle, line=line)


def test_parse_holds_one_line_of_value_tokens_at_a_time():
    # 200 utilities of 256 values each.  Beside the diagram, parse holds its
    # list of lines, one line's tokens and, while validating, a copy of the
    # utility values: 1.3 MB here.  The file's value tokens held at once
    # would cost 3.7 MB more.
    values = " ".join(repr(k / 7) for k in range(1, 257))
    text = "".join(["IDNET 1\nMODE prob\nVAR x 256 DECISION\n",
                    *(f"UTIL u{i} x : {values}\n" for i in range(200)), "ORDER / x /\n"])
    tokens = values.split()
    all_tokens = 200 * (sum(map(sys.getsizeof, tokens)) + 8 * len(tokens))
    parse(text)  # warm-up
    tracemalloc.start()
    try:
        d = parse(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(d.utilities) == 200
    assert peak - kept < all_tokens / 2


def test_serialized_diagrams_take_the_fast_paths(monkeypatch):
    # What `serialize` writes is read with one JSON parse per table line, no
    # token list and no float() call, and is found acyclic without a search.
    texts = [serialize(d) for d in (fixture("fig2"), fixture("fig3"), fixture("chain", 9),
                                     fixture("star", 7))]
    texts += [serialize(random_id(3 + seed % 20, seed % 4, 4, 3, mode, seed))
              for seed in range(40) for mode in ("prob", "poss")]
    loads = []
    real = diagram.orjson
    monkeypatch.setattr(diagram, "orjson", SimpleNamespace(
        loads=lambda s: loads.append(s) or real.loads(s), JSONDecodeError=real.JSONDecodeError))

    def refuse(*args):
        raise AssertionError("a slow path ran")

    monkeypatch.setattr(diagram, "_token_floats", refuse)  # parse's only float() caller
    monkeypatch.setattr(diagram, "_check_acyclic", refuse)
    for text in texts:
        loads.clear()
        parse(text)
        assert len(loads) == sum(line.startswith(("PROB ", "UTIL "))
                                 for line in text.splitlines()), text


@pytest.mark.parametrize("size", ["1_0", "١", "２", "2_"])
def test_domain_sizes_use_ascii_integer_syntax(size):
    err = _expect(MINIMAL.replace("VAR d 2 DECISION", f"VAR d {size} DECISION"),
                  FormatError, "bad domain size", line=5)
    assert repr(size) in str(err)


def test_non_ascii_stays_legal_in_comments_names_and_separators():
    text = MINIMAL.replace("0.3 0.7", "0.3 0.7  # ٣ 1_0 ²").replace("r1", "r١")
    text = text.replace("0.2 0.8 0.6 0.4", "0.2\u00a00.8 0.6 0.4")  # a no-break space
    d = parse(text)
    assert d.names[0] == "r١"
    assert d.cpts[0].values.tolist() == [0.3, 0.7]
    assert d.cpts[1].values.tolist() == [0.2, 0.8, 0.6, 0.4]


def test_order_grammar_and_partition_errors():
    _expect(MINIMAL.replace("ORDER / d / r2 r1", "ORDER / d / r2"), PartitionError,
            "omits", line=9)
    _expect(MINIMAL.replace("ORDER / d / r2 r1", "ORDER / d / r2 r1 r1"),
            PartitionError, "twice", line=9)
    _expect(MINIMAL.replace("ORDER / d / r2 r1", "ORDER / d r2 / r1"), FormatError,
            "exactly one decision", line=9)
    _expect(MINIMAL.replace("ORDER / d / r2 r1", "ORDER / d / r2 / r1"), FormatError,
            "odd number", line=9)
    _expect(MINIMAL.replace("ORDER / d / r2 r1", "ORDER d r2 r1"), PartitionError,
            "segment 1", line=9)
    _expect("IDNET 1\nMODE prob\nVAR x 2 CHANCE\nPROB x | : 0.5 0.5\n"
            "UTIL u x : 0.0 0.0\n", FormatError, "missing ORDER", line=5)


def test_cycle_detection():
    text = ("IDNET 1\nMODE prob\nVAR a 2 CHANCE\nVAR b 2 CHANCE\n"
            "PROB a | b : 0.5 0.5 0.5 0.5\nPROB b | a : 0.5 0.5 0.5 0.5\n"
            "UTIL u a : 0.0 1.0\nORDER a b\n")
    _expect(text, CycleError, "cycle", line=6)
    # d's parents are the variables before it in the ORDER, so c | d closes a cycle
    text = ("IDNET 1\nMODE prob\nVAR c 2 CHANCE\nVAR d 2 DECISION\n"
            "PROB c | d : 0.5 0.5 0.5 0.5\nUTIL u c : 0.0 1.0\nORDER c / d /\n")
    _expect(text, CycleError, "cycle through 'd'", line=5)


def test_missing_cpt_detected():
    text = ("IDNET 1\nMODE prob\nVAR x 2 CHANCE\nUTIL u x : 0.0 1.0\nORDER x\n")
    _expect(text, ValidationError, "no table", line=3)


def test_cycle_check_agrees_with_the_full_parent_graph():
    rng = np.random.default_rng(2024)
    cyclic = 0
    kinds = set()
    for seed in range(2000):
        d = with_extra_parents(random_id(8, 3, 3, 2, ("prob", "poss")[seed % 2], seed=seed), rng)
        text = serialize(d)
        if oracle_acyclic(d):
            validate(d)
            assert structurally_equal(parse(text), d)
            continue
        cyclic += 1
        with pytest.raises(CycleError):
            validate(d)
        with pytest.raises(CycleError) as info:
            parse(text)
        assert text.splitlines()[info.value.line - 1].startswith("PROB ")
        kinds.add("ORDER" in str(info.value))
    assert 500 < cyclic < 1500
    assert kinds == {True, False}  # cycles through a later decision, and chance-only ones


def _shuffled(text, rng, keyword):
    """`text` with its `keyword` lines in a random order, in their places."""
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith(keyword + " ")]
    for i, j in zip(at, rng.permutation(at)):
        lines[i] = text.splitlines(keepends=True)[j]
    return "".join(lines)


def _observed_first(text, rng):
    """`text` with one chance variable that follows a decision in the ORDER
    moved into its first segment."""
    *lines, order = text.splitlines(keepends=True)
    segs = [seg.split() for seg in order[len("ORDER "):].split(" / ")]
    later = [(i, name) for i in range(2, len(segs), 2) for name in segs[i]]
    if not later:
        return text
    i, name = later[rng.integers(len(later))]
    segs[i].remove(name)
    segs[0].append(name)
    return "".join(lines) + "ORDER " + " / ".join(map(" ".join, segs)) + "\n"


def _parse_or_refuse(text):
    try:
        return serialize(parse(text))
    except DiagramError as e:
        return type(e), str(e), e.line


def test_acyclicity_screen_gives_what_the_search_gives(monkeypatch):
    # Extra parents make cycles, chance variables that depend on a later
    # decision, and acyclic tables whose parents follow them; a chance
    # variable observed first may depend on a later decision through tables
    # whose parents all precede it; shuffled VAR lines make the ids no
    # topological order, shuffled PROB lines change where the search starts.
    rng = np.random.default_rng(5)
    texts = []
    for seed in range(400):
        d = random_id(8, 3, 3, 2, ("prob", "poss")[seed % 2], seed=seed)
        text = serialize(with_extra_parents(d, rng) if seed % 3 else d)
        if seed % 7 < 3:
            text = _observed_first(text, rng)
        if seed % 4 < 2:
            text = _shuffled(text, rng, "VAR")
        if seed % 5 < 2:
            text = _shuffled(text, rng, "PROB")
        texts.append(text)
    screens = []
    screen = diagram._acyclic_in_id_order
    monkeypatch.setattr(diagram, "_acyclic_in_id_order",
                        lambda d, pos: screens.append(screen(d, pos)) or screens[-1])
    got = [_parse_or_refuse(text) for text in texts]
    monkeypatch.setattr(diagram, "_acyclic_in_id_order", lambda d, pos: False)
    assert [_parse_or_refuse(text) for text in texts] == got
    # Both kinds of cycle occur, and so do accepted diagrams that the screen
    # clears and ones that only the search clears.
    refusals = [outcome for outcome in got if isinstance(outcome, tuple)]
    assert {kind for kind, _, _ in refusals} == {CycleError}
    assert {"ORDER" in message for _, message, _ in refusals} == {True, False}
    assert screens.count(True) > 50 and screens.count(False) - len(refusals) > 50


_FIG2 = fixture("fig2")
_P_R1, _U_D = _FIG2.cpts[0], _FIG2.utilities[2]


def _fig2_with(cpt=None, u_d=None, **changes):
    """fig2 with `cpt` filed under its `cpt_for`, `u_d` in place of u_d, or `changes`."""
    cpts = dict(_FIG2.cpts)
    if cpt is not None:
        cpts[cpt.cpt_for] = cpt
    utilities = _FIG2.utilities[:2] + (u_d or _U_D,)
    return dataclasses.replace(_FIG2, cpts=cpts, utilities=utilities, **changes)


TAMPERED = {
    "block-id-out-of-range": _fig2_with(blocks=((), (2,), (1, 0, 7))),
    "even-block-count": _fig2_with(blocks=((), (2,), (1, 0), ())),
    "two-variable-decision-block": _fig2_with(blocks=((), (2, 1), (0,))),
    "table-on-a-decision": _fig2_with(dataclasses.replace(_P_R1, scope=(2,), cpt_for=2)),
    "table-on-unknown-id": _fig2_with(dataclasses.replace(_P_R1, scope=(5,), cpt_for=5)),
    "table-sizes": _fig2_with(dataclasses.replace(_P_R1, sizes=(3,), values=np.full(3, 1 / 3))),
    "table-unknown-variable": _fig2_with(dataclasses.replace(
        _P_R1, scope=(9, 0), sizes=(2, 2), values=np.full(4, 0.5))),
    "utility-attached-to-a-variable": _fig2_with(u_d=dataclasses.replace(_U_D, cpt_for=0)),
    "utility-unknown-variable": _fig2_with(u_d=dataclasses.replace(_U_D, scope=(9,))),
    "utility-shadows-variable": _fig2_with(u_d=dataclasses.replace(_U_D, name="r1")),
    "duplicate-utility-name": _fig2_with(u_d=dataclasses.replace(_U_D, name="u_dr1")),
    "no-utilities": dataclasses.replace(_FIG2, utilities=()),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_validate_refuses_malformed_programmatic_diagrams(case):
    with pytest.raises(ValidationError):
        validate(TAMPERED[case])


def test_negative_table_cell_rejected_in_programmatic_diagram():
    d = _fig2_with(dataclasses.replace(_P_R1, values=np.array([-0.5, 1.5])))
    with pytest.raises(NormalizationError, match="negative"):
        validate(d)


def test_parse_neither_reshapes_nor_reads_parents(monkeypatch):
    def refuse(d):
        raise AssertionError("parse re-checked the shape it built")

    monkeypatch.setattr(diagram, "_check_shape", refuse)
    d = parse(MINIMAL)
    assert "parents" not in vars(d)
    assert d.parents == ((), (0,), ())


def test_derived_variable_tuples_are_built_once():
    # `cli` and `baseline` read these once per variable, so a rebuild on
    # every read made their loops quadratic in the number of variables.
    d = fixture("fig2")
    for name in ("names", "sizes", "chance_ids", "decision_ids"):
        assert getattr(d, name) is getattr(d, name), name
    assert d.names == ("r1", "r2", "d") and d.sizes == (2, 2, 2)
    assert d.chance_ids == (0, 1) and d.decision_ids == (2,)


def test_empty_utilities_rejected_but_injected_by_parse():
    d = fixture("fig2")
    with pytest.raises(ValidationError):
        validate(dataclasses.replace(d, utilities=()))
    text = ("IDNET 1\nMODE prob\nVAR x 2 CHANCE\nPROB x | : 0.5 0.5\nORDER x\n")
    parsed = parse(text)
    assert len(parsed.utilities) == 1
    u = parsed.utilities[0]
    assert u.scope == () and u.values[0] == 0.0
    assert structurally_equal(parse(serialize(parsed)), parsed)
    poss = parse(text.replace("MODE prob", "MODE poss").replace("0.5 0.5", "1.0 0.5"))
    assert poss.utilities[0].values[0] == 1.0


def test_zero_variable_diagram_is_valid():
    d = parse("IDNET 1\nMODE prob\nORDER\n")
    assert d.variables == () and sov0(d) == []
    assert structurally_equal(parse(serialize(d)), d)


# -- fixtures ---------------------------------------------------------------

def test_fig2_fixture_shape():
    d = fixture("fig2")
    assert d.names == ("r1", "r2", "d")
    assert d.parents == ((), (0,), ())
    assert d.blocks == ((), (2,), (1, 0))
    assert {u.name: u.scope for u in d.utilities} == {
        "u_dr1": (2, 0), "u_dr2": (2, 1), "u_d": (2,)}
    assert d.sizes == (2, 2, 2)
    validate(d)


def test_fig3_fixture_shape():
    d = fixture("fig3")
    assert d.names == ("r1", "r2", "d1", "d2", "d3")
    assert d.parents[2] == ()
    assert d.parents[3] == (1, 2)
    assert d.parents[4] == (0, 1, 2, 3)
    assert d.blocks == ((), (2,), (1,), (3,), (0,), (4,), ())
    assert [u.scope for u in d.utilities] == [(0, 3), (3, 4), (1, 2, 4), (2,)]
    validate(d)


def test_chain_fixture_shape():
    n = 3
    d = fixture("chain", n)
    assert d.names == ("x1", "x2", "x3", "y", "x4")
    assert [v.kind for v in d.variables] == [DECISION] * 3 + [CHANCE, DECISION]
    assert d.parents[4] == (0, 1, 2, 3)
    assert len(d.utilities) == n + 1
    assert d.utilities[0].scope == (0, 3)
    assert [u.scope for u in d.utilities[1:]] == [(0, 4), (1, 4), (2, 4)]
    assert sov0(d) == [(Op.MAX, (0,)), (Op.MAX, (1,)), (Op.MAX, (2,)),
                       (Op.SUM, (3,)), (Op.MAX, (4,))]


def test_star_fixture_shape():
    n = 4
    d = fixture("star", n)
    assert d.names == ("x1", "x2", "x3", "x4", "y")
    assert [u.scope for u in d.utilities] == [(4, 0), (4, 1), (4, 2), (4, 3)]
    assert sov0(d)[-1] == (Op.SUM, (4,))
    assert fixture("star(4)", seed=0) is not None
    assert structurally_equal(fixture("star(4)"), d)


def test_fixture_errors_and_seeding():
    with pytest.raises(DiagramError):
        fixture("fig9")
    with pytest.raises(DiagramError):
        fixture("chain")
    with pytest.raises(DiagramError):
        fixture("star", 0)
    a, b = fixture("fig2", seed=1), fixture("fig2", seed=1)
    assert structurally_equal(a, b)
    assert not structurally_equal(a, fixture("fig2", seed=2))


def test_fixture_refuses_an_n_it_would_ignore():
    for name, n in [("chain(3)", 5), ("star(2)", 1), ("fig2", 5), ("fig3", 1)]:
        with pytest.raises(DiagramError, match=f"n={n}"):
            fixture(name, n=n)
    assert structurally_equal(fixture("chain(3)", n=3), fixture("chain", 3))


# -- random generator --------------------------------------------------------

def test_generator_determinism_and_validity():
    a = random_id(10, 3, 3, 3, "prob", seed=42)
    b = random_id(10, 3, 3, 3, "prob", seed=42)
    assert structurally_equal(a, b)
    assert not structurally_equal(a, random_id(10, 3, 3, 3, "prob", seed=43))


def test_generator_samples_all_validate():
    for seed in range(200):
        mode = "poss" if seed % 2 else "prob"
        nvars = seed % 10 + 1
        d = random_id(nvars, min(nvars, seed % 4), 3, 3, mode, seed=seed)
        validate(d)
        assert structurally_equal(parse(serialize(d)), d)


def test_generated_joint_sums_to_one():
    for seed in range(30):
        d = random_id(8, 2, 3, 3, "prob", seed=seed)
        fixed = set(d.decision_ids)  # each decision at value 0
        tables = []
        for t in d.cpts.values():
            arr = t.array[tuple(0 if v in fixed else slice(None) for v in t.scope)]
            keep = tuple(v for v in t.scope if v not in fixed)
            tables.append(ScopedTable(keep, arr.shape, arr.reshape(-1)))
        joint = combine_all(tables, Op.TIMES, 1.0)
        total = marginalize(joint, joint.scope, Op.SUM)
        assert abs(float(total.values[0]) - 1.0) < 1e-9


def test_generated_poss_rows_hit_one_exactly():
    for seed in range(20):
        d = random_id(7, 2, 3, 3, "poss", seed=seed)
        for x, t in d.cpts.items():
            rows = t.values.reshape(-1, d.size_of(x))
            assert np.all(rows.max(axis=1) == 1.0)


def test_single_chance_variable_generator_case():
    d = random_id(1, 0, 2, 0, "prob", seed=0)
    assert len(d.variables) == 1 and d.variables[0].kind == CHANCE
    assert abs(d.cpts[0].values.sum() - 1.0) < 1e-12


def test_infeasible_generator_params():
    with pytest.raises(InfeasibleParamsError):
        random_id(2, 3, 3, 3)
    with pytest.raises(InfeasibleParamsError):
        random_id(2, 1, 1, 3)
    with pytest.raises(InfeasibleParamsError):
        random_id(-1, 0, 3, 3)
    with pytest.raises(InfeasibleParamsError):
        random_id(2, 1, 3, -1)
    random_id(0, 0, 0, 0)  # degenerate but feasible


def test_decision_parents_grow_along_order():
    d = random_id(10, 3, 3, 3, "prob", seed=7)
    decs = d.temporal_decisions()
    prev: tuple[int, ...] = ()
    prev_d = None
    for dk in decs:
        assert set(prev) <= set(d.parents[dk])
        if prev_d is not None:
            assert prev_d in d.parents[dk]
        prev, prev_d = d.parents[dk], dk
