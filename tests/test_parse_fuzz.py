"""Seeded fuzz of the IDNET front end: parse, then solve.

Inputs are serialized fig3 with body lines and tokens dropped, repeated,
swapped or replaced, sometimes truncated or given a stray non-UTF-8 byte.
Whatever comes in must either solve or be refused with one of the errors the
command line maps to exit codes 1 and 2; any other exception is a bug.  A
refusal by the parser names a line of the input (or the one after its end).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from infdiag.diagram import DiagramError, fixture, parse, serialize
from infdiag.factors import FactorError, ResourceGuardError
from infdiag.solve import solve_diagram

FIG3 = serialize(fixture("fig3"))
LINES = [line.split() for line in FIG3.splitlines()]
# Replacement tokens: the file's own plus edge cases, among them numbers that
# float() reads but the format refuses (digit-group underscores, non-ASCII
# digits) and colons glued to a neighbour.  No domain size above 3 can arise,
# so a mutant that parses stays small enough to solve.
NUMBERS = ["0", "1", "0.5", "3", "-1", "nan", "inf", "-inf", "1e400", "0x1",
           "1_0", "\u0663", "\uff12", "x"]
TOKENS = (sorted({tok for line in LINES for tok in line}) + NUMBERS
          + ["#", "/", "|", ":", "c:", ":x"])

HUGE_DOMAINS = (b"IDNET 1\nMODE prob\nVAR a 4294967296 DECISION\n"
                b"VAR b 4294967296 DECISION\nUTIL u a b :\nORDER / a / / b /\n")


@st.composite
def mutants(draw: st.DrawFn) -> bytes:
    lines = [list(line) for line in LINES]
    for _ in range(draw(st.integers(1, 4))):
        # lines 0 and 1 (header and mode) are left to the parser's own tests
        i = draw(st.integers(2, len(lines) - 1))
        # value swaps keep most inputs valid, so that many mutants reach the solver
        kind = draw(st.sampled_from(("drop-line", "repeat-line", "swap-lines", "drop-token",
                                     "replace-token", "replace-number", "insert-token",
                                     "replace-value", "swap-values", "swap-values")))
        if kind == "drop-line" and len(lines) > 3:
            del lines[i]
        elif kind == "repeat-line":
            lines.insert(i, list(lines[i]))
        elif kind == "swap-lines":
            j = draw(st.integers(2, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind in ("replace-value", "swap-values") and ":" in lines[i][:-1]:
            first = lines[i].index(":") + 1
            k = draw(st.integers(first, len(lines[i]) - 1))
            if kind == "replace-value":
                lines[i][k] = draw(st.sampled_from(NUMBERS))
            else:
                j = draw(st.integers(first, len(lines[i]) - 1))
                lines[i][k], lines[i][j] = lines[i][j], lines[i][k]
        elif lines[i] and kind != "insert-token":
            k = draw(st.integers(0, len(lines[i]) - 1))
            if kind == "drop-token":
                del lines[i][k]
            else:
                pool = NUMBERS if kind == "replace-number" else TOKENS
                lines[i][k] = draw(st.sampled_from(pool))
        else:
            k = draw(st.integers(0, len(lines[i])))
            lines[i].insert(k, draw(st.sampled_from(TOKENS)))
    data = "".join(" ".join(line) + "\n" for line in lines).encode()
    if draw(st.integers(0, 4)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutants())
@example(HUGE_DOMAINS)
@example(b"\xff\xfe" + FIG3.encode())
def test_mutated_input_solves_or_is_refused(data):
    try:
        d = parse(data)
    except DiagramError as e:
        assert e.line is not None and 1 <= e.line <= len(data.splitlines()) + 1, e
        return
    try:
        solve_diagram(d, with_sets=True)
    except (DiagramError, FactorError, ResourceGuardError):
        pass
