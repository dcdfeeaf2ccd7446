"""Inputs at structural extremes that the fig3 mutants of `test_parse_fuzz`
cannot reach: long ORDER lines, many variables of one value, wide scopes and
long chains.  Every command must finish with exit 0, 1 or 2 and no
traceback; a table or a fold over more variables than one numpy array may
span is refused up front.  Also how the ORDER line splits into segments."""

import numpy as np
import pytest

from infdiag.cli import main
from infdiag.diagram import _split_segments, fixture, serialize
from infdiag.factors import DIM_GUARD, Op, OpCounter, ResourceGuardError, fold

from test_rewrite import _hmm


def test_order_segments_keep_empty_and_glued_segments():
    # only a '/' token separates: one glued to a name stays in the name
    assert _split_segments([]) == [[]]
    assert _split_segments(["/", "/"]) == [[], [], []]
    assert _split_segments(["x1/x2", "/", "a", "b", "/"]) == [["x1/x2"], ["a", "b"], []]


def _one_valued(n):
    """n chance variables of one value in a chain, one decision of two
    values, and a utility over the decision and the last of them."""
    lines = ["IDNET 1", "MODE prob", "VAR d 2 DECISION"]
    lines += [f"VAR c{i} 1 CHANCE" for i in range(n)]
    lines.append("PROB c0 | d : 1.0 1.0")
    lines += [f"PROB c{i} | c{i - 1} : 1.0" for i in range(1, n)]
    lines.append(f"UTIL u d c{n - 1} : 1.0 2.0")
    lines.append("ORDER / d / " + " ".join(f"c{i}" for i in range(n)))
    return "\n".join(lines) + "\n"


def _one_valued_star(n):
    """n decisions of one value, each observed in turn, all coupled to one
    chance variable of two values: the uniform-potential clique spans all
    n + 1 variables in 2 cells."""
    lines = ["IDNET 1", "MODE prob"] + [f"VAR d{i} 1 DECISION" for i in range(n)]
    lines += ["VAR y 2 CHANCE", "PROB y | : 0.25 0.75"]
    lines += [f"UTIL u{i} y d{i} : {i % 5}.0 1.0" for i in range(n)]
    lines.append("ORDER / " + " / / ".join(f"d{i}" for i in range(n)) + " / y")
    return "\n".join(lines) + "\n"


def _empty_segments(n):
    """n decisions of two values, each in its own block between empty
    chance segments, one utility per decision and a chance variable last."""
    lines = ["IDNET 1", "MODE prob"] + [f"VAR d{i} 2 DECISION" for i in range(n)]
    lines += ["VAR c 2 CHANCE", "PROB c | : 0.5 0.5"]
    lines += [f"UTIL u{i} d{i} c : 0.0 1.0 1.0 {i % 3}.5" for i in range(n)]
    lines.append("ORDER / " + " / / ".join(f"d{i}" for i in range(n)) + " / c")
    return "\n".join(lines) + "\n"


def _wide_utility(n, wide=8):
    """One utility over n chance variables, the first `wide` of two values
    and the rest of one, and a decision observed before all of them."""
    sizes = [2 if i < wide else 1 for i in range(n)]
    lines = ["IDNET 1", "MODE prob", "VAR d 2 DECISION"]
    lines += [f"VAR c{i} {s} CHANCE" for i, s in enumerate(sizes)]
    lines += [f"PROB c{i} | : " + " ".join(["1.0"] if s == 1 else ["0.5", "0.5"])
              for i, s in enumerate(sizes)]
    cells = 2 ** (wide + 1)
    lines.append("UTIL u d " + " ".join(f"c{i}" for i in range(n)) + " : "
                 + " ".join(str(k % 7) for k in range(cells)))
    lines.append("ORDER / d / " + " ".join(f"c{i}" for i in range(n)))
    return "\n".join(lines) + "\n"


EXTREMES = {
    "one_valued_300": _one_valued(300),
    "one_valued_star_120": _one_valued_star(120),
    "empty_segments_200": _empty_segments(200),
    "wide_utility_fits": _wide_utility(DIM_GUARD - 4),
    "wide_utility_200": _wide_utility(200),
    "chain_256": serialize(fixture("chain", 256)),
    "star_256": serialize(fixture("star", 256)),
    "hmm_300": _hmm(300),
}
COMMANDS = {
    "mcdag": ["solve", "--engine", "mcdag", "--json"],
    "potential": ["solve", "--engine", "potential", "--json"],
    "brute": ["solve", "--engine", "brute", "--json"],
    "check": ["check"],
    "width": ["width", "--json"],
    "compile": ["compile"],
    "compile_mcdag": ["compile", "--stage", "mcdag"],
}


@pytest.mark.parametrize("case", EXTREMES)
def test_structural_extremes_exit_cleanly_through_every_command(case, tmp_path, capsys):
    path = tmp_path / f"{case}.idnet"
    path.write_text(EXTREMES[case])
    codes = {}
    for name, argv in COMMANDS.items():
        codes[name] = main([argv[0], str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert codes[name] in (0, 1, 2), (name, codes[name], err)
        assert "Traceback" not in err, (name, err)
    # a table over more variables than one array may span is refused as input
    accepted = 1 if case == "wide_utility_200" else 0
    assert codes["mcdag"] == codes["width"] == codes["compile"] == codes["compile_mcdag"] \
        == accepted, codes


def _joined_wide(n):
    """A table of one chance variable `c` over n parents of one value, and a
    utility over `c`, a decision and n others, all of them observed before
    the decision: `c`'s bucket joins 2n + 2 variables in 4 cells, each table
    spanning at most n + 2."""
    lines = ["IDNET 1", "MODE prob", "VAR d 2 DECISION", "VAR c 2 CHANCE"]
    lines += [f"VAR a{i} 1 CHANCE" for i in range(n)] + [f"VAR b{i} 1 CHANCE" for i in range(n)]
    lines += [f"PROB a{i} | : 1.0" for i in range(n)] + [f"PROB b{i} | : 1.0" for i in range(n)]
    lines.append("PROB c | " + " ".join(f"a{i}" for i in range(n)) + " : 0.5 0.5")
    lines.append("UTIL u d c " + " ".join(f"b{i}" for i in range(n)) + " : 1.0 0.0 0.0 1.0")
    names = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    lines.append("ORDER " + " ".join(names) + " / d / c")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("engine", ["mcdag", "potential"])
def test_a_join_over_more_variables_than_an_array_holds_is_refused_up_front(
        engine, tmp_path, capsys):
    # Every table fits one array, but a fold over them would span more axes
    # than numpy allows (DIM_GUARD): refused with exit 2 before any fold, as
    # the cell guard refuses a fold too large.
    path = tmp_path / "joined.idnet"
    path.write_text(_joined_wide(DIM_GUARD // 2))
    assert main(["solve", str(path), "--engine", engine]) == 2
    err = capsys.readouterr().err
    assert f"variables (limit {DIM_GUARD})" in err and "Traceback" not in err
    path.write_text(_joined_wide(DIM_GUARD // 2 - 2))
    assert main(["solve", str(path), "--engine", engine]) == 0


def test_fold_refuses_a_union_over_more_variables_than_an_array_holds():
    half = DIM_GUARD // 2 + 1
    parts = [(tuple(range(half)), np.ones((1,) * half)),
             (tuple(range(half, 2 * half)), np.ones((1,) * half))]
    with pytest.raises(ResourceGuardError, match=f"{2 * half} variables"):
        fold(parts, Op.TIMES, OpCounter())
    assert fold(parts[:1] * 2, Op.TIMES, OpCounter())[1].shape == (1,) * half
