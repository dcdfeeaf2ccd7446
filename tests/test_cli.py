"""End-to-end checks of the command line: exit codes, JSON shape, DOT
determinism, cross-engine agreement, and the generator round-trip.  All
invocations go through ``main(argv)`` in-process."""

import json

import pytest

from infdiag import baseline
from infdiag.cli import main
from infdiag.diagram import fixture, parse, random_id, serialize

from oracles import structurally_equal


@pytest.fixture
def fig2(tmp_path):
    path = tmp_path / "fig2.idnet"
    path.write_text(serialize(fixture("fig2")))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_solve_json_fields(fig2, capsys):
    report = run_json(capsys, ["solve", fig2, "--json"])
    assert report["schema"] == 1
    assert report["engine"] == "mcdag"
    assert report["w_mcdag"] == 1
    assert report["cluster_count"] == 4
    assert report["trace_len"] > 0
    assert report["wall_time"] >= 0
    names = {p["var"] for p in report["policies"]}
    assert names == {"d"}


def test_solve_json_reports_op_counts(tmp_path, capsys):
    path = tmp_path / "fig3.idnet"
    path.write_text(serialize(fixture("fig3")))
    ops = {engine: run_json(capsys, ["solve", str(path), "--engine", engine, "--json"])["ops"]
           for engine in ("mcdag", "potential", "brute")}
    # 13 max ops: d1's and d3's choices are taken when `evaluate` eliminates
    # them, so only d2's argmax is charged again by the policy pass
    assert ops["mcdag"] == {"total": 71,
                            "by_kind": {"max": 13, "plus": 18, "sum": 8, "times": 32}}
    assert ops["potential"]["total"] == sum(ops["potential"]["by_kind"].values()) > 0
    assert ops["brute"] is None


def test_solve_json_has_one_key_set_for_every_engine(fig2, capsys):
    keys = [set(run_json(capsys, ["solve", fig2, "--engine", engine, "--json"]))
            for engine in ("mcdag", "potential", "brute")]
    assert keys[0] == keys[1] == keys[2]
    assert {"w_mcdag", "w_potential", "node_count", "cluster_count", "trace_len",
            "ops"} <= keys[0]


def test_engines_agree(fig2, capsys):
    values = {}
    for engine in ("mcdag", "potential", "brute"):
        report = run_json(capsys, ["solve", fig2, "--engine", engine, "--json"])
        values[engine] = report["meu"]
    assert values["mcdag"] == pytest.approx(values["brute"], abs=1e-12)
    assert values["potential"] == pytest.approx(values["brute"], abs=1e-9)


def test_solve_text_output(fig2, capsys):
    assert main(["solve", fig2]) == 0
    out = capsys.readouterr().out
    assert out.startswith("MEU ")
    assert "policy d" in out


def test_potential_reports_width(fig2, capsys):
    report = run_json(capsys, ["solve", fig2, "--engine", "potential", "--json"])
    assert report["w_potential"] == 2
    assert report["w_mcdag"] is None


def test_brute_policies_match(fig2, capsys):
    got = run_json(capsys, ["solve", fig2, "--engine", "brute", "--json"])
    want = run_json(capsys, ["solve", fig2, "--json"])
    assert got["policies"] == want["policies"]


FREE_DECISION = """IDNET 1
MODE prob
VAR c 2 CHANCE
VAR d 3 DECISION
VAR e 2 CHANCE
PROB c | : 0.4 0.6
PROB e | c : 0.3 0.7 0.9 0.1
UTIL u e : 1.0 5.0
ORDER c / d / e
"""


@pytest.mark.parametrize("engine", ["mcdag", "potential", "brute"])
@pytest.mark.parametrize("source", ["fig2", "free"])
def test_sets_flag_adds_choices(source, engine, fig2, tmp_path, capsys):
    path = fig2
    if source == "free":  # no table mentions d, so every choice is optimal
        path = tmp_path / "free.idnet"
        path.write_text(FREE_DECISION)
    report = run_json(capsys, ["solve", str(path), "--engine", engine,
                               "--json", "--sets"])
    for p in report["policies"]:
        assert all(isinstance(c, list) and c for c in p["choices"])
        if source == "free":
            assert all(c == [0, 1, 2] for c in p["choices"])


def test_width_gap(fig2, capsys):
    report = run_json(capsys, ["width", fig2, "--exact", "--json"])
    assert report["w_mcdag"]["exact"] == 1
    assert report["w_constrained"]["exact"] == 2


@pytest.mark.parametrize("name,w", [("chain(5)", 5), ("star(4)", 4)])
def test_width_gap_grows(name, w, tmp_path, capsys):
    path = tmp_path / "d.idnet"
    path.write_text(serialize(fixture(name)))
    report = run_json(capsys, ["width", str(path), "--exact", "--json"])
    assert report["w_mcdag"]["exact"] == 1
    assert report["w_constrained"]["exact"] == w


@pytest.mark.parametrize("d", [fixture("fig2"), fixture("fig3"), fixture("chain", 6),
                               fixture("star", 5)]
                         + [random_id(10 + 5 * s, 2 + s, 3, 3, seed=s) for s in range(4)],
                         ids=["fig2", "fig3", "chain6", "star5"] + [f"random{s}" for s in range(4)])
def test_width_reports_the_potential_engine_width(d, tmp_path, capsys):
    # `w_constrained (heuristic)` and `w_potential` come from the same walk.
    path = tmp_path / "d.idnet"
    path.write_text(serialize(d))
    width = run_json(capsys, ["width", str(path), "--json"])
    solved = run_json(capsys, ["solve", str(path), "--engine", "potential", "--json"])
    assert width["w_constrained"]["heuristic"] == solved["w_potential"]


def test_width_text(fig2, capsys):
    assert main(["width", fig2]) == 0
    out = capsys.readouterr().out
    assert "w_mcdag (min-fill) 1" in out
    assert "w_constrained (heuristic) 2" in out


def test_compile_nodes_deterministic(fig2, capsys):
    assert main(["compile", fig2, "--stage", "nodes"]) == 0
    first = capsys.readouterr().out
    assert main(["compile", fig2, "--stage", "nodes"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("digraph")


def test_compile_mcdag_to_file(fig2, tmp_path, capsys):
    out = tmp_path / "m.dot"
    assert main(["compile", fig2, "--stage", "mcdag", "--dot", str(out)]) == 0
    dot = out.read_text()
    assert dot.startswith("digraph mcdag {")
    assert "(sum,times)" in dot
    assert "(max,plus)" in dot


def test_check_passes(fig2, capsys):
    assert main(["check", fig2]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")
    assert "potential:" in out


def test_check_poss_exact(tmp_path, capsys):
    path = tmp_path / "p.idnet"
    path.write_text(serialize(random_id(5, 1, 2, 2, mode="poss", seed=3)))
    assert main(["check", str(path), "--tol", "0"]) == 0
    out = capsys.readouterr().out
    assert "skipped (poss mode)" in out
    assert out.strip().endswith("PASS")


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_check_refuses_a_bad_tolerance(tol, tmp_path, capsys):
    path = tmp_path / "fig3.idnet"
    path.write_text(serialize(fixture("fig3")))
    assert main(["check", str(path), "--tol", tol]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: --tol") and out.out == ""


def test_check_fail_exits_3(fig2, capsys, monkeypatch):
    monkeypatch.setattr(baseline, "brute_force",
                        lambda d, guard=baseline.BRUTE_GUARD: (123.0, {}))
    assert main(["check", fig2]) == 3
    assert capsys.readouterr().out.strip().endswith("FAIL")


def test_gen_deterministic(capsys):
    argv = ["gen", "--vars", "6", "--decisions", "2", "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert first == capsys.readouterr().out
    d = parse(first)
    assert len(d.variables) == 6


def test_gen_fixture_roundtrip(tmp_path, capsys):
    out = tmp_path / "c.idnet"
    assert main(["gen", "--fixture", "chain", "--n", "3", "--out", str(out)]) == 0
    assert structurally_equal(parse(out.read_text()), fixture("chain", n=3))


def test_gen_needs_a_shape(capsys):
    assert main(["gen"]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_fixture_rejects_poss(capsys):
    assert main(["gen", "--fixture", "fig2", "--mode", "poss"]) == 1


@pytest.mark.parametrize("name", ["chain(3)", "fig2"])
def test_gen_fixture_rejects_an_unused_n(name, capsys):
    assert main(["gen", "--fixture", name, "--n", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "n=5" in captured.err


def test_gen_refuses_a_table_over_the_cell_guard(capsys):
    # one conditional table would hold up to 1e15 cells
    argv = ["gen", "--vars", "3", "--decisions", "0", "--max-domain", "100000",
            "--max-parents", "2", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource guard:" in captured.err and "Traceback" not in captured.err


def test_missing_file_is_input_error(capsys):
    assert main(["solve", "/nonexistent/x.idnet"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.idnet"
    path.write_text("not an idnet file\n")
    assert main(["solve", str(path)]) == 1


HUGE_DOMAINS = b"""\
IDNET 1
MODE prob
VAR a 4294967296 DECISION
VAR b 4294967296 DECISION
UTIL u a b :
ORDER / a / / b /
"""


@pytest.mark.parametrize("engine", ["mcdag", "potential"])
def test_huge_domain_product_is_input_error(engine, tmp_path, capsys):
    # the table needs 2**64 values; a wrapping product would ask for 0
    path = tmp_path / "huge.idnet"
    path.write_bytes(HUGE_DOMAINS)
    assert main(["solve", str(path), "--engine", engine]) == 1
    err = capsys.readouterr().err
    assert "line 5" in err and "Traceback" not in err


@pytest.mark.parametrize("text, line", [(b"\xff\xfeIDNET 1\n", 1),
                                        (b"IDNET 1\nMODE prob\n# caf\xe9\n", 3)],
                         ids=["leading-bom", "comment-byte"])
def test_non_utf8_input_is_input_error(text, line, tmp_path, capsys):
    path = tmp_path / "bytes.idnet"
    path.write_bytes(text)
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"line {line}:" in err and "UTF-8" in err and "Traceback" not in err


def test_usage_error_maps_to_1(capsys):
    assert main(["solve"]) == 1
    assert main(["frobnicate"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_brute_guard_exits_2(tmp_path, capsys):
    path = tmp_path / "big.idnet"
    path.write_text(serialize(random_id(17, 0, 2, 2, seed=0)))
    assert main(["solve", str(path), "--engine", "brute"]) == 2
    assert "resource guard" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["mcdag", "potential"])
def test_cell_guard_exits_2(engine, tmp_path, capsys):
    # the largest cluster would hold 4.5e11 cells
    path = tmp_path / "wide.idnet"
    path.write_text(serialize(random_id(60, 6, 6, 6, seed=0)))
    assert main(["solve", str(path), "--engine", engine]) == 2
    err = capsys.readouterr().err
    assert "resource guard" in err and "Traceback" not in err


@pytest.mark.parametrize("engine", ["mcdag", "potential"])
def test_a_free_decision_over_a_huge_domain_needs_no_mask_without_sets(engine, tmp_path,
                                                                      capsys):
    # No table mentions d: it chooses 0 without a mask over its domain, and
    # its tie set, the whole domain, is refused before it is allocated.
    path = tmp_path / "huge.idnet"
    path.write_text(FREE_DECISION.replace("VAR d 3 DECISION", "VAR d 1000000000000 DECISION"))
    assert main(["solve", str(path), "--engine", engine]) == 0
    assert "policy d = 0" in capsys.readouterr().out
    assert main(["solve", str(path), "--engine", engine, "--sets"]) == 2
    err = capsys.readouterr().err
    assert "resource guard" in err and "Traceback" not in err


def test_exhaustive_width_guard_exits_2(tmp_path, capsys):
    path = tmp_path / "nine.idnet"
    path.write_text(serialize(random_id(9, 1, 2, 2, seed=1)))
    assert main(["width", str(path), "--exact"]) == 2
