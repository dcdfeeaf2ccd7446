"""End-to-end checks of the command line: exit codes, JSON shape, DOT
determinism, cross-engine agreement, and the generator round-trip.  All
invocations go through ``main(argv)`` in-process."""

import json

import pytest

from infdiag import baseline
from infdiag.cli import main
from infdiag.diagram import fixture, parse, random_id, serialize, structurally_equal


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


def test_missing_file_is_input_error(capsys):
    assert main(["solve", "/nonexistent/x.idnet"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.idnet"
    path.write_text("not an idnet file\n")
    assert main(["solve", str(path)]) == 1


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


def test_exhaustive_width_guard_exits_2(tmp_path, capsys):
    path = tmp_path / "nine.idnet"
    path.write_text(serialize(random_id(9, 1, 2, 2, seed=1)))
    assert main(["width", str(path), "--exact"]) == 2
