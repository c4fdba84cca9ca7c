"""End-to-end command-line behavior: exit codes and serialization."""

import io
import contextlib
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from quadslice import cli, contfrac, maps_oracle, slice_solver
from quadslice.cli import _poly_entry, _table_json, main
from quadslice.exactalg import MPoly, bipoly, tb
from quadslice.slice_solver import f_n, f_upto, solve_y


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def parse_table_json(text):
    """Round-trip reader for the JSON table schema."""
    data = json.loads(text)
    entries = {e["index"]: bipoly({(m["tb"], m["tw"]): m["coeff"] for m in e["monomials"]}, data["cap"])
               for e in data["entries"]}
    return data["what"], data["cap"], entries


def test_consecutive_calls_run_as_fresh_ones(monkeypatch):
    # main builds its parser once; a usage error between two good calls
    # leaves nothing behind for the next call to see
    argvs = [
        ["table", "--what", "b", "--i", "1..2", "--cap", "3"],
        ["table", "--what", "b", "--cap", "0"],
        ["verify", "nonsense"],
        ["verify", "reflection", "--alpha", "2", "--draws", "2", "--seed", "5"],
        ["table", "--what", "b", "--i", "1..2", "--cap", "3"],
    ]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    consecutive = [run(argv) for argv in argvs]
    assert len(built) == 1
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert consecutive == fresh
    assert [rc for rc, _, _ in consecutive] == [0, 2, 2, 0, 0]
    assert consecutive[0][1] and consecutive[0] == consecutive[-1]
    assert "usage: quadslice table" in consecutive[1][2] and "--cap" in consecutive[1][2]
    assert "invalid choice: 'nonsense'" in consecutive[2][2]


def test_table_json_round_trip():
    rc, out, _ = run(["table", "--what", "fn", "--n", "1..3", "--cap", "4", "--format", "json"])
    assert rc == 0
    what, cap, entries = parse_table_json(out)
    assert what == "fn" and cap == 4
    for n in range(1, 4):
        assert entries[n] == f_n(n, 4)


def test_table_json_text_is_json_dumps_indent_2():
    def poly(terms):
        return MPoly(("tb", "tw"), terms, 6)

    mixed = poly({(0, 0): 3, (1, 0): -2, (0, 2): Fraction(-7, 3), (2, 3): Fraction(5, 12)})
    entries = [_poly_entry(0, poly({})), _poly_entry(1, mixed), _poly_entry(12, poly({(6, 0): -1}))]
    for what, cap, table in (("y", 6, entries), ("fn", 0, entries[:1]), ("b", 3, [])):
        want = json.dumps({"what": what, "cap": cap, "entries": table}, indent=2)
        assert _table_json(what, cap, table) == want
    assert entries[1]["monomials"][1]["coeff"] == "-7/3"  # non-integral, negative, as n/d


def test_table_y_csv(tmp_path):
    target = tmp_path / "y.csv"
    rc, _, _ = run(
        ["table", "--what", "y", "--i", "1..6", "--cap", "5", "--format", "csv",
         "--output", str(target)]
    )
    assert rc == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "index,tb_exp,tw_exp,coeff"
    assert any(line.startswith("1,") for line in lines[1:])


def test_table_text_matches_canonical_form():
    rc, out, _ = run(["table", "--what", "fn", "--n", "1..1", "--cap", "2", "--format", "text"])
    assert rc == 0
    assert "0 1 1/1" in out and "1 1 1/1" in out


def test_unknown_suite_is_usage_error():
    rc, _, _ = run(["verify", "nosuchsuite"])
    assert rc == 2


def test_empty_range_is_usage_error():
    rc, _, _ = run(["table", "--what", "fn", "--n", "3..1", "--cap", "3"])
    assert rc == 2


def test_table_fn_above_the_solved_heights_is_usage_error():
    for what in ("fn", "jn"):
        rc, out, err = run(["table", "--what", what, "--n", "1..20", "--cap", "4"])
        assert rc == 2 and out == "", what
        assert "below the height 20 that the boundary series at n = 20 reads (--cap at least 18)" in err, what
        assert "weight index" not in err
    rc, out, _ = run(["table", "--what", "jn", "--n", "7..7", "--cap", "5", "--format", "json"])
    assert rc == 0
    assert parse_table_json(out)[2] == {7: slice_solver.j_n(7, 5)}


def test_verify_equality_small():
    rc, out, _ = run(
        ["verify", "equality", "--n", "3", "--cap", "5", "--enum-n", "2", "--enum-f", "2"]
    )
    assert rc == 0
    assert out.startswith("PASS equality")


def test_verify_equality_enumerates_each_weight_sum_once(monkeypatch):
    seen = []
    real = maps_oracle.bf_F
    monkeypatch.setattr(maps_oracle, "bf_F", lambda n, f, *rest: seen.append((n, f)) or real(n, f, *rest))
    rc, out, _ = run(["verify", "equality", "--n", "2", "--cap", "4", "--enum-n", "2", "--enum-f", "1"])
    assert rc == 0 and out.startswith("PASS equality")
    assert seen == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_verify_equality_fails_when_the_boundary_series_differ(monkeypatch):
    real = slice_solver.j_upto

    def wrong(n, N):  # j_2 off by one monomial
        series = real(n, N)
        return series[:2] + [series[2] + tb(N) ** N] + series[3:]

    monkeypatch.setattr(slice_solver, "j_upto", wrong)
    rc, out, _ = run(["verify", "equality", "--n", "3", "--cap", "5", "--enum-n", "0"])
    assert rc == 1
    assert out == "FAIL equality: boundary series differ at n=2\n"


def test_verify_equality_above_the_solved_heights_is_usage_error():
    # f_20 reads height 20, beyond the heights 1..6 the solvers reach at cap
    # 4; this used to exit 2 naming an internal weight index of the path DP
    rc, out, err = run(["verify", "equality", "--n", "20", "--cap", "4", "--enum-n", "0"])
    assert rc == 2 and out == ""
    assert "--cap 4 solves heights up to 6, below the height 20 that the boundary series at n = 20 reads" \
           " (--cap at least 18)" in err
    rc, out, _ = run(["verify", "equality", "--n", "6", "--cap", "4", "--enum-n", "0"])
    assert rc == 0 and out.startswith("PASS equality")


def test_verify_reflection_small():
    rc, out, _ = run(["verify", "reflection", "--alpha", "2", "--draws", "3", "--seed", "5"])
    assert rc == 0
    assert "PASS reflection" in out


def test_extract_stieltjes_agrees():
    rc, out, _ = run(["extract", "--type", "stieltjes", "--i", "1..2", "--cap", "5"])
    assert rc == 0
    assert "DIFFERENT" not in out


def test_extract_newtype_agrees():
    rc, out, _ = run(["extract", "--type", "newtype", "--i", "1..2", "--cap", "4"])
    assert rc == 0
    got = solve_y(4)
    assert got.first[1] is not None  # solver reachable; CLI compared equal
    assert "DIFFERENT" not in out


def test_newtype_internal_cap_is_usage_error():
    # only the Stieltjes extraction reads a fixed internal cap
    rc, out, err = run(["extract", "--type", "newtype", "--i", "1..1", "--cap", "3", "--internal-cap", "1"])
    assert rc == 2 and out == ""
    assert "--internal-cap" in err and "--type stieltjes" in err


def test_extract_cap_too_small_diagnostic():
    rc, _, err = run(
        ["extract", "--type", "stieltjes", "--i", "1..2", "--cap", "4",
         "--internal-cap", "4"]
    )
    assert rc == 1
    assert "verification failure" in err or err == ""


def test_alpha_and_draws_below_one_are_usage_errors():
    # a suite that would run zero checks must not print PASS
    for flags in (["--alpha", "0"], ["--draws", "0"], ["--alpha", "-1"]):
        rc, out, _ = run(["verify", "reflection", *flags])
        assert rc == 2, flags
        assert "PASS" not in out


def test_extract_prints_only_the_requested_rungs():
    rc, out, _ = run(["extract", "--type", "stieltjes", "--i", "2..2", "--cap", "5"])
    assert rc == 0
    assert [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")] == ["w3", "b4"]
    rc, out, _ = run(["extract", "--type", "newtype", "--i", "2..2", "--cap", "4"])
    assert rc == 0
    assert [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")] == ["y3", "y4"]
    rc, out, _ = run(["extract", "--type", "newtype", "--i", "0..1", "--cap", "4"])
    assert rc == 2 and out == ""


def test_negative_range_is_usage_error():
    rc, out, _ = run(["table", "--what", "b", "--i=-1..1", "--cap", "3"])
    assert rc == 2 and out == ""


def test_non_integer_range_is_usage_error_naming_the_range():
    for argv, bad in ((["table", "--what", "b", "--i", "a..3", "--cap", "3"], "'a..3'"),
                      (["table", "--what", "fn", "--n", "1..x", "--cap", "3"], "'1..x'"),
                      (["table", "--what", "p", "--i", "2.5", "--cap", "3"], "'2.5'"),
                      (["extract", "--type", "newtype", "--i", "1..2..3", "--cap", "3"], "'1..2..3'")):
        rc, out, err = run(argv)
        assert rc == 2 and out == "", argv
        assert err == f"error: non-integer range {bad}\n", argv


def test_verify_n_below_one_is_usage_error():
    # --enum-n 0 alone stays legal for the equality suite
    rc, out, _ = run(["verify", "equality", "--n", "0", "--enum-n", "0"])
    assert rc == 2 and "PASS" not in out
    rc, out, _ = run(["verify", "equality", "--n", "1", "--cap", "3", "--enum-n", "0"])
    assert rc == 0 and out.startswith("PASS equality")


def test_bijection_enum_n_below_one_is_usage_error():
    for suite in ("bijection", "all"):
        rc, out, err = run(["verify", suite, "--enum-n", "0"])
        assert rc == 2 and out == "", suite
        assert "--enum-n" in err


def test_cap_below_one_is_usage_error():
    for argv in (["verify", "stieltjes", "--cap", "0"],
                 ["extract", "--type", "stieltjes", "--cap", "0"],
                 ["extract", "--type", "newtype", "--cap", "-1"]):
        rc, out, _ = run(argv)
        assert rc == 2 and out == "", argv
    rc, out, err = run(["table", "--what", "fn", "--cap", "0"])
    assert rc == 2 and out == "" and "argument --cap: must be >= 1, got 0" in err
    for value in ("0", "-1"):
        rc, out, err = run(["extract", "--type", "stieltjes", "--i", "1..1", "--cap", "2", "--internal-cap", value])
        assert rc == 2 and out == "", value
        assert f"argument --internal-cap: must be >= 1, got {value}" in err


def test_negative_enumeration_bounds_are_usage_errors():
    # each of these used to PASS after zero enumeration checks
    for argv in (["verify", "bijection", "--enum-f", "-1"],
                 ["verify", "equality", "--n", "1", "--cap", "3", "--enum-n", "-2"],
                 ["verify", "equality", "--n", "1", "--cap", "3", "--enum-n", "1", "--enum-f", "-1"]):
        rc, out, err = run(argv)
        assert rc == 2 and out == "", argv
        assert "must be >= 0" in err, argv


def test_conserved_cap_below_six_is_usage_error():
    for suite in ("conserved", "all"):
        rc, out, err = run(["verify", suite, "--cap", "5"])
        assert rc == 2 and out == "", suite
        assert "--cap >= 6" in err
    rc, out, _ = run(["verify", "conserved", "--cap", "6"])
    assert rc == 0 and out.startswith("PASS conserved")


def test_order_below_three_is_usage_error():
    # rejected while parsing, before any suite prints a PASS
    for order in ("2", "0", "-1"):
        rc, out, _ = run(["verify", "all", "--order", order, "--n", "1", "--enum-n", "1", "--enum-f", "0"])
        assert rc == 2, order
        assert out == ""


def test_extract_internal_cap_shortfall_is_reported():
    # at internal cap 8, w3 is exact only to cap 5 and b4 only to cap 2
    rc, out, err = run(
        ["extract", "--type", "stieltjes", "--i", "1..2", "--cap", "6", "--internal-cap", "8"]
    )
    assert rc == 1
    assert out == ""
    assert "w3" in err and "cap 5" in err and "--cap 6" in err


def test_internal_cap_below_the_solved_heights_is_usage_error():
    # the boundary series to order 4 reads f_4, above solve_bw(1)'s heights 0..3;
    # this used to report a weight index beyond the stored range
    rc, out, err = run(["extract", "--type", "stieltjes", "--i", "1..2", "--cap", "3", "--internal-cap", "1"])
    assert rc == 2 and out == ""
    assert "--internal-cap 1 reaches rung 3 of the solver, below rung 4 (--internal-cap at least 2)" in err
    rc, out, err = run(["extract", "--type", "stieltjes", "--i", "1..2", "--cap", "3", "--internal-cap", "2"])
    assert rc == 1 and out == ""
    assert "--internal-cap" not in err


def test_verify_stieltjes_names_a_rung_short_of_cap(monkeypatch):
    # one cap short: the old comparison zero-padded the values and reported
    # a disagreement instead of the precision shortfall
    real = contfrac.stieltjes_rungs_from_solver
    monkeypatch.setattr(contfrac, "stieltjes_rungs_from_solver",
                        lambda cap, i_max: {k: v.with_cap(cap - 1) for k, v in real(cap, i_max).items()})
    rc, out, _ = run(["verify", "stieltjes", "--cap", "4"])
    assert rc == 1
    assert out == "FAIL stieltjes: w1 is exact only to cap 3, below --cap 4\n"


def test_verify_conserved_compares_with_f_n(monkeypatch):
    # wrong at every level alike, so a check of level independence alone passes
    def wrong(n, d, N):
        return [f.with_cap(N - 1) + tb(N - 1) ** (N - 1) for f in f_upto(n, N)[1:]]

    monkeypatch.setattr(slice_solver, "conserved_f", wrong)
    rc, out, _ = run(["verify", "conserved", "--cap", "6"])
    assert rc == 1
    assert out.startswith("FAIL conserved: the bicolored invariant differs from f_n at n=1, level 0")


def test_newtype_cap_below_two_is_usage_error():
    # the extraction reads the solvers at cap - 1; this used to report
    # "cap must be >= 1" for a --cap of 1
    for argv in (["verify", "newtype", "--cap", "1"],
                 ["extract", "--type", "newtype", "--i", "1..1", "--cap", "1"]):
        rc, out, err = run(argv)
        assert rc == 2 and out == "", argv
        assert "newtype extraction needs --cap >= 2, got 1" in err, argv
    rc, out, _ = run(["extract", "--type", "newtype", "--i", "1..1", "--cap", "2"])
    assert rc == 0 and out.startswith("y1: equal")


def test_extract_above_the_solved_heights_is_usage_error():
    # rung 12 of the merged sequence is beyond its heights 0..10 at cap 2;
    # this used to end in an IndexError after the extraction had run
    rc, out, err = run(["extract", "--type", "newtype", "--i", "6..6", "--cap", "2"])
    assert rc == 2 and out == ""
    assert "--cap 2 reaches rung 10 of the solver, below rung 12 (--i up to 5)" in err
    rc, out, err = run(["extract", "--type", "stieltjes", "--i", "1..4", "--cap", "2"])
    assert rc == 2 and out == ""
    assert "--cap 2 reaches rung 6 of the solver, below rung 8 (--i up to 3)" in err


def test_small_extract_and_verify_grid_ends_in_a_classified_exit():
    grid = [["extract", "--type", kind, "--i", i, "--cap", cap]
            for kind in ("stieltjes", "newtype") for i in ("0..1", "1..1", "2..3", "5..5", "6..6")
            for cap in ("1", "2", "3")]
    grid += [["extract", "--type", kind, "--i", "1..2", "--cap", "3", "--internal-cap", internal]
             for kind in ("stieltjes", "newtype") for internal in ("1", "3", "6")]
    grid += [["verify", suite, "--cap", cap] for suite in ("stieltjes", "newtype", "conserved") for cap in ("1", "2", "3")]
    grid += [["verify", "equality", "--n", "2", "--cap", cap, "--enum-n", "1", "--enum-f", "1"] for cap in ("1", "2")]
    for argv in grid:
        rc, _, _ = run(argv)  # an uncaught exception fails the test here
        assert rc in (0, 1, 2), argv


# sha256 of `quadslice verify all` stdout with the default options, recorded
# before the path DP, heaps relations and display checks were each folded
# into one loop
VERIFY_ALL_GOLDEN = "4ddd802ad841d2af43232f15e949a5325b21f57c54a6bffb1210fa158da1f0ff"


def test_verify_all_stdout_matches_golden():
    rc, out, _ = run(["verify", "all"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_GOLDEN


def _fresh_python(*argv):
    """A new interpreter on this checkout's source, its output captured."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def test_importing_the_cli_loads_no_engine_module():
    # each command imports the engine modules it uses, so the parser and
    # the error classes are all a fresh process loads before its command runs
    probe = _fresh_python("-c", "import sys, quadslice.cli; "
                                "print(sorted(m for m in sys.modules if m.startswith('quadslice')))")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "['quadslice', 'quadslice.cli', 'quadslice.errors']\n"


def test_python_dash_m_runs_the_cli():
    def module_run(*argv):
        return _fresh_python("-m", "quadslice", *argv)

    ok = module_run("verify", "reflection", "--seed", "1")
    assert ok.returncode == 0 and ok.stdout.startswith("PASS reflection"), ok.stderr
    table = module_run("table", "--what", "b", "--i", "1..3", "--cap", "5")
    assert table.returncode == 0 and table.stdout.startswith("# index 1\n"), table.stderr
    usage = module_run("verify", "closedforms", "--order", "2")
    assert usage.returncode == 2
    assert "--order" in usage.stderr and "Traceback" not in usage.stderr
