"""End-to-end tests of the command line interface (main() called directly)."""

import json
import re
import sys

import pytest

from awalgebra import cli, relcheck
from awalgebra.cli import main
from awalgebra.exactnum import rational
from awalgebra.opalgebra import build_registry
from awalgebra.reporting import RelationReport
from awalgebra.uqrep import _leg_ops, casimir, interval_ops
from helpers import run_script


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_small_run_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--nmax", "1", "--suite", "defining,prop1"
    )
    assert code == 0
    assert "VERDICT: PASS" in out
    assert "defining" in out and "prop1" in out


def test_verify_all_suites_at_nmax_2(capsys):
    code, out, _ = run(capsys, "verify", "--nmax", "2", "--suite", "all")
    assert code == 0
    assert "0 problems, 0 skipped" in out
    for name in ("prop2", "aw3-quadratic", "master", "independence"):
        assert name in out


def test_verify_report_schema(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "verify", "--nmax", "2", "--suite", "prop1,master",
        "--report", str(path),
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["format_version"] == 1
    assert data["params"] == {"q": "5/3", "k": [1, 2, 1, 3], "legs": 4, "nmax": 2}
    assert data["suites"] == ["prop1", "master"]
    assert data["summary"]["pass"] + data["summary"]["fail"] == len(data["checks"])
    assert data["summary"]["fail"] == 0
    assert set(data["timings_ms"]) == {"prop1", "master"}
    first = data["checks"][0]
    assert {"id", "kind", "status", "expected", "ok", "gating"} <= set(first)


def test_verify_all_expansion_skips_lower_rank(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--legs", "3", "--k", "1,2,1", "--nmax", "2",
        "--suite", "all", "--report", str(path),
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["skipped_suites"] == {
        "prop2": "needs legs=4",
        "master": "needs legs=4",
        "independence": "needs legs=4",
    }
    assert data["summary"]["skipped"] == 3
    assert "skipped (needs legs=4)" in out


@pytest.mark.parametrize("legs, nmax", [(legs, nmax) for legs in (2, 3, 4) for nmax in (1, 2, 3)] + [(4, None)])
def test_verify_reports_each_check_once(capsys, tmp_path, legs, nmax):
    # at three legs the linearized aw3 pair is aw3-quadratic's alone;
    # nmax None is the default verify
    path = tmp_path / "report.json"
    depth = [] if nmax is None else ["--nmax", str(nmax)]
    code, out, _ = run(capsys, "verify", "--legs", str(legs), *depth, "--report", str(path))
    assert code == 0
    ids = [c["id"] for c in json.loads(path.read_text())["checks"]]
    assert len(ids) == len(set(ids))
    verdict = re.search(r"VERDICT: PASS \(\d+ suites, (\d+) checks", out)
    assert verdict and int(verdict.group(1)) == len(ids)
    linear = [i for i in ids if i.startswith("aw3/linear")]
    assert linear == {
        2: [],
        3: ["aw3/linear/line1", "aw3/linear/line2"],
        4: [f"aw3/{tag}/line{n}" for tag in ("linear-embedded", "linear") for n in (1, 2)],
    }[legs]


def test_verify_explicit_incompatible_suite_is_config_error(capsys):
    code, _, err = run(
        capsys,
        "verify", "--legs", "3", "--k", "1,2,1", "--nmax", "2",
        "--suite", "prop2",
    )
    assert code == 2
    assert "needs legs=4" in err


def test_verify_independence_needs_depth(capsys):
    code, _, err = run(
        capsys, "verify", "--nmax", "1", "--suite", "independence"
    )
    assert code == 2
    assert "nmax>=2" in err


def test_verify_rejects_bad_q(capsys):
    for bad in ("1/1", "0", "-1", "1/0", "2.5"):
        code, _, err = run(capsys, "verify", "--q", bad, "--nmax", "1")
        assert code == 2, bad
        assert err.startswith("error:")


def test_verify_negative_q_spaced_form(capsys):
    code, out, _ = run(capsys, "verify", "--q", "-2/5", "--legs", "3", "--nmax", "2")
    assert code == 0
    assert "params: q=-2/5 k=1,2,1 legs=3" in out  # default k cut to --legs
    assert main(["verify", "--q=-2/5", "--legs", "3", "--nmax", "2"]) == 0


def test_verify_rejects_mismatched_k(capsys):
    code, _, err = run(capsys, "verify", "--k", "1,2", "--nmax", "1")
    assert code == 2
    assert "weight label" in err
    code, _, err = run(capsys, "verify", "--k", "1,x,1,3", "--nmax", "1")
    assert code == 2
    assert "comma-separated" in err


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus", "--nmax", "1")
    assert code == 2
    assert "unknown suite" in err


# spellings int() takes and the integer options refuse: underscores,
# blanks and non-ASCII digits (int("1_0") is 10)
NOT_ASCII_INTEGERS = [
    ("verify", "--k", "1_0,1,1,1"),
    ("verify", "--k", "1,2,1,3 "),
    ("verify", "--k", "1,\u0662,1,3"),
    ("verify", "--legs", "0_3"),
    ("verify", "--legs", "\uff13"),
    ("verify", "--nmax", " 1"),
    ("verify", "--nmax", "1\n"),
    ("spectrum", "--weight", "0_1"),
    ("spectrum", "--weight", "\u0661"),
]


@pytest.mark.parametrize("command, option, value", NOT_ASCII_INTEGERS)
def test_integer_options_take_ascii_digits_only(capsys, command, option, value):
    first = ["verify", "--suite", "defining"] if command == "verify" else ["spectrum", "--op", "Q12"]
    nmax = [] if option == "--nmax" else ["--nmax", "1"]
    code, out, err = run(capsys, *first, *nmax, option, value)
    assert (code, out) == (2, ""), value
    assert "error" in err


def test_integer_options_keep_every_ascii_spelling(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "defining", "--k", "+1,02,1,3", "--legs", "+04", "--nmax", "01")
    assert code == 0
    assert "params: q=5/3 k=1,2,1,3 legs=4 nmax=1" in out
    code, out, _ = run(capsys, "spectrum", "--op", "Q12", "--legs", "03", "--nmax", "+2", "--weight", "02")
    assert code == 0
    assert "weight 2" in out and "weight 1" not in out
    code, _, err = run(capsys, "spectrum", "--op", "Q12", "--nmax", "2", "--weight", "-1")
    assert code == 2 and "outside" in err


def test_argparse_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["verify", "--legs", "5"]) == 2
    capsys.readouterr()


def test_verify_gating_failure_exits_1(capsys, monkeypatch):
    broken = RelationReport(
        id="prop1/fake",
        kind="commutator",
        inputs={},
        status="fail",
        residual_summary={"nonzero_entries": 3, "sample": "[0,0] = 1"},
        expected="zero",
    )
    monkeypatch.setattr(relcheck, "check_prop1", lambda reg: [broken])
    code, out, _ = run(capsys, "verify", "--nmax", "1", "--suite", "prop1")
    assert code == 1
    assert "VERDICT: FAIL" in out
    assert "FAIL prop1/fake" in out


def test_verify_wrong_quadratic_constant_exits_1(capsys, monkeypatch):
    right = relcheck.quadratic_constant
    monkeypatch.setattr(relcheck, "quadratic_constant", lambda q: right(q) + rational(1, 7))
    code, out, _ = run(capsys, "verify", "--legs", "3", "--nmax", "3", "--suite", "aw3-quadratic")
    assert code == 1
    assert "VERDICT: FAIL" in out
    assert "FAIL aw3-quadratic/line1" in out


def test_verify_unwritable_report_exits_3(capsys):
    code, _, err = run(
        capsys,
        "verify", "--nmax", "1", "--suite", "defining",
        "--report", "/nonexistent-dir/report.json",
    )
    assert code == 3
    assert err.startswith("error:")


def test_spectrum_interval_label(capsys):
    code, out, _ = run(capsys, "spectrum", "--op", "Q12", "--nmax", "2")
    assert code == 0
    assert "k_A = 3" in out
    assert out.count("ok") == 3  # weights 0, 1, 2


def test_spectrum_single_weight(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--op", "Q1234", "--nmax", "2", "--weight", "1"
    )
    assert code == 0
    assert "weight 1" in out and "weight 0" not in out


def test_spectrum_rejects_non_interval_label(capsys):
    for bad in ("Q13", "IQ24", "Q5", "Q0", "junk"):
        code, _, err = run(capsys, "spectrum", "--op", bad, "--nmax", "1")
        assert code == 2, bad
        assert "not an interval Casimir label" in err
    # a reversed, an involuted and a past-the-legs interval label
    for bad in ("Q21", "IQ12", "Q4"):
        code, _, err = run(capsys, "spectrum", "--op", bad, "--legs", "3", "--nmax", "1")
        assert code == 2, bad
        assert err == f"error: {bad!r} is not an interval Casimir label at legs=3\n"


def test_spectrum_rejects_out_of_range_weight(capsys):
    code, _, err = run(
        capsys, "spectrum", "--op", "Q12", "--nmax", "2", "--weight", "5"
    )
    assert code == 2
    assert "outside" in err


def test_repeated_spectrum_calls_share_one_realization(capsys):
    argv = ["spectrum", "--op", "Q12", "--nmax", "3"]
    assert main(argv) == 0
    caches = (_leg_ops, interval_ops, casimir)
    before = [c.cache_info().misses for c in caches]
    assert main(argv) == 0
    assert [c.cache_info().misses for c in caches] == before
    capsys.readouterr()


def test_compass_after_verify_reuses_the_registry(capsys):
    params = ["--q", "3/7", "--k", "2,1,2,1", "--nmax", "2"]
    assert main(["verify", "--suite", "prop1", *params]) == 0
    before = build_registry.cache_info()
    assert main(["compass", *params]) == 0
    after = build_registry.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    capsys.readouterr()


def test_compass_stdout_and_file_agree(capsys, tmp_path):
    code, out, _ = run(capsys, "compass", "--nmax", "2")
    assert code == 0
    assert out.startswith("digraph compass {")
    path = tmp_path / "pentagon.dot"
    code, _, _ = run(capsys, "compass", "--nmax", "2", "--dot", str(path))
    assert code == 0
    assert path.read_text() == out


def test_compass_unwritable_path_exits_3(capsys):
    code, _, err = run(
        capsys, "compass", "--nmax", "2", "--dot", "/nonexistent-dir/x.dot"
    )
    assert code == 3
    assert err.startswith("error:")


def test_tables_prints_all_rows(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 20
    assert lines[0].startswith("table1 row")
    assert "(Q234, Q12, Q23)" in lines[0]
    assert "(Q1, Q2, Q4)" in lines[0]
    assert sum(line.startswith("table1") for line in lines) == 10
    assert sum(line.startswith("table2") for line in lines) == 10


def test_successive_calls_share_the_parser_but_no_options(capsys, tmp_path):
    # one parser per process; each call's options are its own
    code, out, _ = run(capsys, "spectrum", "--op", "Q12", "--nmax", "2", "--weight", "2")
    assert code == 0
    assert "weight 2" in out and "weight 0" not in out
    code, out, _ = run(capsys, "spectrum", "--op", "Q12", "--nmax", "2")
    assert code == 0
    assert all(f"weight {w} " in out for w in (0, 1, 2))
    report = tmp_path / "f"
    code, _, _ = run(capsys, "verify", "--nmax", "1", "--suite", "defining", "--report", str(report))
    assert code == 0 and report.exists()
    report.unlink()
    code, _, _ = run(capsys, "verify", "--nmax", "1", "--suite", "defining")
    assert code == 0 and not report.exists()
    assert cli._parser.cache_info().misses == 1


def test_commands_import_neither_dataclasses_nor_inspect(tmp_path):
    # dataclasses pulls in inspect, ast, dis and tokenize, about 14 ms of
    # every command's start
    source = (
        "import sys\n"
        "import awalgebra.cli, awalgebra.relcheck\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = run_script(tmp_path / "imports.py", source)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_commands_do_not_import_importlib_resources(tmp_path):
    # relcheck reads its table from next to the module; importlib.resources
    # costs about 9 ms of start.  Without site (-S), no site hook has
    # loaded it before awalgebra does.
    source = (
        "import sys\n"
        "import awalgebra.cli, awalgebra.relcheck\n"
        "print('importlib.resources' in sys.modules)\n"
    )
    done = run_script(tmp_path / "resources.py", source, flags=("-S",))
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_numbers_past_the_digit_limit_print_and_the_limit_is_restored(capsys):
    # at k_1 = 3000 the eigenvalues and prop1's crossing samples have
    # more than 4300 digits, Python's default int-to-str limit; main
    # lifts it for the command alone
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run(capsys, "spectrum", "--op", "Q12", "--k", "3000,1,1,1", "--nmax", "2")
        assert code == 0 and out.endswith("  ok\n")
        assert sys.get_int_max_str_digits() == 4300
        argv = ("verify", "--k", "3000,1,1,1", "--nmax", "2", "--suite", "prop1")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "VERDICT: PASS" in out
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)


def test_commands_run_where_python_has_no_digit_limit(capsys, monkeypatch):
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, out, _ = run(capsys, "spectrum", "--op", "Q12", "--nmax", "2")
    assert code == 0 and out.endswith("  ok\n")
