import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from engelgraph import BaerViolation, NotASubgroup
from engelgraph.cli import main

# the package re-exports the function `survey` under the module's name
survey_module = importlib.import_module("engelgraph.survey")


def test_report_command(tmp_path, capsys):
    json_path = tmp_path / "s3.json"
    dot_path = tmp_path / "s3.dot"
    code = main(
        ["report", "--group", "S3", "--json", str(json_path), "--dot", str(dot_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["name"] == "S3" and data["cliqueNumber"] == 3
    assert json_path.read_text() == out
    dot = dot_path.read_text()
    assert dot.startswith("graph {") and dot.count("--") == 3


def test_report_engel_group_writes_empty_dot(tmp_path, capsys):
    dot_path = tmp_path / "c6.dot"
    code = main(["report", "--group", "C6", "--dot", str(dot_path)])
    assert code == 0
    assert dot_path.read_text() == "graph {\n}\n"
    assert "Engel group" in capsys.readouterr().err


def test_report_rejects_bad_spec(capsys):
    assert main(["report", "--group", "D7"]) == 2
    assert "error" in capsys.readouterr().err


def test_report_rejects_group_above_order_limit(capsys):
    assert main(["report", "--group", "S7"]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_rejects_huge_spec_numbers_at_once(capsys):
    # S1000000000! is never computed, and a number too long for int() is
    # a malformed spec, not an internal error
    for spec in ("S1000000000", "S1000000xC2", "C" + "9" * 5000):
        start = time.perf_counter()
        assert main(["report", "--group", spec]) == 2, spec
        assert time.perf_counter() - start < 2, spec
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unwritable_output_paths_are_usage_errors(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for option in ("--json", "--dot"):
        path = tmp_path / "missing" / "s3.out"
        assert main(["report", "--group", "S3", option, str(path)]) == 2, option
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: No such file or directory\n", err

    # --out is made before any plan is evaluated
    def no_survey(*args, **kwargs):
        raise AssertionError("the survey ran before --out was made")

    monkeypatch.setattr("engelgraph.cli.survey", no_survey)
    for out in (blocker / "x", blocker):
        assert main(["survey", "--max-order", "12", "--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err
    # and only once the bounds are known to be valid
    unmade = tmp_path / "unmade"
    assert main(["survey", "--max-order", "3", "--out", str(unmade)]) == 2
    assert capsys.readouterr().err == "error: max_order must be at least 6, got 3\n"
    assert not unmade.exists()


def test_report_rejects_unreadable_generator_files(repo_root, monkeypatch, capsys):
    monkeypatch.chdir(repo_root)
    for spec in ("@nope.gens", "@fixtures"):
        assert main(["report", "--group", spec]) == 2, spec
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read"), err


def test_report_rejects_a_non_decimal_point(tmp_path, capsys):
    # "²" is a digit to str.isdigit but not to int(): a usage error, not
    # an internal one
    path = tmp_path / "square.gens"
    path.write_text("(1,2)\n(3,²)\n")
    assert main(["report", "--group", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}:2: expected a point number (at position 3)\n", err


def test_internal_errors_are_not_usage_errors(monkeypatch, capsys):
    # only the output writes turn an OSError into a usage error, and only a
    # ParseError, InvalidParameter or ClosureTooLarge is one among the
    # package's own errors
    for error in (
        ValueError("element set is not closed"),
        OSError("cannot map table"),
        NotASubgroup("the normal closure is not closed"),
        BaerViolation("L(G) is not normal"),
    ):
        def broken(spec):
            raise error

        monkeypatch.setattr("engelgraph.cli.evaluate_group", broken)
        assert main(["report", "--group", "S3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and f"{type(error).__name__}: {error}" in err


def test_report_prints_failed_check_details(monkeypatch, capsys):
    # a wrong randomly-Engel test makes the cross-check against L(G) fail
    monkeypatch.setattr(
        survey_module, "_randomly_engel_answers", lambda G: (True,) * G.order
    )
    assert main(["report", "--group", "S3"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["checks"]["fitting_matches_randomly_engel"] is False
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAILED fitting_matches_randomly_engel: element ")


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["report"]) == 2
    capsys.readouterr()


def test_survey_command(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = main(["survey", "--max-order", "12", "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "surveyed" in printed and "diameter histogram" in printed
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [
        "A4.json",
        "D12.json",
        "Dic3.json",
        "S3.json",
        "S3xC2.json",
        "summary.json",
    ]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["maxOrder"] == 12


def test_survey_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["survey", "--max-order", "12", "--out", str(first)]) == 0
    survey_module._catalog_pass.cache_clear()  # so the second run evaluates too
    assert main(["survey", "--max-order", "12", "--out", str(second)]) == 0
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_survey_verify_prints_both_from_one_catalog_pass(monkeypatch, capsys):
    assert main(["survey", "--max-order", "12"]) == 0
    assert main(["verify", "--max-order", "12"]) == 0
    separate = capsys.readouterr().out

    survey_module._catalog_pass.cache_clear()
    evaluated = []
    evaluate = survey_module.evaluate_group

    def counting(spec):
        evaluated.append(spec)
        return evaluate(spec)

    monkeypatch.setattr(survey_module, "evaluate_group", counting)
    assert main(["survey", "--max-order", "12", "--verify"]) == 0
    assert capsys.readouterr().out == separate
    assert evaluated == survey_module.catalog_plans(12)  # each plan once


def test_survey_verify_exit_codes(monkeypatch, capsys):
    for order in (6, 11):
        assert main(["survey", "--max-order", str(order), "--verify"]) == 2, order
        assert capsys.readouterr().err == f"error: max_order must be at least 12, got {order}\n"
    assert main(["survey", "--max-order", "11"]) == 0  # without --verify, 6 is the least
    capsys.readouterr()

    failing = survey_module.TheoremVerdict("planar_classification", False, "planar=[]")
    monkeypatch.setattr("engelgraph.cli.verify_theorems", lambda max_order: [failing])
    assert main(["survey", "--max-order", "12", "--verify"]) == 1
    assert capsys.readouterr().out.endswith("FAIL planar_classification: planar=[]\n")


def test_verify_command(capsys):
    assert main(["verify", "--max-order", "12"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_verify_bad_bound(capsys):
    assert main(["verify", "--max-order", "3"]) == 2
    capsys.readouterr()


def test_bounds_above_the_order_limit_are_usage_errors(capsys):
    for command in ("survey", "verify"):
        assert main([command, "--max-order", "5000"]) == 2, command
        err = capsys.readouterr().err
        assert err == "error: max_order must be at most the order limit of 4096, got 5000\n", err


def test_jobs_is_not_an_option(capsys):
    # every catalog pass is serial, so `--jobs` is a usage error
    for command in ("survey", "verify"):
        assert main([command, "--max-order", "12", "--jobs", "2"]) == 2, command
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err, command


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "engelgraph.cli", "report", "--group", "S3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "S3"


def test_catalog_and_report_runs_never_import_networkx_or_a_process_pool():
    # networkx is imported only for the planarity of sparse graphs and for
    # isomorphism on more than six vertices, which do not come up in a
    # catalog run or a report of S4, and nothing starts worker processes,
    # so neither networkx nor the process pool of concurrent.futures is
    # loaded.  A fresh interpreter, since this suite imports networkx itself
    code = """
import sys
import engelgraph
from engelgraph import cli, survey, verify_theorems
result = survey(120)
assert result.planar_groups == ["S3", "D12", "Dic3", "S3xC2"], result.planar_groups
assert all(v.passed for v in verify_theorems(120))
assert cli.main(["report", "--group", "S4"]) == 0
loaded = [m for m in ("networkx", "concurrent.futures.process") if m in sys.modules]
assert not loaded, loaded
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
