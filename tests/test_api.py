"""Tests for the stable programmatic facade (`repro.api`)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.api import CheckResult, Diagnostic, ExitCode, RunResult, VerifyResult

GOOD = """
struct data { v : int; }
def add(a : int, b : int) : int { a + b }
def boxed() : data { new data(v = 9) }
"""

BAD_TYPE = """
struct data { v : int; }
def f(d : data) : unit { send(d) }
"""

BAD_SYNTAX = "struct {"


class TestCheck:
    def test_ok(self):
        result = api.check(GOOD)
        assert result.ok
        assert result.functions == 2
        assert result.nodes > 0
        assert result.diagnostics == []
        assert result.exit_code is ExitCode.OK

    def test_type_error(self):
        result = api.check(BAD_TYPE, filename="bad.fcl")
        assert not result.ok
        assert result.exit_code is ExitCode.CHECK_REJECT
        (diag,) = result.diagnostics
        assert diag.file == "bad.fcl"
        assert diag.severity == "error"
        assert diag.code == "SendError"
        assert "send" in diag.message
        assert diag.span is not None and len(diag.span) == 4

    def test_syntax_error_is_diagnostic_not_exception(self):
        result = api.check(BAD_SYNTAX)
        assert not result.ok
        (diag,) = result.diagnostics
        assert diag.code == "ParseError"
        # str(ParseError) embeds "line:col: "; the facade strips it.
        assert not diag.message.split(" ")[0].rstrip(":").replace(
            ":", ""
        ).isdigit()

    def test_to_dict_round_trip(self):
        for source in (GOOD, BAD_TYPE, BAD_SYNTAX):
            result = api.check(source)
            again = CheckResult.from_dict(result.to_dict())
            assert again.to_dict() == result.to_dict()

    def test_session_matches_cold_path(self):
        from repro.pipeline.session import ProgramSession

        cold = api.check(GOOD, filename="x.fcl")
        warm = api.check(
            GOOD, filename="x.fcl", session=ProgramSession(GOOD)
        )
        assert warm.to_dict() == cold.to_dict()


class TestVerify:
    def test_ok(self):
        result = api.verify(GOOD)
        assert result.ok
        assert result.verified == result.nodes > 0
        assert result.exit_code is ExitCode.OK

    def test_check_reject_maps_to_exit_1(self):
        result = api.verify(BAD_TYPE)
        assert not result.ok
        assert result.exit_code is ExitCode.CHECK_REJECT

    def test_round_trip(self):
        result = api.verify(GOOD)
        assert (
            VerifyResult.from_dict(result.to_dict()).to_dict()
            == result.to_dict()
        )

    def test_accepts_preparsed_program(self, monkeypatch):
        from repro.lang import parse_program

        program = parse_program(GOOD)
        expected = api.verify(GOOD).to_dict()

        def no_reparse(source):
            raise AssertionError("the preparsed program was parsed again")

        monkeypatch.setattr("repro.pipeline.session.parse_program", no_reparse)
        result = api.verify(GOOD, program=program)
        assert result.ok and result.verified > 0
        assert result.to_dict() == expected


class TestRun:
    def test_ok(self):
        result = api.run(GOOD, "add", [20, 22])
        assert result.ok
        assert result.value == "42"
        assert result.steps > 0
        assert result.exit_code is ExitCode.OK

    def test_struct_rendering(self):
        result = api.run(GOOD, "boxed")
        assert result.ok
        assert "data{" in result.value and "v = 9" in result.value

    def test_unknown_function(self):
        result = api.run(GOOD, "nosuch")
        assert not result.ok
        assert result.diagnostics[0].code == "MachineError"
        assert result.exit_code is ExitCode.RUNTIME_ERROR

    def test_check_first_rejects(self):
        result = api.run(BAD_TYPE, "f", [])
        assert not result.ok
        assert result.exit_code is ExitCode.CHECK_REJECT

    def test_max_steps_budget(self):
        unbounded = api.run(GOOD, "add", [1, 2])
        assert unbounded.ok
        generous = api.run(GOOD, "add", [1, 2], max_steps=10_000)
        assert generous.ok and generous.steps == unbounded.steps
        tight = api.run(GOOD, "add", [1, 2], max_steps=1)
        assert not tight.ok
        (diag,) = tight.diagnostics
        assert diag.code == "StepLimitExceeded"
        assert tight.exit_code is ExitCode.RUNTIME_ERROR

    def test_round_trip(self):
        result = api.run(GOOD, "add", [1, 2])
        assert (
            RunResult.from_dict(result.to_dict()).to_dict() == result.to_dict()
        )


class TestDiagnostic:
    def test_wire_shape_has_exactly_five_keys(self):
        diag = Diagnostic(
            file="a.fcl",
            severity="error",
            code="SendError",
            message="nope",
            span=(1, 2, 3, 4),
        )
        data = diag.to_dict()
        assert sorted(data) == ["code", "file", "message", "severity", "span"]
        assert data["span"] == [1, 2, 3, 4]
        assert Diagnostic.from_dict(data) == diag
        assert json.loads(json.dumps(data)) == data

    def test_render_verification_failure_one_liner(self):
        diag = Diagnostic(
            file="p.fcl",
            severity="error",
            code="VerificationError",
            message="bad certificate",
        )
        assert diag.render() == "p.fcl: VERIFICATION FAILED: bad certificate"

    def test_render_runtime_one_liner(self):
        diag = Diagnostic(
            file="p.fcl",
            severity="error",
            code="StepLimitExceeded",
            message="step budget exceeded (9 steps)",
        )
        assert diag.render() == "runtime error: step budget exceeded (9 steps)"

    def test_render_type_error_has_caret(self):
        result = api.check(BAD_TYPE, filename="bad.fcl")
        text = result.diagnostics[0].render(BAD_TYPE)
        assert "bad.fcl:" in text and "type error" in text and "^" in text


class TestExitCode:
    def test_documented_values(self):
        assert ExitCode.OK == 0
        assert ExitCode.CHECK_REJECT == 1
        assert ExitCode.VERIFY_FAIL == 2
        assert ExitCode.RUNTIME_ERROR == 3
        assert ExitCode.DIVERGENCE == 4
        assert ExitCode.FUZZ_VIOLATION == 5
        assert ExitCode.USAGE == 64


def _nested_parens(depth):
    return "def f(x : int) : int { " + "(" * depth + "x" + " + 1)" * depth + " }"


def _nested_ifs(depth):
    body = "x"
    for i in range(depth):
        body = f"if (x > {i}) {{ {body} }} else {{ {i} }}"
    return "def f(x : int) : int { " + body + " }"


class TestDeepNesting:
    """Nesting deeper than the recursive parser, checker or verifier can
    follow is one ``NestingTooDeep`` diagnostic at every entry point,
    never a ``RecursionError``."""

    ENTRY_POINTS = {
        "check": lambda src: api.check(src),
        "verify": lambda src: api.verify(src),
        "run": lambda src: api.run(src, "f", [1]),
        "Session": lambda src: api.Session(src).check(),
    }

    # At Python's default limit, parsing the parentheses overflows from
    # about 98 deep; the ifs parse up to about 326 deep but checking them
    # overflows from about 198.  The depths leave room either side.
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "source",
        [_nested_parens(150), _nested_ifs(260)],
        ids=["parens-150", "ifs-260"],
    )
    def test_default_recursion_limit(self, entry, source):
        from repro.lang import parse_program

        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)  # what a library caller has
            if "if" in source:
                parse_program(source)  # parses cleanly; checking overflows
            result = self.ENTRY_POINTS[entry](source)
        finally:
            sys.setrecursionlimit(limit)
        assert not result.ok
        assert result.exit_code is ExitCode.CHECK_REJECT
        (diag,) = result.diagnostics
        assert diag.code == "NestingTooDeep"
        assert "nests too deeply" in diag.message

    def _repro(self, *argv):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_cli_rejects_without_traceback(self, tmp_path):
        deep = tmp_path / "deep.fcl"
        deep.write_text(_nested_parens(20_000))
        check = self._repro("check", str(deep))
        assert check.returncode == 1
        assert "Traceback" not in check.stderr
        assert "nests too deeply" in check.stderr
        batch = self._repro("batch", str(deep))
        assert batch.returncode == 1
        assert "Traceback" not in batch.stderr
        assert "REJECTED — NestingTooDeep" in batch.stdout

    def test_cli_still_checks_deep_programs(self, tmp_path, capsys):
        # Five times deeper than the default limit allows: the CLI's own
        # raised limit still decides, no new one was added.  (Depth 2,000
        # checks too, but checking cost grows with depth squared.)
        from repro.cli import main

        ok = tmp_path / "ok.fcl"
        ok.write_text(_nested_parens(500))
        assert main(["check", str(ok)]) == 0
        assert "OK" in capsys.readouterr().out


class TestRetiredShims:
    def test_bench_command_and_exit_alias_are_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == ExitCode.USAGE
        capsys.readouterr()
        # No alias is left on 3 (RUNTIME_ERROR).
        assert set(ExitCode.__members__) == {
            "OK", "CHECK_REJECT", "VERIFY_FAIL", "RUNTIME_ERROR",
            "DIVERGENCE", "FUZZ_VIOLATION", "USAGE",
        }

    def test_check_source_shim_is_gone(self):
        import repro

        assert not hasattr(repro, "check_source")
        assert "check_source" not in repro.__all__

    def test_verify_source_shim_is_gone(self):
        import repro

        assert not hasattr(repro, "verify_source")
        assert "verify_source" not in repro.__all__

    def test_package_reexports_facade(self):
        import repro

        assert repro.CheckResult is CheckResult
        assert repro.ExitCode is ExitCode
        assert repro.Session is api.Session
        assert repro.api is api
