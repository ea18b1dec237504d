"""CLI tests (`python -m repro ...`)."""

import sys
from pathlib import Path

import pytest

from repro.cli import main

CORPUS = Path(__file__).parent.parent / "src" / "repro" / "corpus"


@pytest.fixture()
def fcl_file(tmp_path):
    def write(source: str) -> str:
        path = tmp_path / "prog.fcl"
        path.write_text(source)
        return str(path)

    return write


GOOD = """
struct data { v : int; }
def add(a : int, b : int) : int { a + b }
def boxed() : data { new data(v = 9) }
"""

BAD = """
struct data { v : int; }
def f(d : data) : unit { send(d) }
"""


class TestCheck:
    def test_ok(self, fcl_file, capsys):
        assert main(["check", fcl_file(GOOD)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_type_error(self, fcl_file, capsys):
        assert main(["check", fcl_file(BAD)]) == 1
        assert "type error" in capsys.readouterr().err

    def test_syntax_error(self, fcl_file):
        with pytest.raises(SystemExit):
            main(["check", fcl_file("struct {")])

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["check", "/nonexistent/x.fcl"])


class TestVerify:
    def test_ok(self, fcl_file, capsys):
        assert main(["verify", fcl_file(GOOD)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_corpus_files_verify(self, capsys):
        for name in ("sll.fcl", "dll.fcl"):
            assert main(["verify", str(CORPUS / name)]) == 0


class TestRun:
    def test_prim_result(self, fcl_file, capsys):
        assert main(["run", fcl_file(GOOD), "add", "20", "22"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_struct_result_rendered(self, fcl_file, capsys):
        assert main(["run", fcl_file(GOOD), "boxed"]) == 0
        out = capsys.readouterr().out
        assert "data{" in out and "v = 9" in out

    def test_bool_args(self, fcl_file, capsys):
        src = "def pick(c : bool) : int { if (c) { 1 } else { 2 } }"
        assert main(["run", fcl_file(src), "pick", "true"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_stats_flag(self, fcl_file, capsys):
        assert main(["run", fcl_file(GOOD), "add", "1", "2", "--stats"]) == 0
        assert "heap_reads" in capsys.readouterr().err

    def test_bad_arg(self, fcl_file):
        with pytest.raises(SystemExit):
            main(["run", fcl_file(GOOD), "add", "banana", "2"])

    def test_typechecked_by_default(self, fcl_file, capsys):
        assert main(["run", fcl_file(BAD), "f"]) == 1

    def test_unchecked_hits_runtime_guard(self, fcl_file, capsys):
        src = """
        struct data { v : int; }
        def f() : int {
          let d = new data(v = 1);
          send(d);
          d.v
        }
        """
        # Single-threaded run cannot even service send: runtime error path.
        assert main(["run", fcl_file(src), "f", "--unchecked"]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_corpus_run(self, capsys):
        assert (
            main(["run", str(CORPUS / "rbtree.fcl"), "build_tree", "20", "3"])
            == 0
        )
        assert "rbtree{" in capsys.readouterr().out


class TestOther:
    def test_derivation(self, fcl_file, capsys):
        assert main(["derivation", fcl_file(GOOD), "add"]) == 0
        out = capsys.readouterr().out
        assert "T0-Function-Definition" in out

    def test_derivation_unknown_function(self, fcl_file):
        assert main(["derivation", fcl_file(GOOD), "nosuch"]) == 1

    def test_regions(self, capsys):
        assert main(["regions", str(CORPUS / "dll.fcl"), "make_dll", "3"]) == 0
        out = capsys.readouterr().out
        assert "dynamic regions" in out
        assert "tree: True" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "This paper" in capsys.readouterr().out

    def test_corpus_command(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "rbtree" in out and "verified" in out

    def test_disasm(self, capsys):
        rb = str(CORPUS / "rbtree.fcl")
        assert main(["disasm", rb, "contains_opt", "--erased"]) == 0
        out = capsys.readouterr().out
        assert "func contains_opt" in out
        assert "; pass regalloc: slots_coalesced+" in out
        assert main(["disasm", rb, "contains_opt", "--erased",
                     "--no-opt"]) == 0
        baseline = capsys.readouterr().out
        assert "; pass" not in baseline
        assert len(baseline.splitlines()) > len(out.splitlines())

    def test_disasm_whole_program_and_errors(self, fcl_file, capsys):
        assert main(["disasm", fcl_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "func add" in out
        assert main(["disasm", fcl_file(GOOD), "nosuch"]) == 1


class TestTraceFlag:
    def test_run_with_trace(self, capsys):
        from repro.cli import main

        assert (
            main(["run", str(CORPUS / "sll.fcl"), "make_list", "2", "--trace", "5"])
            == 0
        )
        captured = capsys.readouterr()
        assert "alloc" in captured.err or "write" in captured.err

    def test_trace_default_count(self, capsys):
        from repro.cli import main

        assert main(["run", str(CORPUS / "sll.fcl"), "make_list", "1", "--trace"]) == 0
        assert "#" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_runs_everything(self, fcl_file, capsys):
        src = GOOD + "\ndef main() : int { add(1, 2) }\n"
        assert main(["stats", fcl_file(src)]) == 0
        out = capsys.readouterr().out
        assert "checked + verified" in out and "ran main()" in out
        assert "checker.rule.T0-Function-Definition" in out
        assert "machine.steps" in out
        assert "verifier.obligations" in out

    def test_stats_explicit_function_and_args(self, fcl_file, capsys):
        assert main(["stats", fcl_file(GOOD), "add", "1", "2"]) == 0
        assert "ran add()" in capsys.readouterr().out

    def test_stats_without_entry_still_reports(self, fcl_file, capsys):
        assert main(["stats", fcl_file(GOOD)]) == 0  # no zero-arg... boxed is
        out = capsys.readouterr().out
        assert "checked + verified" in out

    def test_stats_unknown_function(self, fcl_file, capsys):
        assert main(["stats", fcl_file(GOOD), "nosuch"]) == 1

    def test_stats_type_error(self, fcl_file, capsys):
        assert main(["stats", fcl_file(BAD)]) == 1

    def test_stats_on_quickstart_example(self, capsys):
        example = Path(__file__).parent.parent / "examples" / "quickstart.py"
        assert main(["stats", str(example)]) == 0
        out = capsys.readouterr().out
        assert "ran demo()" in out
        assert "checker.vt.V5-Attach" in out

    def test_stats_restores_disabled_registry(self, fcl_file, capsys):
        from repro import telemetry

        assert main(["stats", fcl_file(GOOD)]) == 0
        assert telemetry.registry().enabled is False


class TestMetricsJson:
    def _valid(self, path):
        import json

        from repro.telemetry import validate

        schema = json.loads(
            (
                Path(__file__).parent.parent / "benchmarks" / "metrics.schema.json"
            ).read_text()
        )
        doc = json.loads(Path(path).read_text())
        validate(doc, schema)
        return doc

    def test_check_metrics_json(self, fcl_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["check", fcl_file(GOOD), "--metrics-json", str(out)]) == 0
        doc = self._valid(out)
        assert doc["counters"]["checker.functions"] == 2

    def test_run_metrics_json(self, fcl_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        args = ["run", fcl_file(GOOD), "add", "1", "2", "--metrics-json", str(out)]
        assert main(args) == 0
        doc = self._valid(out)
        assert doc["counters"]["machine.steps"] > 0

    def test_verify_metrics_json(self, fcl_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["verify", fcl_file(GOOD), "--metrics-json", str(out)]) == 0
        doc = self._valid(out)
        assert doc["counters"]["verifier.obligations"] > 0

    def test_stats_metrics_json_meets_acceptance(self, tmp_path, capsys):
        """The ISSUE acceptance check: nonzero T-rule, V1–V5, oracle-hit,
        machine-step, and reservation-check counters for quickstart."""
        example = Path(__file__).parent.parent / "examples" / "quickstart.py"
        out = tmp_path / "m.json"
        assert main(["stats", str(example), "--metrics-json", str(out)]) == 0
        counters = self._valid(out)["counters"]
        for name in (
            "checker.rule.T0-Function-Definition",
            "checker.vt.V1-Focus",
            "checker.vt.V2-Unfocus",
            "checker.vt.V3-Explore",
            "checker.vt.V4-Retract",
            "checker.vt.V5-Attach",
            "checker.oracle.hits",
            "machine.steps",
            "machine.reservation_checks",
        ):
            assert counters.get(name, 0) > 0, name


class TestTraceJson:
    def test_run_trace_json(self, fcl_file, tmp_path, capsys):
        import json

        out = tmp_path / "events.jsonl"
        args = ["run", fcl_file(GOOD), "boxed", "--trace-json", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        assert events[0]["kind"] == "alloc"
        assert all("seq" in e and "loc" in e for e in events)
        assert "trace events" in capsys.readouterr().err


class TestEmbeddedPythonSource:
    def test_py_file_without_source_literal(self, tmp_path):
        path = tmp_path / "nope.py"
        path.write_text("x = 1\n")
        with pytest.raises(SystemExit):
            main(["check", str(path)])

    def test_py_file_with_bad_python(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def oops(:\n")
        with pytest.raises(SystemExit):
            main(["check", str(path)])

    def test_check_accepts_embedded_source(self, tmp_path, capsys):
        path = tmp_path / "prog.py"
        path.write_text(f'SOURCE = """{GOOD}"""\n')
        assert main(["check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out


class TestExitCodes:
    """The documented exit-code contract (README + `repro.api.ExitCode`)."""

    def test_ok_is_zero(self, fcl_file):
        assert main(["check", fcl_file(GOOD)]) == 0
        assert main(["verify", fcl_file(GOOD)]) == 0
        assert main(["run", fcl_file(GOOD), "add", "1", "2"]) == 0

    def test_check_reject_is_one(self, fcl_file, capsys):
        assert main(["check", fcl_file(BAD)]) == 1
        assert main(["verify", fcl_file(BAD)]) == 1
        capsys.readouterr()

    def test_syntax_error_is_one(self, fcl_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", fcl_file("struct {")])
        assert excinfo.value.code == 1
        capsys.readouterr()

    def test_runtime_error_is_three(self, fcl_file, capsys):
        racy = """
        struct data { v : int; }
        def f() : int { let d = new data(v = 1); send(d); d.v }
        """
        assert main(["run", "--unchecked", fcl_file(racy), "f"]) == 3
        capsys.readouterr()

    def test_step_budget_exhaustion_is_three(self, fcl_file, capsys):
        assert (
            main(["run", "--max-steps", "1", fcl_file(GOOD), "add", "1", "2"])
            == 3
        )
        assert "step budget" in capsys.readouterr().err

    def test_usage_error_is_sixty_four(self, fcl_file, capsys):
        # argparse-level: unknown subcommand and unknown flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 64
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--no-such-flag", fcl_file(GOOD)])
        assert excinfo.value.code == 64
        # Hand-rolled validation: flag conflicts and bad values.
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--trust-cache", fcl_file(GOOD)])
        assert excinfo.value.code == 64
        with pytest.raises(SystemExit) as excinfo:
            main(["run", fcl_file(GOOD), "add", "zzz"])
        assert excinfo.value.code == 64
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--threads", "0"],
            ["serve", "--max-queue", "0"],
            ["serve", "--timeout", "0"],
            ["serve", "--timeout", "-1.5"],
            ["serve", "--max-frame", "0"],
            ["serve", "--max-steps", "-5"],
            ["serve", "--cache-entries", "0"],
            ["serve", "--cache-bytes", "0"],
            ["run", "F", "f", "1", "--max-steps", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
    )
    def test_limit_of_zero_or_less_is_sixty_four(self, argv, capsys):
        # A limit that would refuse all work is refused at parse time,
        # before any socket, thread or program exists.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 64
        assert f"argument {argv[-2]}: must be above 0" in capsys.readouterr().err


class TestConsoleScript:
    def test_fcl_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", "from repro.cli import main; raise SystemExit(main(['corpus']))"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert "rbtree" in proc.stdout
