"""Pipeline tests: cache-key invalidation, certificate store round trips,
parity with the plain checker and verifier (results, diagnostics,
counters), the ``repro batch`` CLI contract, and fixed-seed fuzz parity
under ``--jobs``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import telemetry
from repro.cli import main
from repro.core.checker import CHECKER_VERSION, DEFAULT_PROFILE, Checker
from repro.core.errors import TypeError_
from repro.corpus import corpus_names, load_source
from repro.corpus.negative import NEGATIVE_CASES
from repro.fuzz import FuzzConfig, run_campaign
from repro.lang import parse_program
from repro.pipeline import (
    CacheEntry,
    CertCache,
    ErrorInfo,
    Pipeline,
    ProgramFingerprints,
    ProgramSession,
    callees_of,
    discover,
)
from repro.verifier import VerificationError, Verifier

CORPUS_DIR = Path(__file__).parent.parent / "src" / "repro" / "corpus"

SOURCE = """
struct data { v : int; }
def leaf(x : int) : int { x + 1 }
def mid(x : int) : int { leaf(x) + 2 }
def top(x : int) : int { mid(x) + leaf(x) }
def lone(d : data) : int { d.v }
"""


def keys_of(source: str, profile=DEFAULT_PROFILE, version=CHECKER_VERSION):
    program = parse_program(source)
    fp = ProgramFingerprints(program, profile=profile, version=version)
    return {name: fp.key(name) for name in program.funcs}


@pytest.fixture(autouse=True)
def _clean_global_registry():
    yield
    telemetry.disable()


class TestCacheKeys:
    def test_whitespace_and_comment_edits_are_noops(self):
        noisy = SOURCE.replace(
            "def leaf(x : int) : int { x + 1 }",
            "def leaf( x : int )   : int {\n  // a comment\n  x + 1\n}",
        )
        assert keys_of(SOURCE) == keys_of(noisy)

    def test_body_edit_invalidates_only_that_function(self):
        edited = SOURCE.replace("{ x + 1 }", "{ x + 2 }")
        before, after = keys_of(SOURCE), keys_of(edited)
        assert before["leaf"] != after["leaf"]
        # Callers hash the callee's *header*, which did not change.
        assert before["mid"] == after["mid"]
        assert before["top"] == after["top"]
        assert before["lone"] == after["lone"]

    def test_signature_edit_invalidates_function_and_callers(self):
        edited = SOURCE.replace(
            "def leaf(x : int) : int", "def leaf(x : int, y : int) : int"
        ).replace("leaf(x)", "leaf(x, 0)")
        before, after = keys_of(SOURCE), keys_of(edited)
        assert before["leaf"] != after["leaf"]
        assert before["mid"] != after["mid"]  # calls leaf
        assert before["top"] != after["top"]  # calls leaf and mid
        assert before["lone"] == after["lone"]  # calls nothing

    def test_struct_edit_invalidates_everything(self):
        edited = SOURCE.replace(
            "struct data { v : int; }", "struct data { v : int; w : int; }"
        )
        before, after = keys_of(SOURCE), keys_of(edited)
        assert all(before[name] != after[name] for name in before)

    def test_version_and_profile_are_key_material(self):
        base = keys_of(SOURCE)
        assert keys_of(SOURCE, version="repro-checker/other") != base
        doctored = replace(DEFAULT_PROFILE, unsound_send_keeps_region=True)
        assert keys_of(SOURCE, profile=doctored) != base

    def test_callees_are_direct_only(self):
        program = parse_program(SOURCE)
        assert callees_of(program.func("top"), program) == ["leaf", "mid"]
        assert callees_of(program.func("mid"), program) == ["leaf"]
        assert callees_of(program.func("lone"), program) == []


class TestCertCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CertCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) == ("miss", None)
        entry = CacheEntry(func="f", nodes=3, verified=4, cert="{}")
        cache.put(key, entry)
        status, got = cache.get(key)
        assert status == "hit"
        assert (got.func, got.nodes, got.verified, got.cert) == ("f", 3, 4, "{}")
        assert len(cache) == 1

    def test_corrupt_entry_is_stale(self, tmp_path):
        cache = CertCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, CacheEntry(func="f", nodes=1, verified=1, cert="{}"))
        cache.path_for(key).write_text("not json at all")
        assert cache.get(key) == ("stale", None)

    def test_version_mismatch_is_stale(self, tmp_path):
        cache = CertCache(tmp_path)
        key = "ef" + "2" * 62
        cache.put(
            key,
            CacheEntry(
                func="f", nodes=1, verified=1, cert="{}", version="repro-checker/0"
            ),
        )
        assert cache.get(key) == ("stale", None)


class TestPipelineCache:
    def test_cold_then_warm_then_trusted(self, tmp_path):
        with Pipeline(cache_dir=str(tmp_path)) as pipeline:
            cold = pipeline.run("p", SOURCE)
            warm = pipeline.run("p", SOURCE)
        assert cold.ok and warm.ok
        assert cold.counts() == {"hit": 0, "miss": 4, "stale": 0}
        assert warm.counts() == {"hit": 4, "miss": 0, "stale": 0}
        assert (cold.nodes, cold.verified) == (warm.nodes, warm.verified)
        with Pipeline(cache_dir=str(tmp_path), trust_cache=True) as pipeline:
            trusted = pipeline.run("p", SOURCE)
        assert trusted.ok
        assert (trusted.nodes, trusted.verified) == (cold.nodes, cold.verified)

    def test_trusted_hits_never_run_the_verifier(self, tmp_path, monkeypatch):
        """A trusted warm run is a hash lookup per function: neither the
        checker nor the verifier runs."""
        with Pipeline(cache_dir=str(tmp_path)) as pipeline:
            assert pipeline.run("p", SOURCE).ok

        def refuse(stage):
            def run(self, *args):
                raise AssertionError(stage)

            return run

        monkeypatch.setattr(Verifier, "verify_function", refuse("verified"))
        monkeypatch.setattr(Checker, "check_function", refuse("checked"))
        with Pipeline(cache_dir=str(tmp_path), trust_cache=True) as pipeline:
            result = pipeline.run("p", SOURCE)
        assert result.ok
        assert {f.cached for f in result.functions} == {"trusted"}

    def test_tampered_certificate_self_heals(self, tmp_path):
        def bogus_payload(cert):
            return '{"rule": "bogus"}'

        def unparsable_input_type(cert):
            doc = json.loads(cert)
            doc["input"] = json.loads(
                json.dumps(doc["input"]).replace('"int"', '"in(t"')
            )
            return json.dumps(doc)

        for tamper in (bogus_payload, unparsable_input_type):
            cache_dir = str(tmp_path / tamper.__name__)
            with Pipeline(cache_dir=cache_dir) as pipeline:
                assert pipeline.run("p", SOURCE).ok
            # Corrupt one stored certificate *payload* while keeping the
            # entry envelope valid: the replay must fail and fall back to
            # a fresh derivation, not reject the program or raise.
            session = ProgramSession(SOURCE)
            cache = CertCache(cache_dir)
            key = session.function_key("leaf")
            path = cache.path_for(key)
            data = json.loads(path.read_text())
            tampered = tamper(data["cert"])
            assert tampered != data["cert"]
            data["cert"] = tampered
            path.write_text(json.dumps(data))
            with Pipeline(cache_dir=cache_dir) as pipeline:
                healed = pipeline.run("p", SOURCE)
            assert healed.ok, tamper.__name__
            assert healed.counts() == {"hit": 3, "miss": 0, "stale": 1}
            # And the fresh certificate was written back: next run is all
            # hits.
            with Pipeline(cache_dir=cache_dir) as pipeline:
                again = pipeline.run("p", SOURCE)
            assert again.counts() == {"hit": 4, "miss": 0, "stale": 0}

    def test_check_only_mode_reads_but_never_writes(self, tmp_path):
        with Pipeline(cache_dir=str(tmp_path), verify=False) as pipeline:
            assert pipeline.run("p", SOURCE).ok
        # Nothing was verified, so nothing may be cached (only verified
        # certificates are sound to replay).
        assert len(CertCache(str(tmp_path))) == 0
        with Pipeline(cache_dir=str(tmp_path)) as pipeline:
            assert pipeline.run("p", SOURCE).ok
        with Pipeline(cache_dir=str(tmp_path), verify=False) as pipeline:
            result = pipeline.run("p", SOURCE)
        assert result.counts()["hit"] == 4


def _counters(reg):
    return {
        name: c.value
        for name, c in reg.counters.items()
        if not name.startswith("pipeline.")
    }


class TestPlainEntryPointParity:
    """A pipeline run reports what ``Checker.check_program`` +
    ``Verifier.verify_program`` report, with the same counters (the
    ``pipeline.*`` family aside)."""

    def test_corpus_results_and_metrics_agree(self):
        with Pipeline() as pipeline:
            for name in corpus_names():
                source = load_source(name)
                reg = telemetry.enable()
                program = parse_program(source)
                derivation = Checker(program).check_program()
                nodes = Verifier(program).verify_program(derivation)
                telemetry.disable()
                baseline = {n: c.value for n, c in reg.counters.items()}

                reg = telemetry.enable()
                result = pipeline.run(name, source)
                telemetry.disable()
                assert result.ok, name
                assert result.nodes == derivation.node_count(), name
                assert result.verified == nodes, name
                assert _counters(reg) == baseline, name

    def test_negative_corpus_diagnostics_and_metrics_agree(self):
        parsable = []
        for case in NEGATIVE_CASES:
            try:
                program = parse_program(case.source)
            except Exception:
                continue
            reg = telemetry.enable()
            try:
                Checker(program).check_program()
                serial = None
            except TypeError_ as exc:
                serial = (type(exc).__name__, exc.message, exc.span)
            finally:
                telemetry.disable()
            parsable.append(
                (case, serial, {n: c.value for n, c in reg.counters.items()})
            )
        assert parsable, "negative corpus should have parsable cases"

        with Pipeline() as pipeline:
            for case, serial, counters in parsable:
                reg = telemetry.enable()
                result = pipeline.run(case.name, case.source)
                telemetry.disable()
                if serial is None:
                    assert result.ok
                else:
                    cls, message, span = serial
                    error = result.error
                    assert not result.ok
                    assert error.stage == "check"
                    assert error.cls == cls
                    assert error.message == message
                    if span is not None:
                        assert error.span == (
                            span.start,
                            span.end,
                            span.line,
                            span.column,
                        )
                assert _counters(reg) == counters, case.name


def _raised(source):
    try:
        Checker(parse_program(source)).check_program()
    except Exception as exc:
        return exc
    raise AssertionError("expected a rejection")


class TestErrorRecords:
    """One rule turns a program error into an ``ErrorInfo``, and its
    diagnostic is exactly what ``Diagnostic.from_exception`` gives."""

    @pytest.mark.parametrize(
        "exc, stage, code",
        [
            (_raised("def f() : int {\n  1 +\n}\n"), "check", "ParseError"),
            (_raised("def f() : int { 1 $ 2 }\n"), "check", "LexError"),
            (_raised(NEGATIVE_CASES[0].source), "check", None),
            (VerificationError("3:4: replay failed"), "verify", "VerificationError"),
        ],
        ids=["parse", "lex", "type", "verify"],
    )
    def test_record_is_the_diagnostic(self, exc, stage, code):
        from repro.api import Diagnostic

        error = ErrorInfo.from_exception(exc)
        assert error.stage == stage
        assert code is None or error.cls == code
        expected = Diagnostic.from_exception(exc, file="f.fcl")
        assert error.to_diagnostic("f.fcl") == expected
        # str() of these embeds "line:col: "; the record strips it.
        assert not expected.message[0].isdigit()

    def test_recursion_error_is_nesting_too_deep(self):
        from repro.api import Diagnostic
        from repro.core.errors import NestingTooDeep

        error = ErrorInfo.from_exception(RecursionError())
        assert (error.stage, error.cls) == ("check", "NestingTooDeep")
        assert error.to_diagnostic() == Diagnostic.from_exception(
            NestingTooDeep()
        )


class TestBatchCli:
    def test_cold_and_warm_stdout_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "batch",
            str(CORPUS_DIR / "sll.fcl"),
            str(CORPUS_DIR / "dll.fcl"),
            "--cache",
            cache,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out
        assert "OK" in cold.out and "batch: 2/2 programs OK" in cold.out
        assert "misses=19" in cold.err
        assert "hits=19" in warm.err

    def test_directory_discovery_skips_support_python(self, tmp_path):
        (tmp_path / "good.fcl").write_text(SOURCE)
        (tmp_path / "helper.py").write_text("x = 1\n")
        (tmp_path / "embedded.py").write_text(f'SOURCE = """{SOURCE}"""\n')
        found = dict(discover([str(tmp_path)]))
        assert set(found) == {
            str(tmp_path / "good.fcl"),
            str(tmp_path / "embedded.py"),
        }

    def test_rejection_exit_code_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcl"
        bad.write_text(NEGATIVE_CASES[0].source)
        assert main(["batch", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "batch: 0/1 programs OK" in out

    def test_unparseable_and_unlexable_files_are_rejections(
        self, tmp_path, capsys
    ):
        (tmp_path / "a_parse.fcl").write_text("def f() : int {\n  1 +\n}\n")
        (tmp_path / "b_lex.fcl").write_text("def f() : int { 1 $ 2 }\n")
        (tmp_path / "c_good.fcl").write_text(SOURCE)
        assert main(["batch", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith(f"{tmp_path / 'a_parse.fcl'}: REJECTED — ParseError: ")
        assert lines[1].startswith(f"{tmp_path / 'b_lex.fcl'}: REJECTED — LexError: ")
        assert lines[2].startswith(f"{tmp_path / 'c_good.fcl'}: OK — ")
        assert lines[3].startswith("batch: 1/3 programs OK")
        assert len(lines) == 4
        assert "Traceback" not in captured.err

    def test_trust_cache_requires_cache(self):
        with pytest.raises(SystemExit):
            main(["batch", str(CORPUS_DIR / "sll.fcl"), "--trust-cache"])

    @pytest.mark.parametrize("flag", ["--jobs", "--mode"])
    def test_fan_out_flags_are_gone(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(CORPUS_DIR / "sll.fcl"), flag, "2"])
        assert exc.value.code == 64


class TestCheckVerifyCliParity:
    def test_check_output_matches_legacy(self, tmp_path, capsys):
        path = tmp_path / "p.fcl"
        path.write_text(SOURCE)
        assert main(["check", str(path)]) == 0
        legacy = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        assert main(["check", str(path), "--cache", cache]) == 0
        assert capsys.readouterr().out == legacy

    def test_verify_output_matches_legacy_warm_or_cold(self, tmp_path, capsys):
        path = tmp_path / "p.fcl"
        path.write_text(SOURCE)
        assert main(["verify", str(path)]) == 0
        legacy = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        for _ in range(2):  # cold, then warm
            assert main(["verify", str(path), "--cache", cache]) == 0
            assert capsys.readouterr().out == legacy

    def test_check_diagnostics_match_legacy(self, tmp_path, capsys):
        path = tmp_path / "bad.fcl"
        path.write_text(NEGATIVE_CASES[0].source)
        assert main(["check", str(path)]) == 1
        legacy = capsys.readouterr().err
        cache = str(tmp_path / "cache")
        assert main(["check", str(path), "--cache", cache]) == 1
        assert capsys.readouterr().err == legacy


class TestFuzzJobsParity:
    def test_fixed_seed_report_identical_under_jobs(self):
        base = dict(seed=11, budget=12, schedules=1, enumerate_limit=20)
        serial = run_campaign(FuzzConfig(**base))
        pooled = run_campaign(FuzzConfig(**base, jobs=2))
        serial.pop("wall_ms")
        pooled.pop("wall_ms")
        assert serial == pooled

    def test_injected_bug_still_caught_under_jobs(self):
        report = run_campaign(
            FuzzConfig(
                seed=3,
                budget=20,
                schedules=1,
                enumerate_limit=20,
                inject_bug="send-keeps-region",
                stop_after=1,
                shrink=False,
                jobs=2,
            )
        )
        assert report["violations"]
        assert report["violations"][0]["oracle"] == "verifier"


class TestSessionSharing:
    def test_checker_and_verifier_share_the_functype_table(self):
        session = ProgramSession(SOURCE)
        assert session.verifier.functypes is session.checker.functypes
