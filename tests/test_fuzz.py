"""The differential soundness fuzzer, tested on itself.

Covers the generator (determinism, acceptance of base cases), the three
oracles, bounded-exhaustive schedule enumeration, auto-shrinking, the
campaign report (schema-validated), and the injected-bug self-test that
proves the harness can actually catch a soundness hole.
"""

import json
import random
from pathlib import Path

import pytest

from repro import telemetry as tel
from repro.fuzz import (
    FuzzConfig,
    INJECTABLE_BUGS,
    OracleConfig,
    ProgramGen,
    SCHEMA,
    check_case,
    count_nodes,
    enumerate_schedules,
    mutate,
    run_campaign,
    shrink_source,
)
from repro.lang import parse_program
from repro.telemetry.schema import validate

FUZZ_SCHEMA = json.loads(
    (Path(__file__).parent.parent / "benchmarks" / "fuzz.schema.json").read_text()
)


def _cases(seed, n):
    gen = ProgramGen(random.Random(seed))
    return [gen.generate() for _ in range(n)]


class TestGenerator:
    def test_same_seed_same_stream(self):
        a = _cases(7, 12)
        b = _cases(7, 12)
        assert [c.source for c in a] == [c.source for c in b]
        assert [c.spawns for c in a] == [c.spawns for c in b]

    def test_different_seeds_differ(self):
        a = _cases(1, 8)
        b = _cases(2, 8)
        assert [c.source for c in a] != [c.source for c in b]

    def test_base_cases_parse_and_are_accepted(self):
        # The generator emits only well-typed programs; every base case
        # must clear all three oracles (a cheap schedule budget is enough).
        config = OracleConfig(schedules=1, enumerate_limit=20)
        for case in _cases(0, 10):
            outcome = check_case(case, config)
            assert outcome.accepted, case.source
            assert outcome.violation is None, outcome.violation

    def test_mutants_are_marked(self):
        rng = random.Random(3)
        mutants = [m for c in _cases(3, 20) if (m := mutate(c, rng))]
        assert mutants, "mutation engine produced nothing in 20 cases"
        for m in mutants:
            assert m.ident.endswith("-m")
            assert m.mutation is not None
            assert m.source != ""


class TestScheduleOracle:
    # An unchecked use-after-send: statically rejected, but we drive it
    # dynamically — every interleaving must trip ReservationViolation.
    RACY = """
    struct data { v : int; }
    def bad() : int { let d = new data(v = 1); send(d); d.v }
    def ok() : int { let d = recv(data); d.v }
    """

    def test_enumeration_finds_the_violation(self):
        program = parse_program(self.RACY)
        spawns = [("bad", []), ("ok", [])]
        report = enumerate_schedules(program, spawns, limit=50)
        assert report.schedules >= 1
        assert report.violations(), "no schedule tripped the guard"
        assert not report.truncated

    def test_clean_program_enumerates_clean(self):
        src = """
        struct data { v : int; }
        def src() : unit { let d = new data(v = 3); send(d) }
        def snk() : int { let d = recv(data); d.v }
        """
        program = parse_program(src)
        report = enumerate_schedules(program, [("src", []), ("snk", [])], limit=50)
        assert report.schedules >= 1
        assert not report.violations()
        assert not report.deadlocks()
        assert report.distinct_results() and len(report.distinct_results()) == 1

    # Two producers race to a consumer that keeps its first message: no
    # schedule violates a reservation, but the result depends on which
    # producer the scheduler pairs first.
    ORDER_SENSITIVE = """
    struct data { v : int; }
    def one() : unit { let d = new data(v = 1); send(d) }
    def ten() : unit { let d = new data(v = 10); send(d) }
    def first() : int { let a = recv(data); let b = recv(data); a.v }
    """
    ORDER_SPAWNS = [("one", []), ("ten", []), ("first", [])]

    def test_enumeration_compares_thread_results(self):
        program = parse_program(self.ORDER_SENSITIVE)
        report = enumerate_schedules(program, self.ORDER_SPAWNS, limit=200)
        assert not report.violations() and not report.deadlocks()
        firsts = sorted(results[2] for results in report.distinct_results())
        assert firsts == [1, 10]

    def test_determinism_oracle_flags_schedule_dependent_results(self):
        from repro.fuzz.gen import GenCase

        case = GenCase(
            "order", "pipeline", self.ORDER_SENSITIVE, self.ORDER_SPAWNS
        )
        outcome = check_case(case, OracleConfig(schedules=8))
        assert outcome.accepted
        assert outcome.violation is not None
        assert outcome.violation.oracle == "determinism"


class TestShrink:
    def test_shrinks_to_minimal_use_after_send(self):
        # Pad a rejected program with dead weight; the shrinker must strip
        # it back down while preserving the rejection.
        src = """
        struct data { v : int; }
        struct box { iso inner : data?; }
        def noise(n : int) : int { let k = n * 2; k + 1 }
        def f() : int {
          let a = new data(v = 5);
          let t = a.v + 2;
          send(a);
          a.v
        }
        """
        from repro.core.checker import Checker
        from repro.core.errors import TypeError_

        def rejects(text):
            try:
                Checker(parse_program(text)).check_program()
                return False
            except TypeError_:
                return True

        assert rejects(src)
        result = shrink_source(src, rejects)
        assert result.reduced
        assert rejects(result.source)
        assert result.nodes < count_nodes(parse_program(src))
        assert "noise" not in result.source
        assert "box" not in result.source


class TestCampaign:
    def test_small_campaign_is_clean_and_validates(self):
        report = run_campaign(FuzzConfig(seed=0, budget=25, schedules=2))
        assert report["schema"] == SCHEMA
        assert report["clean"] is True
        assert report["violations"] == []
        assert report["cases"]["generated"] == 25
        assert report["cases"]["accepted"] == 25
        # All five V rules exercised — the coverage acceptance criterion.
        assert all(report["coverage"].values()), report["coverage"]
        validate(report, FUZZ_SCHEMA)  # raises on mismatch

    def test_campaign_is_deterministic(self):
        config = FuzzConfig(seed=11, budget=8, schedules=1)
        a = run_campaign(config)
        b = run_campaign(config)
        for key in ("cases", "schedules", "coverage", "violations"):
            assert a[key] == b[key]

    def test_campaign_leaves_telemetry_disabled(self):
        assert not tel.registry().enabled
        run_campaign(FuzzConfig(seed=0, budget=2, schedules=1))
        assert not tel.registry().enabled

    def test_unknown_injected_bug_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(FuzzConfig(inject_bug="no-such-bug"))


class TestInjectedBug:
    def test_seeded_soundness_bug_is_caught_and_shrunk(self):
        # The self-test from the issue: weaken the checker so send keeps
        # the region, and the verifier oracle must catch the first
        # accepted-but-unsound mutant and shrink it to <= 15 AST nodes.
        assert "send-keeps-region" in INJECTABLE_BUGS
        report = run_campaign(
            FuzzConfig(
                seed=0,
                budget=40,
                schedules=1,
                stop_after=1,
                inject_bug="send-keeps-region",
            )
        )
        assert report["injected_bug"] == "send-keeps-region"
        assert report["violations"], "injected bug escaped the fuzzer"
        first = report["violations"][0]
        assert first["oracle"] == "verifier"
        assert first["shrunk"] is not None
        assert first["shrunk"]["nodes"] <= 15
        # The shrunk program still reproduces: the weakened checker
        # accepts it, and the verifier refuses the bad derivation.
        from repro.core.checker import Checker
        from repro.verifier import VerificationError, Verifier

        program = parse_program(first["shrunk"]["source"])
        derivation = Checker(
            program, profile=INJECTABLE_BUGS["send-keeps-region"]
        ).check_program()
        with pytest.raises(VerificationError):
            Verifier(program).verify_program(derivation)
        validate(report, FUZZ_SCHEMA)


class TestCLI:
    def test_fuzz_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fuzz.json"
        assert main(
            ["fuzz", "--seed", "0", "--budget", "5", "--schedules", "1",
             "--json", str(out)]
        ) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        validate(report, FUZZ_SCHEMA)

    def test_fuzz_inject_bug_exit_codes(self, capsys):
        from repro.cli import main

        code = main(
            ["fuzz", "--seed", "0", "--budget", "40", "--schedules", "1",
             "--stop-after", "1", "--inject-bug", "send-keeps-region"]
        )
        out = capsys.readouterr().out
        assert code == 0  # caught = success for the self-test
        assert "caught" in out
        assert main(["fuzz", "--inject-bug", "bogus"]) == 64  # usage error
        capsys.readouterr()
