"""The differential oracles: what the fuzzer asserts about each case.

A generated (or mutated) program is pushed through the full stack and the
layers are made to disagree-check each other:

1. **prover/verifier** — whatever the checker accepts, the independent
   verifier must accept too (`checker.check_program()` derivation replayed
   through `Verifier.verify_program`).  Whatever the checker rejects must
   be rejected with a *usable* diagnostic (a source span inside the
   program, renderable by :func:`repro.lang.diagnostics.render_diagnostic`).
2. **static/dynamic** — an accepted program run with reservation checks on
   must never raise a :class:`ReservationViolation` or deadlock, on any
   schedule: ``schedules`` seeded random schedules (alternating the plain
   and fairness-bounded policies) plus bounded-exhaustive enumeration of
   all scheduler decisions for programs of ≤ 3 threads.  All schedules
   must agree on the result map — each thread's result, a location
   abstracted to its struct's name (pipelines are confluent by
   construction).
3. **guarded/erased** — a guarded run and an `--erased` run replayed over
   the *same* schedule must produce byte-identical heap traces and equal
   results (the reservation machinery must be observationally free).
4. **tree/ir** — the fig 7 small-step machine and the compiled bytecode
   engine (``--engine ir``), each under the canonical first-option
   schedule, must produce byte-identical heap traces and equal results;
   an additional erased-ir leg (the full optimization tier) must agree on
   the result map.

Any disagreement is a :class:`Violation`; the campaign driver shrinks it
and writes a ``repro-fuzz/1`` report entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry as tel
from ..core.checker import Checker, CheckProfile, DEFAULT_PROFILE
from ..core.errors import TypeError_
from ..lang import ast
from ..lang.diagnostics import render_diagnostic
from ..lang.parser import ParseError, parse_program
from ..runtime.machine import (
    DeadlockError,
    FairRandomScheduler,
    Machine,
    MachineError,
    RandomScheduler,
    ReservationViolation,
    ScriptedScheduler,
)
from ..runtime.trace import Tracer
from ..verifier.verifier import VerificationError, Verifier
from .explore import enumerate_schedules, thread_results
from .gen import GenCase

#: Threads at or below this spawn count get bounded-exhaustive schedule
#: enumeration on top of the random schedules.
ENUMERATE_MAX_THREADS = 3


@dataclass
class Violation:
    """One oracle disagreement."""

    oracle: str  # verifier | diagnostic | checker-crash | schedule |
    #            deadlock | determinism | erasure | engine | runtime-crash |
    #            generator
    detail: str
    #: How to reproduce the failing schedule, when one is implicated:
    #: ``{"kind": "seed", "value": 3}`` or ``{"kind": "decisions",
    #: "value": [1, 0, 2]}``.
    schedule: Optional[Dict[str, Any]] = None


@dataclass
class CaseOutcome:
    case: GenCase
    accepted: bool = False
    violation: Optional[Violation] = None
    #: Result map of the canonical schedule (accepted, ran cases).
    results: Optional[Dict[int, Any]] = None


@dataclass
class OracleConfig:
    """Runtime-oracle knobs (see :class:`repro.fuzz.campaign.FuzzConfig`)."""

    schedules: int = 4
    enumerate_limit: int = 120
    fairness_bound: int = 8
    #: When set, the static (checker⇒verifier) oracle runs in this pool's
    #: worker processes instead of in-process.  The dynamic oracles always
    #: run in-process — they need the Machine, tracers, and schedule
    #: enumeration state, which don't cross process boundaries.
    static_pool: Optional["StaticCheckPool"] = None


class StaticCheckPool:
    """Routes the checker⇒verifier oracle through a process pool
    (:func:`repro.fuzz.worker.check_verify_program_task`).

    Verdicts are plain dicts with byte-for-byte the same semantics as the
    in-process oracle, and carry the worker's telemetry document so the
    campaign's coverage counters (``checker.vt.*``) stay truthful under
    ``--jobs``."""

    def __init__(self, jobs: Optional[int] = None):
        import os

        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self._executor = None

    def _handle(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            from .worker import init_worker

            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=init_worker
            )
        return self._executor

    def submit(self, source: str, profile: CheckProfile):
        """Future of a static-oracle verdict dict for one program."""
        from .worker import check_verify_program_task

        task = {
            "source": source,
            "profile": profile,
            "collect": tel.registry().enabled,
        }
        return self._handle().submit(check_verify_program_task, task)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "StaticCheckPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _apply_verdict(case: GenCase, verdict: Dict[str, Any]):
    """Map a remote static-oracle verdict onto the exact (violation,
    accepted) pair the in-process oracle would have produced."""
    reg = tel.registry()
    doc = verdict.get("doc")
    if doc is not None and reg.enabled:
        tel.merge_doc(reg, doc)
    status = verdict["status"]
    if status == "ok":
        return None, True
    if status == "verifier":
        return Violation("verifier", verdict["message"]), True
    if status == "parse":
        return (
            Violation(
                "generator",
                f"generated program does not parse: {verdict['message']}",
            ),
            False,
        )
    if status == "type":
        from ..core import errors as _errors
        from .worker import span_from_tuple

        klass = getattr(_errors, verdict["cls"], TypeError_)
        if not (isinstance(klass, type) and issubclass(klass, TypeError_)):
            klass = TypeError_
        exc = klass(verdict["message"], span_from_tuple(verdict["span"]))
        return _bad_diagnostic(case, exc), False
    # status == "crash"
    return (
        Violation(
            "checker-crash", f"{verdict['cls']}: {verdict['message']}"
        ),
        False,
    )


def check_case(
    case: GenCase,
    config: OracleConfig = OracleConfig(),
    profile: CheckProfile = DEFAULT_PROFILE,
    verdict: Optional[Dict[str, Any]] = None,
) -> CaseOutcome:
    """Run every oracle against one case; first disagreement wins.

    ``verdict`` short-circuits the static oracle with a prefetched result
    from :class:`StaticCheckPool` (the campaign's pipelined mode); absent
    that, ``config.static_pool`` is consulted synchronously, and absent
    that too the prover and verifier run in-process.
    """
    outcome = CaseOutcome(case)
    try:
        program = parse_program(case.source)
    except ParseError as exc:
        outcome.violation = Violation(
            "generator", f"generated program does not parse: {exc}"
        )
        return outcome
    if any(name not in program.funcs for name, _ in case.spawns):
        # Only reachable through shrinking (a reduction dropped a spawned
        # function): treat as a clean rejection so the predicate vetoes it.
        return outcome

    # Oracle 1: prover vs verifier (and diagnostic quality on rejection).
    if verdict is not None or config.static_pool is not None:
        if verdict is None:
            verdict = config.static_pool.submit(case.source, profile).result()
        violation, accepted = _apply_verdict(case, verdict)
        outcome.accepted = accepted
        if violation is not None:
            outcome.violation = violation
            return outcome
        if not accepted:
            return outcome
    else:
        try:
            derivation = Checker(program, profile=profile).check_program()
        except TypeError_ as exc:
            outcome.violation = _bad_diagnostic(case, exc)
            return outcome
        except Exception as exc:  # noqa: BLE001 — crashes are findings
            outcome.violation = Violation(
                "checker-crash", f"{type(exc).__name__}: {exc}"
            )
            return outcome
        outcome.accepted = True
        try:
            Verifier(program).verify_program(derivation)
        except VerificationError as exc:
            outcome.violation = Violation("verifier", str(exc))
            return outcome

    # Oracle 2: no reservation violation / deadlock on any schedule, and
    # one confluent result.
    baseline: Optional[Dict[int, Any]] = None
    for index in range(config.schedules):
        if index % 2 == 0:
            scheduler = RandomScheduler(index)
        else:
            scheduler = FairRandomScheduler(
                index, fairness_bound=config.fairness_bound
            )
        tel.registry().inc("fuzz.schedules.random")
        violation, results = _run_once(program, case.spawns, scheduler)
        if violation is not None:
            violation.schedule = {"kind": "seed", "value": index}
            outcome.violation = violation
            return outcome
        if baseline is None:
            baseline = results
        elif results != baseline:
            outcome.violation = Violation(
                "determinism",
                f"results differ across schedules: {baseline!r} vs {results!r}",
                schedule={"kind": "seed", "value": index},
            )
            return outcome
    if len(case.spawns) <= ENUMERATE_MAX_THREADS:
        report = enumerate_schedules(
            program, case.spawns, limit=config.enumerate_limit
        )
        tel.registry().inc("fuzz.schedules.enumerated", report.schedules)
        for bad in report.violations():
            outcome.violation = Violation(
                "schedule",
                bad.error or "reservation violation",
                schedule={"kind": "decisions", "value": list(bad.decisions)},
            )
            return outcome
        for dead in report.deadlocks():
            outcome.violation = Violation(
                "deadlock",
                dead.error or "deadlock",
                schedule={"kind": "decisions", "value": list(dead.decisions)},
            )
            return outcome
        distinct = report.distinct_results()
        if baseline is not None and distinct and distinct != [baseline]:
            outcome.violation = Violation(
                "determinism",
                f"enumerated results {distinct!r} != random-schedule "
                f"baseline {baseline!r}",
                schedule={"kind": "decisions", "value": []},
            )
            return outcome

    # Oracle 3: guarded and erased runs over the same schedule must have
    # byte-identical heap traces and equal results.
    outcome.violation, outcome.results = _erasure_oracle(program, case.spawns)
    if outcome.violation is not None:
        return outcome

    # Oracle 4: the compiled bytecode engine must be observationally
    # indistinguishable from the small-step machine.
    outcome.violation = _engine_oracle(program, case.spawns)
    return outcome


def _bad_diagnostic(case: GenCase, exc: TypeError_) -> Optional[Violation]:
    """Rejections are fine; rejections that can't point at the program are
    a diagnostics bug (satellite d: every rejection carries a stable
    ``line:col``)."""
    span = exc.span
    if span is None or not span.line:
        return Violation(
            "diagnostic", f"rejection without a source span: {exc}"
        )
    nlines = len(case.source.splitlines())
    if not 1 <= span.line <= nlines:
        return Violation(
            "diagnostic",
            f"rejection span line {span.line} outside program "
            f"(1..{nlines}): {exc}",
        )
    rendered = render_diagnostic(case.source, span, exc.message)
    if f":{span.line}:{span.column}:" not in rendered.splitlines()[0]:
        return Violation(
            "diagnostic", f"rendered diagnostic lost its location: {rendered!r}"
        )
    return None


def _run_once(
    program: ast.Program,
    spawns: List[Tuple[str, List[Any]]],
    scheduler,
    *,
    check_reservations: bool = True,
    tracer: Optional[Tracer] = None,
    engine: str = "tree",
) -> Tuple[Optional[Violation], Optional[Dict[int, Any]]]:
    machine = Machine(
        program,
        check_reservations=check_reservations,
        scheduler=scheduler,
        tracer=tracer,
        engine=engine,
    )
    for name, args in spawns:
        machine.spawn(name, list(args))
    try:
        machine.run()
    except ReservationViolation as exc:
        return Violation("schedule", str(exc)), None
    except DeadlockError as exc:
        return Violation("deadlock", str(exc)), None
    except MachineError as exc:
        return Violation("runtime-crash", f"{type(exc).__name__}: {exc}"), None
    except Exception as exc:  # noqa: BLE001 — engine crashes are findings
        return Violation("runtime-crash", f"{type(exc).__name__}: {exc}"), None
    return None, thread_results(machine)


def _erasure_oracle(
    program: ast.Program, spawns: List[Tuple[str, List[Any]]]
) -> Tuple[Optional[Violation], Optional[Dict[int, Any]]]:
    """Guarded vs erased over the canonical (all-first-option) schedule."""
    guarded_tracer = Tracer()
    guarded_sched = ScriptedScheduler()
    violation, guarded = _run_once(
        program, spawns, guarded_sched, tracer=guarded_tracer
    )
    if violation is not None:
        violation.schedule = {"kind": "decisions", "value": []}
        return violation, None
    erased_tracer = Tracer()
    erased_sched = ScriptedScheduler(guarded_sched.taken)
    violation, erased = _run_once(
        program,
        spawns,
        erased_sched,
        check_reservations=False,
        tracer=erased_tracer,
    )
    schedule = {"kind": "decisions", "value": list(guarded_sched.taken)}
    if violation is not None:
        violation.oracle = "erasure"
        violation.detail = f"erased run failed: {violation.detail}"
        violation.schedule = schedule
        return violation, None
    guarded_bytes = json.dumps(list(guarded_tracer.to_dicts()), sort_keys=True)
    erased_bytes = json.dumps(list(erased_tracer.to_dicts()), sort_keys=True)
    if guarded_bytes != erased_bytes:
        detail = _first_divergence(guarded_tracer, erased_tracer)
        return (
            Violation("erasure", f"trace divergence: {detail}", schedule),
            None,
        )
    if guarded != erased:
        return (
            Violation(
                "erasure",
                f"result divergence: guarded {guarded!r} vs erased {erased!r}",
                schedule,
            ),
            None,
        )
    return None, guarded


def _engine_oracle(
    program: ast.Program, spawns: List[Tuple[str, List[Any]]]
) -> Optional[Violation]:
    """Small-step machine vs bytecode engine over the canonical schedule.

    Both engines run guarded with a fresh first-option scheduler (the
    canonical schedule is yield-granularity-independent, so the decision
    lists need not match) and must produce byte-identical heap traces and
    equal results.  The erased-ir leg runs **traced**: this is the full
    tier, compiled with no reservation checks by the same pass list as
    the guarded leg, under observation.  Its trace must stay
    byte-identical to the guarded tree trace (erasure oracle 3 already
    pins guarded ≡ erased for the tree engine) and its results equal."""
    tree_tracer = Tracer()
    violation, tree = _run_once(
        program, spawns, ScriptedScheduler(), tracer=tree_tracer
    )
    if violation is not None:
        violation.schedule = {"kind": "decisions", "value": []}
        return violation
    schedule = {"kind": "decisions", "value": []}
    ir_tracer = Tracer()
    violation, ir_results = _run_once(
        program, spawns, ScriptedScheduler(), tracer=ir_tracer, engine="ir"
    )
    if violation is not None:
        violation.oracle = "engine"
        violation.detail = f"ir run failed: {violation.detail}"
        violation.schedule = schedule
        return violation
    tree_bytes = json.dumps(list(tree_tracer.to_dicts()), sort_keys=True)
    ir_bytes = json.dumps(list(ir_tracer.to_dicts()), sort_keys=True)
    if tree_bytes != ir_bytes:
        detail = _first_divergence(tree_tracer, ir_tracer, ("tree", "ir"))
        return Violation("engine", f"trace divergence: {detail}", schedule)
    if tree != ir_results:
        return Violation(
            "engine",
            f"result divergence: tree {tree!r} vs ir {ir_results!r}",
            schedule,
        )
    erased_tracer = Tracer()
    violation, ir_erased = _run_once(
        program, spawns, ScriptedScheduler(),
        check_reservations=False, tracer=erased_tracer, engine="ir",
    )
    if violation is not None:
        violation.oracle = "engine"
        violation.detail = f"traced full-tier ir run failed: {violation.detail}"
        violation.schedule = schedule
        return violation
    erased_bytes = json.dumps(list(erased_tracer.to_dicts()), sort_keys=True)
    if tree_bytes != erased_bytes:
        detail = _first_divergence(
            tree_tracer, erased_tracer, ("tree", "full-tier ir")
        )
        return Violation(
            "engine", f"full-tier trace divergence: {detail}", schedule
        )
    if ir_erased != tree:
        return Violation(
            "engine",
            f"erased-ir result divergence: tree {tree!r} vs ir {ir_erased!r}",
            schedule,
        )
    return None


def _first_divergence(
    left: Tracer, right: Tracer, names: Tuple[str, str] = ("guarded", "erased")
) -> str:
    lefts = list(left.to_dicts())
    rights = list(right.to_dicts())
    lname, rname = names
    for index, (a, b) in enumerate(zip(lefts, rights)):
        if a != b:
            return f"event {index}: {lname} {a!r} vs {rname} {b!r}"
    return (
        f"trace lengths differ: {lname} {len(lefts)} vs {rname} {len(rights)}"
    )
