"""Bounded-exhaustive schedule enumeration at the Machine level.

The smallstep explorer (:mod:`repro.analysis.schedules`) enumerates
rendezvous pairings over the formal semantics; this module enumerates
*scheduler decisions* over the production :class:`~repro.runtime.machine.
Machine` itself, so the object under test is the very engine the
fuzzer's other oracles run.  It drives a :class:`~repro.runtime.machine.
ScriptedScheduler` in probe mode: a run replays a decision prefix and
raises :class:`~repro.runtime.machine.SchedulePoint` at the first choice
the prefix does not cover, at which point the explorer forks one branch
per option (iterative-deepening DFS — each branch restarts the machine
from scratch, which is cheap for fuzzer-sized programs).

Machines are non-preemptive here: between communication events execution
is deterministic, so the decision tree collapses to thread-advance order
plus receiver matching — small enough to exhaust for 2–3 threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..lang import ast
from ..runtime.machine import (
    DeadlockError,
    Machine,
    MachineError,
    ReservationViolation,
    SchedulePoint,
    ScriptedScheduler,
)
from ..runtime.values import is_loc

#: Outcome kinds, in order of severity.
OK = "ok"
DEADLOCK = "deadlock"
VIOLATION = "violation"


@dataclass
class ScheduleOutcome:
    """One complete schedule: the dense decision sequence that produced it
    and what happened."""

    decisions: Tuple[int, ...]
    kind: str  # ok | deadlock | violation
    results: Optional[Dict[int, Any]] = None
    error: Optional[str] = None


@dataclass
class ExplorationResult:
    outcomes: List[ScheduleOutcome] = field(default_factory=list)
    truncated: bool = False

    @property
    def schedules(self) -> int:
        return len(self.outcomes)

    def violations(self) -> List[ScheduleOutcome]:
        return [o for o in self.outcomes if o.kind == VIOLATION]

    def deadlocks(self) -> List[ScheduleOutcome]:
        return [o for o in self.outcomes if o.kind == DEADLOCK]

    def distinct_results(self) -> List[Dict[int, Any]]:
        """The set of result maps across OK schedules (for the determinism
        oracle: confluent programs must yield exactly one)."""
        seen: List[Dict[int, Any]] = []
        for outcome in self.outcomes:
            if outcome.kind == OK and outcome.results not in seen:
                seen.append(outcome.results)
        return seen


def thread_results(machine: Machine) -> Dict[int, Any]:
    """Each finished thread's result, keyed by thread ident.  A location
    is abstracted to its struct's name: allocation order, and so a
    location's number, differs from schedule to schedule."""
    return {
        t.ident: f"<{machine.heap.obj(t.result).struct.name}>"
        if is_loc(t.result)
        else t.result
        for t in machine.threads
    }


def run_scripted(
    program: ast.Program,
    spawns: List[Tuple[str, List[Any]]],
    decisions: Tuple[int, ...],
    *,
    probe: bool = False,
    check_reservations: bool = True,
) -> Tuple[ScriptedScheduler, ScheduleOutcome]:
    """One machine run under a decision script.  With ``probe=True`` a
    :class:`SchedulePoint` escapes to the caller; otherwise decisions past
    the script's end default to option 0."""
    scheduler = ScriptedScheduler(decisions, probe=probe)
    machine = Machine(
        program,
        check_reservations=check_reservations,
        preemptive=False,
        scheduler=scheduler,
    )
    for name, args in spawns:
        machine.spawn(name, list(args))
    try:
        machine.run()
    except ReservationViolation as exc:
        outcome = ScheduleOutcome(
            tuple(scheduler.taken), VIOLATION, error=str(exc)
        )
    except DeadlockError as exc:
        outcome = ScheduleOutcome(
            tuple(scheduler.taken), DEADLOCK, error=str(exc)
        )
    else:
        outcome = ScheduleOutcome(
            tuple(scheduler.taken), OK, results=thread_results(machine)
        )
    return scheduler, outcome


def enumerate_schedules(
    program: ast.Program,
    spawns: List[Tuple[str, List[Any]]],
    *,
    limit: int = 400,
    check_reservations: bool = True,
) -> ExplorationResult:
    """Exhaust every scheduler decision sequence, up to ``limit`` complete
    schedules (``truncated`` is set when the frontier was not drained)."""
    result = ExplorationResult()
    stack: List[Tuple[int, ...]] = [()]
    while stack:
        if len(result.outcomes) >= limit:
            result.truncated = True
            break
        prefix = stack.pop()
        try:
            _, outcome = run_scripted(
                program,
                spawns,
                prefix,
                probe=True,
                check_reservations=check_reservations,
            )
        except SchedulePoint as point:
            # Fork one branch per option; push in reverse so option 0 is
            # explored first (matches replay-mode defaulting).
            for option in range(point.options - 1, -1, -1):
                stack.append(point.prefix + (option,))
            continue
        except MachineError as exc:
            # Anything else the machine raises is itself a finding; record
            # it as a violation-severity outcome rather than crashing the
            # campaign.
            result.outcomes.append(
                ScheduleOutcome(prefix, VIOLATION, error=f"machine error: {exc}")
            )
            continue
        result.outcomes.append(outcome)
    return result
