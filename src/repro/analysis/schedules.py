"""Exhaustive schedule exploration for small concurrent configurations.

Random schedules (experiment E7) sample the interleaving space; this module
*enumerates* it.  Computation between communication events is deterministic
— a thread's behaviour can only depend on the interleaving through the
``send``/``recv`` pairings it participates in — so it suffices to explore
every sequence of rendezvous decisions.  Each thread is run to its next
blocking point, the set of enabled (sender, receiver) pairings forms the
branching, and a depth-first replay visits every branch.

For each complete schedule the explorer records thread results and checks
reservation disjointness and stored-refcount exactness; any
:class:`~repro.runtime.machine.ReservationViolation`, deadlock, or invariant
failure is reported with the offending decision sequence.  On small
instances of the corpus pipelines this *proves* schedule-independence
(within the explored scope) rather than sampling it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from ..lang import ast
from ..runtime.heap import Heap
from ..runtime.machine import (
    BLOCKED_RECV,
    BLOCKED_SEND,
    DONE,
    EV_SEND,
    READY,
    ReservationViolation,
    Thread,
)
from ..runtime.smallstep import Config
from ..runtime.values import UNIT
from .invariants import InvariantViolation, check_refcounts

#: A schedule is a sequence of (sender index, receiver index) decisions.
Decision = Tuple[int, int]


@dataclass
class ScheduleOutcome:
    decisions: Tuple[Decision, ...]
    results: Tuple[object, ...]
    deadlocked: bool = False


@dataclass
class ExplorationReport:
    outcomes: List[ScheduleOutcome] = field(default_factory=list)
    violations: List[Tuple[Tuple[Decision, ...], str]] = field(default_factory=list)
    truncated: bool = False

    @property
    def schedules_explored(self) -> int:
        return len(self.outcomes)

    def distinct_results(self) -> Set[Tuple[object, ...]]:
        return {o.results for o in self.outcomes if not o.deadlocked}

    def all_agree(self) -> bool:
        return not self.violations and len(self.distinct_results()) <= 1


def _run_until_blocked(threads: Sequence[Thread]) -> None:
    """Advance every ready thread to its next send/recv or to its end
    (its configuration is not preemptive, so it yields nothing else)."""
    for thread in threads:
        if thread.state != READY:
            continue
        value, thread.inbox = thread.inbox, None
        try:
            thread.pending = thread.gen.send(value)
        except StopIteration as stop:
            thread.state, thread.result = DONE, stop.value
            continue
        thread.state = BLOCKED_SEND if thread.pending[0] == EV_SEND else BLOCKED_RECV


def _enabled_pairings(threads: Sequence[Thread]) -> List[Decision]:
    out = []
    for si, sender in enumerate(threads):
        if sender.state != BLOCKED_SEND:
            continue
        struct = sender.pending[1]
        for ri, receiver in enumerate(threads):
            if receiver.state == BLOCKED_RECV and receiver.pending[1] == struct:
                out.append((si, ri))
    return out


def _replay(
    program: ast.Program,
    spawns: Sequence[Tuple[str, Sequence[object]]],
    decisions: Sequence[Decision],
) -> Tuple[List[Thread], Heap]:
    """Deterministically re-execute a prefix of rendezvous decisions."""
    heap = Heap()
    threads = []
    for ident, (func, args) in enumerate(spawns):
        config = Config(program, heap, set())
        threads.append(Thread(ident, config, config.call(func, list(args))))
    _run_until_blocked(threads)
    for sender_index, receiver_index in decisions:
        sender = threads[sender_index]
        receiver = threads[receiver_index]
        assert sender.state == BLOCKED_SEND
        assert receiver.state == BLOCKED_RECV
        _kind, _struct, root, live = sender.pending
        # EC3 (fig 15): the live set moves from sender to receiver.
        sender.reservation.difference_update(live)
        receiver.reservation.update(live)
        for thread, value in ((sender, UNIT), (receiver, root)):
            thread.state, thread.pending, thread.inbox = READY, None, value
        _run_until_blocked(threads)
    return threads, heap


def _audit(threads: Sequence[Thread], heap: Heap) -> None:
    seen: Set = set()
    for thread in threads:
        if seen & thread.reservation:
            raise InvariantViolation("reservations overlap")
        seen |= thread.reservation
    check_refcounts(heap)


def explore_all_schedules(
    program: ast.Program,
    spawns: Sequence[Tuple[str, Sequence[object]]],
    max_schedules: int = 10_000,
) -> ExplorationReport:
    """Depth-first enumeration of every rendezvous ordering.

    ``spawns`` is a list of (function name, args) for the thread tuple.
    Returns a report of every complete schedule's results plus any
    violations found.
    """
    report = ExplorationReport()

    def dfs(decisions: Tuple[Decision, ...]) -> None:
        if report.truncated:
            return
        if len(report.outcomes) + len(report.violations) >= max_schedules:
            report.truncated = True
            return
        try:
            threads, heap = _replay(program, spawns, decisions)
            _audit(threads, heap)
        except (ReservationViolation, InvariantViolation) as exc:
            report.violations.append((decisions, str(exc)))
            return
        options = _enabled_pairings(threads)
        if not options:
            report.outcomes.append(
                ScheduleOutcome(
                    decisions=decisions,
                    results=tuple(t.result for t in threads),
                    deadlocked=any(t.state != DONE for t in threads),
                )
            )
            return
        for option in options:
            dfs(decisions + (option,))

    dfs(())
    return report
