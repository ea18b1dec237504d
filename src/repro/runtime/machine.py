"""The FCL abstract machine: dynamic reservation safety (§3.2) and
message-passing concurrency (§7).

Each thread evaluates its expression under a *reservation* — the set of
heap locations it may touch.  Every variable use, field read, and field
write consults the reservation (the pervasive dynamic checks of fig 7);
touching a location outside it raises :class:`ReservationViolation`, the
executable analogue of the semantics "getting stuck".  The paper proves
well-typed programs never trip these checks, which is why a real
implementation can erase them — benchmark E5 measures exactly that erasure
(``check_reservations=False``).

Threads communicate by rendezvous ``send``/``recv`` pairs (fig 15): the
sender's reachable ``live-set`` moves wholesale from its reservation to the
receiver's.

A thread runs on an *engine*: the fig 7 small-step machine
(:class:`repro.runtime.smallstep.Config`, ``engine="tree"``) or the
bytecode engine (:class:`repro.ir.engine.IREngine`, ``engine="ir"``).  Both
are generators that the scheduler suspends at ``send``/``recv`` (and, when
``preemptive``, at every step) to interleave threads arbitrarily —
hypothesis drives random schedules over them in the race-freedom tests
(experiment E7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..lang import ast
from ..telemetry import registry as _telemetry
from .disconnect import DisconnectStats
from .heap import Heap
from .trace import RECV as TRACE_RECV
from .trace import SEND as TRACE_SEND
from .trace import Tracer
from .values import UNIT, Loc, RuntimeValue, is_loc


class MachineError(Exception):
    """Internal evaluation error (malformed program reached the runtime)."""


class ReservationViolation(Exception):
    """A thread touched a location outside its reservation — the dynamic
    semantics' "stuck" state.  Well-typed programs never raise this."""


class DeadlockError(Exception):
    """All live threads are blocked on send/recv."""


class StepLimitExceeded(MachineError):
    """A per-run step budget was exhausted (``run_function(max_steps=)``,
    the ``repro serve`` per-request budget, or ``repro run --max-steps``)."""


# Yield events from an engine's generator to the scheduler.
EV_STEP = "step"
EV_SEND = "send"
EV_RECV = "recv"


@dataclass
class ThreadStats:
    steps: int = 0
    sends: int = 0
    recvs: int = 0
    #: Dynamic reservation checks performed (fig 7's pervasive checks).
    reservation_checks: int = 0
    #: Cumulative cost of those checks: 1 per membership test, plus the
    #: live-set size for each send's containment check.
    reservation_cost: int = 0
    #: Times the scheduler advanced this thread.
    scheduled: int = 0
    #: Scheduler iterations this thread spent blocked on send/recv.
    blocked_ticks: int = 0
    disconnect_checks: List[DisconnectStats] = field(default_factory=list)


def publish_thread_stats(stats: ThreadStats) -> None:
    """Fold one thread's counters into the active telemetry registry
    (no-op when telemetry is disabled)."""
    tel = _telemetry()
    if not tel.enabled:
        return
    tel.inc("machine.steps", stats.steps)
    tel.inc("machine.sends", stats.sends)
    tel.inc("machine.recvs", stats.recvs)
    tel.inc("machine.reservation_checks", stats.reservation_checks)
    tel.inc("machine.reservation_cost", stats.reservation_cost)
    tel.inc("machine.scheduled", stats.scheduled)
    tel.inc("machine.blocked_ticks", stats.blocked_ticks)
    tel.inc("machine.disconnect_checks", len(stats.disconnect_checks))
    for dstats in stats.disconnect_checks:
        tel.observe("machine.disconnect.objects_visited", dstats.objects_visited)


# ---------------------------------------------------------------------------
# Scheduling policies
# ---------------------------------------------------------------------------


class SchedulePoint(Exception):
    """Raised by a probing :class:`ScriptedScheduler` at the first choice
    point its script does not cover.  Carries the number of options so a
    schedule explorer can branch on every alternative (see
    :mod:`repro.fuzz.explore`)."""

    def __init__(self, options: int, prefix: Tuple[int, ...]):
        super().__init__(f"unscripted choice point with {options} options")
        self.options = options
        self.prefix = prefix


class Scheduler:
    """Pluggable scheduling policy — which thread advances, and which
    receiver completes a rendezvous.

    ``pick`` receives the runnable threads plus a read-only map of how many
    scheduler iterations each runnable thread has waited since it was last
    advanced (for fairness policies).  Both hooks must return an element of
    the list they were given.
    """

    def pick(self, runnable: List["Thread"], waits: Mapping[int, int]) -> "Thread":
        raise NotImplementedError

    def pick_receiver(
        self, sender: "Thread", matching: List["Thread"]
    ) -> "Thread":
        return matching[0]


class RandomScheduler(Scheduler):
    """The classic uniform-random policy (experiment E7).  Fully
    deterministic for a given seed, but unfair: a thread can starve for an
    unbounded (if improbable) number of picks."""

    def __init__(self, seed: Optional[int] = None):
        self.rng = random.Random(seed)

    def pick(self, runnable: List["Thread"], waits: Mapping[int, int]) -> "Thread":
        return self.rng.choice(runnable)

    def pick_receiver(
        self, sender: "Thread", matching: List["Thread"]
    ) -> "Thread":
        return self.rng.choice(matching)


class FairRandomScheduler(RandomScheduler):
    """Random scheduling with a starvation bound: once a runnable thread
    has waited ``fairness_bound`` consecutive iterations without being
    advanced, it is picked immediately (longest wait first, lowest ident
    breaking ties).  Used by the fuzzer so no generated thread can hide a
    schedule-dependent bug behind an astronomically unlikely pick
    sequence."""

    def __init__(self, seed: Optional[int] = None, fairness_bound: int = 8):
        super().__init__(seed)
        if fairness_bound < 1:
            raise ValueError("fairness_bound must be >= 1")
        self.fairness_bound = fairness_bound

    def pick(self, runnable: List["Thread"], waits: Mapping[int, int]) -> "Thread":
        starved = [
            t for t in runnable if waits.get(t.ident, 0) >= self.fairness_bound
        ]
        if starved:
            return max(starved, key=lambda t: (waits.get(t.ident, 0), -t.ident))
        return self.rng.choice(runnable)


class ScriptedScheduler(Scheduler):
    """Deterministic replay of an explicit decision sequence.

    Choice points with a single option never consume a decision, so a
    script is a dense sequence of *real* choices — the representation the
    fuzzer's schedule enumeration and failure reports use.  Past the end
    of the script the scheduler either keeps picking the first option
    (``probe=False``, replay mode) or raises :class:`SchedulePoint`
    (``probe=True``, exploration mode).  ``taken`` records the full dense
    decision sequence actually used, so a completed run can be replayed
    exactly.
    """

    def __init__(self, script: Sequence[int] = (), probe: bool = False):
        self.script = list(script)
        self.probe = probe
        self.taken: List[int] = []
        self._cursor = 0

    def _choose(self, options: int) -> int:
        if options <= 1:
            return 0
        if self._cursor < len(self.script):
            index = self.script[self._cursor]
            self._cursor += 1
            if not 0 <= index < options:
                raise MachineError(
                    f"scheduler script decision {index} out of range "
                    f"(only {options} options)"
                )
        elif self.probe:
            raise SchedulePoint(options, tuple(self.taken))
        else:
            index = 0
        self.taken.append(index)
        return index

    def pick(self, runnable: List["Thread"], waits: Mapping[int, int]) -> "Thread":
        return runnable[self._choose(len(runnable))]

    def pick_receiver(
        self, sender: "Thread", matching: List["Thread"]
    ) -> "Thread":
        return matching[self._choose(len(matching))]


# ---------------------------------------------------------------------------
# Threads and the concurrent machine
# ---------------------------------------------------------------------------

READY = "ready"
BLOCKED_SEND = "blocked_send"
BLOCKED_RECV = "blocked_recv"
DONE = "done"
FAILED = "failed"


class Thread:
    def __init__(self, ident: int, interp, gen: Generator):
        self.ident = ident
        self.interp = interp
        self.gen = gen
        self.state = READY
        self.pending: Optional[Tuple] = None  # the blocking event
        self.inbox: Optional[RuntimeValue] = None  # value to resume with
        self.result: Optional[RuntimeValue] = None
        self.error: Optional[BaseException] = None

    @property
    def reservation(self) -> Set[Loc]:
        return self.interp.reservation


def _describe_blocked(thread: Thread) -> str:
    """Deadlock-report description of a blocked thread.  Robust against a
    ``pending`` payload that was never stamped (or already cleared): a
    thread observed mid-transition must not turn the diagnostic itself
    into a crash."""
    pending = thread.pending
    if pending is not None and len(pending) > 1:
        return f"{thread.state}({pending[1]})"
    return f"{thread.state}(?)"


class Machine:
    """A concurrent configuration: one shared heap, n threads with disjoint
    reservations, rendezvous send/recv."""

    def __init__(
        self,
        program: ast.Program,
        check_reservations: bool = True,
        disconnect: str = "efficient",
        preemptive: bool = True,
        seed: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        tracer: Optional[Tracer] = None,
        engine: str = "tree",
    ):
        if engine not in ("tree", "ir"):
            raise ValueError(f"unknown engine {engine!r}; expected 'tree' or 'ir'")
        self.program = program
        self.heap = Heap(tracer=tracer)
        self.check_reservations = check_reservations
        self.disconnect = disconnect
        self.preemptive = preemptive
        self.engine = engine
        self.seed = seed
        self.scheduler = scheduler if scheduler is not None else RandomScheduler(seed)
        self.threads: List[Thread] = []
        #: Completed send/recv pairings (EC3 steps).
        self.rendezvous = 0
        #: Scheduler iterations each thread has waited while runnable since
        #: it was last advanced (fairness bookkeeping, ident → ticks).
        self.waits: Dict[int, int] = {}
        #: The longest such wait any thread endured before being advanced —
        #: exported as the ``machine.starvation_max_wait`` gauge.
        self.starvation_max_wait = 0

    def spawn(self, func: str, args: Iterable[RuntimeValue] = ()) -> Thread:
        interp = _make_engine(
            self.engine,
            self.program,
            self.heap,
            reservation=set(),
            check_reservations=self.check_reservations,
            disconnect=self.disconnect,
            preemptive=self.preemptive,
        )
        args = list(args)
        for arg in args:
            if is_loc(arg):
                interp.reservation |= self.heap.live_set(arg)
        thread = Thread(len(self.threads), interp, interp.call(func, args))
        self.threads.append(thread)
        return thread

    def alloc(self, thread: Thread, struct: str, **inits: RuntimeValue) -> Loc:
        """Host-side allocation into a thread's reservation (test/example
        scaffolding)."""
        loc = self.heap.alloc(self.program.struct(struct), inits)
        thread.reservation.add(loc)
        return loc

    # -- invariants --------------------------------------------------------------

    def reservations_disjoint(self) -> bool:
        seen: Set[Loc] = set()
        for thread in self.threads:
            if seen & thread.reservation:
                return False
            seen |= thread.reservation
        return True

    # -- scheduling --------------------------------------------------------------

    def run(self, max_steps: int = 1_000_000) -> None:
        """Round-robin/random scheduler until all threads finish.

        Raises DeadlockError when all remaining threads block, and
        re-raises the first thread failure (including reservation
        violations)."""
        tel = _telemetry()
        if not tel.enabled:
            self._run(max_steps)
            return
        reads0, writes0 = self.heap.reads, self.heap.writes
        try:
            with tel.span("machine.run"):
                self._run(max_steps)
        finally:
            tel.inc("machine.threads", len(self.threads))
            tel.inc("machine.rendezvous", self.rendezvous)
            tel.inc("machine.heap_reads", self.heap.reads - reads0)
            tel.inc("machine.heap_writes", self.heap.writes - writes0)
            if self.seed is not None:
                tel.set_gauge("machine.seed", self.seed)
            tel.set_gauge_max(
                "machine.starvation_max_wait", self.starvation_max_wait
            )
            for t in self.threads:
                publish_thread_stats(t.interp.stats)

    def _run(self, max_steps: int) -> None:
        for _ in range(max_steps):
            self._match_rendezvous()
            runnable = [t for t in self.threads if t.state == READY]
            if not runnable:
                blocked = [
                    t
                    for t in self.threads
                    if t.state in (BLOCKED_SEND, BLOCKED_RECV)
                ]
                if not blocked:
                    return  # all done
                states = ", ".join(
                    f"thread {t.ident}: {_describe_blocked(t)}" for t in blocked
                )
                raise DeadlockError(f"all threads blocked — {states}")
            for t in self.threads:
                if t.state in (BLOCKED_SEND, BLOCKED_RECV):
                    t.interp.stats.blocked_ticks += 1
            thread = self.scheduler.pick(runnable, self.waits)
            wait = self.waits.pop(thread.ident, 0)
            if wait > self.starvation_max_wait:
                self.starvation_max_wait = wait
            for t in runnable:
                if t is not thread:
                    self.waits[t.ident] = self.waits.get(t.ident, 0) + 1
            self._advance(thread)
            for t in self.threads:
                if t.state == FAILED:
                    raise t.error  # type: ignore[misc]
        raise MachineError("scheduler step budget exhausted")

    def _advance(self, thread: Thread) -> None:
        thread.interp.stats.scheduled += 1
        if self.heap.tracer is not None:
            self.heap.tracer.current_thread = thread.ident
        try:
            if thread.inbox is not None:
                value, thread.inbox = thread.inbox, None
                event = thread.gen.send(value)
            else:
                event = next(thread.gen)
        except StopIteration as stop:
            thread.state = DONE
            thread.result = stop.value
            return
        except BaseException as exc:  # noqa: BLE001 — surfaced to caller
            thread.state = FAILED
            thread.error = exc
            return
        kind = event[0]
        if kind == EV_STEP:
            return
        if kind == EV_SEND:
            thread.state = BLOCKED_SEND
            thread.pending = event
            return
        if kind == EV_RECV:
            thread.state = BLOCKED_RECV
            thread.pending = event
            return
        raise MachineError(f"unknown engine event {event!r}")

    def _match_rendezvous(self) -> None:
        senders = [t for t in self.threads if t.state == BLOCKED_SEND]
        receivers = [t for t in self.threads if t.state == BLOCKED_RECV]
        for sender in senders:
            _kind, sent_struct, root, live = sender.pending
            matching = [r for r in receivers if r.pending[1] == sent_struct]
            if not matching:
                continue
            receiver = self.scheduler.pick_receiver(sender, matching)
            receivers.remove(receiver)
            # EC3 Communication-Paired-Step (fig 15): the live set moves
            # from the sender's reservation to the receiver's.
            self.rendezvous += 1
            if self.heap.tracer is not None:
                self.heap.tracer.record(
                    TRACE_SEND, root, struct=sent_struct, thread=sender.ident
                )
                self.heap.tracer.record(
                    TRACE_RECV, root, struct=sent_struct, thread=receiver.ident
                )
            sender.reservation.difference_update(live)
            receiver.reservation.update(live)
            sender.inbox = UNIT
            sender.state = READY
            sender.pending = None
            receiver.inbox = root
            receiver.state = READY
            receiver.pending = None


# ---------------------------------------------------------------------------
# Engine selection and single-threaded convenience
# ---------------------------------------------------------------------------


def _make_engine(
    engine: str,
    program: ast.Program,
    heap: Heap,
    reservation: Set[Loc],
    check_reservations: bool,
    disconnect: str,
    preemptive: bool,
    max_steps: Optional[int] = None,
):
    """Construct the evaluation engine for one thread.

    ``tree`` is the fig 7 small-step machine,
    :class:`repro.runtime.smallstep.Config`; ``ir`` compiles the program
    to bytecode and runs it on :class:`repro.ir.engine.IREngine` (same
    generator protocol, same exceptions, same trace events).
    """
    if engine == "tree":
        from .smallstep import Config

        return Config(
            program,
            heap,
            reservation,
            check_reservations=check_reservations,
            disconnect=disconnect,
            preemptive=preemptive,
        )
    if engine == "ir":
        from ..ir.engine import IREngine

        return IREngine(
            program,
            heap,
            reservation,
            check_reservations=check_reservations,
            disconnect=disconnect,
            preemptive=preemptive,
            max_steps=max_steps,
        )
    raise ValueError(f"unknown engine {engine!r}; expected 'tree' or 'ir'")


def run_function(
    program: ast.Program,
    name: str,
    args: Iterable[RuntimeValue] = (),
    heap: Optional[Heap] = None,
    reservation: Optional[Set[Loc]] = None,
    check_reservations: bool = True,
    disconnect: str = "efficient",
    sink_sends: bool = False,
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
    engine: str = "tree",
) -> Tuple[RuntimeValue, object]:
    """Run a function to completion on a single thread.

    ``send``/``recv`` normally require a :class:`Machine`; with
    ``sink_sends=True`` a send instead delivers to an implicit sink thread
    (the live set simply leaves this thread's reservation), which is how
    single-threaded harnesses exercise send-containing programs.

    A single thread has no scheduling nondeterminism, so ``seed`` changes
    nothing about the run — it is recorded in the telemetry metadata
    (``machine.seed``) so single- and multi-threaded reproduction
    instructions carry the same fields.

    ``engine`` selects the evaluator: the fig 7 small-step machine
    (``"tree"``, the default) or the compiled bytecode engine (``"ir"``).
    The IR engine enforces ``max_steps`` inside its dispatch loop, so it
    needs no preemptive yielding for budgets.

    Returns (result, engine) so callers can inspect the heap,
    reservation, and statistics.
    """
    heap = heap if heap is not None else Heap()
    if reservation is None:
        reservation = set(heap.locations())
    # A step budget needs the small-step machine to yield control per
    # evaluation step; without one the generator only surfaces at
    # send/recv.  The IR engine checks its budget internally instead.
    interp = _make_engine(
        engine,
        program,
        heap,
        reservation,
        check_reservations=check_reservations,
        disconnect=disconnect,
        preemptive=max_steps is not None and engine == "tree",
        max_steps=max_steps,
    )
    gen = interp.call(name, args)
    tel = _telemetry()
    reads0, writes0 = heap.reads, heap.writes
    span = tel.span(f"machine.fn.{name}") if tel.enabled else None
    if span is not None:
        span.__enter__()
    try:
        event = None
        while True:
            if event is not None and event[0] == EV_SEND:
                if not sink_sends:
                    raise MachineError(
                        "run_function cannot service send/recv; use Machine"
                    )
                _kind, _struct, _root, live = event
                interp.reservation.difference_update(live)
                event = gen.send(UNIT)
                continue
            event = next(gen)
            if max_steps is not None and interp.stats.steps > max_steps:
                gen.close()
                raise StepLimitExceeded(
                    f"step budget exceeded ({max_steps} steps)"
                )
            if event[0] == EV_RECV:
                raise MachineError(
                    "run_function cannot service recv; use Machine"
                )
    except StopIteration as stop:
        return stop.value, interp
    finally:
        if span is not None:
            span.__exit__(None, None, None)
        if tel.enabled:
            publish_thread_stats(interp.stats)
            tel.inc("machine.heap_reads", heap.reads - reads0)
            tel.inc("machine.heap_writes", heap.writes - writes0)
            tel.counter("machine.heap_objects").value = len(heap)
            if seed is not None:
                tel.set_gauge("machine.seed", seed)
