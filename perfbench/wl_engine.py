"""``run-engine``: execution on the IR engine and the threaded runtime.

One op is either a warm ``repro.api.Session.run(fn, args, engine="ir",
erased=True)`` on a benchmark-owned driver, or a generated pipeline case
on ``Machine(engine="ir")`` under a seeded ``FairRandomScheduler``.
Reference values come from the tree interpreter after the timed phase.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro import telemetry as tel
from repro.ir import clear_compile_cache, compile_program
from repro.lang import parse_program
from repro.pipeline.session import ProgramSession
from repro.runtime.heap import Heap
from repro.runtime.machine import FairRandomScheduler, Machine, run_function

import harness
import layers
from inputs import Inputs, RunCall
from spans import SpanRecorder

Value = Tuple[bool, Any]


def run_machine(program, call: RunCall, engine: str) -> Value:
    machine = Machine(program, scheduler=FairRandomScheduler(seed=call.sched_seed), engine=engine)
    for fn, args in call.spawns:
        machine.spawn(fn, list(args))
    machine.run()
    return True, tuple(api.render_value(t.result, machine.heap) for t in machine.threads)


class Warm:
    """Warm state of one set-up: a Session per driver source and a parsed
    program per threaded case, each already compiled."""

    def __init__(self, calls: List[RunCall]):
        clear_compile_cache()
        self.sessions: Dict[str, api.Session] = {}
        self.programs: Dict[str, Any] = {}
        for call in calls:
            if call.sched_seed is None:
                if call.source not in self.sessions:
                    session = self.sessions[call.source] = api.Session(call.source)
                    compile_program(session.program, checked=False, observable=False)
            elif call.source not in self.programs:
                program = self.programs[call.source] = parse_program(call.source)
                compile_program(program, checked=True, observable=False)

    def run(self, call: RunCall) -> Value:
        if call.sched_seed is not None:
            return run_machine(self.programs[call.source], call, "ir")
        fn, args = call.spawns[0]
        result = self.sessions[call.source].run(fn, list(args), engine="ir", erased=True)
        return result.ok, result.value


def _timed_setup(calls: List[RunCall]) -> Tuple[Warm, float]:
    t0 = time.perf_counter()
    warm = Warm(calls)
    return warm, time.perf_counter() - t0


def references(calls: List[RunCall], used: set) -> Dict[int, Value]:
    """Tree-interpreter answers for every op the timed phase ran."""
    out: Dict[int, Value] = {}
    for i in sorted(used):
        call = calls[i]
        if call.sched_seed is not None:
            out[i] = run_machine(parse_program(call.source), call, "tree")
        else:
            fn, args = call.spawns[0]
            result = api.run(call.source, fn, list(args), engine="tree", erased=True)
            out[i] = (result.ok, result.value)
    return out


def traced_replay(calls: List[RunCall], timed: harness.Timed):
    """Each op as its public calls: the whole-program re-check that
    ``Session.run`` makes (``check_first``), then the IR execution."""
    rec = SpanRecorder()
    reg = tel.Registry(enabled=True)
    sessions: Dict[str, ProgramSession] = {}
    for call in calls:
        if call.source not in sessions:
            sessions[call.source] = ProgramSession(call.source)
            checked = call.sched_seed is not None
            compile_program(sessions[call.source].program, checked=checked, observable=False)
    outputs: List[Value] = []
    with tel.use(reg):
        for n, record in enumerate(timed.records):
            call = calls[record.index % len(calls)]
            session = sessions[call.source]
            with rec.op(n):
                if call.sched_seed is not None:
                    with rec.span("ir.execute"):
                        outputs.append(run_machine(session.program, call, "ir"))
                    continue
                with rec.span("server.run.check"):
                    for name in session.function_names():
                        with rec.span("core.check"):
                            fd = session.check_function(name)
                        rec.count("nodes_checked", fd.body.node_count())
                fn, args = call.spawns[0]
                with rec.span("ir.execute"):
                    heap = Heap()
                    value, _ = run_function(
                        session.program, fn, list(args), heap=heap,
                        check_reservations=False, sink_sends=True, engine="ir",
                    )
                    outputs.append((True, api.render_value(value, heap)))
    untraced_s = sum(r.ms for r in timed.records) / 1000.0
    return rec, layers.reduce(rec, reg, untraced_s), outputs


def run_engine(inputs: Inputs, seconds: float, trace: bool) -> harness.Result:
    calls = inputs.calls
    warm, first = _timed_setup(calls)
    sides = None
    if not trace:
        sides = harness.Sides(
            lambda: _timed_setup(calls)[1], layers.compile_once(inputs.compile_set)
        )
        sides(first)
    timed = harness.timed_loop(
        len(calls), lambda i: warm.run(calls[i]),
        seconds / 2 if trace else seconds, between=sides,
    )
    rss = sides.workload_peak_rss_mb() if sides else None
    refs = references(calls, {r.index % len(calls) for r in timed.records})

    def check(i: int, out: Value) -> Optional[str]:
        want = refs[i % len(calls)]
        if out != want:
            return f"{calls[i % len(calls)].label}: ir gave {out}, tree gave {want}"
        return None

    return layers.conclude(
        inputs, timed, check, sides, rss, lambda: traced_replay(calls, timed), {}
    )
