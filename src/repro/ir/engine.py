"""The bytecode execution engine.

:class:`IREngine` is a drop-in replacement for
:class:`repro.runtime.smallstep.Config`: it exposes the same
``call(name, args)`` generator protocol (yielding ``(EV_STEP,)`` /
``(EV_SEND, struct, root, live)`` / ``(EV_RECV, tyname)`` and resuming
with the rendezvous value), the same ``stats``/``reservation`` surface,
and raises the same exceptions with the same messages — so ``Machine``,
``run_function``, schedulers, tracing, and step budgets all work
unchanged with ``engine="ir"``.

Differences from the small-step machine, by design:

* ``stats.steps`` counts bytecode instructions retired, not AST nodes
  visited (budgets are engine-relative).
* The step budget is enforced *inside* the dispatch loop at control-flow
  instructions — every loop iteration and call crosses one — instead of
  by an external driver, raising :class:`StepLimitExceeded` directly.
* When preemptive, the engine yields at basic-block boundaries rather
  than per AST node.  Scheduling decisions stay deterministic for a fixed
  scheduler because the yield points are a pure function of the compiled
  code.
* Calls use an explicit frame stack, so deep FCL recursion never hits the
  Python recursion limit.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Set, Tuple

from ..lang import ast
from ..runtime.disconnect import efficient_disconnected, naive_disconnected
from ..runtime.heap import Heap, HeapError
from ..runtime.machine import (
    EV_RECV,
    EV_SEND,
    EV_STEP,
    MachineError,
    ReservationViolation,
    StepLimitExceeded,
    ThreadStats,
)
from ..runtime.values import NONE, UNIT, Loc, RuntimeValue
from ..telemetry import registry as _telemetry
from .bytecode import (
    OP_ADD, OP_AND, OP_ASLOC, OP_BR, OP_BREQ, OP_BRGE, OP_BRGT, OP_BRLE,
    OP_BRLT, OP_BRNE, OP_BRNONE, OP_BRSOME, OP_CALL, OP_CALL1, OP_CALL2,
    OP_CHECK, OP_CONST,
    OP_DISC, OP_DIV, OP_EQ, OP_GE, OP_GT, OP_ISNONE, OP_ISSOME, OP_JMP,
    OP_LE, OP_LOAD, OP_LOADV, OP_LT, OP_MOD, OP_MOV, OP_MUL, OP_NE, OP_NEG,
    OP_NEW, OP_NOT, OP_OR, OP_RECV, OP_RET, OP_SEND, OP_SENDC, OP_STORE,
    OP_STOREV, OP_SUB,
    compile_program,
)

_STEP_EVENT = (EV_STEP,)


class IREngine:
    """Executes compiled FCL bytecode for one thread."""

    def __init__(
        self,
        program: ast.Program,
        heap: Heap,
        reservation: Set[Loc],
        check_reservations: bool = True,
        disconnect: str = "efficient",
        preemptive: bool = False,
        max_steps: int = None,
    ):
        self.program = program
        self.heap = heap
        self.reservation = reservation
        self.check_reservations = check_reservations
        self.preemptive = preemptive
        self.max_steps = max_steps
        self.stats = ThreadStats()
        if disconnect == "efficient":
            self._disconnected = efficient_disconnected
        elif disconnect == "naive":
            self._disconnected = naive_disconnected
        else:
            raise ValueError(f"unknown disconnect implementation {disconnect!r}")
        # Guard erasure happened at lowering: the erased module simply has
        # no check instructions.  A tracer on the heap selects the
        # observable compilation, which keeps every load, so heap-event
        # traces stay comparable with the small-step machine.
        self._module = compile_program(
            program,
            checked=check_reservations,
            observable=heap.tracer is not None,
        )
        tel = _telemetry()
        if tel.enabled:
            tel.inc("machine.engine.selected.ir")
            tel.inc(
                "machine.guard_mode.checked"
                if check_reservations
                else "machine.guard_mode.erased"
            )

    def call(
        self, name: str, args: Iterable[RuntimeValue]
    ) -> Generator[Tuple, RuntimeValue, RuntimeValue]:
        fdef = self.program.func(name)  # unknown-function parity
        func = self._module.funcs[name]
        args = list(args)
        if len(args) != len(fdef.params):
            raise MachineError(
                f"{name} expects {len(fdef.params)} arguments, got {len(args)}"
            )

        heap = self.heap
        objects = heap._objects
        tracer = heap.tracer
        read_field = heap.read_field
        write_field = heap.write_field
        reservation = self.reservation
        stats = self.stats
        preemptive = self.preemptive
        max_steps = self.max_steps
        disconnected = self._disconnected
        # One flag check per control-flow instruction on the fast path:
        # budget enforcement and preemption points share the slow branch.
        slow = preemptive or max_steps is not None

        base_steps = stats.steps
        base_checks = stats.reservation_checks
        base_cost = stats.reservation_cost
        steps = 0
        checks = 0
        cost = 0
        hreads = 0

        frame = func.blank[:]
        frame[: len(args)] = args
        code = func.code
        pc = 0
        stack: List[Tuple] = []

        try:
            while True:
                ins = code[pc]
                op = ins[0]
                pc += 1
                steps += 1
                if op == OP_MOV:
                    frame[ins[1]] = frame[ins[2]]
                elif op == OP_CONST:
                    frame[ins[1]] = ins[2]
                elif op == OP_LOAD:
                    base = frame[ins[2]]
                    if tracer is None:
                        o = objects.get(base)
                        if o is None:
                            raise HeapError(f"dangling location {base}")
                        hreads += 1
                        frame[ins[1]] = o.fields[ins[3]]
                    else:
                        frame[ins[1]] = read_field(base, ins[3])
                elif op == OP_LOADV:
                    # asloc fused into the load it guards: identical check,
                    # identical error, one dispatch.
                    base = frame[ins[2]]
                    if type(base) is not Loc:
                        raise MachineError(
                            f"expected an object reference, got {base!r} "
                            f"(did a none reach a non-nullable position?)"
                        )
                    if tracer is None:
                        o = objects.get(base)
                        if o is None:
                            raise HeapError(f"dangling location {base}")
                        hreads += 1
                        frame[ins[1]] = o.fields[ins[3]]
                    else:
                        frame[ins[1]] = read_field(base, ins[3])
                elif op == OP_RET:
                    value = frame[ins[1]]
                    if not stack:
                        # Straight-line functions never reach a control op,
                        # so the budget must also bind at the top-level
                        # return (once per run — off the hot path).
                        if (max_steps is not None
                                and base_steps + steps > max_steps):
                            raise StepLimitExceeded(
                                f"step budget exceeded ({max_steps} steps)"
                            )
                        return value
                    code, frame, pc, dest = stack.pop()
                    frame[dest] = value
                elif op == OP_CALL1:
                    if slow:
                        if (max_steps is not None
                                and base_steps + steps > max_steps):
                            raise StepLimitExceeded(
                                f"step budget exceeded ({max_steps} steps)"
                            )
                        if preemptive:
                            stats.steps = base_steps + steps
                            stats.reservation_checks = base_checks + checks
                            stats.reservation_cost = base_cost + cost
                            if hreads:
                                heap.reads += hreads
                                hreads = 0
                            yield _STEP_EVENT
                    callee = ins[2]
                    new_frame = callee.blank[:]
                    new_frame[0] = frame[ins[3]]
                    stack.append((code, frame, pc, ins[1]))
                    code = callee.code
                    frame = new_frame
                    pc = 0
                elif op == OP_CALL2:
                    if slow:
                        if (max_steps is not None
                                and base_steps + steps > max_steps):
                            raise StepLimitExceeded(
                                f"step budget exceeded ({max_steps} steps)"
                            )
                        if preemptive:
                            stats.steps = base_steps + steps
                            stats.reservation_checks = base_checks + checks
                            stats.reservation_cost = base_cost + cost
                            if hreads:
                                heap.reads += hreads
                                hreads = 0
                            yield _STEP_EVENT
                    callee = ins[2]
                    new_frame = callee.blank[:]
                    new_frame[0] = frame[ins[3]]
                    new_frame[1] = frame[ins[4]]
                    stack.append((code, frame, pc, ins[1]))
                    code = callee.code
                    frame = new_frame
                    pc = 0
                elif op >= OP_BRLT:  # fused compare-and-branch family
                    if slow:
                        if (max_steps is not None
                                and base_steps + steps > max_steps):
                            raise StepLimitExceeded(
                                f"step budget exceeded ({max_steps} steps)"
                            )
                        if preemptive:
                            stats.steps = base_steps + steps
                            stats.reservation_checks = base_checks + checks
                            stats.reservation_cost = base_cost + cost
                            if hreads:
                                heap.reads += hreads
                                hreads = 0
                            yield _STEP_EVENT
                    if op == OP_BRLT:
                        pc = ins[3] if frame[ins[1]] < frame[ins[2]] else ins[4]
                    elif op == OP_BRGT:
                        pc = ins[3] if frame[ins[1]] > frame[ins[2]] else ins[4]
                    elif op == OP_BRNONE:
                        pc = ins[2] if frame[ins[1]] is NONE else ins[3]
                    elif op == OP_BRSOME:
                        pc = ins[2] if frame[ins[1]] is not NONE else ins[3]
                    elif op == OP_BRLE:
                        pc = ins[3] if frame[ins[1]] <= frame[ins[2]] else ins[4]
                    elif op == OP_BRGE:
                        pc = ins[3] if frame[ins[1]] >= frame[ins[2]] else ins[4]
                    elif op == OP_BREQ:
                        pc = ins[3] if frame[ins[1]] == frame[ins[2]] else ins[4]
                    else:  # OP_BRNE
                        pc = ins[3] if frame[ins[1]] != frame[ins[2]] else ins[4]
                elif op == OP_BR:
                    if slow:
                        if (max_steps is not None
                                and base_steps + steps > max_steps):
                            raise StepLimitExceeded(
                                f"step budget exceeded ({max_steps} steps)"
                            )
                        if preemptive:
                            stats.steps = base_steps + steps
                            stats.reservation_checks = base_checks + checks
                            stats.reservation_cost = base_cost + cost
                            if hreads:
                                heap.reads += hreads
                                hreads = 0
                            yield _STEP_EVENT
                    pc = ins[2] if frame[ins[1]] else ins[3]
                elif op == OP_JMP:
                    if slow:
                        if (max_steps is not None
                                and base_steps + steps > max_steps):
                            raise StepLimitExceeded(
                                f"step budget exceeded ({max_steps} steps)"
                            )
                        if preemptive:
                            stats.steps = base_steps + steps
                            stats.reservation_checks = base_checks + checks
                            stats.reservation_cost = base_cost + cost
                            if hreads:
                                heap.reads += hreads
                                hreads = 0
                            yield _STEP_EVENT
                    pc = ins[1]
                elif op == OP_ADD:
                    frame[ins[1]] = frame[ins[2]] + frame[ins[3]]
                elif op == OP_SUB:
                    frame[ins[1]] = frame[ins[2]] - frame[ins[3]]
                elif op == OP_MUL:
                    frame[ins[1]] = frame[ins[2]] * frame[ins[3]]
                elif op == OP_DIV:
                    right = frame[ins[3]]
                    if right == 0:
                        raise MachineError("division by zero")
                    frame[ins[1]] = frame[ins[2]] // right
                elif op == OP_MOD:
                    right = frame[ins[3]]
                    if right == 0:
                        raise MachineError("modulo by zero")
                    frame[ins[1]] = frame[ins[2]] % right
                elif op == OP_LT:
                    frame[ins[1]] = frame[ins[2]] < frame[ins[3]]
                elif op == OP_GT:
                    frame[ins[1]] = frame[ins[2]] > frame[ins[3]]
                elif op == OP_LE:
                    frame[ins[1]] = frame[ins[2]] <= frame[ins[3]]
                elif op == OP_GE:
                    frame[ins[1]] = frame[ins[2]] >= frame[ins[3]]
                elif op == OP_EQ:
                    frame[ins[1]] = frame[ins[2]] == frame[ins[3]]
                elif op == OP_NE:
                    frame[ins[1]] = frame[ins[2]] != frame[ins[3]]
                elif op == OP_AND:
                    frame[ins[1]] = bool(frame[ins[2]]) and bool(frame[ins[3]])
                elif op == OP_OR:
                    frame[ins[1]] = bool(frame[ins[2]]) or bool(frame[ins[3]])
                elif op == OP_NOT:
                    frame[ins[1]] = not frame[ins[2]]
                elif op == OP_NEG:
                    frame[ins[1]] = -frame[ins[2]]
                elif op == OP_ISNONE:
                    frame[ins[1]] = frame[ins[2]] is NONE
                elif op == OP_ISSOME:
                    frame[ins[1]] = frame[ins[2]] is not NONE
                elif op == OP_CHECK:
                    value = frame[ins[1]]
                    if type(value) is Loc:
                        checks += 1
                        cost += 1
                        if value not in reservation:
                            raise ReservationViolation(
                                f"access to {value} outside the thread's "
                                f"reservation"
                            )
                elif op == OP_ASLOC:
                    value = frame[ins[1]]
                    if type(value) is not Loc:
                        raise MachineError(
                            f"expected an object reference, got {value!r} "
                            f"(did a none reach a non-nullable position?)"
                        )
                elif op == OP_STORE:
                    write_field(frame[ins[1]], ins[2], frame[ins[3]])
                elif op == OP_STOREV:
                    # asloc fused into the store it guards.
                    base = frame[ins[1]]
                    if type(base) is not Loc:
                        raise MachineError(
                            f"expected an object reference, got {base!r} "
                            f"(did a none reach a non-nullable position?)"
                        )
                    write_field(base, ins[2], frame[ins[3]])
                elif op == OP_NEW:
                    names = ins[3]
                    slots = ins[4]
                    inits = {}
                    i = 0
                    for fieldname in names:
                        inits[fieldname] = frame[slots[i]]
                        i += 1
                    loc = heap.alloc(ins[2], inits)
                    reservation.add(loc)
                    frame[ins[1]] = loc
                elif op == OP_CALL:
                    if slow:
                        if (max_steps is not None
                                and base_steps + steps > max_steps):
                            raise StepLimitExceeded(
                                f"step budget exceeded ({max_steps} steps)"
                            )
                        if preemptive:
                            stats.steps = base_steps + steps
                            stats.reservation_checks = base_checks + checks
                            stats.reservation_cost = base_cost + cost
                            if hreads:
                                heap.reads += hreads
                                hreads = 0
                            yield _STEP_EVENT
                    callee = ins[2]
                    argslots = ins[3]
                    new_frame = callee.blank[:]
                    i = 0
                    for slot in argslots:
                        new_frame[i] = frame[slot]
                        i += 1
                    stack.append((code, frame, pc, ins[1]))
                    code = callee.code
                    frame = new_frame
                    pc = 0
                elif op == OP_SEND or op == OP_SENDC:
                    root = frame[ins[2]]
                    live = heap.live_set(root)
                    if op == OP_SENDC:
                        checks += 1
                        cost += len(live)
                        if not live <= reservation:
                            raise ReservationViolation(
                                "send: the live set leaks outside the "
                                "sender's reservation"
                            )
                    stats.sends += 1
                    stats.steps = base_steps + steps
                    stats.reservation_checks = base_checks + checks
                    stats.reservation_cost = base_cost + cost
                    if hreads:
                        heap.reads += hreads
                        hreads = 0
                    yield (EV_SEND, heap.obj(root).struct.name, root, live)
                    frame[ins[1]] = UNIT
                elif op == OP_RECV:
                    stats.recvs += 1
                    stats.steps = base_steps + steps
                    stats.reservation_checks = base_checks + checks
                    stats.reservation_cost = base_cost + cost
                    if hreads:
                        heap.reads += hreads
                        hreads = 0
                    root = yield (EV_RECV, ins[2])
                    frame[ins[1]] = root
                elif op == OP_DISC:
                    result, dstats = disconnected(
                        heap, frame[ins[2]], frame[ins[3]]
                    )
                    stats.disconnect_checks.append(dstats)
                    frame[ins[1]] = result
                else:
                    raise MachineError(f"unknown opcode {op}")
        finally:
            stats.steps = base_steps + steps
            stats.reservation_checks = base_checks + checks
            stats.reservation_cost = base_cost + cost
            if hreads:
                heap.reads += hreads
            tel = _telemetry()
            if tel.enabled:
                tel.inc("machine.engine.instructions", steps)
