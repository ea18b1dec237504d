"""Small-step operational semantics (fig 7) as an explicit CEK machine.

This is the ``tree`` engine behind :class:`~repro.runtime.machine.Machine`
and :func:`~repro.runtime.machine.run_function`.  A :class:`Config` is one
thread's configuration ``(d, h, s, e)`` — reservation, shared heap, stack,
expression — advanced one transition at a time.  Continuations are an
explicit frame stack, so there is no Python recursion: million-step
executions and deeply recursive FCL functions run in constant Python stack.

Every variable use, field read, and field write performs the reservation
check of rules E2/E5A/E7A/E8 (when enabled); a failed check raises
:class:`~repro.runtime.machine.ReservationViolation` — the operational
"stuck" state.

:meth:`Config.call` speaks the engine protocol the scheduler drives: a
generator that yields ``(EV_STEP,)`` before each expression it evaluates
(when ``preemptive``), ``(EV_SEND, struct, root, live)`` when a send is
ready to rendezvous, and ``(EV_RECV, struct)`` when it waits for one, and
that is resumed with the rendezvous value (EC3, fig 15).

Transitions are dispatched on the type of the expression (an *eval*
transition) or of the top continuation frame (an *apply* transition).  An
expression is its own frame while its first subexpression runs: the ``if``
node on the stack is the context ``if [·] {…} else {…}``.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Generator, Iterable, List, Optional, Set, Tuple

from ..lang import ast
from ..telemetry import registry as _telemetry
from .disconnect import efficient_disconnected, naive_disconnected
from .heap import Heap
from .machine import (
    EV_RECV,
    EV_SEND,
    EV_STEP,
    MachineError,
    ReservationViolation,
    ThreadStats,
)
from .values import NONE, UNIT, Loc, RuntimeValue, is_loc

_STEP_EVENT = (EV_STEP,)
_UNBOUND = object()


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _div(left: int, right: int) -> int:
    if right == 0:
        raise MachineError("division by zero")
    return left // right


def _mod(left: int, right: int) -> int:
    if right == 0:
        raise MachineError("modulo by zero")
    return left % right


_BINOPS: Dict[str, Callable[[RuntimeValue, RuntimeValue], RuntimeValue]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": _mod,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    # Both operands are already values: FCL's && and || do not short-circuit.
    "&&": lambda left, right: bool(left) and bool(right),
    "||": lambda left, right: bool(left) or bool(right),
}


def binop(op: str, left: RuntimeValue, right: RuntimeValue) -> RuntimeValue:
    """The value of ``left op right`` (the IR's constant folder uses the
    same function, so folding cannot disagree with execution)."""
    try:
        fn = _BINOPS[op]
    except KeyError:
        raise MachineError(f"unknown operator {op!r}") from None
    return fn(left, right)


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class Env:
    """One function frame's variables.

    ``vars`` holds the visible binding of every name.  A block scope
    starts at a :meth:`mark`; each ``let`` inside it logs the binding it
    shadows, and :meth:`restore` undoes the log back to the mark when the
    scope ends — so a lookup is one dict probe however deep the blocks."""

    __slots__ = ("vars", "_shadowed")

    def __init__(self, initial: Optional[Dict[str, RuntimeValue]] = None):
        self.vars: Dict[str, RuntimeValue] = dict(initial or {})
        self._shadowed: List[Tuple[str, object]] = []

    def mark(self) -> int:
        return len(self._shadowed)

    def restore(self, mark: int) -> None:
        shadowed = self._shadowed
        while len(shadowed) > mark:
            name, old = shadowed.pop()
            if old is _UNBOUND:
                del self.vars[name]
            else:
                self.vars[name] = old

    def bind(self, name: str, value: RuntimeValue) -> None:
        self._shadowed.append((name, self.vars.get(name, _UNBOUND)))
        self.vars[name] = value

    def lookup(self, name: str) -> RuntimeValue:
        try:
            return self.vars[name]
        except KeyError:
            raise MachineError(f"unbound variable {name!r} at run time") from None

    def assign(self, name: str, value: RuntimeValue) -> None:
        if name not in self.vars:
            raise MachineError(f"assignment to unbound variable {name!r}")
        self.vars[name] = value


# ---------------------------------------------------------------------------
# Continuation frames (beyond the expressions that are their own frame)
# ---------------------------------------------------------------------------


class SeqK:
    """Statement ``index`` of a block is running; the block's scope began
    at ``mark``."""

    __slots__ = ("body", "index", "mark")

    def __init__(self, body: List[ast.Expr], mark: int):
        self.body = body
        self.index = 0
        self.mark = mark


class ScopeK:
    """The body of a matched ``let some``; its binding ends with it."""

    __slots__ = ("mark",)

    def __init__(self, mark: int):
        self.mark = mark


class LoopK:
    """A ``while``: its body is running, or its condition is."""

    __slots__ = ("node", "in_body")

    def __init__(self, node: ast.While):
        self.node = node
        self.in_body = False


class BinopK:
    """``left op [·]``: the right operand is running."""

    __slots__ = ("op", "left")

    def __init__(self, op: str, left: RuntimeValue):
        self.op = op
        self.left = left


class DisconnectedK:
    """``if disconnected(left, [·])``: the right operand is running."""

    __slots__ = ("node", "left")

    def __init__(self, node: ast.IfDisconnected, left: RuntimeValue):
        self.node = node
        self.left = left


class StoreK:
    """``loc.f = [·]``: the assigned value is running."""

    __slots__ = ("loc", "fieldname")

    def __init__(self, loc: Loc, fieldname: str):
        self.loc = loc
        self.fieldname = fieldname


class ArgsK:
    """``f(v…, [·], e…)``: argument ``len(values)`` is running."""

    __slots__ = ("node", "values")

    def __init__(self, node: ast.Call):
        self.node = node
        self.values: List[RuntimeValue] = []


class NewK:
    """``new S(…, name = [·], …)``: initializer ``name`` is running."""

    __slots__ = ("struct", "rest", "name", "inits")

    def __init__(self, struct: str, rest, name: str):
        self.struct = struct
        self.rest = rest
        self.name = name
        self.inits: Dict[str, RuntimeValue] = {}


# A caller's :class:`Env` on the stack is the return frame of a call.


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


class Config:
    """One thread's small-step configuration ``(d, h, s, e)``: reservation
    ``d``, the shared heap ``h``, and — while :meth:`evaluate` runs — the
    expression in control, its environment and the continuation stack."""

    def __init__(
        self,
        program: ast.Program,
        heap: Heap,
        reservation: Set[Loc],
        check_reservations: bool = True,
        disconnect: str = "efficient",
        preemptive: bool = False,
    ):
        self.program = program
        self.heap = heap
        self.reservation = reservation
        self.check_reservations = check_reservations
        self.preemptive = preemptive
        self.stats = ThreadStats()
        if disconnect == "efficient":
            self._disconnected = efficient_disconnected
        elif disconnect == "naive":
            self._disconnected = naive_disconnected
        else:
            raise ValueError(f"unknown disconnect implementation {disconnect!r}")
        # Verified-erasure fast path (§3.2): for a type-checked program the
        # reservation checks can never fire, so the guard is chosen ONCE at
        # construction — erased runs dispatch straight to the identity
        # function instead of paying a branch per location use.
        self._guard = self._guard_checked if check_reservations else self._guard_erased
        self.env = Env()
        self.kont: List[object] = []
        self.value: RuntimeValue = UNIT
        #: The send/recv event a transition is blocked on, if any.
        self.event: Optional[Tuple] = None
        tel = _telemetry()
        if tel.enabled:
            tel.inc(
                "machine.guard_mode.checked"
                if check_reservations
                else "machine.guard_mode.erased"
            )

    # -- dynamic reservation checks (E2, E5A, E7A, E8) ------------------------

    def _guard_checked(self, value: RuntimeValue) -> RuntimeValue:
        """The dynamic reservation check applied on every location use."""
        if is_loc(value):
            self.stats.reservation_checks += 1
            self.stats.reservation_cost += 1
            if value not in self.reservation:
                raise ReservationViolation(
                    f"access to {value} outside the thread's reservation"
                )
        return value

    @staticmethod
    def _guard_erased(value: RuntimeValue) -> RuntimeValue:
        """Erased guard: reservation checks compiled out for verified code."""
        return value

    # -- entry points -----------------------------------------------------------

    def call(
        self, name: str, args: Iterable[RuntimeValue]
    ) -> Generator[Tuple, RuntimeValue, RuntimeValue]:
        """Run function ``name`` on ``args`` to its result."""
        fdef, env = self._callee(name, list(args))
        return (yield from self.evaluate(fdef.body, env))

    def evaluate(
        self, node: ast.Expr, env: Env
    ) -> Generator[Tuple, RuntimeValue, RuntimeValue]:
        """Run ``node`` in ``env`` to a value, one transition at a time."""
        self.env = env
        self.kont = kont = []
        self.event = None
        stats = self.stats
        preemptive = self.preemptive
        while True:
            while node is not None:
                stats.steps += 1
                if preemptive:
                    yield _STEP_EVENT
                try:
                    transition = _EVAL[type(node)]
                except KeyError:
                    raise MachineError(
                        f"cannot evaluate {type(node).__name__}"
                    ) from None
                node = transition(self, node)
            if self.event is not None:
                event, self.event = self.event, None
                resumed = yield event
                if event[0] == EV_RECV:
                    self.value = resumed
            if not kont:
                return self.value
            frame = kont.pop()
            node = _APPLY[type(frame)](self, frame, self.value)

    # -- eval transitions: return the next expression, or None once
    # -- ``self.value`` holds the value of this one --------------------------

    def _eval_literal(self, node: ast.IntLit) -> None:
        self.value = node.value

    def _eval_unit(self, node: ast.UnitLit) -> None:
        self.value = UNIT

    def _eval_none(self, node: ast.NoneLit) -> None:
        self.value = NONE

    def _eval_var(self, node: ast.VarRef) -> None:
        self.value = self._guard(self.env.lookup(node.name))  # E2

    def _eval_some(self, node: ast.SomeExpr) -> ast.Expr:
        return node.inner  # some(v) ≡ v

    def _eval_block(self, node: ast.Block) -> Optional[ast.Expr]:
        body = node.body
        if not body:
            self.value = UNIT
            return None
        if len(body) == 1 and type(body[0]) is not ast.LetBind:
            return body[0]  # binds nothing, so needs neither scope nor frame
        self.kont.append(SeqK(body, self.env.mark()))
        return body[0]

    def _eval_assign(self, node: ast.Assign) -> ast.Expr:
        self.kont.append(node)
        if type(node.target) is ast.VarRef:
            return node.value
        return node.target.base

    def _eval_while(self, node: ast.While) -> ast.Expr:
        self.kont.append(LoopK(node))
        return node.cond

    def _eval_new(self, node: ast.New) -> Optional[ast.Expr]:
        rest = iter(node.inits.items())
        first = next(rest, None)
        if first is None:
            self.value = self._allocate(node.struct, {})
            return None
        self.kont.append(NewK(node.struct, rest, first[0]))
        return first[1]

    def _eval_call(self, node: ast.Call) -> ast.Expr:
        if not node.args:
            return self._enter(node.func, [])
        self.kont.append(ArgsK(node))
        return node.args[0]

    def _eval_recv(self, node: ast.Recv) -> None:
        self.stats.recvs += 1
        self.event = (EV_RECV, ast.strip_maybe(node.ty).name)

    # -- apply transitions: ``value`` meets the top frame --------------------

    def _apply_seq(self, frame: SeqK, value: RuntimeValue) -> Optional[ast.Expr]:
        index = frame.index + 1
        if index < len(frame.body):
            frame.index = index
            self.kont.append(frame)
            return frame.body[index]
        self.env.restore(frame.mark)  # the block's value is its last entry's
        return None

    def _apply_scope(self, frame: ScopeK, value: RuntimeValue) -> None:
        self.env.restore(frame.mark)

    def _apply_return(self, frame: Env, value: RuntimeValue) -> None:
        self.env = frame

    def _apply_is_none(self, node: ast.IsNone, value: RuntimeValue) -> None:
        self.value = value is NONE

    def _apply_is_some(self, node: ast.IsSome, value: RuntimeValue) -> None:
        self.value = value is not NONE

    def _apply_unop(self, node: ast.Unop, value: RuntimeValue) -> None:
        self.value = (not value) if node.op == "!" else -value

    def _apply_binop_left(self, node: ast.Binop, value: RuntimeValue) -> ast.Expr:
        self.kont.append(BinopK(node.op, value))
        return node.right

    def _apply_binop(self, frame: BinopK, value: RuntimeValue) -> None:
        self.value = binop(frame.op, frame.left, value)

    def _apply_let(self, node: ast.LetBind, value: RuntimeValue) -> None:
        self.env.bind(node.name, value)
        self.value = UNIT

    def _apply_let_some(
        self, node: ast.LetSome, value: RuntimeValue
    ) -> Optional[ast.Expr]:
        if value is NONE:
            if node.else_block is None:
                self.value = UNIT
                return None
            return node.else_block
        env = self.env
        self.kont.append(ScopeK(env.mark()))
        env.bind(node.name, value)
        return node.then_block

    def _apply_assign(
        self, node: ast.Assign, value: RuntimeValue
    ) -> Optional[ast.Expr]:
        target = node.target
        if type(target) is ast.VarRef:  # x = [·]
            self.env.assign(target.name, value)
            self.value = UNIT
            return None
        # [·].f = e: the base is a location; now the assigned value
        self.kont.append(StoreK(self._as_loc(value), target.fieldname))
        return node.value

    def _apply_store(self, frame: StoreK, value: RuntimeValue) -> None:
        self._guard(frame.loc)  # E7A
        if is_loc(value):
            self._guard(value)
        self.heap.write_field(frame.loc, frame.fieldname, value)
        self.value = UNIT

    def _apply_field_read(self, node: ast.FieldRef, value: RuntimeValue) -> None:
        loc = self._as_loc(value)
        self._guard(loc)  # E5A
        read = self.heap.read_field(loc, node.fieldname)
        self.value = self._guard(read) if is_loc(read) else read

    def _apply_if(self, node: ast.If, value: RuntimeValue) -> Optional[ast.Expr]:
        if value:
            return node.then_block
        if node.else_block is not None:
            return node.else_block
        self.value = UNIT
        return None

    def _apply_loop(self, frame: LoopK, value: RuntimeValue) -> Optional[ast.Expr]:
        if frame.in_body:  # the body finished: test the condition again
            frame.in_body = False
            self.kont.append(frame)
            return frame.node.cond
        if value:
            frame.in_body = True
            self.kont.append(frame)
            return frame.node.body
        self.value = UNIT
        return None

    def _apply_disconnected_left(
        self, node: ast.IfDisconnected, value: RuntimeValue
    ) -> ast.Expr:
        self.kont.append(DisconnectedK(node, value))
        return node.right

    def _apply_disconnected(
        self, frame: DisconnectedK, value: RuntimeValue
    ) -> Optional[ast.Expr]:
        left = self._as_loc(frame.left)
        right = self._as_loc(value)
        self._guard(left)
        self._guard(right)
        disconnected, dstats = self._disconnected(self.heap, left, right)
        self.stats.disconnect_checks.append(dstats)
        node = frame.node
        if disconnected:  # E15A
            return node.then_block
        if node.else_block is not None:  # E15B
            return node.else_block
        self.value = UNIT
        return None

    def _apply_new(self, frame: NewK, value: RuntimeValue) -> Optional[ast.Expr]:
        frame.inits[frame.name] = value
        following = next(frame.rest, None)
        if following is not None:
            frame.name = following[0]
            self.kont.append(frame)
            return following[1]
        self.value = self._allocate(frame.struct, frame.inits)
        return None

    def _apply_args(self, frame: ArgsK, value: RuntimeValue) -> ast.Expr:
        values = frame.values
        values.append(value)
        args = frame.node.args
        if len(values) < len(args):
            self.kont.append(frame)
            return args[len(values)]
        return self._enter(frame.node.func, values)

    def _apply_send(self, node: ast.Send, value: RuntimeValue) -> None:
        root = self._as_loc(value)
        live = self.heap.live_set(root)
        if self.check_reservations:
            # E8: the send containment check walks the whole live set.
            self.stats.reservation_checks += 1
            self.stats.reservation_cost += len(live)
            if not live <= self.reservation:
                raise ReservationViolation(
                    "send: the live set leaks outside the sender's reservation"
                )
        self.stats.sends += 1
        self.event = (EV_SEND, self.heap.obj(root).struct.name, root, live)
        self.value = UNIT

    # -- helpers -------------------------------------------------------------------

    def _callee(
        self, name: str, args: List[RuntimeValue]
    ) -> Tuple[ast.FuncDef, Env]:
        fdef = self.program.func(name)
        if len(args) != len(fdef.params):
            raise MachineError(
                f"{name} expects {len(fdef.params)} arguments, got {len(args)}"
            )
        return fdef, Env({p.name: self._guard(a) for p, a in zip(fdef.params, args)})

    def _enter(self, name: str, args: List[RuntimeValue]) -> ast.Expr:
        fdef, env = self._callee(name, args)
        self.kont.append(self.env)
        self.env = env
        return fdef.body

    def _allocate(self, struct: str, inits: Dict[str, RuntimeValue]) -> Loc:
        loc = self.heap.alloc(self.program.struct(struct), inits)
        self.reservation.add(loc)
        return loc

    @staticmethod
    def _as_loc(value: RuntimeValue) -> Loc:
        if not is_loc(value):
            raise MachineError(
                f"expected an object reference, got {value!r} "
                f"(did a none reach a non-nullable position?)"
            )
        return value


def _own_frame(first: str) -> Callable[[Config, ast.Expr], ast.Expr]:
    """The eval transition of an expression that is its own frame while
    its subexpression ``first`` runs."""
    subexpression = operator.attrgetter(first)

    def transition(config: Config, node: ast.Expr) -> ast.Expr:
        config.kont.append(node)
        return subexpression(node)

    return transition


_EVAL = {
    ast.IntLit: Config._eval_literal,
    ast.BoolLit: Config._eval_literal,
    ast.UnitLit: Config._eval_unit,
    ast.NoneLit: Config._eval_none,
    ast.VarRef: Config._eval_var,
    ast.SomeExpr: Config._eval_some,
    ast.IsNone: _own_frame("inner"),
    ast.IsSome: _own_frame("inner"),
    ast.Unop: _own_frame("inner"),
    ast.FieldRef: _own_frame("base"),
    ast.Block: Config._eval_block,
    ast.LetBind: _own_frame("init"),
    ast.LetSome: _own_frame("scrutinee"),
    ast.Assign: Config._eval_assign,
    ast.If: _own_frame("cond"),
    ast.While: Config._eval_while,
    ast.IfDisconnected: _own_frame("left"),
    ast.Binop: _own_frame("left"),
    ast.New: Config._eval_new,
    ast.Call: Config._eval_call,
    ast.Send: _own_frame("value"),
    ast.Recv: Config._eval_recv,
}

_APPLY = {
    SeqK: Config._apply_seq,
    ScopeK: Config._apply_scope,
    Env: Config._apply_return,
    ast.IsNone: Config._apply_is_none,
    ast.IsSome: Config._apply_is_some,
    ast.Unop: Config._apply_unop,
    ast.Binop: Config._apply_binop_left,
    BinopK: Config._apply_binop,
    ast.LetBind: Config._apply_let,
    ast.LetSome: Config._apply_let_some,
    ast.Assign: Config._apply_assign,
    StoreK: Config._apply_store,
    ast.FieldRef: Config._apply_field_read,
    ast.If: Config._apply_if,
    LoopK: Config._apply_loop,
    ast.IfDisconnected: Config._apply_disconnected_left,
    DisconnectedK: Config._apply_disconnected,
    NewK: Config._apply_new,
    ArgsK: Config._apply_args,
    ast.Send: Config._apply_send,
}
