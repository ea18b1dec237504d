"""AST → IR lowering, with guard erasure decided here (not at dispatch).

The lowering mirrors the small-step machine's evaluation order *exactly* —
operand evaluation, `as-loc` coercions, reservation guards, heap reads and
writes happen in the same sequence — so a checked IR run produces the same
heap-event trace and the same ``reservation_checks`` count as
``runtime.smallstep.Config``, and ``--paranoid`` can byte-compare the
two engines' traces.

Guard sites replicate fig 7's pervasive checks:

* function entry: one ``check`` per parameter (the interpreter guards each
  argument while binding it);
* every variable use (``check`` on the variable's slot before the value is
  captured);
* field reads: ``asloc`` + ``check`` on the base, then ``check`` on a
  location result;
* field writes: ``asloc`` on the base *before* the value is evaluated
  (the interpreter's as-loc error preempts value side effects), then
  ``check`` base / ``check`` value;
* ``if disconnected``: ``asloc`` + ``check`` on both operands;
* ``send``: the live-set containment check is part of the send opcode and
  is selected at flatten time (``SENDC`` vs ``SEND``).

In erased mode none of these ``check`` instructions are emitted — the
would-be sites are only counted (``checks_erased``), which is the §3.2
erasure argument applied at compile time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..lang import ast
from ..runtime.machine import MachineError
from ..runtime.values import NONE, UNIT
from .nodes import BasicBlock, Instr, IRFunction


class FunctionLowerer:
    def __init__(self, program: ast.Program, fdef: ast.FuncDef, checked: bool):
        self.program = program
        self.fdef = fdef
        self.checked = checked
        self.checks_erased = 0
        self.fn = IRFunction(fdef.name, len(fdef.params))
        self.cur = self.fn.new_block()
        # Compile-time scope stack: FCL has no closures, so lexical name →
        # slot resolution here is exactly the interpreter's Env at run time.
        self.scopes: List[Dict[str, int]] = [
            {p.name: i for i, p in enumerate(fdef.params)}
        ]

    # -- plumbing ----------------------------------------------------------

    def emit(self, op: str, dest: Optional[int] = None, *args) -> None:
        self.cur.instrs.append(Instr(op, dest, *args))

    def terminate(self, op: str, *args) -> None:
        if self.cur.term is None:
            self.cur.term = Instr(op, None, *args)

    def start_block(self, block: BasicBlock) -> None:
        self.cur = block

    def lookup(self, name: str) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise MachineError(f"unbound variable {name!r} at run time")

    def lookup_assign(self, name: str) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise MachineError(f"assignment to unbound variable {name!r}")

    def guard(self, slot: int) -> None:
        if self.checked:
            self.emit("check", None, slot)
        else:
            self.checks_erased += 1

    def const(self, value) -> int:
        t = self.fn.new_slot()
        self.emit("const", t, value)
        return t

    # -- entry point -------------------------------------------------------

    def run(self) -> Tuple[IRFunction, int]:
        for i in range(len(self.fdef.params)):
            self.guard(i)
        result = self.lower(self.fdef.body)
        self.terminate("ret", result)
        return self.fn, self.checks_erased

    # -- expression lowering ----------------------------------------------

    def lower(self, node: ast.Expr) -> int:
        if isinstance(node, ast.IntLit):
            return self.const(node.value)
        if isinstance(node, ast.BoolLit):
            return self.const(node.value)
        if isinstance(node, ast.UnitLit):
            return self.const(UNIT)
        if isinstance(node, ast.NoneLit):
            return self.const(NONE)
        if isinstance(node, ast.VarRef):
            slot = self.lookup(node.name)
            self.guard(slot)
            # Capture the value now: later assignments to the variable must
            # not retroactively change this use (the interpreter reads the
            # environment at evaluation time).
            t = self.fn.new_slot()
            self.emit("mov", t, slot)
            return t
        if isinstance(node, ast.SomeExpr):
            return self.lower(node.inner)
        if isinstance(node, ast.IsNone):
            s = self.lower(node.inner)
            t = self.fn.new_slot()
            self.emit("isnone", t, s)
            return t
        if isinstance(node, ast.IsSome):
            s = self.lower(node.inner)
            t = self.fn.new_slot()
            self.emit("issome", t, s)
            return t

        if isinstance(node, ast.Block):
            self.scopes.append({})
            try:
                result: Optional[int] = None
                for index, entry in enumerate(node.body):
                    value = self.lower(entry)
                    if index == len(node.body) - 1 and not isinstance(
                        entry, ast.LetBind
                    ):
                        result = value
                return result if result is not None else self.const(UNIT)
            finally:
                self.scopes.pop()

        if isinstance(node, ast.LetBind):
            value = self.lower(node.init)
            slot = self.fn.new_slot()
            self.scopes[-1][node.name] = slot
            self.emit("mov", slot, value)
            return self.const(UNIT)

        if isinstance(node, ast.LetSome):
            scrutinee = self.lower(node.scrutinee)
            cond = self.fn.new_slot()
            self.emit("isnone", cond, scrutinee)
            then_block = BasicBlock(self.fn.new_label())
            else_block = BasicBlock(self.fn.new_label())
            join = BasicBlock(self.fn.new_label())
            result = self.fn.new_slot()
            self.terminate("br", cond, else_block.label, then_block.label)

            self.fn.blocks.append(then_block)
            self.start_block(then_block)
            self.scopes.append({})
            slot = self.fn.new_slot()
            self.scopes[-1][node.name] = slot
            self.emit("mov", slot, scrutinee)
            value = self.lower(node.then_block)
            self.scopes.pop()
            self.emit("mov", result, value)
            self.terminate("jmp", join.label)

            self.fn.blocks.append(else_block)
            self.start_block(else_block)
            if node.else_block is None:
                self.emit("const", result, UNIT)
            else:
                value = self.lower(node.else_block)
                self.emit("mov", result, value)
            self.terminate("jmp", join.label)

            self.fn.blocks.append(join)
            self.start_block(join)
            return result

        if isinstance(node, ast.Assign):
            return self.lower_assign(node)

        if isinstance(node, ast.FieldRef):
            base = self.lower(node.base)
            self.emit("asloc", None, base)
            self.guard(base)
            t = self.fn.new_slot()
            self.emit("load", t, base, node.fieldname)
            self.guard(t)
            return t

        if isinstance(node, ast.If):
            cond = self.lower(node.cond)
            return self.lower_branches(
                cond, node.then_block, node.else_block, swap=False
            )

        if isinstance(node, ast.While):
            header = BasicBlock(self.fn.new_label())
            self.terminate("jmp", header.label)
            self.fn.blocks.append(header)
            self.start_block(header)
            cond = self.lower(node.cond)
            body = BasicBlock(self.fn.new_label())
            exit_block = BasicBlock(self.fn.new_label())
            self.terminate("br", cond, body.label, exit_block.label)
            self.fn.blocks.append(body)
            self.start_block(body)
            self.lower(node.body)
            self.terminate("jmp", header.label)
            self.fn.blocks.append(exit_block)
            self.start_block(exit_block)
            return self.const(UNIT)

        if isinstance(node, ast.IfDisconnected):
            left = self.lower(node.left)
            right = self.lower(node.right)
            self.emit("asloc", None, left)
            self.emit("asloc", None, right)
            self.guard(left)
            self.guard(right)
            cond = self.fn.new_slot()
            self.emit("disc", cond, left, right)
            return self.lower_branches(
                cond, node.then_block, node.else_block, swap=False
            )

        if isinstance(node, ast.Unop):
            s = self.lower(node.inner)
            t = self.fn.new_slot()
            self.emit("unop", t, node.op, s)
            return t

        if isinstance(node, ast.Binop):
            left = self.lower(node.left)
            right = self.lower(node.right)
            t = self.fn.new_slot()
            self.emit("binop", t, node.op, left, right)
            return t

        if isinstance(node, ast.New):
            names: List[str] = []
            slots: List[int] = []
            for fieldname, init in node.inits.items():
                names.append(fieldname)
                slots.append(self.lower(init))
            # Validate the struct exists at compile time (the interpreter
            # would raise the same KeyError at run time).
            self.program.struct(node.struct)
            t = self.fn.new_slot()
            self.emit("new", t, node.struct, tuple(names), tuple(slots))
            return t

        if isinstance(node, ast.Call):
            slots = [self.lower(arg) for arg in node.args]
            fdef = self.program.func(node.func)
            if len(slots) != len(fdef.params):
                raise MachineError(
                    f"{node.func} expects {len(fdef.params)} arguments, "
                    f"got {len(slots)}"
                )
            t = self.fn.new_slot()
            self.emit("call", t, node.func, tuple(slots))
            return t

        if isinstance(node, ast.Send):
            value = self.lower(node.value)
            self.emit("asloc", None, value)
            if not self.checked:
                # The live-set containment check the checked opcode performs.
                self.checks_erased += 1
            t = self.fn.new_slot()
            self.emit("send", t, value)
            return t

        if isinstance(node, ast.Recv):
            t = self.fn.new_slot()
            self.emit("recv", t, ast.strip_maybe(node.ty).name)
            return t

        raise MachineError(f"cannot evaluate {type(node).__name__}")

    def lower_branches(
        self,
        cond: int,
        then_ast: ast.Block,
        else_ast: Optional[ast.Block],
        swap: bool,
    ) -> int:
        then_block = BasicBlock(self.fn.new_label())
        else_block = BasicBlock(self.fn.new_label())
        join = BasicBlock(self.fn.new_label())
        result = self.fn.new_slot()
        if swap:
            self.terminate("br", cond, else_block.label, then_block.label)
        else:
            self.terminate("br", cond, then_block.label, else_block.label)

        self.fn.blocks.append(then_block)
        self.start_block(then_block)
        value = self.lower(then_ast)
        self.emit("mov", result, value)
        self.terminate("jmp", join.label)

        self.fn.blocks.append(else_block)
        self.start_block(else_block)
        if else_ast is None:
            self.emit("const", result, UNIT)
        else:
            value = self.lower(else_ast)
            self.emit("mov", result, value)
        self.terminate("jmp", join.label)

        self.fn.blocks.append(join)
        self.start_block(join)
        return result

    def lower_assign(self, node: ast.Assign) -> int:
        if isinstance(node.target, ast.VarRef):
            value = self.lower(node.value)
            slot = self.lookup_assign(node.target.name)
            self.emit("mov", slot, value)
            return self.const(UNIT)
        target: ast.FieldRef = node.target
        base = self.lower(target.base)
        # The interpreter coerces the base to a location *before* evaluating
        # the right-hand side, so the as-loc error must preempt any value
        # side effects here too.
        self.emit("asloc", None, base)
        value = self.lower(node.value)
        self.guard(base)
        self.guard(value)
        self.emit("store", None, base, target.fieldname, value)
        return self.const(UNIT)


def lower_function(
    program: ast.Program, fdef: ast.FuncDef, checked: bool
) -> Tuple[IRFunction, int]:
    """Lower one function.  Returns (ir_function, checks_erased)."""
    return FunctionLowerer(program, fdef, checked).run()
