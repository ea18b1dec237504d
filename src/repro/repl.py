"""An interactive FCL session: ``python -m repro repl``.

The REPL maintains *both* halves of the paper simultaneously:

* a persistent :class:`StaticContext` — every expression you enter is
  type-checked incrementally against it, so ``let`` bindings, focused
  variables, tracked iso fields, and consumed regions persist across
  inputs exactly as they would inside one function body;
* a persistent heap + environment — accepted expressions are then
  evaluated with the dynamic reservation checks on.

Meta-commands:

* ``:ctx``     — show the static context (H; Γ)
* ``:heap``    — show the dynamic heap
* ``:regions`` — show the dynamic region graph
* ``:load F``  — load struct/function declarations from a file
* ``:quit``

Declarations (inputs starting with ``struct`` or ``def``) extend the
program; anything else is parsed as an expression, checked, and run.
"""

from __future__ import annotations

import sys
from typing import Dict, Tuple

from .core.checker import Checker, _FuncChecker
from .core.contexts import StaticContext
from .core.errors import TypeError_
from .core.regions import RegionSupply
from .lang import ast, parse_program
from .lang.lexer import LexError
from .lang.parser import ParseError, Parser
from .runtime.heap import Heap
from .runtime.machine import EV_RECV, EV_SEND, MachineError, ReservationViolation
from .runtime.smallstep import Config, Env
from .runtime.values import NONE, UNIT, RuntimeValue, is_loc


class ReplError(Exception):
    pass


class Session:
    """One interactive session: accumulated program + static context +
    dynamic machine state."""

    def __init__(self) -> None:
        self.decl_source = "struct data { v : int; }\n"
        self.program = parse_program(self.decl_source)
        self.checker = Checker(self.program)
        self.supply = RegionSupply()
        self.ctx = StaticContext(self.supply)
        self.heap = Heap()
        self.interp = Config(self.program, self.heap, reservation=set())
        self.env: Dict[str, RuntimeValue] = {}

    # -- declarations -------------------------------------------------------

    def add_declarations(self, source: str) -> str:
        """Extend the program; the whole program is re-checked."""
        combined = self.decl_source + "\n" + source
        program = parse_program(combined)
        checker = Checker(program)
        checker.check_program()
        self.decl_source = combined
        self.program = program
        self.checker = checker
        self.interp.program = program
        added = parse_program("struct data { v : int; }\n" + source)
        names = [n for n in added.funcs] + [
            n for n in added.structs if n != "data"
        ]
        return f"defined {', '.join(names)}" if names else "ok"

    # -- expressions --------------------------------------------------------

    def eval_expression(self, source: str) -> Tuple[RuntimeValue, str, str]:
        """Check one expression against the persistent context, then run it.

        Returns (value, type string, rendering)."""
        expr = self._parse_expr(source)
        fchecker = self._make_checker(expr)
        trial = self.ctx.clone()
        value, _deriv = fchecker.check_expr(expr, trial, None)
        # Statically accepted: evaluate, then commit the static context.
        result = self._run(expr)
        self.ctx = trial
        if isinstance(expr, ast.LetBind) and self._last_bound is not None:
            self.env[expr.name] = self._last_bound
        # Bindings invalidated statically (sent/consumed) leave the session.
        for name in list(self.env):
            if not self.ctx.has_var(name):
                del self.env[name]
        return result, str(value.ty), self._show(result)

    def _parse_expr(self, source: str) -> ast.Expr:
        parser = Parser(source)
        expr = parser.parse_expr()
        from .lang.tokens import TokenKind

        trailing = parser._peek()
        if trailing.kind is not TokenKind.EOF:
            raise ParseError(
                f"trailing input {trailing.text!r}", trailing.span
            )
        return expr

    def _make_checker(self, expr: ast.Expr) -> _FuncChecker:
        """A checker whose liveness treats every session binding as live
        (the user may reference it in a later input)."""
        from .core.functypes import elaborate

        params = [
            ast.Param(name, binding.ty)
            for name, binding in self.ctx.gamma.items()
        ]
        # Session bindings stay live across inputs (they may be used later)
        # — except ones this very input sends away, which get true liveness
        # so the send is permitted and the binding leaves the session.
        sent_names = {
            node.value.name
            for node in ast.walk(expr)
            if isinstance(node, ast.Send) and isinstance(node.value, ast.VarRef)
        }
        consumable = [
            name
            for name, binding in self.ctx.gamma.items()
            if binding.region is not None and name in sent_names
        ]
        fdef = ast.FuncDef(
            name="$repl",
            params=params,
            return_type=ast.UNIT,
            body=ast.Block([expr]),
            consumes=consumable,
        )
        self.checker.functypes["$repl"] = elaborate(fdef, self.program)
        try:
            fchecker = _FuncChecker(self.checker, fdef)
        finally:
            del self.checker.functypes["$repl"]
        fchecker.supply = self.supply  # regions persist across inputs
        return fchecker

    def _run(self, expr: ast.Expr) -> RuntimeValue:
        env = Env(self.env)
        gen = self.interp.evaluate(expr, env)
        self._last_bound = None
        try:
            event = None
            while True:
                if event is not None and event[0] == EV_SEND:
                    # The REPL plays a sink thread: the live set leaves this
                    # session's reservation and is gone.
                    _kind, _struct, _root, live = event
                    self.interp.reservation.difference_update(live)
                    event = gen.send(UNIT)
                    continue
                event = next(gen)
                if event[0] == EV_RECV:
                    raise ReplError(
                        "recv needs a multi-threaded Machine; not available "
                        "in the REPL"
                    )
        except StopIteration as stop:
            # Write assignments back to the session environment.
            for name in list(self.env):
                self.env[name] = env.lookup(name)
            if isinstance(expr, ast.LetBind):
                self._last_bound = env.lookup(expr.name)
            return stop.value

    # -- rendering ------------------------------------------------------------

    def _show(self, value: RuntimeValue) -> str:
        if value is UNIT:
            return "()"
        if value is NONE:
            return "none"
        if is_loc(value):
            obj = self.heap.obj(value)
            fields = ", ".join(
                f"{k} = {self._brief(v)}" for k, v in obj.fields.items()
            )
            return f"{obj.struct.name}{{{fields}}} @ {value}"
        return repr(value)

    def _brief(self, value: RuntimeValue) -> str:
        if value is NONE:
            return "none"
        if is_loc(value):
            return str(value)
        return repr(value)

    def show_context(self) -> str:
        return str(self.ctx)

    def show_heap(self) -> str:
        lines = []
        for loc in sorted(self.heap.locations()):
            obj = self.heap.obj(loc)
            fields = ", ".join(
                f"{k} = {self._brief(v)}" for k, v in obj.fields.items()
            )
            lines.append(
                f"{loc}: {obj.struct.name}{{{fields}}} "
                f"[rc={obj.stored_refcount}]"
            )
        return "\n".join(lines) if lines else "(empty heap)"

    def show_regions(self) -> str:
        from .analysis import build_region_graph

        roots = [v for v in self.env.values() if is_loc(v)]
        graph = build_region_graph(self.heap, roots)
        lines = [
            f"{len(graph.regions)} dynamic regions, "
            f"{len(graph.edges)} iso edges, tree: {graph.is_tree()}"
        ]
        for index, region in enumerate(graph.regions):
            members = ", ".join(str(l) for l in sorted(region))
            lines.append(f"  region {index}: {{{members}}}")
        return "\n".join(lines)


BANNER = (
    "FCL interactive session — fearless concurrency, one expression at a "
    "time.\nDeclarations (struct/def) extend the program; :help for "
    "commands."
)

HELP = (
    ":ctx      show the static context (H; Γ)\n"
    ":heap     show the dynamic heap\n"
    ":regions  show the dynamic region graph\n"
    ":load F   load declarations from a file\n"
    ":quit     leave"
)


def run_repl(stdin=None, stdout=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def say(text: str) -> None:
        print(text, file=stdout)

    session = Session()
    say(BANNER)
    while True:
        try:
            stdout.write("fcl> ")
            stdout.flush()
            line = stdin.readline()
        except KeyboardInterrupt:
            say("")
            continue
        if not line:
            say("")
            return 0
        line = line.strip()
        if not line:
            continue
        try:
            if line in (":quit", ":q", ":exit"):
                return 0
            if line in (":help", ":h"):
                say(HELP)
            elif line == ":ctx":
                say(session.show_context())
            elif line == ":heap":
                say(session.show_heap())
            elif line == ":regions":
                say(session.show_regions())
            elif line.startswith(":load "):
                path = line[len(":load "):].strip()
                with open(path) as handle:
                    say(session.add_declarations(handle.read()))
            elif line.startswith(("struct ", "def ")):
                # Multi-line declarations: read until braces balance.
                while line.count("{") > line.count("}"):
                    more = stdin.readline()
                    if not more:
                        break
                    line += "\n" + more.rstrip()
                say(session.add_declarations(line))
            else:
                _value, ty, rendering = session.eval_expression(line)
                say(f"{rendering} : {ty}")
        except (TypeError_, ParseError, LexError) as exc:
            say(f"error: {exc}")
        except (ReplError, MachineError, ReservationViolation) as exc:
            say(f"runtime error: {exc}")
