"""Per-function liveness, cached per program (the §5.1 unification oracle).

Branch unification is "the problem of inferring which linear resources must
be preserved to type-check a given program suffix" (§5.1).  :class:`Liveness`
computes, for every expression node, the set of variables live *after* it;
the checker uses these sets to prune tracking contexts down to what the
continuation actually needs before unifying branches, loop bodies, and
function exits.  At loops and iso-field accesses it also asks which
variables an expression reads (:func:`uses`).

:class:`ProgramAnalysis` owns one lazily built :class:`FunctionAnalysis` per
function: the liveness table plus a memo of ``uses``.  A warm
:class:`~repro.pipeline.session.ProgramSession` hands the same analysis to
concurrent checker threads: construction is serialised under a small lock,
reads after publication are lock-free.

The analysis is *descriptive only*: nothing here changes which programs are
accepted or what derivations look like — it only avoids recomputing facts
the checker already relied on (CHECKER_VERSION is unaffected).

Node identity is ``id(node)`` — AST nodes are unique objects per parse.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Set

from ..lang import ast
from ..telemetry import registry as _telemetry


def uses(expr: ast.Expr) -> Set[str]:
    """All variable names read anywhere inside ``expr``.

    Over-approximate: a name bound inside ``expr`` may shadow an outer use;
    keeping it live is sound (liveness is used only to *preserve*
    resources)."""
    return {node.name for node in ast.walk(expr) if isinstance(node, ast.VarRef)}


class Liveness:
    """Backward liveness over a function body.

    ``live_after(node)`` is the set of variables whose values the program
    may still read after ``node`` finishes evaluating (within the function).
    """

    def __init__(self, fdef: ast.FuncDef):
        self._after: Dict[int, FrozenSet[str]] = {}
        # Non-consumed parameters must survive to the function's output
        # context (§4.9 defaults), so they are live throughout the body.
        # Consumed parameters get true liveness so branches may consume them.
        exit_live = frozenset(
            p.name for p in fdef.params if p.name not in fdef.consumes
        )
        self._analyze(fdef.body, exit_live)

    def live_after(self, node: ast.Expr) -> FrozenSet[str]:
        """Variables live after ``node``; empty if the node was never seen
        (synthesized nodes default to nothing-live, which is conservative
        for pruning since the checker additionally protects its own state)."""
        return self._after.get(id(node), frozenset())

    # -- backward transfer functions ----------------------------------------

    def _analyze(self, node: ast.Expr, live_out: FrozenSet[str]) -> FrozenSet[str]:
        """Record live_out for ``node`` and return its live_in."""
        self._after[id(node)] = live_out

        if isinstance(node, ast.Block):
            live = live_out
            # Statements run in order; process backward.
            for entry in reversed(node.body):
                live = self._analyze(entry, live)
            return live

        if isinstance(node, ast.LetBind):
            body_live = live_out - {node.name}
            return self._analyze(node.init, body_live)

        if isinstance(node, ast.LetSome):
            then_in = self._analyze(node.then_block, live_out) - {node.name}
            else_in = (
                self._analyze(node.else_block, live_out)
                if node.else_block is not None
                else live_out
            )
            return self._analyze(node.scrutinee, then_in | else_in)

        if isinstance(node, ast.If):
            then_in = self._analyze(node.then_block, live_out)
            else_in = (
                self._analyze(node.else_block, live_out)
                if node.else_block is not None
                else live_out
            )
            return self._analyze(node.cond, then_in | else_in)

        if isinstance(node, ast.IfDisconnected):
            then_in = self._analyze(node.then_block, live_out)
            else_in = (
                self._analyze(node.else_block, live_out)
                if node.else_block is not None
                else live_out
            )
            branch_in = then_in | else_in
            right_in = self._analyze(node.right, branch_in)
            return self._analyze(node.left, right_in)

        if isinstance(node, ast.While):
            # Fixpoint: body may run zero or more times.
            live = live_out
            for _ in range(3):
                body_in = self._analyze(node.body, self._analyze(node.cond, live) | live_out)
                new_live = live | body_in | uses(node.cond)
                if new_live == live:
                    break
                live = new_live
            cond_in = self._analyze(node.cond, live | live_out)
            self._after[id(node)] = live_out
            return cond_in

        if isinstance(node, ast.Assign):
            if isinstance(node.target, ast.VarRef):
                value_out = (live_out - {node.target.name}) | set()
                value_in = self._analyze(node.value, frozenset(value_out))
                self._after[id(node.target)] = live_out
                return value_in
            # Field assignment: base is read.
            value_in = self._analyze(node.value, live_out)
            return self._analyze(node.target, value_in)

        if isinstance(node, ast.FieldRef):
            return self._analyze(node.base, live_out)

        if isinstance(node, ast.VarRef):
            return live_out | {node.name}

        if isinstance(node, (ast.SomeExpr, ast.IsNone, ast.IsSome, ast.Unop)):
            return self._analyze(node.inner, live_out)

        if isinstance(node, ast.Send):
            return self._analyze(node.value, live_out)

        if isinstance(node, ast.Binop):
            right_in = self._analyze(node.right, live_out)
            return self._analyze(node.left, right_in)

        if isinstance(node, ast.Call):
            live = live_out
            for arg in reversed(node.args):
                live = self._analyze(arg, live)
            return live

        if isinstance(node, ast.New):
            live = live_out
            for init in reversed(list(node.inits.values())):
                live = self._analyze(init, live)
            return live

        # Leaves: IntLit, BoolLit, UnitLit, NoneLit, Recv.
        return live_out


class FunctionAnalysis:
    """Cached facts for one function: its liveness table and a memo of
    :func:`uses`.  The memo is append-only and keyed by node identity
    (idempotent values, so concurrent fills are benign)."""

    def __init__(self, fdef: ast.FuncDef):
        self.fdef = fdef
        self.liveness = Liveness(fdef)
        self._uses: Dict[int, FrozenSet[str]] = {}
        tel = _telemetry()
        if tel.enabled:
            tel.inc("analysis.functions")

    def uses(self, expr: ast.Expr) -> FrozenSet[str]:
        """Memoized :func:`uses`."""
        cached = self._uses.get(id(expr))
        tel = _telemetry()
        if cached is not None:
            if tel.enabled:
                tel.inc("analysis.uses.hits")
            return cached
        if tel.enabled:
            tel.inc("analysis.uses.misses")
        result = frozenset(uses(expr))
        self._uses[id(expr)] = result
        return result


class ProgramAnalysis:
    """Per-program analysis cache: one :class:`FunctionAnalysis` per
    function.  Thread-safe: construction of each entry is serialised,
    published entries are immutable."""

    def __init__(self, program: ast.Program):
        self._program = program
        self._lock = threading.Lock()
        self._funcs: Dict[str, FunctionAnalysis] = {}

    def function(self, name: str) -> FunctionAnalysis:
        analysis = self._funcs.get(name)
        if analysis is not None:
            return analysis
        fdef = self._program.func(name)
        with self._lock:
            analysis = self._funcs.get(name)
            if analysis is None:
                analysis = FunctionAnalysis(fdef)
                self._funcs[name] = analysis
        return analysis

    def for_function(self, fdef: ast.FuncDef) -> FunctionAnalysis:
        """Analysis for ``fdef``: the cached entry when it is the
        program's definition of that name, a fresh uncached one for
        synthetic definitions (the REPL wraps each input in a throwaway
        function that never joins the program)."""
        if self._program.funcs.get(fdef.name) is fdef:
            return self.function(fdef.name)
        return FunctionAnalysis(fdef)
