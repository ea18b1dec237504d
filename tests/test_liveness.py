"""Liveness analysis (the §5.1 unification oracle)."""

from repro.core.analysis import Liveness, uses
from repro.lang import ast, parse_program


def analyze(body: str, params="", consumes=()):
    consumes_clause = (" consumes " + ", ".join(consumes)) if consumes else ""
    src = f"struct node {{ iso f : node?; }}\ndef fn({params}) : unit{consumes_clause} {{ {body} }}"
    program = parse_program(src)
    fdef = program.funcs["fn"]
    return fdef, Liveness(fdef)


class TestUses:
    def test_varref(self):
        from repro.lang import parse_expr

        assert uses(parse_expr("a + b.f")) == {"a", "b"}

    def test_call_args(self):
        from repro.lang import parse_expr

        assert uses(parse_expr("g(x, y)")) == {"x", "y"}


class TestLiveness:
    def test_param_live_throughout(self):
        fdef, lv = analyze("let a = 1; ()", params="p : node")
        first = fdef.body.body[0]
        assert "p" in lv.live_after(first)

    def test_consumed_param_gets_true_liveness(self):
        fdef, lv = analyze("send(p)", params="p : node", consumes=("p",))
        send = fdef.body.body[0]
        assert "p" not in lv.live_after(send)

    def test_dead_after_last_use(self):
        fdef, lv = analyze("let a = 1; let b = a + 1; b + b")
        let_a = fdef.body.body[0]
        let_b = fdef.body.body[1]
        assert "a" in lv.live_after(let_a)
        assert "a" not in lv.live_after(let_b)
        assert "b" in lv.live_after(let_b)

    def test_branch_union(self):
        fdef, lv = analyze(
            "let a = 1; let b = 2; if (true) { a } else { b }; ()"
        )
        let_b = fdef.body.body[1]
        live = lv.live_after(let_b)
        assert {"a", "b"} <= set(live)

    def test_loop_keeps_condition_vars_live(self):
        fdef, lv = analyze("let i = 3; while (i > 0) { i = i - 1 }; ()")
        let_i = fdef.body.body[0]
        assert "i" in lv.live_after(let_i)

    def test_loop_body_vars_live_across_iterations(self):
        fdef, lv = analyze(
            "let i = 3; let acc = 0; while (i > 0) { acc = acc + i; i = i - 1 }; acc"
        )
        while_node = fdef.body.body[2]
        body_first = while_node.body.body[0]
        # i is live after the first body statement (used in the next one and
        # in later iterations).
        assert "i" in lv.live_after(body_first)
        assert "acc" in lv.live_after(while_node)

    def test_assignment_kills(self):
        fdef, lv = analyze("let a = 1; a = 2; a")
        let_a = fdef.body.body[0]
        # a is reassigned before use: its *old* value is dead right after
        # the binding.
        assert "a" not in lv.live_after(let_a)

    def test_let_some_scoping(self):
        fdef, lv = analyze(
            "let m = none; let some(x) = m in { x } else { () }; ()",
            params="p : node",
        )
        let_m = fdef.body.body[0]
        assert "m" in lv.live_after(let_m)

    def test_unknown_node_defaults_empty(self):
        fdef, lv = analyze("()")
        assert lv.live_after(ast.IntLit(1)) == frozenset()
