"""Small-step machine tests (the ``tree`` engine): agreement with the
bytecode engine, step-granular invariants, constant Python stack, fig 7
dynamic checks."""

import pytest

from repro.analysis import check_refcounts
from repro.analysis.invariants import InvariantViolation
from repro.corpus import load_program
from repro.lang import parse_program
from repro.runtime.heap import Heap
from repro.runtime.machine import (
    DONE,
    READY,
    DeadlockError,
    Machine,
    RandomScheduler,
    ReservationViolation,
    run_function,
)
from repro.runtime.smallstep import Config
from repro.runtime.values import NONE

STRUCTS = """
struct data { v : int; }
struct box { iso inner : data?; tag : int; }
struct cell { other : cell; tag : int; }
"""


def both(body, params="", args=(), ret="int"):
    """Run on the small-step machine and on the bytecode engine; assert
    identical results and identical heap traffic; return the value."""
    program = parse_program(STRUCTS + f"def fn({params}) : {ret} {{ {body} }}")
    heap_tree = Heap()
    tree, _ = run_function(program, "fn", args, heap=heap_tree)
    heap_ir = Heap()
    ir, _ = run_function(program, "fn", args, heap=heap_ir, engine="ir")
    assert tree == ir
    assert (heap_tree.reads, heap_tree.writes) == (heap_ir.reads, heap_ir.writes)
    return tree


class TestAgreement:
    def test_arithmetic(self):
        assert both("1 + 2 * 3 - 4") == 3

    def test_logic_and_compare(self):
        assert both("(1 < 2) && !(3 == 4)", ret="bool") is True

    def test_let_blocks_assign(self):
        assert both("let x = 1; { let y = x + 1; x = y * 10 }; x") == 20

    def test_if(self):
        assert both("if (2 > 1) { 10 } else { 20 }") == 10

    def test_while(self):
        assert (
            both("let i = 6; let a = 0; while (i > 0) { a = a + i; i = i - 1 }; a")
            == 21
        )

    def test_heap_ops(self):
        assert (
            both(
                "let b = new box(); b.tag = 4; "
                "b.inner = some(new data(v = 5)); "
                "let some(d) = b.inner in { d.v + b.tag } else { 0 }"
            )
            == 9
        )

    def test_calls(self):
        program = parse_program(
            STRUCTS
            + """
def fib(n : int) : int {
  if (n < 2) { n } else { fib(n - 1) + fib(n - 2) }
}
"""
        )
        tree, _ = run_function(program, "fib", [12])
        ir, _ = run_function(program, "fib", [12], engine="ir")
        assert tree == ir == 144

    def test_let_some_paths(self):
        assert (
            both(
                "let b = new box(); "
                "let a = let some(d) = b.inner in { 1 } else { 2 }; "
                "b.inner = some(new data(v = 0)); "
                "let c = let some(d) = b.inner in { 3 } else { 4 }; "
                "a * 10 + c"
            )
            == 23
        )

    def test_reference_equality(self):
        assert (
            both(
                "let a = new cell(); let b = a; "
                "if (a == b) { 1 } else { 0 }"
            )
            == 1
        )

    def test_if_disconnected_agreement(self):
        program = load_program("dll")
        for engine in ("tree", "ir"):
            heap = Heap()
            lst, _ = run_function(program, "make_dll", [4], heap=heap, engine=engine)
            values = []
            for _ in range(4):
                payload, _ = run_function(
                    program, "remove_tail", [lst], heap=heap, engine=engine
                )
                values.append(heap.obj(payload).fields["v"])
            assert values == [4, 3, 2, 1]
            assert heap.obj(lst).fields["hd"] is NONE


class TestCorpusAgreement:
    def test_rbtree(self):
        program = load_program("rbtree")
        heap = Heap()
        tree, _ = run_function(program, "build_tree", [60, 9], heap=heap)
        valid, _ = run_function(
            program, "rb_valid", [tree, -1, 1 << 30], heap=heap
        )
        assert valid
        check_refcounts(heap)

    def test_mergesort(self):
        program = load_program("algorithms")
        heap = Heap()
        lst, _ = run_function(
            program, "make_list_lcg", [40, 3], heap=heap
        )
        run_function(program, "sort", [lst], heap=heap)
        ok, _ = run_function(program, "list_is_sorted", [lst], heap=heap)
        assert ok


class TestConstantStack:
    def test_deep_recursion_without_python_recursion(self):
        # A 20,000-deep FCL recursion under a recursion limit of 256: the
        # continuation stack is data, not Python frames.
        import sys

        program = parse_program(
            "def count(n : int) : int { if (n == 0) { 0 } else { 1 + count(n - 1) } }"
        )
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(256)
            result, config = run_function(program, "count", [20_000])
        finally:
            sys.setrecursionlimit(limit)
        assert result == 20_000
        assert config.stats.steps > 100_000

    def test_200k_deep_self_recursion(self):
        # Each FCL call adds a few frames to the continuation stack and
        # none to Python's, so this returns under a recursion limit far
        # below its depth.
        import sys

        program = parse_program(
            "def count(n : int) : int { if (n == 0) { 0 } else { 1 + count(n - 1) } }"
        )
        assert sys.getrecursionlimit() < 200_000
        result, _ = run_function(program, "count", [200_000], engine="tree")
        assert result == 200_000

    def test_long_list_remove_tail(self):
        program = load_program("sll")
        heap = Heap()
        lst, _ = run_function(program, "make_list", [5_000], heap=heap)
        head = heap.obj(lst).fields["hd"]
        payload, _ = run_function(
            program, "remove_tail", [head], heap=heap
        )
        assert heap.obj(payload).fields["v"] == 5_000


class TestReservations:
    def test_out_of_reservation_var_use_sticks(self):
        program = parse_program(STRUCTS + "def f(d : data) : int { d.v }")
        heap = Heap()
        d = heap.alloc(program.structs["data"], {"v": 1})
        config = Config(program, heap, {d}, preemptive=True)
        run = config.call("f", [d])
        next(run)  # the argument passed its check; the body is next
        config.reservation.clear()  # simulate loss of the reservation
        with pytest.raises(ReservationViolation):
            for _event in run:
                pass

    def test_checks_erasable(self):
        program = parse_program(STRUCTS + "def f(d : data) : int { d.v }")
        heap = Heap()
        d = heap.alloc(program.structs["data"], {"v": 7})
        result, _ = run_function(
            program, "f", [d], heap=heap, reservation=set(), check_reservations=False
        )
        assert result == 7

    def test_step_statuses(self):
        # A preemptive thread yields once per expression: it stays ready
        # through every step and is done on the advance after the last.
        program = parse_program("def f() : int { 1 + 2 }")
        machine = Machine(program, preemptive=True)
        thread = machine.spawn("f")
        statuses = []
        while thread.state == READY:
            machine._advance(thread)
            statuses.append(thread.state)
        assert statuses[-1] == DONE
        assert thread.result == 3
        assert thread.interp.stats.steps == len(statuses) - 1 == 4


class AuditingScheduler(RandomScheduler):
    """Random scheduling that re-checks the §6 invariants before every
    step: pairwise-disjoint reservations and, with ``refcounts``, exact
    stored reference counts — preservation, executably."""

    def __init__(self, seed, refcounts=False):
        super().__init__(seed)
        self.refcounts = refcounts
        self.machine = None
        self.audits = 0

    def pick(self, runnable, waits):
        self.audits += 1
        if not self.machine.reservations_disjoint():
            raise InvariantViolation("reservations overlap after a step")
        if self.refcounts:
            check_refcounts(self.machine.heap)
        return super().pick(runnable, waits)


def audited_machine(program, seed, refcounts=False):
    scheduler = AuditingScheduler(seed, refcounts)
    machine = Machine(program, scheduler=scheduler)
    scheduler.machine = machine
    return machine, scheduler


class TestConcurrent:
    def test_queue_pipeline(self):
        program = load_program("queue")
        machine = Machine(program, seed=13)
        machine.spawn("source", [15])
        machine.spawn("relay", [15])
        sink = machine.spawn("sink", [15])
        machine.run()
        assert sink.result == 120
        assert machine.reservations_disjoint()

    def test_agreement_with_generator_machine(self):
        program = load_program("queue")
        results = []
        for engine in ("tree", "ir"):
            machine = Machine(program, seed=4, engine=engine)
            machine.spawn("source", [9])
            machine.spawn("relay", [9])
            sink = machine.spawn("sink", [9])
            machine.run()
            results.append(sink.result)
        assert results[0] == results[1] == 45

    def test_deadlock_detection(self):
        program = parse_program(
            "struct data { v : int; } def r() : int { let d = recv(data); d.v }"
        )
        machine = Machine(program, seed=0)
        machine.spawn("r")
        with pytest.raises(DeadlockError):
            machine.run()

    def test_use_after_send_stuck(self):
        program = parse_program(
            """
            struct data { v : int; }
            def bad() : int { let d = new data(v = 1); send(d); d.v }
            def ok() : int { let d = recv(data); d.v }
            """
        )
        machine = Machine(program, seed=0)
        machine.spawn("bad")
        machine.spawn("ok")
        with pytest.raises(ReservationViolation):
            machine.run()

    def test_step_granular_disjointness(self):
        # I1 audited before *every* scheduler step.
        program = load_program("queue")
        machine, scheduler = audited_machine(program, seed=21)
        machine.spawn("source", [5])
        machine.spawn("relay", [5])
        sink = machine.spawn("sink", [5])
        machine.run()
        assert sink.result == 15
        assert scheduler.audits == sum(t.interp.stats.scheduled for t in machine.threads)


class TestAuditedRuns:
    def test_preservation_audits_pass(self):
        # The executable preservation theorem: invariants re-checked every
        # scheduler step across a whole concurrent run.
        program = load_program("queue")
        machine, scheduler = audited_machine(program, seed=17, refcounts=True)
        machine.spawn("source", [6])
        machine.spawn("relay", [6])
        sink = machine.spawn("sink", [6])
        machine.run()
        assert sink.result == 21
        # One audit per scheduler pick, and a preemptive thread takes one
        # step per pick: every step of the run was audited.
        assert scheduler.audits > sum(t.interp.stats.steps for t in machine.threads)

    def test_audits_catch_manufactured_overlap(self):
        from repro.runtime.values import Loc

        program = load_program("queue")
        machine, _ = audited_machine(program, seed=17, refcounts=True)
        machine.spawn("source", [3])
        machine.spawn("relay", [3])
        machine.spawn("sink", [3])
        # Corrupt: force the same location into two reservations.
        bogus = Loc(999_999)
        machine.threads[0].reservation.add(bogus)
        machine.threads[1].reservation.add(bogus)
        with pytest.raises(InvariantViolation):
            machine.run()
