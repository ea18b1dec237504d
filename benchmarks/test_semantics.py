"""Implementation comparison: the fig 7 small-step machine (``tree``)
against the bytecode engine (``ir``), plus the small-step machine's step
throughput.

Not a paper experiment per se; an engineering ablation showing the spec
machine and the fast path agree on results while trading fidelity (one
expression per step, explicit continuations) against speed.
"""

import pytest

from repro.corpus import load_program
from repro.runtime.heap import Heap
from repro.runtime.machine import run_function


@pytest.mark.parametrize("engine", ["tree", "ir"])
def test_list_traversal(benchmark, engine):
    program = load_program("sll")

    def run():
        heap = Heap()
        lst, _ = run_function(program, "make_list", [100], heap=heap, engine=engine)
        return run_function(program, "sum", [lst], heap=heap, engine=engine)[0]

    assert benchmark(run) == 100 * 101 // 2


@pytest.mark.parametrize("engine", ["tree", "ir"])
def test_rbtree_build(benchmark, engine):
    program = load_program("rbtree")

    def run():
        heap = Heap()
        tree, _ = run_function(program, "build_tree", [80, 5], heap=heap, engine=engine)
        return run_function(program, "tree_size", [tree], heap=heap, engine=engine)[0]

    assert benchmark(run) > 0


def test_step_throughput(benchmark):
    """Raw small-step evaluation steps per second (fib workload)."""
    from repro.lang import parse_program

    program = parse_program(
        "def fib(n : int) : int { if (n < 2) { n } else { fib(n-1) + fib(n-2) } }"
    )

    def run():
        result, config = run_function(program, "fib", [15])
        return result, config.stats.steps

    result, steps = benchmark(run)
    assert result == 610
    assert steps > 10_000
