"""Tests for the n-ary tree corpus: composition of region-structured
data structures, subtree detachment, and scatter/gather concurrency."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import check_iso_domination, check_refcounts
from repro.core.checker import Checker
from repro.corpus import load_program, load_source
from repro.lang import parse_program
from repro.runtime.heap import Heap
from repro.runtime.machine import Machine, run_function
from repro.runtime.values import NONE
from repro.verifier import Verifier


@pytest.fixture()
def env():
    return load_program("ntree"), Heap()


class TestStructure:
    def test_checks_and_verifies(self):
        program = load_program("ntree")
        derivation = Checker(program).check_program()
        assert Verifier(program).verify_program(derivation) > 100

    @pytest.mark.parametrize(
        "depth,arity,expected",
        [(1, 3, 1), (2, 2, 3), (3, 2, 7), (4, 3, 40), (3, 5, 31)],
    )
    def test_complete_tree_sizes(self, env, depth, arity, expected):
        program, heap = env
        tree, _ = run_function(
            program, "build", [depth, arity, 0], heap=heap
        )
        size, _ = run_function(program, "size", [tree], heap=heap)
        assert size == expected
        height, _ = run_function(program, "height", [tree], heap=heap)
        assert height == depth

    def test_add_child_grows(self, env):
        program, heap = env
        root, _ = run_function(program, "leaf", [1], heap=heap)
        for tag in (2, 3, 4):
            child, _ = run_function(program, "leaf", [tag], heap=heap)
            run_function(program, "add_child", [root, child], heap=heap)
        assert run_function(program, "size", [root], heap=heap)[0] == 4
        assert run_function(program, "tag_sum", [root], heap=heap)[0] == 10

    def test_detach_first_is_dominating(self, env):
        program, heap = env
        tree, _ = run_function(program, "build", [3, 2, 0], heap=heap)
        child, _ = run_function(program, "detach_first", [tree], heap=heap)
        assert child is not NONE
        # The detached subtree is disjoint from the remaining tree.
        assert heap.live_set(child).isdisjoint(heap.live_set(tree))
        assert run_function(program, "size", [tree], heap=heap)[0] == 4
        assert run_function(program, "size", [child], heap=heap)[0] == 3
        check_refcounts(heap)
        check_iso_domination(heap, [tree, child])

    def test_detach_empties(self, env):
        program, heap = env
        root, _ = run_function(program, "leaf", [0], heap=heap)
        got, _ = run_function(program, "detach_first", [root], heap=heap)
        assert got is NONE


class TestScatterGather:
    def test_pipeline(self):
        source = load_source("ntree") + """
def scatterer() : int {
  let t = build(3, 3, 0);
  scatter(t)
}
"""
        program = parse_program(source)
        Checker(program).check_program()
        machine = Machine(program, seed=3)
        scatterer = machine.spawn("scatterer")
        gatherer = machine.spawn("gather", [3])
        machine.run()
        assert scatterer.result == 3
        root = gatherer.result
        size, _ = run_function(
            program, "size", [root], heap=machine.heap
        )
        assert size == 1 + 3 * 4  # fresh root + three depth-2 subtrees
        assert machine.reservations_disjoint()
        check_refcounts(machine.heap)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_size_height_formulas(depth, arity):
    program = load_program("ntree")
    heap = Heap()
    tree, _ = run_function(program, "build", [depth, arity, 0], heap=heap)
    size, _ = run_function(program, "size", [tree], heap=heap)
    expected = sum(arity**i for i in range(depth))
    assert size == expected
    check_refcounts(heap)
    check_iso_domination(heap, [tree])
