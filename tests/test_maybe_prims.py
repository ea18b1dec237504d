"""Maybe-of-primitive values (`int?`, `bool?`): region-free maybes."""

import pytest

from repro.core.checker import check_source
from repro.core.errors import TypeError_
from repro.lang import parse_program
from repro.runtime.heap import Heap
from repro.runtime.machine import run_function
from repro.runtime.values import NONE

SRC = """
struct slot { value : int?; flag : bool?; }

def put(s : slot, v : int) : unit { s.value = some(v) }

def clear(s : slot) : unit { s.value = none }

def get_or(s : slot, fallback : int) : int {
  let some(v) = s.value in { v } else { fallback }
}

def flip(s : slot) : unit {
  let some(b) = s.flag in { s.flag = some(!b) } else { s.flag = some(true) }
}

def demo() : int {
  let s = new slot();
  let a = get_or(s, 100);
  put(s, 5);
  let b = get_or(s, 100);
  clear(s);
  let c = get_or(s, 100);
  a + b + c
}
"""


class TestChecking:
    def test_program_checks(self):
        check_source(SRC)

    def test_maybe_prim_params(self):
        check_source(
            "def f(m : int?) : int { let some(v) = m in { v } else { 0 } }"
        )

    def test_some_of_int_in_return(self):
        check_source("def f() : int? { some(3) }")

    def test_none_as_int_maybe(self):
        check_source("def f() : int? { none }")

    def test_prim_maybe_has_no_region_operations(self):
        # A maybe-of-prim cannot be sent.
        with pytest.raises(TypeError_):
            check_source("def f(m : int?) : unit { send(m) }")


class TestRuntime:
    @pytest.mark.parametrize("engine", ["tree", "ir"])
    def test_demo(self, engine):
        program = parse_program(SRC)
        result, _ = run_function(program, "demo", engine=engine)
        assert result == 100 + 5 + 100

    def test_defaults_are_none(self):
        program = parse_program(SRC)
        heap = Heap()
        s = heap.alloc(program.structs["slot"], {})
        assert heap.obj(s).fields["value"] is NONE

    def test_flip_cycles(self):
        program = parse_program(SRC)
        heap = Heap()
        s = heap.alloc(program.structs["slot"], {})
        run_function(program, "flip", [s], heap=heap)
        assert heap.obj(s).fields["flag"] is True
        run_function(program, "flip", [s], heap=heap)
        assert heap.obj(s).fields["flag"] is False
