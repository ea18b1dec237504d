"""The §1 headline on the *doubly linked* list: "added elements may have
been received from remote threads and removed elements may be immediately
sent to a new thread, all without additional dynamic concurrency control".

No prior system can express this (Table 1); here it is, running.
"""

import pytest

from repro.analysis import check_refcounts
from repro.core.checker import Checker
from repro.corpus import load_source
from repro.lang import parse_program
from repro.runtime.machine import Machine

SOURCE = (
    load_source("dll")
    + """
struct packet { iso payload : data; }

def producer(n : int) : unit {
  while (n > 0) {
    let d = new data(v = n);
    send(d);
    n = n - 1
  }
}

// Buffer received payloads in a circular dll, then drain it via the fig 5
// remove_tail, forwarding each detached payload onward.
def dll_relay(n : int) : unit {
  let l = new dll();
  let i = n;
  while (i > 0) {
    let d = recv(data);
    push_front(l, d);
    i = i - 1
  };
  let j = n;
  while (j > 0) {
    let some(d) = remove_tail(l) in {
      let p = new packet(payload = d);
      send(p)
    } else { () };
    j = j - 1
  }
}

def collector(n : int) : int {
  let total = 0;
  while (n > 0) {
    let p = recv(packet);
    let d = p.payload;
    total = total + d.v;
    n = n - 1
  };
  total
}
"""
)


@pytest.fixture(scope="module")
def program():
    program = parse_program(SOURCE)
    Checker(program).check_program()
    return program


class TestFearlessDll:
    def test_typechecks(self, program):
        pass  # the fixture did the work

    @pytest.mark.parametrize("engine", ["tree", "ir"])
    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_pipeline(self, program, engine, seed):
        n = 8
        machine = Machine(program, seed=seed, engine=engine)
        machine.spawn("producer", [n])
        machine.spawn("dll_relay", [n])
        collector = machine.spawn("collector", [n])
        machine.run()
        assert collector.result == n * (n + 1) // 2
        assert machine.reservations_disjoint()
        check_refcounts(machine.heap)

    def test_remove_tail_drains_fifo(self, program):
        # push_front + remove_tail is a queue: payloads arrive in exactly
        # the order they were produced (n, n-1, ..., 1 from the producer,
        # pushed to the front, removed from the tail).
        n = 5
        machine = Machine(program, seed=3)
        machine.spawn("producer", [n])
        machine.spawn("dll_relay", [n])
        collector = machine.spawn("collector", [n])
        machine.run()
        assert collector.result == 15
