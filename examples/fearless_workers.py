#!/usr/bin/env python3
"""A fearless worker pool: whole data structures handed between threads.

A coordinator thread builds red-black trees and ships each one — the
entire object graph, spine and payload — to a worker thread with a single
``send``.  Workers query their trees and return integer summaries boxed in
result records.  No locks, no copies, no races: each tree's region simply
changes hands.

Runs on the *small-step* machine (the fig 7 semantics with an explicit
continuation stack), interleaving all threads one expression at a time.
"""

from repro import Checker, parse_program
from repro.analysis import check_refcounts
from repro.corpus import load_source
from repro.runtime.machine import Machine

WORKERS = 4
KEYS_PER_TREE = 40

SOURCE = (
    load_source("rbtree")
    + """
struct report { total : int; found : int; }

def coordinator(workers : int, n : int) : unit {
  let i = 0;
  while (i < workers) {
    let t = build_tree(n, 1000 + i);
    send(t);
    i = i + 1
  }
}

def worker(n : int) : unit {
  let t = recv(rbtree);
  let r = new report();
  r.total = tree_size(t);
  r.found = count_range(t, 0, 65537);
  send(r)
}

def count_range(t : rbtree, lo : int, hi : int) : int {
  count_node(t.root, lo, hi)
}

def count_node(n : rbnode?, lo : int, hi : int) : int {
  let some(node) = n in {
    let here = if (node.key >= lo && node.key < hi) { 1 } else { 0 };
    here + count_node(node.left, lo, hi) + count_node(node.right, lo, hi)
  } else { 0 }
}

def collector(workers : int) : int {
  let total = 0;
  while (workers > 0) {
    let r = recv(report);
    total = total + r.total;
    workers = workers - 1
  };
  total
}
"""
)


def main() -> None:
    program = parse_program(SOURCE)
    Checker(program).check_program()
    print(
        f"worker-pool program type-checks ({len(program.funcs)} functions); "
        "trees may cross thread boundaries freely"
    )

    machine = Machine(program, seed=7)
    machine.spawn("coordinator", [WORKERS, KEYS_PER_TREE])
    for _ in range(WORKERS):
        machine.spawn("worker", [KEYS_PER_TREE])
    collector = machine.spawn("collector", [WORKERS])
    machine.run()

    total_steps = sum(t.interp.stats.steps for t in machine.threads)
    print(
        f"{WORKERS} workers each received a {KEYS_PER_TREE}-key tree; "
        f"collector saw {collector.result} keys total "
        f"(expected {WORKERS * KEYS_PER_TREE})"
    )
    print(
        f"{total_steps} small-step evaluation steps, reservations disjoint: "
        f"{machine.reservations_disjoint()}"
    )
    check_refcounts(machine.heap)
    print("stored reference counts exact after all transfers")


if __name__ == "__main__":
    main()
