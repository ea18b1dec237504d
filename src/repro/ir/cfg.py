"""Control-flow-graph analyses over the basic-block IR.

Successors come straight off block terminators; everything else
(reachability, predecessor maps, slot liveness) is derived on demand —
the functions here are pure queries so passes can call them after every
mutation without cache-invalidation protocols.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .nodes import BasicBlock, IRFunction, instr_uses


def successors(block: BasicBlock) -> Tuple[int, ...]:
    term = block.term
    if term is None:
        return ()
    if term.op == "jmp":
        return (term.args[0],)
    if term.op == "br":
        if term.args[1] == term.args[2]:
            return (term.args[1],)
        return (term.args[1], term.args[2])
    return ()  # ret


def predecessors(fn: IRFunction) -> Dict[int, List[int]]:
    preds: Dict[int, List[int]] = {b.label: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in successors(block):
            preds[succ].append(block.label)
    return preds


def reachable_labels(fn: IRFunction) -> Set[int]:
    """Labels reachable from the entry block."""
    if not fn.blocks:
        return set()
    blocks = fn.block_map()
    seen: Set[int] = set()
    stack = [fn.blocks[0].label]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        for succ in successors(blocks[label]):
            if succ not in seen:
                stack.append(succ)
    return seen


def remove_unreachable(fn: IRFunction) -> bool:
    """Drop blocks the entry can never reach.  Returns True on change."""
    keep = reachable_labels(fn)
    if len(keep) == len(fn.blocks):
        return False
    fn.blocks = [b for b in fn.blocks if b.label in keep]
    return True


def block_use_def(block: BasicBlock) -> Tuple[Set[int], Set[int]]:
    """(upward-exposed uses, defined slots) for one block."""
    uses: Set[int] = set()
    defs: Set[int] = set()
    instrs = list(block.instrs)
    if block.term is not None:
        instrs.append(block.term)
    for ins in instrs:
        for slot in instr_uses(ins):
            if slot not in defs:
                uses.add(slot)
        if ins.dest is not None:
            defs.add(ins.dest)
    return uses, defs


def liveness(fn: IRFunction) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
    """Per-block live-in / live-out slot sets (backward dataflow to a
    fixpoint)."""
    use: Dict[int, Set[int]] = {}
    define: Dict[int, Set[int]] = {}
    for block in fn.blocks:
        use[block.label], define[block.label] = block_use_def(block)
    live_in: Dict[int, Set[int]] = {b.label: set() for b in fn.blocks}
    live_out: Dict[int, Set[int]] = {b.label: set() for b in fn.blocks}
    succs = {b.label: successors(b) for b in fn.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(fn.blocks):
            label = block.label
            out: Set[int] = set()
            for succ in succs[label]:
                out |= live_in.get(succ, set())
            new_in = use[label] | (out - define[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return live_in, live_out
