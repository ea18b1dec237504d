"""The optimizing pass pipeline over the basic-block IR.

Every compilation runs the same pass list (:func:`default_pipeline`):
inlining, simplification, dead-code elimination, simplification again,
constant pooling and register allocation.  The two tiers differ in two
places only, and neither is a pass of its own:

* **checked tier** (reservation checks on) keeps the ``check``
  instructions lowering emits; the **full tier** (erased mode) never has
  them, because guard erasure happens at lowering time (``lower.py``,
  the §3.2 argument that well-typed programs never get stuck);
* DCE deletes a dead ``load`` only in the full tier with no tracer
  attached.  Every other rewrite keeps each heap event and each
  reservation check where lowering put it, so ``--trace-json`` stays
  byte-identical with the tree interpreter in both tiers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..runtime.machine import Interpreter
from ..runtime.values import NONE
from .cfg import liveness, predecessors, remove_unreachable
from .nodes import BasicBlock, Instr, IRFunction, instr_uses, rewrite_uses


class IRModule:
    """All lowered functions of one program plus compile counters."""

    def __init__(self, funcs: Dict[str, IRFunction], full: bool,
                 observable: bool = False):
        self.funcs = funcs
        #: Full tier: erased mode (see module doc).
        self.full = full
        #: A tracer is attached: every heap event must be emitted at its
        #: original position, byte-identical with the tree interpreter.
        self.observable = observable
        self.counters = {
            "inlined_calls": 0,
            "checks_erased": 0,
            "consts_pooled": 0,
            "slots_coalesced": 0,
        }
        #: Per-pass counter deltas in execution order, recorded by
        #: :class:`PassManager` — the ``repro disasm`` attribution table.
        self.pass_log: List[Tuple[str, Dict[str, int]]] = []


class Pass:
    name = "pass"

    def run(self, module: IRModule) -> None:
        raise NotImplementedError


class PassManager:
    """Runs a fixed pass sequence over a module, logging what each pass
    contributed (counter deltas) into ``module.pass_log``."""

    def __init__(self, passes: List[Pass]):
        self.passes = passes

    def run(self, module: IRModule) -> None:
        for p in self.passes:
            before = dict(module.counters)
            p.run(module)
            delta = {
                key: value - before.get(key, 0)
                for key, value in module.counters.items()
                if value != before.get(key, 0)
            }
            module.pass_log.append((p.name, delta))


def default_pipeline() -> PassManager:
    """The one pass list both tiers run.  Simplify runs again after DCE,
    which empties blocks for it to thread jumps through and merge away;
    a third run finds nothing more."""
    return PassManager([
        InlinePass(), SimplifyPass(), DeadCodePass(), SimplifyPass(),
        ConstPoolPass(), RegAllocPass(),
    ])


# ---------------------------------------------------------------------------
# Function inlining
# ---------------------------------------------------------------------------


class InlinePass(Pass):
    """Inline small leaf functions into their callers.

    Sound for any FCL function: calls are by-value over slots, the callee's
    parameter-guard ``check`` instructions travel with its body, and
    ``send``/``recv`` yields work identically from spliced code.  Rounds
    iterate so that a function whose calls were all inlined away becomes a
    leaf itself (rbtree's rotation helpers chain into ``balance`` this
    way), bounded by a caller-size cap.
    """

    name = "inline"

    def __init__(self, max_callee: int = 120, max_caller: int = 2500,
                 rounds: int = 4):
        self.max_callee = max_callee
        self.max_caller = max_caller
        self.rounds = rounds

    def run(self, module: IRModule) -> None:
        for _ in range(self.rounds):
            leaves = {
                name: fn
                for name, fn in module.funcs.items()
                if self._is_leaf(fn) and fn.size() <= self.max_callee
            }
            changed = False
            for fn in module.funcs.values():
                while fn.size() < self.max_caller:
                    site = self._find_site(fn, leaves)
                    if site is None:
                        break
                    bidx, iidx = site
                    callee = leaves[fn.blocks[bidx].instrs[iidx].args[0]]
                    self._splice(fn, bidx, iidx, callee)
                    module.counters["inlined_calls"] += 1
                    changed = True
            if not changed:
                break

    @staticmethod
    def _is_leaf(fn: IRFunction) -> bool:
        return all(ins.op != "call" for ins in fn.instructions())

    @staticmethod
    def _find_site(
        fn: IRFunction, leaves: Dict[str, IRFunction]
    ) -> Optional[Tuple[int, int]]:
        for bidx, block in enumerate(fn.blocks):
            for iidx, ins in enumerate(block.instrs):
                if ins.op == "call" and ins.args[0] in leaves:
                    if ins.args[0] != fn.name:
                        return bidx, iidx
        return None

    @staticmethod
    def _splice(caller: IRFunction, bidx: int, iidx: int,
                callee: IRFunction) -> None:
        block = caller.blocks[bidx]
        call_ins = block.instrs[iidx]
        _fname, argslots = call_ins.args
        dest = call_ins.dest
        offset = caller.nslots
        caller.nslots += callee.nslots
        slot_map = {s: s + offset for s in range(callee.nslots)}
        label_map = {b.label: caller.new_label() for b in callee.blocks}
        cont = BasicBlock(caller.new_label(), block.instrs[iidx + 1:],
                          block.term)
        new_blocks: List[BasicBlock] = []
        for cb in callee.blocks:
            nb = BasicBlock(label_map[cb.label])
            for ins in cb.instrs:
                copy = Instr(
                    ins.op,
                    None if ins.dest is None else ins.dest + offset,
                    *ins.args,
                )
                rewrite_uses(copy, slot_map)
                nb.instrs.append(copy)
            term = cb.term
            if term.op == "ret":
                nb.instrs.append(Instr("mov", dest, term.args[0] + offset))
                nb.term = Instr("jmp", None, cont.label)
            elif term.op == "jmp":
                nb.term = Instr("jmp", None, label_map[term.args[0]])
            else:  # br
                nb.term = Instr(
                    "br",
                    None,
                    term.args[0] + offset,
                    label_map[term.args[1]],
                    label_map[term.args[2]],
                )
            new_blocks.append(nb)
        # Redirect the call site: bind arguments into the callee's
        # parameter slots, jump into the spliced body, resume at `cont`.
        pre = block.instrs[:iidx]
        for i, s in enumerate(argslots):
            pre.append(Instr("mov", offset + i, s))
        block.instrs = pre
        block.term = Instr("jmp", None, label_map[callee.blocks[0].label])
        caller.blocks[bidx + 1:bidx + 1] = new_blocks + [cont]


# ---------------------------------------------------------------------------
# Simplification: constant folding, copy propagation, branch/jump cleanup
# ---------------------------------------------------------------------------

_FOLDABLE = (int, bool)


class SimplifyPass(Pass):
    """Trace-preserving cleanups: per-block constant folding and copy
    propagation, constant-branch conversion, jump threading, unreachable
    block removal, and straight-line block merging."""

    name = "simplify"

    def run(self, module: IRModule) -> None:
        for fn in module.funcs.values():
            for _ in range(10):
                changed = self._local(fn)
                changed |= self._branches(fn)
                changed |= self._thread_jumps(fn)
                changed |= remove_unreachable(fn)
                changed |= self._merge_chains(fn)
                if not changed:
                    break

    # -- per-block value numbering -----------------------------------------

    @staticmethod
    def _local(fn: IRFunction) -> bool:
        changed = False
        for block in fn.blocks:
            consts: Dict[int, object] = {}
            copies: Dict[int, int] = {}
            asloced: Set[int] = set()

            def invalidate(slot: int) -> None:
                consts.pop(slot, None)
                copies.pop(slot, None)
                asloced.discard(slot)
                for d in [d for d, s in copies.items() if s == slot]:
                    del copies[d]

            new_instrs: List[Instr] = []
            for ins in block.instrs:
                if copies:
                    rewrite_uses(ins, copies)
                folded = SimplifyPass._fold(ins, consts)
                if folded is not None:
                    ins = folded
                    changed = True
                if ins.op == "asloc":
                    # A repeated assertion on an unmodified slot is a no-op
                    # (asloc has no counter, unlike check).
                    slot = ins.args[0]
                    if slot in asloced:
                        changed = True
                        continue
                    asloced.add(slot)
                dest = ins.dest
                if dest is not None:
                    invalidate(dest)
                    if ins.op == "const":
                        consts[dest] = ins.args[0]
                    elif ins.op == "mov":
                        src = ins.args[0]
                        if src in consts:
                            ins = Instr("const", dest, consts[src])
                            consts[dest] = ins.args[0]
                            changed = True
                        elif src != dest:
                            copies[dest] = copies.get(src, src)
                new_instrs.append(ins)
            block.instrs = new_instrs
            if block.term is not None and copies:
                rewrite_uses(block.term, copies)
            # Constant branch condition → unconditional jump.
            term = block.term
            if (
                term is not None
                and term.op == "br"
                and term.args[0] in consts
            ):
                taken = term.args[1] if consts[term.args[0]] else term.args[2]
                block.term = Instr("jmp", None, taken)
                changed = True
        return changed

    @staticmethod
    def _fold(ins: Instr, consts: Dict[int, object]) -> Optional[Instr]:
        op = ins.op
        if op == "binop":
            bop, l, r = ins.args
            if l in consts and r in consts:
                lv, rv = consts[l], consts[r]
                if type(lv) in _FOLDABLE and type(rv) in _FOLDABLE:
                    try:
                        return Instr("const", ins.dest,
                                     Interpreter._binop(bop, lv, rv))
                    except Exception:
                        return None  # e.g. division by zero: fold nothing
            return None
        if op == "unop":
            uop, s = ins.args
            if s in consts and type(consts[s]) in _FOLDABLE:
                value = consts[s]
                return Instr("const", ins.dest,
                             (not value) if uop == "!" else -value)
            return None
        if op == "isnone" and ins.args[0] in consts:
            return Instr("const", ins.dest, consts[ins.args[0]] is NONE)
        if op == "issome" and ins.args[0] in consts:
            return Instr("const", ins.dest, consts[ins.args[0]] is not NONE)
        return None

    # -- CFG cleanups ------------------------------------------------------

    @staticmethod
    def _branches(fn: IRFunction) -> bool:
        changed = False
        for block in fn.blocks:
            term = block.term
            if term is not None and term.op == "br" and term.args[1] == term.args[2]:
                block.term = Instr("jmp", None, term.args[1])
                changed = True
        return changed

    @staticmethod
    def _thread_jumps(fn: IRFunction) -> bool:
        blocks = fn.block_map()

        def final_target(label: int) -> int:
            seen = set()
            while label not in seen:
                seen.add(label)
                block = blocks.get(label)
                if (
                    block is None
                    or block.instrs
                    or block.term is None
                    or block.term.op != "jmp"
                ):
                    return label
                label = block.term.args[0]
            return label

        changed = False
        for block in fn.blocks:
            term = block.term
            if term is None:
                continue
            if term.op == "jmp":
                target = final_target(term.args[0])
                if target != term.args[0]:
                    term.args = (target,)
                    changed = True
            elif term.op == "br":
                t = final_target(term.args[1])
                f = final_target(term.args[2])
                if (t, f) != (term.args[1], term.args[2]):
                    term.args = (term.args[0], t, f)
                    changed = True
        return changed

    @staticmethod
    def _merge_chains(fn: IRFunction) -> bool:
        """Splice a block into its unique predecessor when that predecessor
        jumps straight to it — fewer jumps means fewer dispatch-loop
        iterations at run time."""
        changed = False
        while True:
            preds = predecessors(fn)
            blocks = fn.block_map()
            merged = False
            for block in fn.blocks:
                term = block.term
                if term is None or term.op != "jmp":
                    continue
                target_label = term.args[0]
                target = blocks.get(target_label)
                if (
                    target is None
                    or target is block
                    or target is fn.blocks[0]
                    or len(preds[target_label]) != 1
                ):
                    continue
                block.instrs.extend(target.instrs)
                block.term = target.term
                fn.blocks.remove(target)
                merged = True
                changed = True
                break
            if not merged:
                return changed


# ---------------------------------------------------------------------------
# Constant pooling (dispatch-count reduction)
# ---------------------------------------------------------------------------


class ConstPoolPass(Pass):
    """Move single-def constants into the frame prototype.

    A ``const`` whose destination is defined exactly once always produces
    the same value, so the value can live in a dedicated pool slot that the
    frame prototype (``BytecodeFunc.blank``) pre-initializes — the
    instruction then never executes at run time.  Constants inside loop
    bodies stop costing one dispatch per iteration.  Multi-def slots
    (surface variables reassigned to literals) are left alone.
    """

    name = "constpool"

    def run(self, module: IRModule) -> None:
        for fn in module.funcs.values():
            module.counters["consts_pooled"] += self._function(fn)

    @staticmethod
    def _function(fn: IRFunction) -> int:
        def_count: Dict[int, int] = {}
        const_defs: Dict[int, Instr] = {}
        for ins in fn.instructions():
            if ins.dest is not None:
                def_count[ins.dest] = def_count.get(ins.dest, 0) + 1
                if ins.op == "const":
                    const_defs[ins.dest] = ins
        pool: Dict[Tuple[type, object], int] = {}
        mapping: Dict[int, int] = {}
        for slot, ins in const_defs.items():
            if def_count[slot] != 1:
                continue
            value = ins.args[0]
            # Key by type too: True == 1 but bool and int pool separately.
            key = (value.__class__, value)
            p = pool.get(key)
            if p is None:
                p = pool[key] = fn.new_slot()
                fn.const_slots[p] = value
            mapping[slot] = p
        if not mapping:
            return 0
        for block in fn.blocks:
            block.instrs = [
                ins for ins in block.instrs
                if not (ins.op == "const" and ins.dest in mapping)
            ]
            for ins in block.instrs:
                rewrite_uses(ins, mapping)
            if block.term is not None:
                rewrite_uses(block.term, mapping)
        return len(mapping)


# ---------------------------------------------------------------------------
# Dead code elimination
# ---------------------------------------------------------------------------

_PURE_OPS = ("const", "mov", "unop", "binop", "isnone", "issome")


class DeadCodePass(Pass):
    """Remove pure instructions whose result is never used (global slot
    liveness).  Loads join the pure set only in the *unobserved* full tier
    — under a tracer every load is a trace event, so it must execute."""

    name = "dce"

    def run(self, module: IRModule) -> None:
        removable = _PURE_OPS
        if module.full and not module.observable:
            removable += ("load",)
        for fn in module.funcs.values():
            while self._sweep(fn, removable):
                pass

    @staticmethod
    def _sweep(fn: IRFunction, removable: Tuple[str, ...]) -> bool:
        _live_in, live_out = liveness(fn)
        changed = False
        for block in fn.blocks:
            live = set(live_out[block.label])
            if block.term is not None:
                live.update(instr_uses(block.term))
            kept: List[Instr] = []
            for ins in reversed(block.instrs):
                dest = ins.dest
                if (
                    dest is not None
                    and dest not in live
                    and ins.op in removable
                ):
                    changed = True
                    continue
                if dest is not None:
                    live.discard(dest)
                live.update(instr_uses(ins))
                kept.append(ins)
            kept.reverse()
            block.instrs = kept
        return changed


# ---------------------------------------------------------------------------
# Register allocation (frame-slot coalescing)
# ---------------------------------------------------------------------------


class RegAllocPass(Pass):
    """Collapse the append-only slot space via liveness-based coloring.

    Lowering and inlining only ever append slots, so by the end of the
    pipeline a frame can be several times larger than the number of values
    ever simultaneously live — and every call pays for it in the
    ``blank[:]`` frame copy.  This pass builds the slot interference graph
    (two slots interfere when one is defined while the other is live),
    aggressively coalesces ``mov``-related slots that do not interfere
    (Chaitin-style, which also deletes the mov), and greedily recolors
    everything into a dense range.

    Precoloring: parameters keep slots ``0..nparams-1`` (the call protocol
    writes arguments there before the first instruction).  Constant-pool
    slots have no def, so they get explicit mutual edges plus edges to
    everything valid at entry (parameters and entry-live slots) — after
    their last use their color is reusable, the pre-initialized value
    having served its purpose.  Runs last: every later pass would have to
    reason about slot sharing.
    """

    name = "regalloc"

    def run(self, module: IRModule) -> None:
        for fn in module.funcs.values():
            module.counters["slots_coalesced"] += self._function(fn)

    @staticmethod
    def _function(fn: IRFunction) -> int:
        if not fn.blocks:
            return 0
        nparams = fn.nparams
        old_nslots = fn.nslots
        pool = set(fn.const_slots)
        live_in, live_out = liveness(fn)

        adj: Dict[int, Set[int]] = {}

        def node(s: int) -> None:
            if s not in adj:
                adj[s] = set()

        def edge(a: int, b: int) -> None:
            if a != b:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)

        for p in range(nparams):
            node(p)
        for s in pool:
            node(s)
        # Everything holding a value at function entry must stay distinct.
        entry_atoms = sorted(
            set(range(nparams)) | pool | live_in.get(fn.blocks[0].label, set())
        )
        for i, a in enumerate(entry_atoms):
            for b in entry_atoms[i + 1:]:
                edge(a, b)

        for block in fn.blocks:
            live = set(live_out[block.label])
            seq = list(block.instrs)
            if block.term is not None:
                seq.append(block.term)
            for ins in reversed(seq):
                uses = instr_uses(ins)
                for s in uses:
                    node(s)
                dest = ins.dest
                if dest is not None:
                    node(dest)
                    # A def interferes with everything live after it —
                    # except a mov's own source, whose value it carries
                    # (the coalescing opportunity).
                    skip = ins.args[0] if ins.op == "mov" else None
                    for s in live:
                        if s != skip:
                            edge(dest, s)
                    live.discard(dest)
                live.update(uses)

        # Union-find with class-level adjacency and precolor tracking.
        parent = {s: s for s in adj}

        def find(s: int) -> int:
            while parent[s] != s:
                parent[s] = parent[parent[s]]
                s = parent[s]
            return s

        members: Dict[int, Set[int]] = {s: {s} for s in adj}
        cadj: Dict[int, Set[int]] = {s: set(neigh) for s, neigh in adj.items()}
        precolor: Dict[int, Optional[int]] = {
            s: (s if s < nparams else None) for s in adj
        }

        for ins in fn.instructions():
            if ins.op != "mov":
                continue
            d, s = ins.dest, ins.args[0]
            if d is None or d not in parent or s not in parent:
                continue
            rd, rs = find(d), find(s)
            if rd == rs:
                continue
            if precolor[rd] is not None and precolor[rs] is not None:
                continue  # two different parameters can never merge
            if cadj[rd] & members[rs]:
                continue  # the classes interfere somewhere
            winner, loser = (
                (rd, rs) if precolor[rd] is not None else (rs, rd)
            )
            parent[loser] = winner
            members[winner] |= members.pop(loser)
            cadj[winner] |= cadj.pop(loser)

        # Greedy coloring: parameters keep their index; everything else
        # takes the smallest color its neighbors have not claimed.
        color: Dict[int, int] = {}
        roots = {find(s) for s in adj}
        free_roots = []
        for r in roots:
            if precolor[r] is not None:
                color[r] = precolor[r]
            else:
                free_roots.append(r)
        for r in sorted(free_roots, key=lambda root: min(members[root])):
            used = set()
            for n in cadj[r]:
                c = color.get(find(n))
                if c is not None:
                    used.add(c)
            c = 0
            while c in used:
                c += 1
            color[r] = c

        mapping = {s: color[find(s)] for s in adj}
        for block in fn.blocks:
            out: List[Instr] = []
            for ins in block.instrs:
                rewrite_uses(ins, mapping)
                if ins.dest is not None:
                    ins.dest = mapping.get(ins.dest, ins.dest)
                if ins.op == "mov" and ins.dest == ins.args[0]:
                    continue  # the coalescing payoff
                out.append(ins)
            block.instrs = out
            if block.term is not None:
                rewrite_uses(block.term, mapping)
        fn.const_slots = {
            mapping.get(s, s): value for s, value in fn.const_slots.items()
        }
        fn.nslots = max(
            nparams, max(mapping.values(), default=nparams - 1) + 1
        )
        return max(0, old_nslots - fn.nslots)
