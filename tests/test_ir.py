"""The bytecode engine (``--engine ir``): compile pipeline and parity.

The IR engine must be observationally indistinguishable from the tree
interpreter: identical results, byte-identical heap-event traces, and the
same reservation-check counts in the observable tier, over the whole
corpus and under concurrent scheduling.  The full optimization tier
(erased, untraced) may read the heap less often but must agree on results
and on the shape of the final heap.  Budgets (``max_steps``) are enforced
inside the dispatch loop itself.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.corpus import corpus_names, load_source
from repro.fuzz import FuzzConfig, run_campaign
from repro import telemetry as tel
from repro.ir.bytecode import (
    OP_CALL2,
    OP_CHECK,
    OP_LOADV,
    OP_SENDC,
    clear_compile_cache,
    compile_cache_entries,
    compile_program,
    set_compile_cache_limit,
)
from repro.ir.disasm import disassemble
from repro.lang import ast, parse_program
from repro.runtime.heap import Heap
from repro.runtime.machine import (
    Machine,
    ScriptedScheduler,
    StepLimitExceeded,
    run_function,
)
from repro.runtime.trace import Tracer
from repro.server import Service
from repro.server.protocol import RpcError

CORPUS = Path(__file__).parent.parent / "src" / "repro" / "corpus"

PINGPONG = """
struct data { v : int; }
struct token { iso payload : data; }

def pinger(n : int) : int {
  let last = 0;
  while (n > 0) {
    let d = new data(v = n);
    let t = new token(payload = d);
    send(t);
    let back = recv(data);
    last = back.v;
    n = n - 1
  };
  last
}

def ponger(n : int) : unit {
  while (n > 0) {
    let t = recv(token);
    let d = t.payload;
    d.v = d.v * 2;
    t.payload = new data(v = 0);
    send(d);
    n = n - 1
  }
}
"""

SPIN = """
struct counter { n : int; }
def spin(k : int) : int {
  let c = new counter(n = 0);
  while (k > 0) {
    c.n = c.n + 1;
    k = k - 1
  };
  c.n
}
"""

COUNT = """
def count(n : int, acc : int) : int {
  if (n == 0) { acc } else { count(n - 1, acc + 1) }
}
"""

LOOP = """
def forever() : int {
  let x = 0;
  while (x < 1) { x = 0 };
  x
}
"""


def _int_entry_points(program):
    """Every function callable with small int arguments on one thread
    (``recv`` needs a Machine, so receiving functions are skipped)."""
    for name, fdef in program.funcs.items():
        if any(isinstance(node, ast.Recv) for node in ast.walk(fdef.body)):
            continue
        if all(p.ty == ast.INT for p in fdef.params):
            yield name, [4] * len(fdef.params)


def _run(program, fname, args, *, engine, checked, traced):
    tracer = Tracer() if traced else None
    heap = Heap(tracer=tracer)
    result, interp = run_function(
        program, fname, list(args), heap=heap,
        check_reservations=checked, sink_sends=True,
        max_steps=200_000, engine=engine,
    )
    return result, interp, heap, tracer


class TestCorpusParity:
    @pytest.mark.parametrize("name", corpus_names())
    def test_traced_runs_are_byte_identical(self, name):
        """Observable tier: same results, traces, and check counts."""
        program = parse_program(load_source(name))
        ran = 0
        for fname, args in _int_entry_points(program):
            tree = _run(program, fname, args, engine="tree", checked=True,
                        traced=True)
            ir = _run(program, fname, args, engine="ir", checked=True,
                      traced=True)
            assert repr(tree[0]) == repr(ir[0]), fname
            assert tree[1].stats.reservation_checks == \
                ir[1].stats.reservation_checks, fname
            tree_bytes = json.dumps(list(tree[3].to_dicts()), sort_keys=True)
            ir_bytes = json.dumps(list(ir[3].to_dicts()), sort_keys=True)
            assert tree_bytes == ir_bytes, fname
            ran += 1
        assert ran > 0

    @pytest.mark.parametrize("name", corpus_names())
    def test_erased_full_tier_agrees_on_results(self, name):
        """Full tier (erased, dead loads deleted): results and heap shape
        match."""
        program = parse_program(load_source(name))
        for fname, args in _int_entry_points(program):
            tree = _run(program, fname, args, engine="tree", checked=False,
                        traced=False)
            ir = _run(program, fname, args, engine="ir", checked=False,
                      traced=False)
            assert repr(tree[0]) == repr(ir[0]), fname
            assert len(tree[2]) == len(ir[2]), fname


class TestBudgets:
    def test_step_limit_inside_dispatch_loop(self):
        program = parse_program(LOOP)
        with pytest.raises(StepLimitExceeded, match="step budget exceeded"):
            run_function(program, "forever", [], max_steps=1000, engine="ir")

    def test_step_limit_on_finite_work(self):
        program = parse_program(load_source("sll"))
        with pytest.raises(StepLimitExceeded):
            run_function(program, "make_list", [50], max_steps=10,
                         engine="ir", check_reservations=False)
        result, _ = run_function(program, "make_list", [50],
                                 max_steps=1_000_000, engine="ir",
                                 check_reservations=False)
        assert result is not None


class TestConcurrency:
    def test_scripted_replay_is_deterministic(self):
        program = parse_program(PINGPONG)
        results = []
        for _ in range(2):
            machine = Machine(program, scheduler=ScriptedScheduler(),
                              engine="ir")
            pinger = machine.spawn("pinger", [5])
            machine.spawn("ponger", [5])
            machine.run()
            results.append(pinger.result)
        assert results[0] == results[1] == 2

    def test_traced_machines_agree_across_engines(self):
        """Heap-event traces are yield-granularity-independent, so traced
        runs byte-match between engines under the same seed."""
        traces = {}
        for engine in ("tree", "ir"):
            tracer = Tracer()
            program = parse_program(PINGPONG)
            machine = Machine(program, seed=3, tracer=tracer, engine=engine)
            machine.spawn("pinger", [4])
            machine.spawn("ponger", [4])
            machine.run()
            traces[engine] = json.dumps(list(tracer.to_dicts()),
                                        sort_keys=True)
        assert traces["tree"] == traces["ir"]


class TestCompiler:
    def test_erased_module_contains_no_check_opcodes(self):
        program = parse_program(load_source("rbtree"))
        erased = compile_program(program, checked=False, observable=False)
        opcodes = {
            ins[0] for fn in erased.funcs.values() for ins in fn.code
        }
        assert OP_CHECK not in opcodes
        assert OP_SENDC not in opcodes
        assert erased.counters["checks_erased"] > 0

    def test_checked_module_keeps_guards(self):
        program = parse_program(load_source("rbtree"))
        checked = compile_program(program, checked=True, observable=True)
        opcodes = {
            ins[0] for fn in checked.funcs.values() for ins in fn.code
        }
        assert OP_CHECK in opcodes
        assert checked.counters["checks_erased"] == 0

    def test_optimizer_counters_fire_on_rbtree(self):
        program = parse_program(load_source("rbtree"))
        module = compile_program(program, checked=False, observable=False)
        for counter in ("inlined_calls", "consts_pooled",
                        "instructions_emitted"):
            assert module.counters[counter] > 0, counter

    def test_erased_spin_agrees_on_result_and_allocations(self):
        program = parse_program(SPIN)
        # Object counts must match the tree interpreter's.
        tree = _run(program, "spin", [10], engine="tree", checked=False,
                    traced=False)
        ir = _run(program, "spin", [10], engine="ir", checked=False,
                  traced=False)
        assert tree[0] == ir[0] == 10
        assert len(tree[2]) == len(ir[2]) == 1

    def test_compile_cache_is_per_configuration(self):
        program = parse_program(SPIN)
        a = compile_program(program, checked=False, observable=False)
        b = compile_program(program, checked=False, observable=False)
        c = compile_program(program, checked=True, observable=True)
        assert a is b
        assert a is not c


class TestSurfaces:
    def test_api_run_engine_roundtrip(self):
        result = api.run(SPIN, "spin", [7], engine="ir")
        assert result.ok and result.value == "7"
        assert result.engine == "ir"
        restored = api.RunResult.from_dict(result.to_dict())
        assert restored.engine == "ir"
        # Every server since the field existed sends it; there is no
        # default for documents without it.
        legacy = dict(result.to_dict())
        del legacy["engine"]
        with pytest.raises(KeyError):
            api.RunResult.from_dict(legacy)

    def test_api_rejects_unknown_engine(self):
        result = api.run(SPIN, "spin", [7], engine="jit")
        assert not result.ok
        assert result.diagnostics[0].code == "MachineError"
        assert "unknown engine" in result.diagnostics[0].message

    def test_service_run_engine(self):
        service = Service()
        reply = service.run(
            {"source": SPIN, "function": "spin", "args": [6], "engine": "ir"}
        )
        assert reply["ok"] and reply["value"] == "6"
        assert reply["engine"] == "ir"
        with pytest.raises(RpcError, match="params.engine"):
            service.run(
                {"source": SPIN, "function": "spin", "args": [6],
                 "engine": "jit"}
            )

    def test_cli_trace_json_byte_identical_across_engines(self, tmp_path):
        sll = str(CORPUS / "sll.fcl")
        out = {}
        for engine in ("tree", "ir"):
            path = tmp_path / f"{engine}.jsonl"
            code = main(["run", sll, "make_list", "8",
                         "--engine", engine, "--trace-json", str(path)])
            assert code == 0
            out[engine] = path.read_bytes()
        assert out["tree"] == out["ir"]

    def test_cli_paranoid_ir_cross_checks_tree(self, capsys):
        rb = str(CORPUS / "rbtree.fcl")
        code = main(["run", rb, "build_tree", "25", "7",
                     "--engine", "ir", "--paranoid"])
        assert code == 0
        err = capsys.readouterr().err
        assert "traces identical" in err

    def test_fuzz_campaign_reports_engines(self):
        report = run_campaign(FuzzConfig(seed=11, budget=8))
        assert report["engines"] == ["tree", "ir"]
        assert report["clean"]

    def test_erased_ir_beats_erased_tree_on_chain_traverse(self):
        """The compiled full tier outruns the tree interpreter with guards
        erased in both: best of 3 over 20 recursive sums of a 100-node
        list, after a cold compile that is not timed."""
        program = parse_program(load_source("sll"))
        compile_program(program, checked=False, observable=False)
        heap = Heap()
        lst, _ = run_function(
            program, "make_list", [100], heap=heap, check_reservations=False
        )
        best = {}
        for engine in ("tree", "ir"):
            best[engine] = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(20):
                    run_function(program, "sum", [lst], heap=heap,
                                 check_reservations=False, engine=engine)
                best[engine] = min(best[engine], time.perf_counter() - t0)
        assert best["ir"] < best["tree"], best


class TestSecondGen:
    """Register allocation, fused opcodes, the explicit frame stack, the
    shared compile cache, and the disassembler."""

    def test_optimizer_second_gen_counters_fire(self):
        program = parse_program(load_source("rbtree"))
        module = compile_program(program, checked=False, observable=False)
        assert module.counters["slots_coalesced"] > 0

    def test_deep_self_recursion_runs_on_the_frame_stack(self):
        """FCL calls live on the dispatch loop's own frame stack, so
        recursion far past Python's limit returns in both tiers."""
        program = parse_program(COUNT)
        assert sys.getrecursionlimit() < 200_000
        for checked in (True, False):
            result, _ = run_function(
                program, "count", [200_000, 0], engine="ir",
                check_reservations=checked,
            )
            assert result == 200_000, checked

    def test_fused_opcodes_present_and_results_agree(self):
        program = parse_program(load_source("rbtree"))
        module = compile_program(program, checked=False, observable=False)
        opcodes = {
            ins[0] for fn in module.funcs.values() for ins in fn.code
        }
        assert OP_LOADV in opcodes
        assert OP_CALL2 in opcodes
        tree = _run(program, "build_tree", [30, 7], engine="tree",
                    checked=False, traced=False)
        ir = _run(program, "build_tree", [30, 7], engine="ir",
                  checked=False, traced=False)
        assert repr(tree[0]) == repr(ir[0])
        assert len(tree[2]) == len(ir[2])

    def test_budget_binds_on_straight_line_functions(self):
        program = parse_program(
            "def add(a : int, b : int) : int { a + b }"
        )
        with pytest.raises(StepLimitExceeded):
            run_function(program, "add", [1, 2], max_steps=1, engine="ir")
        result, _ = run_function(program, "add", [1, 2], max_steps=100,
                                 engine="ir")
        assert result == 3

    def test_disasm_reports_passes_and_baseline(self):
        program = parse_program(load_source("rbtree"))
        optimized = disassemble(
            program, checked=False, optimize=True, function="contains_opt"
        )
        assert "func contains_opt" in optimized
        assert "; pass regalloc: slots_coalesced+" in optimized
        baseline = disassemble(
            program, checked=False, optimize=False, function="contains_opt"
        )
        assert "; pass" not in baseline
        assert len(baseline.splitlines()) > len(optimized.splitlines())
        with pytest.raises(KeyError):
            disassemble(program, function="no_such_function")

    def test_shared_cache_eviction_telemetry(self):
        clear_compile_cache()
        set_compile_cache_limit(2)
        reg = tel.enable()
        try:
            programs = [
                parse_program(SPIN.replace("spin", f"spin{i}"))
                for i in range(3)
            ]
            for program in programs:
                compile_program(program, checked=False, observable=False)
            assert compile_cache_entries() == 2
            assert reg.value("machine.engine.compile_cache.evictions") >= 1
            assert reg.value("machine.engine.compile_cache.misses") == 3
            # A fresh Program object for a cached source must hit the
            # shared cache instead of recompiling.
            fresh = parse_program(SPIN.replace("spin", "spin2"))
            before = reg.value("machine.engine.compile_cache.hits")
            compile_program(fresh, checked=False, observable=False)
            assert reg.value("machine.engine.compile_cache.hits") == before + 1
        finally:
            tel.disable()
            set_compile_cache_limit(64)
            clear_compile_cache()

    def test_session_eviction_survived_by_shared_cache(self):
        """Evicting a ProgramSession from the service LRU must not force a
        recompile: the next run builds a fresh Program whose fingerprint
        hits the shared compile cache."""
        clear_compile_cache()
        reg = tel.enable()
        try:
            service = Service(max_sessions=1)
            first = SPIN
            second = SPIN.replace("spin", "spun")
            reply = service.run(
                {"source": first, "function": "spin", "args": [5]}
            )
            # Warm serving defaults to the compiled engine.
            assert reply["engine"] == "ir"
            service.run({"source": second, "function": "spun", "args": [5]})
            before = reg.value("machine.engine.compile_cache.hits")
            service.run({"source": first, "function": "spin", "args": [5]})
            assert reg.value("machine.engine.compile_cache.hits") == before + 1
            assert reg.value("machine.engine.compiles") == 2
        finally:
            tel.disable()
            clear_compile_cache()
