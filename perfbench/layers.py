"""Per-layer metric table and the traced-run pieces every workload shares:
the lexer side measurement, the cold IR compile and its breakdown, and the
reduction of spans plus telemetry counters to per-op rows."""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro import telemetry as tel
from repro.ir import bytecode, clear_compile_cache, compile_program
from repro.ir.passes import PassManager
from repro.lang import parse_program, tokenize

import harness
from spans import SpanRecorder, timed_call, wrapped

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("lang.parse_ms", "ms", "lower"),
    ("lang.lex_ms", "ms", "lower"),
    ("lang.tokens_per_s", "1/s", "higher"),
    ("core.elaborate_ms", "ms", "lower"),
    ("core.check_ms", "ms", "lower"),
    ("core.derivation_nodes", "count", "lower"),
    ("core.check_nodes_per_s", "1/s", "higher"),
    ("contexts.clones", "count", "lower"),
    ("contexts.persist.heap_copies", "count", "lower"),
    ("contexts.persist.gamma_copies", "count", "lower"),
    ("unify.search.calls", "count", "lower"),
    ("unify.search.states", "count", "lower"),
    ("verifier.verify_ms", "ms", "lower"),
    ("verifier.nodes_per_s", "1/s", "higher"),
    ("verifier.verify_to_check_ratio", "ratio", "lower"),
    ("pipeline.fingerprint_ms", "ms", "lower"),
    ("pipeline.cache.lookup_ms", "ms", "lower"),
    ("pipeline.cache.store_ms", "ms", "lower"),
    ("pipeline.cache.hit_ratio", "ratio", "higher"),
    ("pipeline.cert_decode_ms", "ms", "lower"),
    ("pipeline.cert_encode_ms", "ms", "lower"),
    ("pipeline.cert_bytes", "bytes", "lower"),
    ("pipeline.replay_ms", "ms", "lower"),
    ("pipeline.overhead_ms", "ms", "lower"),
    ("ir.lower_ms", "ms", "lower"),
    ("ir.optimize_ms", "ms", "lower"),
    ("ir.flatten_ms", "ms", "lower"),
    ("ir.execute_ms", "ms", "lower"),
    ("ir.instructions_emitted", "count", "lower"),
    ("ir.inlined_calls", "count", "higher"),
    ("ir.loads_eliminated", "count", "higher"),
    ("ir.licm_hoisted", "count", "higher"),
    ("ir.tail_calls_looped", "count", "higher"),
    ("ir.slots_coalesced", "count", "higher"),
    ("ir.compile_cache.hit_ratio", "ratio", "higher"),
    ("runtime.steps", "count", "lower"),
    ("runtime.steps_per_s", "1/s", "higher"),
    ("runtime.heap_reads", "count", "lower"),
    ("runtime.heap_writes", "count", "lower"),
    ("runtime.reservation_checks", "count", "lower"),
    ("runtime.sched_ticks", "count", "lower"),
    ("runtime.rendezvous", "count", "lower"),
    ("server.run.check_ms", "ms", "lower"),
    ("server.service_ms", "ms", "lower"),
    ("server.dispatch_ms", "ms", "lower"),
    ("server.transport_ms", "ms", "lower"),
    ("server.memo.hit_ratio", "ratio", "higher"),
    ("server.refused", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
]

#: Span names whose self time is reported per op as ``<name>_ms``.
SPAN_ROWS = (
    "lang.parse", "core.elaborate", "core.check", "verifier.verify",
    "pipeline.fingerprint", "pipeline.cache.lookup", "pipeline.cache.store",
    "pipeline.cert_decode", "pipeline.cert_encode", "pipeline.replay",
    "ir.execute", "server.run.check", "server.service",
)

#: Telemetry counters read per op, ``metric <- counter``.
COUNTER_ROWS = {
    "contexts.clones": "contexts.clones",
    "contexts.persist.heap_copies": "contexts.persist.heap_copies",
    "contexts.persist.gamma_copies": "contexts.persist.gamma_copies",
    "unify.search.calls": "unify.search.calls",
    "unify.search.states": "unify.search.states",
    "runtime.steps": "machine.steps",
    "runtime.heap_reads": "machine.heap_reads",
    "runtime.heap_writes": "machine.heap_writes",
    "runtime.reservation_checks": "machine.reservation_checks",
    "runtime.sched_ticks": "machine.scheduled",
    "runtime.rendezvous": "machine.rendezvous",
}

#: Compile-time pass counters reported from the cold compile.
IR_COUNTERS = (
    "instructions_emitted", "inlined_calls", "loads_eliminated",
    "licm_hoisted", "tail_calls_looped", "slots_coalesced",
)


def is_error(cls_name: str, expected: type) -> bool:
    """Whether the error class named ``cls_name`` is ``expected`` or one of
    its subclasses."""
    pending = [expected]
    while pending:
        klass = pending.pop()
        if klass.__name__ == cls_name:
            return True
        pending.extend(klass.__subclasses__())
    return False


def lex(rec: SpanRecorder, source: str) -> None:
    """``tokenize`` on the op's text, timed outside the op: parsing lexes
    internally, so this is a side row, not a share of the op."""
    t0 = time.perf_counter()
    tokens = tokenize(source)
    rec.count("lex_s", time.perf_counter() - t0)
    rec.count("tokens", len(tokens))


def _fresh(sources: Iterable[str]):
    return [parse_program(source) for source in sources]


def cold_compile(sources: List[str]) -> Tuple[float, Dict[str, int]]:
    """Cold ``compile_program`` of every program in both tiers, on fresh
    parses after emptying the shared compile cache: (ms, pass counters)."""
    programs = _fresh(sources)
    clear_compile_cache()
    t0 = time.perf_counter()
    modules = [
        compile_program(program, checked=checked, observable=False)
        for program in programs
        for checked in (True, False)
    ]
    ms = (time.perf_counter() - t0) * 1000.0
    clear_compile_cache()
    counters = {
        key: sum(m.counters.get(key, 0) for m in modules) for key in IR_COUNTERS
    }
    return ms, counters


def traced_compile(sources: List[str]) -> Dict[str, float]:
    """The cold compile again with spans on lowering, the pass pipeline and
    flattening: ms per compile of the whole set, plus what no span took."""
    programs = _fresh(sources)
    clear_compile_cache()
    rec = SpanRecorder()
    with wrapped(rec, [
        (bytecode, "lower_function", timed_call(rec, "ir.lower")),
        (PassManager, "run", timed_call(rec, "ir.optimize")),
        (bytecode, "flatten", timed_call(rec, "ir.flatten")),
    ]):
        for index, program in enumerate(programs):
            with rec.op(index):
                for checked in (True, False):
                    compile_program(program, checked=checked, observable=False)
    clear_compile_cache()
    st = rec.self_times()
    return {
        "ir.lower_ms": st.get("ir.lower", 0.0) * 1000.0,
        "ir.optimize_ms": st.get("ir.optimize", 0.0) * 1000.0,
        "ir.flatten_ms": st.get("ir.flatten", 0.0) * 1000.0,
        "compile_unattributed_ms": st.get("op", 0.0) * 1000.0,
        "compile_wall_ms": rec.op_wall_s() * 1000.0,
    }


def reduce(rec: SpanRecorder, reg: tel.Registry, untraced_wall_s: float) -> Dict[str, float]:
    """Per-op rows from one traced replay.  Every row exists on every
    workload; a layer the workload's path never enters reads 0."""
    n = rec.ops
    st = rec.self_times()
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in SPAN_ROWS:
        out[f"{name}_ms"] = st.get(name, 0.0) * 1000.0 / n
    for metric, counter in COUNTER_ROWS.items():
        out[metric] = reg.value(counter) / n
    c = rec.counts
    if c["lex_s"]:
        out["lang.lex_ms"] = c["lex_s"] * 1000.0 / n
        out["lang.tokens_per_s"] = c["tokens"] / c["lex_s"]
    out["core.derivation_nodes"] = c["nodes_checked"] / n
    if st.get("core.check"):
        out["core.check_nodes_per_s"] = c["nodes_checked"] / st["core.check"]
        out["verifier.verify_to_check_ratio"] = st.get("verifier.verify", 0.0) / st["core.check"]
    if st.get("verifier.verify"):
        out["verifier.nodes_per_s"] = c["nodes_verified"] / st["verifier.verify"]
    lookups = c["cache_hits"] + c["cache_misses"]
    if lookups:
        out["pipeline.cache.hit_ratio"] = c["cache_hits"] / lookups
    out["pipeline.cert_bytes"] = c["cert_bytes"] / n
    engines = reg.value("machine.engine.selected.ir")
    if engines:
        out["ir.compile_cache.hit_ratio"] = 1.0 - reg.value("machine.engine.compiles") / engines
    if st.get("ir.execute"):
        out["runtime.steps_per_s"] = reg.value("machine.steps") / st["ir.execute"]
    out["trace.unattributed_ms"] = st.get("op", 0.0) * 1000.0 / n
    out["trace.overhead_ratio"] = rec.op_wall_s() / untraced_wall_s
    return out


def compile_once(sources: List[str]) -> Callable[[], float]:
    """One ``compile_ms`` repetition, for :class:`harness.Sides`."""
    return lambda: cold_compile(sources)[0]


def op_kind(inputs) -> Callable[[int], Hashable]:
    """What makes two ops of a workload the same work, from the op's plan
    index: the program (batch workloads), the call (run-engine), or the
    method, request kind and base program (serve-mix, whose cold sources
    are a pool program with one literal changed)."""
    if inputs.workload == "serve-mix":
        def kind(i: int) -> Hashable:
            req = inputs.requests[i]
            return req.method, req.kind, inputs.sources[req.source_id].label.split("@")[0]
        return kind
    period = len(inputs.calls) if inputs.workload == "run-engine" else len(inputs.programs)
    return lambda i: i % period


def conclude(
    inputs,
    timed: harness.Timed,
    check: Callable[[int, Any], Optional[str]],
    sides: Optional[harness.Sides],
    rss_mb: Optional[float],
    replay: Callable[[], Tuple[SpanRecorder, Dict[str, float], List[Any]]],
    report: Dict[str, Any],
) -> harness.Result:
    """Check every op's answer, then either report the end-to-end metrics
    (``sides`` given) or run the traced replay and report per-layer rows,
    checking the replay's answers too."""
    failures = harness.failures_of(timed, check)
    report["ops"] = len(timed.records)
    if sides is not None:
        metrics, extra = harness.end_to_end(timed, sides, rss_mb, op_kind(inputs))
        report.update(extra)
        return harness.Result(len(timed.records), failures, metrics, report)
    rec, rows, outputs = replay()
    for n, (record, out) in enumerate(zip(timed.records, outputs)):
        reason = check(record.index, out)
        if reason is not None:
            failures.append(f"traced op {n}: {reason}")
    rows = finish_trace(rec, rows, inputs, report)
    return harness.Result(len(timed.records), failures, rows, report)


def finish_trace(rec: SpanRecorder, rows: Dict[str, float], inputs, report: Dict) -> Dict[str, float]:
    """Add the compile breakdown and pass counters of the workload's
    programs to the per-op rows, and write the spans out."""
    _, counters = cold_compile(inputs.compile_set)
    rows.update({f"ir.{key}": value for key, value in counters.items()})
    compiled = traced_compile(inputs.compile_set)
    report["compile_breakdown"] = {
        k: compiled.pop(k) for k in ("compile_unattributed_ms", "compile_wall_ms")
    }
    rows.update(compiled)
    path = harness.OUT / f"spans-{inputs.workload}-{inputs.seed}.jsonl"
    rec.write(str(path))
    report["spans_file"] = str(path.relative_to(harness.ROOT))
    report["reconcile"] = reconcile(rec)
    return rows


def reconcile(rec: SpanRecorder) -> Dict[str, float]:
    """Layer self times plus the unattributed remainder against op wall."""
    st = rec.self_times()
    return {
        "op_wall_ms": rec.op_wall_s() * 1000.0,
        "layers_ms": sum(v for k, v in st.items() if k != "op") * 1000.0,
        "unattributed_ms": st.get("op", 0.0) * 1000.0,
    }
