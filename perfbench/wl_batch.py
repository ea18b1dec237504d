"""``verify-batch`` and ``edit-rebatch``: the ``repro batch`` path.

One op is one ``Pipeline.run(label, source)``, source text to verdict, on
a ``Pipeline`` built with the defaults ``repro batch`` uses (plus
``cache_dir`` for ``edit-rebatch``, as ``repro batch --cache DIR``).  The
traced replay composes the same public calls the pipeline's serial path
makes, in the same order.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Optional

from repro import telemetry as tel
from repro.core.checker import Checker
from repro.core.errors import TypeError_
from repro.core.serialize import func_derivation_from_json, func_derivation_to_json
from repro.lang import parse_program
from repro.pipeline import Pipeline
from repro.pipeline.cache import CacheEntry, CertCache, ProgramFingerprints
from repro.verifier import Verifier

import harness
import layers
from inputs import Inputs, Program
from spans import NullRecorder, SpanRecorder


def summarize(result) -> Dict[str, Any]:
    """The parts of a ``ProgramResult`` the correctness check reads."""
    counts = result.counts()
    return {
        "ok": result.ok,
        "stage": result.error.stage if result.error else None,
        "cls": result.error.cls if result.error else None,
        "functions": len(result.functions),
        "verified": all(f.verified > 0 for f in result.functions),
        "hits": counts["hit"],
        "misses": counts["miss"] + counts["stale"],
        "overhead_ms": result.wall_ms - sum(f.ms for f in result.functions),
    }


def program_failure(
    prog: Program, out: Dict[str, Any], misses: Optional[int] = None
) -> Optional[str]:
    """Why ``out`` is a wrong answer for ``prog``, or None when it is right.
    ``misses`` is the exact number of cache misses the edit plan implies."""
    if prog.expect is not None:
        if out["ok"]:
            return f"{prog.label}: accepted, expected {prog.expect.__name__}"
        if out["stage"] != "check" or not layers.is_error(out["cls"], prog.expect):
            return (
                f"{prog.label}: rejected by {out['stage']} with {out['cls']}, "
                f"expected {prog.expect.__name__}"
            )
        return None
    if not out["ok"]:
        return f"{prog.label}: rejected by {out['stage']} with {out['cls']}"
    if out["functions"] != prog.functions or not out["verified"]:
        return f"{prog.label}: {out['functions']}/{prog.functions} functions verified"
    if misses is not None and (out["misses"], out["hits"]) != (misses, prog.functions - misses):
        return (
            f"{prog.label}: {out['misses']} misses / {out['hits']} hits, "
            f"plan says {misses} / {prog.functions - misses}"
        )
    return None


def cold_start_s() -> float:
    """A fresh interpreter importing the pipeline and building the default
    ``Pipeline``: what every ``repro batch`` invocation pays first."""
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    t0 = time.perf_counter()
    # No timeout: with one, ``wait`` polls in 50 ms steps and quantizes
    # the measurement.
    subprocess.run(
        [sys.executable, "-c", "import repro.pipeline as p; p.Pipeline().close()"],
        env=env, check=True,
    )
    return time.perf_counter() - t0


def traced_op(rec: SpanRecorder, source: str, cache: Optional[CertCache]) -> Dict[str, Any]:
    """One ``Pipeline.run`` as the serial path's public calls: parse,
    elaborate, per function fingerprint + lookup, check the misses, then
    verify fresh derivations or decode + replay stored ones, encode and
    store the new certificates."""
    out = {"ok": False, "stage": "check", "cls": None, "functions": 0,
           "verified": False, "hits": 0, "misses": 0}
    with rec.span("lang.parse"):
        program = parse_program(source)
    try:
        with rec.span("core.elaborate"):
            checker = Checker(program)
    except TypeError_ as exc:
        out["cls"] = type(exc).__name__
        return out
    verifier = Verifier(program, functypes=checker.functypes)
    names = sorted(program.funcs)
    keys: Dict[str, str] = {}
    stored: Dict[str, CacheEntry] = {}
    if cache is not None:
        with rec.span("pipeline.fingerprint"):
            fingerprints = ProgramFingerprints(program)
        for name in names:
            with rec.span("pipeline.fingerprint"):
                keys[name] = fingerprints.key(name)
            with rec.span("pipeline.cache.lookup"):
                status, entry = cache.get(keys[name])
            if status == "hit":
                stored[name] = entry
                rec.count("cache_hits")
            else:
                rec.count("cache_misses")
    fresh = {}
    for name in names:
        if name in stored:
            continue
        try:
            with rec.span("core.check"):
                fresh[name] = checker.check_function(name)
        except TypeError_ as exc:
            out["cls"] = type(exc).__name__
            return out
        rec.count("nodes_checked", fresh[name].body.node_count())
    certs: Dict[str, str] = {}
    verified = {}
    for name in names:
        if name in stored:
            cert = stored[name].cert
            rec.count("cert_bytes", len(cert))
            with rec.span("pipeline.cert_decode"):
                fd = func_derivation_from_json(name, cert)
            with rec.span("pipeline.replay"):
                verified[name] = verifier.verify_function(fd)
            continue
        with rec.span("verifier.verify"):
            verified[name] = verifier.verify_function(fresh[name])
        rec.count("nodes_verified", verified[name])
        if cache is not None:
            with rec.span("pipeline.cert_encode"):
                certs[name] = func_derivation_to_json(fresh[name])
            rec.count("cert_bytes", len(certs[name]))
    for name, cert in certs.items():
        with rec.span("pipeline.cache.store"):
            cache.put(keys[name], CacheEntry(
                func=name, nodes=fresh[name].body.node_count(),
                verified=verified[name], cert=cert,
            ))
    out.update(ok=True, stage=None, functions=len(names),
               verified=all(v > 0 for v in verified.values()),
               hits=len(stored), misses=len(names) - len(stored))
    return out


def traced_replay(
    timed: harness.Timed,
    source_of,
    cache: Optional[CertCache],
    baseline_cache: Optional[CertCache] = None,
):
    """Replay the untraced phase's ops, in order, under spans.  Before each
    traced op the same composition runs once untraced (no spans, no
    telemetry registry; ``baseline_cache`` is its own copy of the store),
    and ``trace.overhead_ratio`` is traced over untraced wall time: the
    real ``Pipeline`` runs on two threads, so its own op times would mix
    the thread/serial difference into the tracer's cost."""
    rec = SpanRecorder()
    untraced = NullRecorder()
    reg = tel.Registry(enabled=True)
    outputs = []
    untraced_s = 0.0
    for n, record in enumerate(timed.records):
        source = source_of(record.index)
        t0 = time.perf_counter()
        traced_op(untraced, source, baseline_cache)
        untraced_s += time.perf_counter() - t0
        with tel.use(reg):
            layers.lex(rec, source)
            with rec.op(n):
                outputs.append(traced_op(rec, source, cache))
    rows = layers.reduce(rec, reg, untraced_s)
    overheads = [r.output["overhead_ms"] for r in timed.records if r.output]
    rows["pipeline.overhead_ms"] = sum(overheads) / len(overheads)
    return rec, rows, outputs


def verify_batch(inputs: Inputs, seconds: float, trace: bool) -> harness.Result:
    programs = inputs.programs
    sides = None
    if not trace:
        sides = harness.Sides(cold_start_s, layers.compile_once(inputs.compile_set))
        sides()
    with Pipeline() as pipeline:
        def do_op(i: int):
            return summarize(pipeline.run(programs[i].label, programs[i].source))

        timed = harness.timed_loop(
            len(programs), do_op, seconds / 2 if trace else seconds, between=sides
        )
    rss = sides.workload_peak_rss_mb() if sides else None
    return layers.conclude(
        inputs, timed,
        lambda i, out: program_failure(programs[i % len(programs)], out),
        sides, rss,
        lambda: traced_replay(timed, lambda i: programs[i % len(programs)].source, None),
        {},
    )


def _fill(inputs: Inputs, root: str) -> float:
    """Cold cache fill: every base program once into an empty store."""
    shutil.rmtree(root, ignore_errors=True)
    t0 = time.perf_counter()
    with Pipeline(cache_dir=root) as pipeline:
        for prog in inputs.programs:
            result = pipeline.run(prog.label, prog.source)
            if not result.ok:
                raise RuntimeError(f"{prog.label}: rejected during cache fill")
    return time.perf_counter() - t0


def edit_rebatch(inputs: Inputs, seconds: float, trace: bool) -> harness.Result:
    programs = inputs.programs
    count = len(programs)
    plan_len = len(inputs.rounds) * count
    source_of = lambda i: inputs.rounds[i // count][i % count]
    work = tempfile.mkdtemp(prefix="edit-", dir=harness.OUT)
    try:
        store = os.path.join(work, "certs")
        first = _fill(inputs, store)
        sides = None
        if trace:
            for copy in ("traced", "baseline"):
                shutil.copytree(store, os.path.join(work, copy))
        else:
            # Later fills go to a scratch store; the timed phase keeps its own.
            sides = harness.Sides(
                lambda: _fill(inputs, os.path.join(work, "refill")),
                layers.compile_once(inputs.compile_set),
            )
            sides(first)
        with Pipeline(cache_dir=store) as pipeline:
            def do_op(i: int):
                return summarize(pipeline.run(programs[i % count].label, source_of(i)))

            timed = harness.timed_loop(
                plan_len, do_op, seconds / 2 if trace else seconds,
                cycle=False, between=sides,
            )
        rss = sides.workload_peak_rss_mb() if sides else None
        result = layers.conclude(
            inputs, timed,
            lambda i, out: program_failure(
                programs[i % count], out, inputs.round_misses[i // count][i % count]
            ),
            sides, rss,
            lambda: traced_replay(
                timed, source_of,
                CertCache(os.path.join(work, "traced")),
                CertCache(os.path.join(work, "baseline")),
            ),
            {"rounds": len(timed.records) / count},
        )
        if len(timed.records) >= plan_len:
            # Replaying a round would store nothing new and break the plan's
            # exact hit/miss counts, so running out is a benchmark failure.
            result.failures.append(f"edit plan exhausted after {plan_len} ops")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
