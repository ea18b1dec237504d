"""``serve-mix``: the daemon under a closed loop of check/verify/run requests.

``python -m repro serve --unix SOCK`` (default flags otherwise) runs as a
child process; two ``repro.client.Client`` connections each send their
next request as soon as the previous reply arrives.  One op is one
request.  The traced run replays the same request sequence through an
in-process ``Service.dispatch``, with spans around the public functions
the service reaches.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.lang
import repro.pipeline.session
import repro.runtime.machine
from repro import api
from repro import telemetry as tel
from repro.client import Client, ClientError, RemoteError
from repro.core.checker import Checker
from repro.server import Service
from repro.verifier import Verifier

import harness
import layers
from inputs import Inputs, Request
from spans import SpanRecorder, timed_call, wrapped

CLIENTS = 2
REFUSALS = ("timeout", "overloaded", "shutting-down")


class Server:
    """One ``repro serve`` child on a unix socket under ``perfbench/out``."""

    _ids = itertools.count()

    def __init__(self) -> None:
        name = f"serve-{os.getpid()}-{next(self._ids)}"
        self.sock = os.path.relpath(harness.OUT / f"{name}.sock", harness.ROOT)
        self.address = f"unix:{self.sock}"
        env = dict(os.environ, PYTHONPATH=str(harness.SRC))
        t0 = time.perf_counter()
        with open(harness.OUT / f"{name}.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--unix", self.sock],
                cwd=harness.ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            self._wait_ready(deadline=t0 + 60.0)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _wait_ready(self, deadline: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                with Client(self.address, timeout=10.0) as client:
                    client.ping()
                return
            except ClientError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with Client(self.address, timeout=10.0) as client:
                    client.shutdown()
            except (ClientError, RemoteError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.unlink(self.sock)
        except OSError:
            pass


def params(inputs: Inputs, req: Request) -> Dict[str, Any]:
    source = inputs.sources[req.source_id].source
    if req.method == "run":
        return {"source": source, "function": req.function,
                "args": list(req.args), "filename": req.filename}
    return {"source": source, "filename": req.filename}


def answer(method: str, result: Dict[str, Any]) -> Tuple:
    """The comparable part of a response."""
    if method == "run":
        return (result["ok"], result["value"])
    codes = tuple(d["code"] for d in result["diagnostics"])
    return (result["ok"], result["functions"], result["nodes"],
            result.get("verified", 0), codes)


def drive(
    inputs: Inputs,
    address: str,
    seconds: float,
    between: Optional[Callable[[], None]] = None,
) -> harness.Timed:
    """Closed loop: CLIENTS connections, each waiting for its reply, in
    ``harness.SLICES`` slices with ``between()`` in the gaps.  The plan is
    not cycled: a second pass would find its sources warm and measure a
    cheaper mix, so a connection that reaches the end stops and
    ``timed.exhausted`` is set."""
    requests = inputs.requests
    counter = itertools.count()
    timed = harness.Timed()

    def worker(out: List[harness.OpRecord], part: int, deadline: float) -> None:
        with Client(address, timeout=60.0) as client:
            while True:
                t0 = time.perf_counter()
                if t0 >= deadline:
                    return
                index = next(counter)
                if index >= len(requests):
                    timed.exhausted = True
                    return
                req = requests[index]
                output, error = None, None
                try:
                    output = answer(req.method, client.call(req.method, params(inputs, req)))
                except RemoteError as exc:
                    error = f"refused: {exc.code}: {exc}"
                except ClientError as exc:
                    error = f"transport: {exc}"
                t1 = time.perf_counter()
                out.append(harness.OpRecord(index, (t1 - t0) * 1000.0, part, output, error))
                if error is not None and error.startswith("transport"):
                    return

    for part in range(harness.SLICES):
        if part and between is not None:
            between()
        start = time.perf_counter()
        deadline = start + seconds / harness.SLICES
        per_thread: List[List[harness.OpRecord]] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=worker, args=(out, part, deadline))
            for out in per_thread
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 120.0)
            if t.is_alive():
                raise RuntimeError("serve client thread did not finish")
        timed.records += [r for out in per_thread for r in out]
        timed.slice_s.append(time.perf_counter() - start)
    timed.records.sort(key=lambda r: r.index)
    return timed


def expected(inputs: Inputs):
    """A checker: known answers for check/verify, tree-interpreter values
    for run requests (computed here, after the timed phase)."""
    refs: Dict[Tuple, Tuple] = {}
    nodes: Dict[int, int] = {}

    def check(i: int, out: Tuple) -> Optional[str]:
        req = inputs.requests[i]
        prog = inputs.sources[req.source_id]
        if req.method == "run":
            key = (req.source_id, req.function, req.args)
            if key not in refs:
                ref = api.run(prog.source, req.function, list(req.args), engine="tree")
                refs[key] = (ref.ok, ref.value)
            if out != refs[key]:
                return f"{prog.label} run {req.function}{req.args}: got {out}, tree gave {refs[key]}"
            return None
        ok, functions, count, verified, codes = out
        if prog.expect is not None:
            if ok or not codes or not layers.is_error(codes[0], prog.expect):
                return f"{prog.label} {req.method}: got {out}, expected {prog.expect.__name__}"
            return None
        if not ok or functions != prog.functions or (req.method == "verify" and verified <= 0):
            return f"{prog.label} {req.method}: got {out}"
        if nodes.setdefault(req.source_id, count) != count:
            return f"{prog.label} {req.method}: {count} derivation nodes, earlier {nodes[req.source_id]}"
        return None

    return check


def stats_rows(stats: Dict[str, Any]) -> Dict[str, float]:
    service = stats["service"]
    lookups = service["memo_hits"] + service["memo_misses"]
    refused = sum(
        value for name, value in stats["requests"].items()
        if name.rsplit(".", 1)[-1] in REFUSALS
    )
    return {
        "server.memo.hit_ratio": service["memo_hits"] / lookups if lookups else 0.0,
        "server.refused": float(refused),
    }


def dispatch_replay(inputs: Inputs, timed: harness.Timed) -> List[float]:
    """The same request sequence through an in-process Service, untraced."""
    service = Service()
    out = []
    try:
        for record in timed.records:
            req = inputs.requests[record.index]
            t0 = time.perf_counter()
            service.dispatch(req.method, params(inputs, req))
            out.append((time.perf_counter() - t0) * 1000.0)
    finally:
        service.close()
    return out


def traced_replay(inputs: Inputs, timed: harness.Timed, untraced_s: float):
    """The request sequence through a fresh in-process Service, with spans
    around the public functions it reaches (installed only for the replay)."""
    rec = SpanRecorder()
    reg = tel.Registry(enabled=True)
    current = {"method": None}

    def count_nodes(fd):
        rec.count("nodes_checked", fd.body.node_count())

    def run_check(original):
        # Only the re-check a run request makes is the run path's own row;
        # check requests reach the same method through api.check.
        def traced(self):
            if current["method"] != "run":
                return original(self)
            with rec.span("server.run.check"):
                return original(self)

        return traced

    parse = timed_call(rec, "lang.parse")
    targets = [
        (repro.pipeline.session, "parse_program", parse),
        (repro.lang, "parse_program", parse),
        (Checker, "__init__", timed_call(rec, "core.elaborate")),
        (Checker, "check_program", run_check),
        (Checker, "check_function", timed_call(rec, "core.check", count_nodes)),
        (Verifier, "verify_function", timed_call(
            rec, "verifier.verify", lambda n: rec.count("nodes_verified", n))),
        (repro.runtime.machine, "run_function", timed_call(rec, "ir.execute")),
    ]
    service = Service()
    outputs = []
    try:
        with tel.use(reg), wrapped(rec, targets):
            for n, record in enumerate(timed.records):
                req = inputs.requests[record.index]
                current["method"] = req.method
                parsed = len(rec.spans)
                with rec.op(n):
                    with rec.span("server.service"):
                        result = service.dispatch(req.method, params(inputs, req))
                outputs.append(answer(req.method, result))
                # Lex only what the service actually parsed (memo and
                # session hits parse nothing).
                if any(s[0] == "lang.parse" for s in rec.spans[parsed:]):
                    layers.lex(rec, inputs.sources[req.source_id].source)
    finally:
        service.close()
    return rec, layers.reduce(rec, reg, untraced_s), outputs


def _spawn_once() -> float:
    server = Server()
    server.stop()
    return server.ready_s


def serve_mix(inputs: Inputs, seconds: float, trace: bool) -> harness.Result:
    server = Server()
    try:
        sides = None
        if not trace:
            sides = harness.Sides(_spawn_once, layers.compile_once(inputs.compile_set))
            sides(server.ready_s)
        timed = drive(inputs, server.address, seconds / 2 if trace else seconds, sides)
        with Client(server.address, timeout=30.0) as client:
            stats = client.stats()
        rss = harness.vm_hwm_mb(str(server.proc.pid))
    finally:
        server.stop()

    def replay():
        dispatch = dispatch_replay(inputs, timed)
        rec, rows, outputs = traced_replay(inputs, timed, sum(dispatch) / 1000.0)
        rows.update(stats_rows(stats))
        rows["server.dispatch_ms"] = statistics.median(dispatch)
        rows["server.transport_ms"] = statistics.median(timed.times_ms) - rows["server.dispatch_ms"]
        return rec, rows, outputs

    result = layers.conclude(
        inputs, timed, expected(inputs), sides, rss, replay,
        {"server_stats": stats, "mix": mix_shares(inputs, timed, stats),
         "plan_requests": len(inputs.requests)},
    )
    if timed.exhausted:
        result.failures.append(f"serve plan exhausted after {len(inputs.requests)} requests")
    return result


def mix_shares(inputs: Inputs, timed: harness.Timed, stats: Dict[str, Any]) -> Dict[str, float]:
    """The measured share of the timed phase's ops of each request kind,
    and of those the server answered from its result memo."""
    n = max(len(timed.records), 1)
    kinds = Counter(inputs.requests[r.index].kind for r in timed.records)
    shares = {kind: count / n for kind, count in sorted(kinds.items())}
    shares["memo_hit"] = stats["service"]["memo_hits"] / n
    return shares
