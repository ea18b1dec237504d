"""Pre-forked worker fleet behind ``repro serve --workers N``.

The single-process daemon executes requests on a thread pool, which the
GIL caps at roughly one core of checking throughput.  The fleet keeps
the same acceptor — one asyncio loop owning the sockets, the framing,
admission control, timeouts, and drain — but hands each admitted request
to one of N **pre-forked worker processes**, each holding its own warm
:class:`~repro.pipeline.session.ProgramSession` LRU and result memo, all
sharing one content-addressed certificate store (safe because verified
certificates are immutable and keyed by content — see
:mod:`repro.pipeline.cache`).

Worker entry points are importable by name, everything crossing the
process boundary is a plain picklable dict, and telemetry comes home as
exported documents.  Each worker speaks over a private duplex pipe,
which is what lets the acceptor target individual workers — least-loaded
dispatch, per-worker metrics collection, and an explicit drain sentinel
per worker.

Robustness:

* a worker that dies mid-request fails only its in-flight requests
  (``internal`` errors, counted in ``server.worker.crashes``) and is
  respawned (``fleet.worker.restarts``); the fleet keeps serving;
* admission control lives in the acceptor, so ``max_queue`` bounds the
  whole fleet and overload answers are immediate, never queued behind a
  busy worker;
* graceful drain answers everything admitted, then sends each worker a
  drain sentinel and joins it.

Request tracing does not cross the fleet boundary (the ``trace`` RPC
exports acceptor-side events only); use the single-process daemon for
cross-process span stitching.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry as tel
from .daemon import Server, ServerConfig, ServerThread
from .protocol import DEFAULT_MAX_STEPS, RpcError

#: How long ``FleetPool`` waits for a spawned worker's ready handshake.
WORKER_START_TIMEOUT_S = 60.0


@dataclass
class FleetConfig:
    """Worker-process knobs (the per-process :class:`~.service.Service`
    mirrors the single-process daemon's defaults)."""

    workers: int = 2
    cache_dir: Optional[str] = None
    trust_cache: bool = False
    cache_entries: Optional[int] = None
    cache_bytes: Optional[int] = None
    max_steps: int = DEFAULT_MAX_STEPS
    max_sessions: int = 32
    max_memo: int = 512
    #: ``spawn`` is the safe default (the acceptor runs threads and an
    #: event loop; forking those is asking for inherited-lock deadlocks).
    start_method: str = "spawn"

    def to_wire(self) -> Dict[str, Any]:
        return {
            "cache_dir": self.cache_dir,
            "trust_cache": self.trust_cache,
            "cache_entries": self.cache_entries,
            "cache_bytes": self.cache_bytes,
            "max_steps": self.max_steps,
            "max_sessions": self.max_sessions,
            "max_memo": self.max_memo,
        }


def fleet_worker_main(conn, ctl, config: Dict[str, Any]) -> None:
    """One worker process: a warm :class:`~.service.Service` answering
    requests from its data pipe until the drain sentinel (``None``) or
    EOF.

    Introspection rides a **separate control pipe** served by its own
    thread, so ``stats``/``metrics`` answer in milliseconds even while
    the data plane is deep in a long check — the daemon's
    control-plane-stays-responsive contract must survive the process
    boundary (``repro top`` polls it under load).

    Telemetry is enabled process-globally so checker/verifier/cache
    counters record; the acceptor pulls them over the control pipe and
    merges the exported documents for the ``metrics`` RPC.
    """
    from .service import Service

    sys.setrecursionlimit(100_000)  # match the CLI's recursion headroom
    tel.enable()
    service = Service(
        cache_dir=config["cache_dir"],
        trust_cache=config["trust_cache"],
        max_sessions=config["max_sessions"],
        max_memo=config["max_memo"],
        max_steps=config["max_steps"],
        cache_entries=config["cache_entries"],
        cache_bytes=config["cache_bytes"],
    )
    threading.Thread(
        target=_control_loop, args=(ctl, service), daemon=True
    ).start()
    conn.send({"ready": True, "pid": os.getpid()})
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:  # drain sentinel
                break
            reply = _serve_one(service, msg)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        service.close()
        conn.close()


def _control_loop(ctl, service) -> None:
    """Worker-side control plane: introspection requests, answered
    concurrently with data-plane work (the registry and the service's
    stats are thread-safe)."""
    while True:
        try:
            msg = ctl.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        reply = {
            "id": msg["id"],
            "ok": True,
            "result": {
                "doc": tel.registry_to_doc(tel.registry()),
                "stats": service.stats(),
                "pid": os.getpid(),
            },
        }
        try:
            ctl.send(reply)
        except (BrokenPipeError, OSError):
            return


def _serve_one(service, msg: Dict[str, Any]) -> Dict[str, Any]:
    try:
        result = service.dispatch(msg["method"], msg["params"])
        return {"id": msg["id"], "ok": True, "result": result}
    except RpcError as exc:
        return {
            "id": msg["id"],
            "ok": False,
            "code": exc.code,
            "message": exc.message,
            "crash": False,
        }
    except Exception as exc:  # noqa: BLE001 — report, never kill the worker
        return {
            "id": msg["id"],
            "ok": False,
            "code": "internal",
            "message": f"{type(exc).__name__}: {exc}",
            "crash": True,
        }


class WorkerDied(Exception):
    """The worker process handling a request exited before answering."""


class _Worker:
    """One pre-forked process plus its parent-side plumbing."""

    def __init__(self, index: int, ctx, config: FleetConfig):
        self.index = index
        self.conn, child_data = ctx.Pipe(duplex=True)  # data plane
        self.ctl, child_ctl = ctx.Pipe(duplex=True)  # control plane
        self.proc = ctx.Process(
            target=fleet_worker_main,
            args=(child_data, child_ctl, config.to_wire()),
            name=f"repro-fleet-{index}",
            daemon=True,
        )
        self.proc.start()
        child_data.close()
        child_ctl.close()
        self.send_lock = threading.Lock()
        self.ctl_lock = threading.Lock()
        self.inflight = 0
        self.alive = False  # becomes True after the ready handshake
        self.pid: Optional[int] = None

    def await_ready(self, timeout: float = WORKER_START_TIMEOUT_S) -> None:
        if not self.conn.poll(timeout):
            self.proc.terminate()
            raise RuntimeError(
                f"fleet worker {self.index} did not become ready in {timeout}s"
            )
        hello = self.conn.recv()
        if not (isinstance(hello, dict) and hello.get("ready")):
            raise RuntimeError(f"fleet worker {self.index} bad handshake: {hello!r}")
        self.pid = hello["pid"]
        self.alive = True


class FleetPool:
    """N pre-forked workers with least-loaded dispatch, targeted
    introspection, death-respawn, and a drain protocol.

    Thread model: :meth:`submit` runs on the event loop; pipe sends run
    on a small executor (a pipe write can block on backpressure and must
    not stall the loop); one reader thread per worker resolves futures
    back onto the loop via ``call_soon_threadsafe``.
    """

    def __init__(self, config: FleetConfig):
        if config.workers < 1:
            raise ValueError("fleet needs at least one worker")
        self.config = config
        self._ctx = multiprocessing.get_context(config.start_method)
        self._ids = itertools.count(1)
        # msg id -> (future, worker, is_data); control traffic must not
        # count toward least-loaded dispatch.
        self._futures: Dict[int, Tuple[asyncio.Future, _Worker, bool]] = {}
        self._lock = threading.Lock()
        self._closing = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._registry: tel.Registry = tel.registry()
        self.restarts = 0
        # Spawn everyone first, then wait for handshakes: startup cost is
        # max(worker), not sum(worker).
        self.workers: List[_Worker] = [
            _Worker(i, self._ctx, config) for i in range(config.workers)
        ]
        for worker in self.workers:
            worker.await_ready()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind(self, loop: asyncio.AbstractEventLoop, registry: tel.Registry) -> None:
        """Attach to the acceptor's loop and registry; start readers."""
        self._loop = loop
        self._registry = registry
        registry.set_gauge("fleet.workers", len(self.workers))
        for worker in self.workers:
            self._start_reader(worker)

    def _start_reader(self, worker: _Worker) -> None:
        threading.Thread(
            target=self._read_loop,
            args=(worker, worker.conn, True),
            name=f"repro-fleet-reader-{worker.index}",
            daemon=True,
        ).start()
        threading.Thread(
            target=self._read_loop,
            args=(worker, worker.ctl, False),
            name=f"repro-fleet-ctl-{worker.index}",
            daemon=True,
        ).start()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def submit(
        self, method: str, params: Dict[str, Any]
    ) -> "asyncio.Future":
        """Queue one request on the least-loaded live worker.  Loop
        thread only.  The future resolves with the result payload or an
        exception (:class:`RpcError`, :class:`WorkerDied`)."""
        future = self._loop.create_future()
        worker = self._pick()
        if worker is None:
            future.set_exception(
                WorkerDied("no fleet workers alive (restarting)")
            )
            return future
        msg_id = next(self._ids)
        with self._lock:
            self._futures[msg_id] = (future, worker, True)
            worker.inflight += 1
        self._registry.inc("fleet.dispatched")
        self._send_async(worker, {"id": msg_id, "method": method, "params": params})
        return future

    def _pick(self) -> Optional[_Worker]:
        with self._lock:
            live = [w for w in self.workers if w.alive]
            if not live:
                return None
            return min(live, key=lambda w: w.inflight)

    def _send_async(
        self, worker: _Worker, msg: Dict[str, Any], control: bool = False
    ) -> None:
        conn = worker.ctl if control else worker.conn
        lock = worker.ctl_lock if control else worker.send_lock

        def _send() -> None:
            try:
                with lock:
                    conn.send(msg)
            except (OSError, ValueError):
                # The reader thread notices the death and fails the
                # future; nothing more to do here.
                pass

        self._loop.run_in_executor(None, _send)

    # ------------------------------------------------------------------
    # Introspection (metrics/stats fan-out — targeted, one per worker)
    # ------------------------------------------------------------------

    async def collect(self, timeout: float = 5.0) -> List[Dict[str, Any]]:
        """One introspection round trip per live worker — over the
        control pipes, answered by each worker's control thread, so the
        fan-out completes in milliseconds even when every data plane is
        busy.  Dead or wedged workers are skipped after ``timeout``."""
        futures = []
        for worker in list(self.workers):
            if not worker.alive:
                continue
            future = self._loop.create_future()
            msg_id = next(self._ids)
            with self._lock:
                self._futures[msg_id] = (future, worker, False)
            self._send_async(worker, {"id": msg_id}, control=True)
            futures.append(future)
        if not futures:
            return []
        done, pending = await asyncio.wait(futures, timeout=timeout)
        for future in pending:
            future.cancel()
        results = []
        for future in done:
            if future.cancelled() or future.exception() is not None:
                continue
            results.append(future.result())
        return results

    # ------------------------------------------------------------------
    # Reader threads, death, respawn
    # ------------------------------------------------------------------

    def _read_loop(self, worker: _Worker, conn, is_data: bool) -> None:
        while True:
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                break
            future = self._take(reply.get("id"))
            if future is None:
                continue
            if reply.get("ok"):
                self._resolve(future, reply.get("result"), None)
            elif reply.get("crash"):
                self._resolve(
                    future, None, RuntimeError(reply.get("message", "worker crash"))
                )
            else:
                self._resolve(
                    future,
                    None,
                    RpcError(reply.get("code", "internal"), reply.get("message", "?")),
                )
        if is_data:
            # Only the data pipe's EOF drives death handling; the
            # control pipe closes in tandem and its pending futures are
            # failed by the same _on_death.
            self._on_death(worker)

    def _take(self, msg_id) -> Optional[asyncio.Future]:
        with self._lock:
            entry = self._futures.pop(msg_id, None)
            if entry is None:
                return None
            future, worker, is_data = entry
            if is_data:
                worker.inflight -= 1
            return future

    def _resolve(self, future: asyncio.Future, result, exc) -> None:
        def _set() -> None:
            if future.cancelled():
                return
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)

        try:
            self._loop.call_soon_threadsafe(_set)
        except RuntimeError:
            pass  # loop already closed during shutdown

    def _on_death(self, worker: _Worker) -> None:
        worker.alive = False
        orphaned: List[asyncio.Future] = []
        with self._lock:
            for msg_id in [
                mid for mid, (_, w, _d) in self._futures.items() if w is worker
            ]:
                future, _, is_data = self._futures.pop(msg_id)
                if is_data:
                    worker.inflight -= 1
                orphaned.append(future)
        for future in orphaned:
            self._resolve(
                future,
                None,
                WorkerDied(
                    f"fleet worker {worker.index} (pid {worker.pid}) died mid-request"
                ),
            )
        if self._closing:
            return
        try:
            replacement = _Worker(worker.index, self._ctx, self.config)
            replacement.await_ready()
        except Exception:
            self._registry.inc("fleet.worker.respawn_failures")
            return
        with self._lock:
            self.workers[self.workers.index(worker)] = replacement
        self.restarts += 1
        self._registry.inc("fleet.worker.restarts")
        self._start_reader(replacement)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Send every worker the drain sentinel and join it.  Blocking —
        run off-loop (the fleet server calls it via an executor)."""
        self._closing = True
        for worker in self.workers:
            if not worker.alive:
                continue
            try:
                with worker.send_lock:
                    worker.conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            worker.proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=5.0)
            for conn in (worker.conn, worker.ctl):
                try:
                    conn.close()
                except OSError:
                    pass

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "workers": len(self.workers),
                "alive": sum(1 for w in self.workers if w.alive),
                "restarts": self.restarts,
                "pids": [w.pid for w in self.workers],
                "inflight": [w.inflight for w in self.workers],
            }


class FleetServer(Server):
    """The acceptor: base-class sockets/framing/admission/drain, with
    execution fanned out to a :class:`FleetPool` instead of threads."""

    def __init__(
        self,
        fleet_config: Optional[FleetConfig] = None,
        config: Optional[ServerConfig] = None,
        service=None,
    ):
        super().__init__(service=service, config=config)
        self.fleet_config = fleet_config if fleet_config is not None else FleetConfig()
        self.fleet: Optional[FleetPool] = None

    async def start(self) -> None:
        # Fork the fleet before opening sockets: a worker that fails to
        # start must fail `repro serve`, not strand accepted clients.
        if self.fleet is None:
            loop = asyncio.get_running_loop()
            self.fleet = await loop.run_in_executor(
                None, FleetPool, self.fleet_config
            )
        await super().start()
        self.fleet.bind(self._loop, self.registry)

    def _submit(self, method, params, trace):
        # `trace` is intentionally dropped: spans do not cross the fleet
        # boundary (module docstring).
        return self.fleet.submit(method, params)

    async def stats_doc(self) -> Dict[str, Any]:
        collected = await self.fleet.collect()
        stats = self._stats()  # after the await: inflight must be fresh
        service = {
            "sessions": 0,
            "memo_entries": 0,
            "memo_hits": 0,
            "memo_misses": 0,
            "cache_dir": self.fleet_config.cache_dir,
            "max_steps": self.fleet_config.max_steps,
        }
        for item in collected:
            worker_stats = item.get("stats", {})
            for key in ("sessions", "memo_entries", "memo_hits", "memo_misses"):
                service[key] += int(worker_stats.get(key, 0))
        stats["service"] = service
        stats["fleet"] = self.fleet.describe()
        return stats

    async def metrics_doc(self) -> Dict[str, Any]:
        # Copy the acceptor registry (doc -> registry round trip), then
        # fold in every worker's export: counters add, gauges take the
        # max envelope, histogram buckets add — same merge the pipeline
        # uses, so `repro top` reads fleet-wide checker/cache metrics.
        merged = tel.doc_to_registry(tel.registry_to_doc(self.registry))
        for item in await self.fleet.collect():
            doc = item.get("doc")
            if doc is not None:
                tel.merge_doc(merged, doc)
        return tel.registry_to_doc(merged)

    async def _shutdown(self) -> None:
        await super()._shutdown()
        if self.fleet is not None:
            await self._loop.run_in_executor(None, self.fleet.shutdown)


class FleetThread(ServerThread):
    """A :class:`FleetServer` on a background thread — what the load
    harness and the fleet tests drive."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        fleet_config: Optional[FleetConfig] = None,
    ):
        super().__init__(config=config)
        self.fleet_config = fleet_config

    def _make_server(self) -> Server:
        return FleetServer(
            fleet_config=self.fleet_config, config=self.config
        )


__all__ = [
    "FleetConfig",
    "FleetPool",
    "FleetServer",
    "FleetThread",
    "WorkerDied",
    "fleet_worker_main",
]
