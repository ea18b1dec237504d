"""The asyncio JSON-lines daemon behind ``repro serve``.

One :class:`Server` listens on TCP and/or a Unix domain socket, reads
``repro-rpc/1`` frames line by line, and dispatches them to a
:class:`~.service.Service` on a thread pool.  Robustness properties (all
tested in ``tests/test_server.py``):

* **bounded in-flight queue** — at most ``max_queue`` requests execute at
  once; excess requests get an explicit ``overloaded`` error immediately
  instead of queueing unboundedly (clients retry with backoff);
* **per-request timeouts** — a request that exceeds ``timeout_s`` gets a
  ``timeout`` error; the worker keeps running to completion (``run``
  requests are additionally bounded by the service's step budget) but its
  slot is only released when it actually finishes, so the queue bound is
  honest;
* **request-size limits + malformed-frame recovery** — an oversize or
  non-JSON line produces one error response and the connection keeps
  working; bytes of an oversize frame are discarded, never buffered;
* **graceful drain** — SIGTERM/SIGINT (or a ``shutdown`` request) stops
  accepting work, answers everything in flight, then exits 0.

All ``server.*`` telemetry lands in the service's registry (the enabled
process-global one under ``repro serve``, a private always-enabled one
in embedded ``ServerThread`` uses) — the registry is thread-safe, so the
event loop and the worker threads record into the same place and the
``stats``/``metrics`` RPCs read real metrics, not a shadow dict.
Request latency is recorded for **every** dispatch-path outcome —
``ok``, ``timeout``, ``overloaded``, ``shutting-down``, ``internal`` —
so tail latency under overload is honest, not survivor-biased.

When tracing is enabled (``repro serve --trace-buffer``), each request
frame's optional ``trace`` context becomes the parent of a
``server.<method>`` span opened on the worker thread, under which the
service/session/checker/verifier spans nest via the registry→tracer
bridge; the ``trace`` RPC exports the ring buffer for client-side
stitching (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .. import telemetry as tel
from .protocol import (
    DEFAULT_MAX_QUEUE,
    DEFAULT_TIMEOUT_S,
    E_INTERNAL,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    E_TIMEOUT,
    E_TOO_LARGE,
    MAX_FRAME_BYTES,
    RpcError,
    encode_error,
    encode_response,
    parse_request,
    recovered_id,
)
from .service import Service


@dataclass
class ServerConfig:
    """Listening and robustness knobs for one :class:`Server`."""

    host: Optional[str] = "127.0.0.1"  # None disables TCP
    port: int = 0  # 0 = ephemeral
    unix_path: Optional[str] = None
    max_queue: int = DEFAULT_MAX_QUEUE
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_frame: int = MAX_FRAME_BYTES
    workers: int = 8
    drain_grace_s: float = 10.0
    http_host: Optional[str] = None  # None disables the HTTP gateway
    http_port: int = 0  # 0 = ephemeral


class Server:
    """One long-running check/verify/run service."""

    def __init__(
        self,
        service: Optional[Service] = None,
        config: Optional[ServerConfig] = None,
    ):
        self.service = service if service is not None else Service()
        self.config = config if config is not None else ServerConfig()
        if self.config.host is None and self.config.unix_path is None:
            raise ValueError("server needs a TCP host or a unix socket path")
        self.tcp_address: Optional[Tuple[str, int]] = None
        self.unix_path: Optional[str] = None
        self.http_address: Optional[Tuple[str, int]] = None
        # Shared with the Service: the process-global registry under
        # `repro serve`, a private always-enabled one otherwise.  The
        # registry is thread-safe, so no shadow dict is needed for stats.
        self.registry = self.service.registry
        self._started_at = time.monotonic()
        self._inflight = 0
        self._draining = False
        self._drain_event: Optional[asyncio.Event] = None
        self._pending: set = set()
        self._servers: list = []
        self._conns: set = set()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-rpc"
        )
        if self.config.host is not None:
            server = await asyncio.start_server(
                self._client_loop, self.config.host, self.config.port
            )
            self.tcp_address = server.sockets[0].getsockname()[:2]
            self._servers.append(server)
        if self.config.unix_path is not None:
            path = self.config.unix_path
            if os.path.exists(path):
                os.unlink(path)  # stale socket from a previous run
            server = await asyncio.start_unix_server(self._client_loop, path)
            self.unix_path = path
            self._servers.append(server)
        if self.config.http_host is not None:
            from .gateway import GatewayConfig, HttpGateway

            gateway = HttpGateway(
                self,
                GatewayConfig(
                    host=self.config.http_host, port=self.config.http_port
                ),
            )
            self._servers.append(await gateway.start())
            self.http_address = gateway.address

    def request_drain(self) -> None:
        """Begin a graceful shutdown; safe to call from signal handlers
        and (via ``call_soon_threadsafe``) from other threads."""
        if self._drain_event is not None:
            self._drain_event.set()

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Start (if needed), serve until drain is requested, drain, exit."""
        if self._loop is None:
            await self.start()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.request_drain)
        await self._drain_event.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        self._draining = True
        self._count("server.drain.inflight", self._inflight)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if self._pending:
            # Answer everything already admitted; the grace period only
            # matters for a worker stuck past its own timeout.
            await asyncio.wait(
                list(self._pending), timeout=self.config.drain_grace_s
            )
        # Give connection tasks one tick to flush final responses.
        await asyncio.sleep(0)
        for writer in list(self._conns):
            writer.close()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self.service.close()
        if self.unix_path and os.path.exists(self.unix_path):
            os.unlink(self.unix_path)

    # ------------------------------------------------------------------
    # Connections and framing
    # ------------------------------------------------------------------

    async def _client_loop(self, reader, writer) -> None:
        self._conns.add(writer)
        self._count("server.connections.opened")
        buf = bytearray()
        dropping = False
        try:
            while True:
                newline = buf.find(b"\n")
                if newline < 0:
                    if not dropping and len(buf) > self.config.max_frame:
                        # Oversize frame: stop buffering, remember to
                        # answer once its newline finally shows up.
                        dropping = True
                        buf.clear()
                    if dropping:
                        buf.clear()
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    buf += chunk
                    continue
                line = bytes(buf[:newline])
                del buf[: newline + 1]
                if dropping:
                    dropping = False
                    self._count("server.frames.oversize")
                    response = encode_error(
                        None,
                        E_TOO_LARGE,
                        f"frame exceeds {self.config.max_frame} bytes",
                    )
                elif len(line) > self.config.max_frame:
                    self._count("server.frames.oversize")
                    response = encode_error(
                        None,
                        E_TOO_LARGE,
                        f"frame exceeds {self.config.max_frame} bytes",
                    )
                elif not line.strip():
                    continue  # blank keep-alive line
                else:
                    response = await self._handle_frame(line)
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._conns.discard(writer)
            self._count("server.connections.closed")
            try:
                writer.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # One request
    # ------------------------------------------------------------------

    async def _handle_frame(self, line: bytes) -> bytes:
        try:
            request_id, method, params, trace = parse_request(line)
        except RpcError as exc:
            self._count(f"server.requests.unknown.{exc.code}")
            return encode_error(recovered_id(exc), exc.code, exc.message)

        # Control-plane methods answer inline on the loop thread: ping
        # stays responsive under load (it is the readiness probe), stats/
        # metrics/trace read resident state, shutdown must not need a
        # queue slot.
        if method == "ping":
            self._count("server.requests.ping.ok")
            return encode_response(request_id, self.service.ping())
        if method == "stats":
            self._count("server.requests.stats.ok")
            return encode_response(request_id, await self.stats_doc())
        if method == "metrics":
            self._count("server.requests.metrics.ok")
            return encode_response(request_id, await self.metrics_doc())
        if method == "trace":
            self._count("server.requests.trace.ok")
            tr = tel.tracer()
            return encode_response(
                request_id,
                {
                    "schema": tel.TRACE_SCHEMA,
                    "enabled": tr.enabled,
                    "events": tr.events(),
                    "dropped": tr.dropped,
                },
            )
        if method == "shutdown":
            self._count("server.requests.shutdown.ok")
            response = encode_response(request_id, {"draining": True})
            self.request_drain()
            return response

        code, payload = await self.handle_request(method, params, trace)
        if code is None:
            return encode_response(request_id, payload)
        return encode_error(request_id, code, payload)

    async def handle_request(
        self,
        method: str,
        params: Dict[str, Any],
        trace: Optional[Dict[str, Any]],
    ) -> Tuple[Optional[str], Any]:
        """Admission control + dispatch for one data-plane request —
        shared by the ``repro-rpc/1`` framing and the HTTP gateway, so
        both fronts get identical overload/timeout/drain semantics.

        Returns ``(None, result)`` on success or ``(code, message)``
        for a protocol-level failure.  Latency is clocked from
        admission, so refused requests record too — ``server.latency_ms``
        must not be survivor-biased.
        """
        t0 = time.perf_counter()
        if self._draining:
            return self._refuse(
                method, E_SHUTTING_DOWN, "server is draining", t0
            )
        if self._inflight >= self.config.max_queue:
            return self._refuse(
                method,
                E_OVERLOADED,
                f"{self._inflight} requests in flight (limit "
                f"{self.config.max_queue}); retry with backoff",
                t0,
            )

        self._inflight += 1
        self._gauge("server.queue_depth", self._inflight)
        self._observe("server.queue_depth.sampled", self._inflight)
        future = self._submit(method, params, trace)
        self._pending.add(future)
        future.add_done_callback(self._request_done)

        try:
            result = await asyncio.wait_for(
                asyncio.shield(future), self.config.timeout_s
            )
        except asyncio.TimeoutError:
            return self._refuse(
                method,
                E_TIMEOUT,
                f"request exceeded {self.config.timeout_s}s",
                t0,
            )
        except RpcError as exc:
            return self._refuse(method, exc.code, exc.message, t0)
        except Exception as exc:  # worker crash: report, keep serving
            return self._refuse(
                method,
                E_INTERNAL,
                f"{type(exc).__name__}: {exc}",
                t0,
            )
        self._count(f"server.requests.{method}.ok")
        self._latency(method, t0)
        return None, result

    def _submit(
        self,
        method: str,
        params: Dict[str, Any],
        trace: Optional[Dict[str, Any]],
    ):
        """Hand one admitted request to the execution backend and return
        an awaitable future.  The base server runs the resident Service
        on a thread pool; :class:`~.fleet.FleetServer` overrides this to
        fan out to a pre-forked worker process instead."""
        return self._loop.run_in_executor(
            self._pool, self._dispatch_traced, method, params, trace
        )

    def _refuse(
        self, method: str, code: str, message: str, t0: float
    ) -> Tuple[str, str]:
        """Count + clock a failed/refused request.  Refusals record
        latency like successes do."""
        self._count(f"server.requests.{method}.{code}")
        self._latency(method, t0)
        return code, message

    def _latency(self, method: str, t0: float) -> None:
        latency_ms = (time.perf_counter() - t0) * 1000.0
        self._observe("server.latency_ms", latency_ms)
        self._observe(f"server.latency_ms.{method}", latency_ms)

    def _dispatch_traced(
        self,
        method: str,
        params: Dict[str, Any],
        trace: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Runs on a worker thread.  Opens the per-request
        ``server.<method>`` span — a child of the client's span when the
        frame carried trace context, a new root otherwise — so the
        service/session/checker spans beneath it stitch into one tree
        across the RPC boundary.  ``run_in_executor`` does not propagate
        contextvars, hence the explicit parent hand-off."""
        tr = tel.tracer()
        if not tr.enabled:
            return self.service.dispatch(method, params)
        parent = tel.TraceContext.from_wire(trace)
        with tr.span(f"server.{method}", cat="server", parent=parent):
            return self.service.dispatch(method, params)

    def _request_done(self, future) -> None:
        self._pending.discard(future)
        self._inflight -= 1
        self._gauge("server.queue_depth", self._inflight)
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None and not isinstance(exc, RpcError):
            self._count("server.worker.crashes")

    # ------------------------------------------------------------------
    # Bookkeeping (the registry is thread-safe; loop + workers share it)
    # ------------------------------------------------------------------

    async def stats_doc(self) -> Dict[str, Any]:
        """The ``stats`` RPC payload.  Async so the fleet server can
        gather per-worker state without blocking the loop."""
        return self._stats()

    async def metrics_doc(self) -> Dict[str, Any]:
        """The ``metrics`` RPC payload — the acceptor's registry alone
        here; the fleet server overrides this to merge worker exports."""
        return tel.registry_to_doc(self.registry)

    def _stats(self) -> Dict[str, Any]:
        requests = {
            name: counter.value
            for name, counter in sorted(self.registry.counters.items())
            if name.startswith("server.")
        }
        return {
            "uptime_ms": round((time.monotonic() - self._started_at) * 1000.0, 3),
            "inflight": self._inflight,
            "draining": self._draining,
            "requests": requests,
            "service": self.service.stats(),
        }

    def _count(self, name: str, n: int = 1) -> None:
        self.registry.inc(name, n)

    def _gauge(self, name: str, value: int) -> None:
        self.registry.set_gauge(name, value)

    def _observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)


class ServerThread:
    """A :class:`Server` on a background thread, so tests can drive a
    live daemon in-process.

    ::

        with ServerThread() as handle:
            client = Client(handle.address)
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        service: Optional[Service] = None,
    ):
        self.config = config if config is not None else ServerConfig()
        self.service = service
        self.server: Optional[Server] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread did not become ready")
        if self._error is not None:
            raise RuntimeError(f"server thread failed: {self._error}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures to start()
            self._error = exc
            self._ready.set()

    def _make_server(self) -> Server:
        """Subclass hook — ``FleetThread`` builds a ``FleetServer``."""
        return Server(service=self.service, config=self.config)

    async def _main(self) -> None:
        self.server = self._make_server()
        await self.server.start()
        self._ready.set()
        # No signal handlers: the thread is stopped via request_drain.
        await self.server._drain_event.wait()
        await self.server._shutdown()

    @property
    def address(self):
        """``(host, port)`` for TCP, or the unix socket path string."""
        if self.server is None:
            raise RuntimeError("server not started")
        if self.server.tcp_address is not None:
            return self.server.tcp_address
        return self.server.unix_path

    def stop(self, timeout: float = 30.0) -> None:
        if self.server is not None and self.server._loop is not None:
            try:
                self.server._loop.call_soon_threadsafe(self.server.request_drain)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
