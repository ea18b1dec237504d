"""Lifecycle, robustness, and parity tests for ``repro serve``.

The acceptance property under test throughout: a server response is
byte-identical (as canonical JSON) to the in-process ``repro.api`` result
for the same source — the memo stores exactly ``to_dict()`` output, so
this is structural, but these tests prove it end to end over a socket.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import api
from repro.client import Client, ClientError, RemoteError
from repro.corpus import corpus_names, load_source
from repro.corpus.negative import NEGATIVE_CASES
from repro.server import Server, ServerConfig, ServerThread, Service
from repro.server.protocol import RPC_SCHEMA

GOOD = """
struct data { v : int; }
def add(a : int, b : int) : int { a + b }
"""


def _unix_config(**kwargs) -> ServerConfig:
    return ServerConfig(
        host=None, unix_path=tempfile.mktemp(suffix=".sock"), **kwargs
    )


def canon(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class BlockingService(Service):
    """Every non-control request parks on an event — lets tests fill the
    in-flight queue deterministically."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def dispatch(self, method, params):
        self.entered.set()
        self.release.wait(timeout=30)
        return {"ok": True, "blocked": True}


class TestTransports:
    def test_unix_round_trip(self):
        with ServerThread(_unix_config()) as handle:
            assert isinstance(handle.address, str)
            with Client(handle.address) as client:
                reply = client.ping()
                assert reply["pong"] is True and reply["rpc"] == RPC_SCHEMA

    def test_tcp_round_trip(self):
        config = ServerConfig(host="127.0.0.1", port=0)
        with ServerThread(config) as handle:
            host, port = handle.address
            assert port > 0
            with Client((host, port)) as client:
                assert client.ping()["pong"] is True

    def test_both_transports_share_one_service(self):
        config = ServerConfig(
            host="127.0.0.1",
            port=0,
            unix_path=tempfile.mktemp(suffix=".sock"),
        )
        with ServerThread(config) as handle:
            tcp = handle.server.tcp_address
            with Client(tcp) as c1:
                c1.check(GOOD, filename="p.fcl")
            with Client(handle.server.unix_path) as c2:
                stats = c2.stats()
        # The TCP client's check warmed the memo the unix client sees.
        assert stats["service"]["memo_entries"] == 1


class TestParity:
    def test_positive_corpus_byte_identical(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                for name in corpus_names():
                    source = load_source(name)
                    for method, fn in (
                        ("check", api.check),
                        ("verify", api.verify),
                    ):
                        remote = client.call(
                            method, {"source": source, "filename": name}
                        )
                        local = fn(source, filename=name).to_dict()
                        assert canon(remote) == canon(local), (name, method)

    def test_negative_corpus_byte_identical(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                for case in NEGATIVE_CASES:
                    remote = client.call(
                        "check",
                        {"source": case.source, "filename": case.name},
                    )
                    local = api.check(
                        case.source, filename=case.name
                    ).to_dict()
                    assert canon(remote) == canon(local), case.name
                    assert remote["ok"] is False

    def test_run_parity_and_budget(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                remote = client.call(
                    "run",
                    {"source": GOOD, "function": "add", "args": [20, 22]},
                )
                # Omitting `engine` selects the warm-serving default: the
                # compiled bytecode engine.  Replay locally on the same
                # engine so the step budget is meaningful.
                assert remote["engine"] == "ir"
                local = api.run(
                    GOOD,
                    "add",
                    [20, 22],
                    max_steps=remote["steps"] + 1,
                    engine="ir",
                )
                assert remote["ok"] and remote["value"] == "42"
                assert local.ok and local.value == "42"
                pinned = client.run(GOOD, "add", [20, 22], engine="tree")
                assert pinned.ok and pinned.engine == "tree"
                tight = client.run(GOOD, "add", [1, 2], max_steps=1)
                assert not tight.ok
                assert tight.diagnostics[0].code == "StepLimitExceeded"

    #: Every negative-corpus case plus a source that does not parse and
    #: one that does not lex, next to two good programs.
    CACHE_PARITY = [(name, load_source(name)) for name in ("sll", "dll")] + [
        (f"neg-{case.name}", case.source) for case in NEGATIVE_CASES
    ] + [
        ("parse-error", "def f() : int {\n  1 +\n}\n"),
        ("lex-error", "def f() : int { 1 $ 2 }\n"),
    ]

    def test_cache_backed_verify_parity(self, tmp_path):
        # A second server over the same populated cache must agree too.
        for attempt in ("cold", "warm"):
            service = Service(cache_dir=str(tmp_path / "cache"))
            with ServerThread(_unix_config(), service=service) as handle:
                with Client(handle.address) as client:
                    for name, source in self.CACHE_PARITY:
                        local = api.verify(source, filename=name).to_dict()
                        remote = client.call(
                            "verify", {"source": source, "filename": name}
                        )
                        assert canon(remote) == canon(local), (attempt, name)
                    stats = client.stats()
            assert stats["requests"].get("server.worker.crashes", 0) == 0
            assert "server.requests.verify.internal" not in stats["requests"]

    def test_cache_backed_check_and_batch(self, tmp_path):
        bad_name, bad = self.CACHE_PARITY[-1]
        service = Service(cache_dir=str(tmp_path / "cache"))
        with ServerThread(_unix_config(), service=service) as handle:
            with Client(handle.address) as client:
                for name, source in self.CACHE_PARITY:
                    local = api.check(source, filename=name).to_dict()
                    remote = client.call(
                        "check", {"source": source, "filename": name}
                    )
                    assert canon(remote) == canon(local), name
                reply = client.batch(
                    [("sll", load_source("sll")), (bad_name, bad),
                     ("good", GOOD)]
                )
                stats = client.stats()
        assert reply["ok"] is False
        by_label = {e["label"]: e["result"] for e in reply["programs"]}
        assert [label for label, r in by_label.items() if not r["ok"]] == [
            bad_name
        ]
        assert canon(by_label[bad_name]) == canon(
            api.verify(bad, filename=bad_name).to_dict()
        )
        assert stats["requests"].get("server.worker.crashes", 0) == 0

    def test_memo_hit_returns_same_payload(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                first = client.call("check", {"source": GOOD})
                second = client.call("check", {"source": GOOD})
                assert canon(first) == canon(second)
                stats = client.stats()
                assert stats["service"]["memo_hits"] >= 1


class TestConcurrency:
    N_CLIENTS = 10

    def test_concurrent_clients(self):
        """≥8 simultaneous clients, each its own connection, all served."""
        sources = [
            GOOD.replace("add", f"add{i}") for i in range(self.N_CLIENTS)
        ]
        with ServerThread(_unix_config()) as handle:
            address = handle.address

            def one(source):
                with Client(address) as client:
                    result = client.check(source, filename="p.fcl")
                    return result.ok

            with ThreadPoolExecutor(max_workers=self.N_CLIENTS) as pool:
                outcomes = list(pool.map(one, sources))
            assert outcomes == [True] * self.N_CLIENTS
            with Client(address) as client:
                stats = client.stats()
        requests = stats["requests"]
        assert requests["server.requests.check.ok"] == self.N_CLIENTS
        assert requests["server.connections.opened"] >= self.N_CLIENTS

    def test_pipelined_requests_one_connection(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                for i in range(20):
                    reply = client.call("check", {"source": GOOD})
                    assert reply["ok"] is True


class TestRobustness:
    def test_malformed_frame_recovery(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                reply = client.send_raw(b"this is not json\n")
                assert reply["ok"] is False
                assert reply["error"]["code"] == "malformed-frame"
                # Connection still works afterwards.
                assert client.ping()["pong"] is True

    def test_wrong_rpc_version_rejected_with_id(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                frame = {"rpc": "bogus/9", "id": 41, "method": "ping"}
                reply = client.send_raw(
                    (json.dumps(frame) + "\n").encode()
                )
                assert reply["ok"] is False
                assert reply["error"]["code"] == "invalid-request"
                assert reply["id"] == 41

    def test_unknown_method(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.call("frobnicate")
                assert excinfo.value.code == "unknown-method"
                assert client.ping()["pong"] is True

    def test_invalid_params(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.call("check", {"source": 42})
                assert excinfo.value.code == "invalid-request"
                with pytest.raises(RemoteError) as excinfo:
                    client.call(
                        "run",
                        {"source": GOOD, "function": "add", "args": ["x"]},
                    )
                assert excinfo.value.code == "invalid-request"

    def test_oversize_frame_recovery(self):
        config = _unix_config(max_frame=1024)
        with ServerThread(config) as handle:
            with Client(handle.address) as client:
                blob = b"x" * 4096 + b"\n"
                reply = client.send_raw(blob)
                assert reply["ok"] is False
                assert reply["error"]["code"] == "too-large"
                assert client.ping()["pong"] is True

    def test_overloaded_backpressure(self):
        service = BlockingService()
        config = _unix_config(max_queue=1)
        with ServerThread(config, service=service) as handle:
            blocked = Client(handle.address)
            try:
                blocked._sock.sendall(
                    (
                        json.dumps(
                            {
                                "rpc": RPC_SCHEMA,
                                "id": 1,
                                "method": "check",
                                "params": {"source": GOOD},
                            }
                        )
                        + "\n"
                    ).encode()
                )
                assert service.entered.wait(timeout=10)
                with Client(handle.address) as second:
                    with pytest.raises(RemoteError) as excinfo:
                        second.call("check", {"source": GOOD})
                    assert excinfo.value.code == "overloaded"
                    assert "retry" in excinfo.value.message
                    # Control plane stays responsive while overloaded.
                    assert second.ping()["pong"] is True
            finally:
                service.release.set()
                blocked.close()

    def test_timeout_cancels_reply_not_worker(self):
        service = BlockingService()
        config = _unix_config(timeout_s=0.2)
        with ServerThread(config, service=service) as handle:
            try:
                with Client(handle.address) as client:
                    with pytest.raises(RemoteError) as excinfo:
                        client.call("check", {"source": GOOD})
                    assert excinfo.value.code == "timeout"
            finally:
                service.release.set()

    def test_timed_out_slot_is_released_after_worker_finishes(self):
        service = BlockingService()
        config = _unix_config(timeout_s=0.2, max_queue=1)
        with ServerThread(config, service=service) as handle:
            with Client(handle.address) as client:
                with pytest.raises(RemoteError):
                    client.call("check", {"source": GOOD})
                # Worker is still parked: the queue slot must still be held.
                with pytest.raises(RemoteError) as excinfo:
                    client.call("check", {"source": GOOD})
                assert excinfo.value.code == "overloaded"
                service.release.set()
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if client.stats()["inflight"] == 0:
                        break
                    time.sleep(0.05)
                assert client.stats()["inflight"] == 0


class TestLifecycle:
    def test_shutdown_rpc_drains(self):
        with ServerThread(_unix_config()) as handle:
            address = handle.address
            with Client(address) as client:
                reply = client.call("shutdown")
                assert reply["draining"] is True
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and os.path.exists(address):
                time.sleep(0.05)
            assert not os.path.exists(address)

    def test_draining_rejects_new_work(self):
        service = BlockingService()
        with ServerThread(_unix_config(), service=service) as handle:
            with Client(handle.address) as client:
                client._sock.sendall(
                    (
                        json.dumps(
                            {
                                "rpc": RPC_SCHEMA,
                                "id": 1,
                                "method": "check",
                                "params": {"source": GOOD},
                            }
                        )
                        + "\n"
                    ).encode()
                )
                assert service.entered.wait(timeout=10)
                with Client(handle.address) as second:
                    second.call("shutdown")
                    with pytest.raises(RemoteError) as excinfo:
                        second.call("check", {"source": GOOD})
                    assert excinfo.value.code == "shutting-down"
                service.release.set()
                # The admitted request still gets its answer (drain).
                line = client._file.readline()
                reply = json.loads(line)
                assert reply["ok"] is True

    def test_sigterm_drains_subprocess(self):
        sock = tempfile.mktemp(suffix=".sock")
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", sock],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not os.path.exists(sock):
                time.sleep(0.1)
            assert os.path.exists(sock), "server never listened"
            with Client(sock) as client:
                assert client.ping()["pong"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            stderr = proc.stderr.read()
            assert "drained, exiting" in stderr
            assert not os.path.exists(sock)
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_stats_shape(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                client.check(GOOD)
                stats = client.stats()
        assert stats["draining"] is False
        assert stats["uptime_ms"] > 0
        assert stats["requests"]["server.requests.check.ok"] == 1
        service = stats["service"]
        assert service["sessions"] == 1
        assert service["memo_entries"] == 1

    def test_server_telemetry_counters(self):
        from repro import telemetry

        reg = telemetry.Registry(enabled=True)
        with telemetry.use(reg):
            with ServerThread(_unix_config()) as handle:
                with Client(handle.address) as client:
                    client.check(GOOD)
                    client.check(GOOD)
        counters = {name: c.value for name, c in reg.counters.items()}
        assert counters["server.requests.check.ok"] == 2
        assert counters["server.connections.opened"] == 1
        assert counters["server.memo.hits"] == 1
        assert counters["server.memo.misses"] == 1
        assert "server.latency_ms" in reg.histograms

    def test_batch_method(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                reply = client.batch(
                    [("good", GOOD), ("bad", NEGATIVE_CASES[0].source)]
                )
        assert reply["ok"] is False
        by_label = {e["label"]: e["result"] for e in reply["programs"]}
        assert by_label["good"]["ok"] is True
        assert by_label["bad"]["ok"] is False
        local = api.verify(
            NEGATIVE_CASES[0].source, filename="bad"
        ).to_dict()
        assert canon(by_label["bad"]) == canon(local)


class TestObservabilityRpcs:
    def _metrics_schema(self):
        path = (
            Path(__file__).parent.parent / "benchmarks" / "metrics.schema.json"
        )
        return json.loads(path.read_text())

    def test_metrics_rpc_returns_schema_valid_doc(self):
        from repro import telemetry

        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                client.check(GOOD)
                doc = client.metrics()
        assert doc["schema"] == "repro-telemetry/2"
        assert doc["counters"]["server.requests.check.ok"] == 1
        assert "server.latency_ms.check" in doc["histograms"]
        assert doc["gauges"]["server.queue_depth"] == 0
        telemetry.validate(doc, self._metrics_schema())
        # The doc rebuilds into a registry with usable quantiles.
        reg = telemetry.doc_to_registry(doc)
        assert reg.histogram("server.latency_ms.check").quantile(0.5) is not None

    def test_trace_rpc_round_trips_client_minted_trace_id(self):
        from repro import telemetry

        with telemetry.use_tracer(telemetry.Tracer()) as tr:
            with ServerThread(_unix_config()) as handle:
                with Client(handle.address) as client:
                    client.check(GOOD)
                    trace = client.trace_doc()
        assert trace["schema"] == "repro-trace/1"
        assert trace["enabled"] is True
        by_name = {}
        for event in trace["events"]:
            by_name.setdefault(event["name"], event)
        # The client minted the trace on its rpc.check span; the server's
        # worker-thread span must be its child in the same trace.
        rpc = by_name["rpc.check"]
        server = by_name["server.check"]
        assert server["args"]["trace_id"] == rpc["args"]["trace_id"]
        assert server["args"]["parent_id"] == rpc["args"]["span_id"]
        assert tr.dropped == 0

    def test_trace_rpc_reports_disabled_when_tracing_off(self):
        with ServerThread(_unix_config()) as handle:
            with Client(handle.address) as client:
                trace = client.trace_doc()
        assert trace["enabled"] is False
        assert trace["events"] == []

    def test_refused_requests_record_latency(self):
        from repro import telemetry

        config = _unix_config(max_queue=1)
        reg = telemetry.Registry(enabled=True)
        with telemetry.use(reg):
            # Constructed inside use(): the service adopts ``reg``.
            service = BlockingService()
            with ServerThread(config, service=service) as handle:
                blocked = Client(handle.address)
                try:
                    blocked._sock.sendall(
                        (
                            json.dumps(
                                {
                                    "rpc": RPC_SCHEMA,
                                    "id": 1,
                                    "method": "check",
                                    "params": {"source": GOOD},
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                    assert service.entered.wait(timeout=10)
                    with Client(handle.address) as second:
                        with pytest.raises(RemoteError) as excinfo:
                            second.call("check", {"source": GOOD})
                        assert excinfo.value.code == "overloaded"
                        # The refusal shows up in the latency histograms —
                        # refused requests have latency too.
                        assert reg.histogram("server.latency_ms").count >= 1
                        assert reg.histogram("server.latency_ms.check").count >= 1
                        assert reg.value("server.requests.check.overloaded") == 1
                finally:
                    service.release.set()
                    blocked.close()

    def test_timed_out_requests_record_latency(self):
        from repro import telemetry

        config = _unix_config(timeout_s=0.2)
        reg = telemetry.Registry(enabled=True)
        with telemetry.use(reg):
            service = BlockingService()
            with ServerThread(config, service=service) as handle:
                try:
                    with Client(handle.address) as client:
                        with pytest.raises(RemoteError) as excinfo:
                            client.call("check", {"source": GOOD})
                        assert excinfo.value.code == "timeout"
                finally:
                    service.release.set()
        hist = reg.histogram("server.latency_ms.check")
        assert hist.count >= 1
        # The timed-out request waited at least the timeout budget.
        assert hist.max >= 200.0
        assert reg.value("server.requests.check.timeout") == 1


class TestClientCli:
    def test_client_corpus_matches_corpus_command(self, capsys):
        from repro.cli import main

        with ServerThread(_unix_config()) as handle:
            address = handle.address
            assert main(["corpus"]) == 0
            local_out = capsys.readouterr().out
            assert (
                main(["client", "--connect", f"unix:{address}", "corpus"])
                == 0
            )
            remote_out = capsys.readouterr().out
        assert remote_out == local_out

    def test_client_check_and_run(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.fcl"
        path.write_text(GOOD)
        with ServerThread(_unix_config()) as handle:
            connect = f"unix:{handle.address}"
            assert main(["client", "--connect", connect, "check", str(path)]) == 0
            assert "OK" in capsys.readouterr().out
            assert (
                main(
                    ["client", "--connect", connect, "run", str(path), "add", "2", "3"]
                )
                == 0
            )
            assert capsys.readouterr().out.strip() == "5"

    def test_client_transport_error_exit_code(self, capsys):
        from repro.cli import main

        missing = tempfile.mktemp(suffix=".sock")
        code = main(["client", "--connect", f"unix:{missing}", "ping"])
        assert code == 3
        assert "error" in capsys.readouterr().err
