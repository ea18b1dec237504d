"""The pre-forked worker fleet (``repro serve --workers N``).

The properties under test are the module contract of
:mod:`repro.server.fleet`:

* the wire behavior is indistinguishable from the single-process daemon
  (same results, same error envelopes, same admission semantics);
* the ``metrics`` RPC merges worker-process registries, so fleet-wide
  checker/cache counters survive the process boundary;
* a killed worker fails only its in-flight requests and is respawned —
  the fleet keeps serving;
* drain answers everything admitted before exiting.

Slow-request tests use a ``while`` spin.  The crash and drain tests poll
the control-plane ``stats`` RPC (answered inline on the loop) for the
in-flight count, so their assertions are ordered by observed server
state, not sleeps; the overload test counts every outcome instead.
"""

import os
import signal
import tempfile
import threading
import time

import pytest

from repro import api
from repro.client import Client, RemoteError
from repro.server import ServerConfig
from repro.server.fleet import FleetConfig, FleetThread

GOOD = """
struct data { v : int; }
def add(a : int, b : int) : int { a + b }
"""

SPIN = """
def spin(n : int) : int {
  let x = 0;
  while (n > 0) {
    x = x + 1;
    n = n - 1
  };
  x
}
"""

BAD = """
struct data { v : int; }
def leak(d : data) : int { consumed }
"""


def _fleet(workers=2, cache_dir=None, cache_entries=None, **server_kwargs):
    config = ServerConfig(
        host=None, unix_path=tempfile.mktemp(suffix=".sock"), **server_kwargs
    )
    return FleetThread(
        config=config,
        fleet_config=FleetConfig(
            workers=workers, cache_dir=cache_dir, cache_entries=cache_entries
        ),
    )


def _distinct(i):
    """Programs with the same checking cost and distinct content hashes."""
    return GOOD.replace("add", f"add_{i}")


def _wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture(scope="module")
def fleet_pair():
    """One two-worker fleet shared by the read-only tests (forking
    processes per test would dominate the suite's runtime)."""
    with _fleet(workers=2, cache_dir=tempfile.mkdtemp()) as handle:
        with Client(handle.address) as client:
            yield handle, client


class TestFleetParity:
    def test_ping(self, fleet_pair):
        _, client = fleet_pair
        assert client.ping()["pong"] is True

    def test_check_matches_api(self, fleet_pair):
        _, client = fleet_pair
        assert client.check(GOOD).to_dict() == api.check(GOOD).to_dict()

    def test_verify_matches_api(self, fleet_pair):
        _, client = fleet_pair
        remote = client.verify(GOOD)
        local = api.verify(GOOD)
        assert remote.ok and remote.verified == local.verified

    def test_run(self, fleet_pair):
        _, client = fleet_pair
        assert client.run(GOOD, "add", [20, 22]).value == "42"

    def test_rejection_matches_api(self, fleet_pair):
        _, client = fleet_pair
        remote = client.check(BAD)
        assert not remote.ok
        assert remote.to_dict() == api.check(BAD, filename="<rpc>").to_dict()

    def test_invalid_params_error_envelope(self, fleet_pair):
        _, client = fleet_pair
        with pytest.raises(RemoteError) as excinfo:
            client.call("check", {"source": 17})
        assert excinfo.value.code == "invalid-request"

    def test_concurrent_load_spreads(self, fleet_pair):
        _, client = fleet_pair
        address = fleet_pair[0].address
        results = []

        def one(i):
            # Distinct sources defeat both memo layers, forcing real work.
            src = GOOD.replace("add", f"add_{i}")
            with Client(address) as c:
                results.append(c.verify(src).ok)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert results == [True] * 8


class TestFleetIntrospection:
    def test_stats_has_fleet_shape(self, fleet_pair):
        _, client = fleet_pair
        stats = client.stats()
        fleet = stats["fleet"]
        assert fleet["workers"] == 2
        assert fleet["alive"] == 2
        assert len(fleet["pids"]) == 2
        assert all(isinstance(p, int) for p in fleet["pids"])
        # Aggregated worker service stats keep the single-process shape
        # (repro top renders this block unchanged).
        service = stats["service"]
        for key in ("sessions", "memo_entries", "memo_hits", "memo_misses"):
            assert isinstance(service[key], int)

    def test_metrics_merge_worker_registries(self, fleet_pair):
        _, client = fleet_pair
        client.verify(GOOD.replace("add", "add_metrics"))
        doc = client.metrics()
        counters = doc["counters"]
        # checker.* counters only ever increment inside worker processes;
        # seeing them proves the merge crossed the boundary.
        assert counters.get("checker.functions", 0) > 0
        assert counters.get("fleet.dispatched", 0) > 0
        assert doc["gauges"]["fleet.workers"] == 2

    def test_shared_store_hits_across_workers(self, tmp_path):
        """Both workers share one certificate store: after a cold fill,
        re-verifying the same sources under fresh filenames (which busts
        the per-worker result memo, keyed on filename, but not the store,
        keyed on content) is answered from the store.  A store capped
        below its working set evicts."""
        sources = 8

        def counter(client, name):
            return client.metrics()["counters"].get(name, 0)

        with _fleet(workers=2, cache_dir=str(tmp_path / "shared")) as handle:
            with Client(handle.address) as client:
                for i in range(sources):
                    assert client.verify(_distinct(i), filename=f"c{i}.fcl").ok
                hits = counter(client, "cache.hits")
                misses = counter(client, "cache.misses")
                assert misses >= sources
                for warm in range(2):
                    for i in range(sources):
                        assert client.verify(
                            _distinct(i), filename=f"w{warm}-{i}.fcl"
                        ).ok
                hits = counter(client, "cache.hits") - hits
                misses = counter(client, "cache.misses") - misses
        assert hits / (hits + misses) >= 0.9, (hits, misses)

        with _fleet(
            workers=2, cache_dir=str(tmp_path / "capped"), cache_entries=4
        ) as handle:
            with Client(handle.address) as client:
                for i in range(sources):
                    assert client.verify(_distinct(100 + i)).ok
                assert counter(client, "cache.evictions") > 0


class TestFleetRobustness:
    def test_overload_refused_cleanly(self):
        """4 clients x 3 slow spins against one worker and a two-slot
        queue: every outcome is a result or a clean ``overloaded``
        refusal, no client hangs, and the worker never crashes."""
        clients, spins = 4, 3
        outcomes = []
        lock = threading.Lock()
        with _fleet(workers=1, max_queue=2) as handle:
            start = threading.Barrier(clients)

            def one_client():
                with Client(handle.address, timeout=120) as client:
                    start.wait(timeout=60)
                    for _ in range(spins):
                        try:
                            result = client.run(SPIN, "spin", [100_000])
                            outcome = "ok" if result.value == "100000" else "wrong"
                        except RemoteError as exc:
                            outcome = exc.code
                        with lock:
                            outcomes.append(outcome)

            threads = [
                threading.Thread(target=one_client, daemon=True)
                for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads), "hung client"
            with Client(handle.address) as probe:
                stats = probe.stats()
        assert set(outcomes) <= {"ok", "overloaded"}, outcomes
        assert len(outcomes) == clients * spins
        assert outcomes.count("ok") >= 1 and outcomes.count("overloaded") >= 1
        assert stats["requests"].get("server.worker.crashes", 0) == 0
        assert stats["fleet"]["restarts"] == 0

    def test_worker_killed_midrequest_respawns(self):
        with _fleet(workers=1) as handle:
            with Client(handle.address) as probe:
                victim_pid = probe.stats()["fleet"]["pids"][0]
                failure = {}

                def slow():
                    try:
                        Client(handle.address, timeout=60).run(
                            SPIN, "spin", [300_000]
                        )
                    except RemoteError as exc:
                        failure["code"] = exc.code

                background = threading.Thread(target=slow)
                background.start()
                assert _wait_for(lambda: probe.stats()["inflight"] >= 1)
                os.kill(victim_pid, signal.SIGKILL)
                background.join(timeout=60)
                # The in-flight request failed loudly, not silently.
                assert failure.get("code") == "internal"
                # ... and the fleet healed: a respawned worker serves.
                assert _wait_for(
                    lambda: probe.stats()["fleet"]["alive"] >= 1
                ), "no respawn"
                assert probe.stats()["fleet"]["restarts"] >= 1
                assert probe.run(GOOD, "add", [1, 2]).value == "3"
                counters = probe.stats()["requests"]
                assert counters.get("server.worker.crashes", 0) >= 1

    def test_drain_completes_inflight_work(self):
        """Shutdown with 4 spins in flight over 2 workers: every one of
        them completes with its real result."""
        inflight = 4
        with _fleet(workers=2) as handle:
            address = handle.address
            outcomes = []

            def slow():
                try:
                    result = Client(address, timeout=60).run(
                        SPIN, "spin", [300_000]
                    )
                    outcomes.append(result.value)
                except Exception as exc:  # noqa: BLE001
                    outcomes.append(repr(exc))

            with Client(address) as control:
                threads = [threading.Thread(target=slow) for _ in range(inflight)]
                for thread in threads:
                    thread.start()
                assert _wait_for(
                    lambda: control.stats()["inflight"] >= inflight
                ), "spins never all admitted"
                control.shutdown()
            for thread in threads:
                thread.join(timeout=120)
            handle.stop()
            assert outcomes == ["300000"] * inflight


class TestFleetCompileCache:
    def test_warm_repeats_stop_compiling(self):
        """Once every worker has compiled a source, further run requests
        (engine omitted — the warm-serving default is ir) hit the
        per-worker compile caches: the merged ``machine.engine.compiles``
        counter stays flat."""
        with _fleet(workers=2) as handle:
            with Client(handle.address) as client:
                for _ in range(6):
                    result = client.run(GOOD, "add", [20, 22])
                    assert result.ok and result.engine == "ir"
                warmed = client.metrics()["counters"]
                compiles = warmed.get("machine.engine.compiles", 0)
                # At most one compile per worker process, at least one
                # somewhere.
                assert 1 <= compiles <= 2
                for _ in range(6):
                    assert client.run(GOOD, "add", [1, 2]).ok
                again = client.metrics()["counters"]
                assert again.get("machine.engine.compiles", 0) == compiles
