"""Tests for the benchmark's own code: seeded inputs, the correctness
checks, and the traced-run arithmetic."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import inputs
import layers
import wl_batch
import wl_engine
import wl_serve
from repro.pipeline.cache import CertCache


def _ops(indices, plan_len):
    """A stand-in timed phase that ran ``indices`` of a plan."""
    timed = harness.Timed(slice_s=[1.0])
    timed.records = [
        harness.OpRecord(i, 1.0, 0, {"overhead_ms": 0.5}) for i in indices
    ]
    return timed


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.build(workload, 7) == inputs.build(workload, 7)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert inputs.build(workload, 7) != inputs.build(workload, 8)


def test_edit_plan_edits_exactly_the_planned_functions():
    plan = inputs.build("edit-rebatch", 3)
    for sources, misses in zip(plan.rounds[:4], plan.round_misses[:4]):
        for prog, text, miss in zip(plan.programs, sources, misses):
            changed = sum(
                a != b for a, b in zip(_bodies(prog.source), _bodies(text))
            )
            assert changed == miss
        assert sum(misses) > 0


def _bodies(source):
    return source.split("\ndef ")


def test_serve_plan_follows_the_recorded_mix():
    plan = inputs.build("serve-mix", 5)
    methods = [r.method for r in plan.requests]
    assert methods == [inputs.MIX[i % len(inputs.MIX)] for i in range(inputs.SERVE_PLAN)]
    cold = [r for r in plan.requests if r.kind == "cold"]
    assert len({r.source_id for r in cold}) == len(cold)
    assert len({plan.sources[r.source_id].source for r in cold}) == len(cold)
    hot = [r for r in plan.requests if r.kind in ("fresh-name", "own-name")]
    assert math.isclose(len(cold) / (len(cold) + len(hot)), inputs.COLD_SHARE, abs_tol=0.02)
    fresh = [r.filename for r in hot if r.kind == "fresh-name"]
    assert len(set(fresh)) == len(fresh)
    assert math.isclose(len(fresh) / len(hot), inputs.FRESH_NAME_SHARE, abs_tol=0.02)


def test_serve_cold_sources_are_accepted():
    plan = inputs.build("serve-mix", 5)
    service = wl_serve.Service()
    check = wl_serve.expected(plan)
    try:
        cold = [i for i, r in enumerate(plan.requests) if r.kind == "cold"][:5]
        for i in cold:
            req = plan.requests[i]
            out = wl_serve.answer(req.method, service.dispatch(req.method, wl_serve.params(plan, req)))
            assert check(i, out) is None
    finally:
        service.close()


def test_same_seed_same_counts():
    plan = inputs.build("verify-batch", 4)
    timed = _ops(range(12), len(plan.programs))
    source = lambda i: plan.programs[i % len(plan.programs)].source
    first = wl_batch.traced_replay(timed, source, None)[0].counts
    second = wl_batch.traced_replay(timed, source, None)[0].counts
    for key in ("nodes_checked", "nodes_verified", "tokens"):
        assert first[key] == second[key] > 0


def test_negative_relabelled_positive_is_caught():
    plan = inputs.build("verify-batch", 1)
    negative = next(p for p in plan.programs if p.expect is not None)
    timed = _ops([0], 1)
    out = wl_batch.traced_replay(timed, lambda i: negative.source, None)[2][0]
    assert wl_batch.program_failure(negative, out) is None
    planted = dataclasses.replace(negative, expect=None)
    assert "rejected" in wl_batch.program_failure(planted, out)


def test_positive_relabelled_negative_is_caught():
    plan = inputs.build("verify-batch", 1)
    positive = next(p for p in plan.programs if p.expect is None)
    out = wl_batch.traced_replay(_ops([0], 1), lambda i: positive.source, None)[2][0]
    assert wl_batch.program_failure(positive, out) is None
    planted = dataclasses.replace(positive, expect=next(
        p.expect for p in plan.programs if p.expect is not None
    ))
    assert "accepted" in wl_batch.program_failure(planted, out)


def test_wrong_miss_count_is_caught(tmp_path):
    plan = inputs.build("edit-rebatch", 2)
    prog = plan.programs[0]
    cache = CertCache(str(tmp_path))
    timed = _ops([0], 1)
    wl_batch.traced_replay(timed, lambda i: prog.source, cache)  # fill
    out = wl_batch.traced_replay(timed, lambda i: prog.source, cache)[2][0]
    assert wl_batch.program_failure(prog, out, misses=0) is None
    assert "plan says" in wl_batch.program_failure(prog, out, misses=1)


def test_wrong_run_value_is_caught():
    plan = inputs.build("serve-mix", 1)
    index = next(i for i, r in enumerate(plan.requests) if r.method == "run")
    check = wl_serve.expected(plan)
    req = plan.requests[index]
    service = wl_serve.Service()
    right = wl_serve.answer("run", service.dispatch("run", wl_serve.params(plan, req)))
    service.close()
    assert check(index, right) is None
    assert "tree gave" in check(index, (True, "-1"))


@pytest.mark.parametrize("workload", ["verify-batch", "edit-rebatch"])
def test_traced_sums_reconcile(workload, tmp_path):
    plan = inputs.build(workload, 6)
    count = len(plan.programs)
    cache = baseline = None
    if workload == "edit-rebatch":
        store = tmp_path / "certs"
        wl_batch.traced_replay(
            _ops(range(count), count), lambda i: plan.programs[i].source, CertCache(str(store))
        )
        shutil.copytree(store, tmp_path / "baseline")
        cache, baseline = CertCache(str(store)), CertCache(str(tmp_path / "baseline"))
        source = lambda i: plan.rounds[i // count][i % count]
        timed = _ops(range(count, 2 * count), len(plan.rounds) * count)
    else:
        source = lambda i: plan.programs[i % count].source
        timed = _ops(range(10), count)
    rec, rows, _ = wl_batch.traced_replay(timed, source, cache, baseline)
    _assert_reconciles(rec, rows)
    # Traced over untraced composition of the same ops, near 1: not the
    # factor a thread-mode Pipeline against a serial replay would give.
    assert 0.8 < rows["trace.overhead_ratio"] < 1.5
    if cache is not None:
        assert 0 < rows["pipeline.cache.hit_ratio"] < 1


def test_engine_traced_sums_reconcile():
    plan = inputs.build("run-engine", 6)
    rec, rows, outputs = wl_engine.traced_replay(plan.calls, _ops(range(len(plan.calls)), len(plan.calls)))
    _assert_reconciles(rec, rows)
    assert rows["runtime.steps"] > 0 and rows["runtime.rendezvous"] > 0
    assert all(ok for ok, _ in outputs)


def _assert_reconciles(rec, rows):
    wall_ms = rec.op_wall_s() * 1000.0 / rec.ops
    recon = layers.reconcile(rec)
    assert math.isclose(recon["layers_ms"] + recon["unattributed_ms"], recon["op_wall_ms"], rel_tol=1e-9)
    reported = sum(rows[f"{name}_ms"] for name in layers.SPAN_ROWS)
    assert math.isclose(reported + rows["trace.unattributed_ms"], wall_ms, rel_tol=1e-9)


def test_run_prints_the_declared_metrics():
    """One short end-to-end run: the last line carries exactly the keys and
    metric names BENCHMARK.json declares."""
    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-batch",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in declared[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_serve_plan_is_not_cycled():
    plan = inputs.build("serve-mix", 2)
    plan.requests = plan.requests[:3]
    server = wl_serve.Server()
    try:
        timed = wl_serve.drive(plan, server.address, 1.0)
    finally:
        server.stop()
    assert timed.exhausted
    assert sorted(r.index for r in timed.records) == [0, 1, 2]


def test_peak_rss_leaves_out_side_work():
    def side_setup():
        block = bytearray(64 << 20)  # touched pages: 64 MB resident
        block[::4096] = b"x" * len(block[::4096])
        return 0.0

    if not harness.reset_peak_rss():
        pytest.skip("kernel refuses to lower VmHWM")
    before = harness.vm_hwm_mb()
    sides = harness.Sides(side_setup, lambda: 0.0)
    sides()
    assert sides.rss_resets
    assert sides.workload_peak_rss_mb() < before + 16


def test_tail_leaves_ten_samples_beyond():
    t = harness.tail([float(i) for i in range(1, 301)])
    assert t["percentile"] == 95.0 and t["beyond"] >= 10
    assert harness.tail([1.0] * 15)["percentile"] == 50.0


def test_quieter_half_keeps_the_less_slowed_slices():
    # Two kinds of op, cheap (index 0) and dear (index 1); slices 1 and 3
    # ran 1.6x slow.  Slice 2 holds only cheap ops but is not quieter for it.
    plan = [(0, 10.0), (1, 30.0)]
    slices = [plan, [(0, 16.0), (1, 48.0)], [(0, 10.0), (0, 10.0)], [(1, 48.0)], plan]
    timed = harness.Timed(
        [harness.OpRecord(i, ms, part) for part, ops in enumerate(slices) for i, ms in ops],
        [1.0] * len(slices),
    )
    kind = lambda i: i
    assert harness.quieter_half(timed, kind) == [0, 2, 4]
    ops = harness.op_metrics(timed, kind)
    assert ops["p50_ms"] == 10.0 and ops["ops_per_s"] == 2.0
