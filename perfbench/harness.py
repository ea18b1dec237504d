"""Timing loop, summary statistics and host facts shared by all workloads."""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in, the program's sources, and where a
#: run leaves its spans and reports.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: The timed phase runs in this many slices.  Before each, COMPILES_PER_SLICE
#: cold compiles are measured, and a set-up before every SETUP_EVERY-th, so
#: the repetitions sample the whole run: the host's speed drifts over
#: seconds, and repetitions taken back to back would all see one moment.
SLICES = 20
COMPILES_PER_SLICE = 1
SETUP_EVERY = 2

#: Candidate tail percentiles, highest first; the report uses the first
#: one that leaves at least ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


@dataclass
class OpRecord:
    index: int  # position in the plan (cycled)
    ms: float
    part: int  # the slice it ran in
    output: Any = None
    error: Optional[str] = None


@dataclass
class Timed:
    records: List[OpRecord] = field(default_factory=list)
    #: Measured seconds of each slice.
    slice_s: List[float] = field(default_factory=list)
    #: Set when an uncycled plan ran out before the time did.
    exhausted: bool = False

    @property
    def times_ms(self) -> List[float]:
        return [r.ms for r in self.records]


def timed_loop(
    plan_len: int,
    do_op: Callable[[int], Any],
    seconds: float,
    cycle: bool = True,
    between: Optional[Callable[[], None]] = None,
) -> Timed:
    """Run ``do_op(i % plan_len)`` for i = 0, 1, 2, ... for ``seconds`` of
    measured time (or, with ``cycle=False``, until the plan runs out).

    The time is cut into SLICES equal slices with ``between()`` called in
    each gap, outside the measurement: repeated side measurements (set-up,
    cold compile) then sample the whole run instead of one moment of it.
    An op that raises is recorded with its traceback and counts as failed;
    the loop keeps going so one bad input cannot hide the rest."""
    timed = Timed()
    index = 0
    for part in range(SLICES):
        if part and between is not None:
            between()
        start = time.perf_counter()
        deadline = start + seconds / SLICES
        while True:
            t0 = time.perf_counter()
            if t0 >= deadline or (not cycle and index >= plan_len):
                break
            output, error = None, None
            try:
                output = do_op(index % plan_len)
            except Exception:  # noqa: BLE001 — a failed op is a measurement
                error = traceback.format_exc(limit=4)
            t1 = time.perf_counter()
            timed.records.append(OpRecord(index, (t1 - t0) * 1000.0, part, output, error))
            index += 1
        timed.slice_s.append(time.perf_counter() - start)
    return timed


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest ladder percentile with at least TAIL_BEYOND samples
    beyond it: ``{"value", "percentile", "samples", "beyond"}``."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            break
    return {
        "value": percentile(ordered, p),
        "percentile": p,
        "samples": n,
        "beyond": n - max(1, math.ceil(p / 100.0 * n)),
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles`` exclusive method)."""
    values = list(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def vm_hwm_mb(pid: str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> bool:
    """Lower this process's ``VmHWM`` to its current resident set (Linux
    ``clear_refs`` value 5).  False where the kernel refuses."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def host_facts() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
    }


class Sides:
    """Set-up and cold-compile repetitions taken between timed slices.

    The repetitions run in the process under test, so the peak resident set
    is read before each batch of them and the kernel's high-water mark is
    lowered again after it: :meth:`workload_peak_rss_mb` then covers the
    workload's own path and not the harness's side work."""

    def __init__(self, setup: Callable[[], float], compile_ms: Callable[[], float]):
        self._setup = setup
        self._compile = compile_ms
        self._calls = 0
        self.setup_s: List[float] = []
        self.compile_ms: List[float] = []
        self._peak_mb = 0.0
        #: False once the kernel refused to lower the high-water mark; the
        #: peak then includes side work.
        self.rss_resets = True

    def __call__(self, setup_s: Optional[float] = None) -> None:
        """The repetitions due before one slice; ``setup_s`` records a
        set-up the caller already timed (the one whose state the timed
        phase uses)."""
        self._peak_mb = max(self._peak_mb, vm_hwm_mb())
        # Each repetition starts from a collected heap, so how much garbage
        # the timed slice left behind does not decide when the collector
        # runs inside the measurement.
        gc.collect()
        if setup_s is not None:
            self.setup_s.append(setup_s)
        elif self._calls % SETUP_EVERY == 0:
            self.setup_s.append(self._setup())
        self._calls += 1
        for _ in range(COMPILES_PER_SLICE):
            gc.collect()
            self.compile_ms.append(self._compile())
        gc.collect()
        self.rss_resets = reset_peak_rss() and self.rss_resets

    def workload_peak_rss_mb(self) -> float:
        """Peak resident set of this process outside the side work."""
        return max(self._peak_mb, vm_hwm_mb())


def quieter_half(timed: Timed, kind: Callable[[int], Hashable]) -> List[int]:
    """Indices of the half of the slices (rounded up) the host slowed
    least.  A slice's slowness is the median, over its ops, of each op's
    time relative to the median time of ops of the same ``kind`` (plan
    item) in the whole run, so a slice that happened to hold cheap ops
    does not pass for a quiet one."""
    times: Dict[Hashable, List[float]] = {}
    for record in timed.records:
        times.setdefault(kind(record.index), []).append(record.ms)
    typical = {k: statistics.median(v) for k, v in times.items()}
    ratios: List[List[float]] = [[] for _ in timed.slice_s]
    for record in timed.records:
        ratios[record.part].append(record.ms / typical[kind(record.index)])
    ranked = sorted((statistics.median(r), i) for i, r in enumerate(ratios) if r)
    return sorted(i for _, i in ranked[: (len(ranked) + 1) // 2])


def op_metrics(timed: Timed, kind: Callable[[int], Hashable]) -> Dict[str, Any]:
    """The per-op end-to-end metrics of one timed phase.  Throughput and
    the median are taken over the ops of the quieter half of the slices:
    a shared 2-vCPU host can alternate between speed levels about 1.6x
    apart for seconds at a time, with the share of a run spent slow
    drifting from run to run, and ops of the slowed slices would make both
    report that share rather than the program.  Their whole-run values are
    kept in the report.  The tail is over every op of the run: it is the
    rare slow op, and over the quieter half alone it spread wider from run
    to run."""
    parts: List[List[float]] = [[] for _ in timed.slice_s]
    for record in timed.records:
        parts[record.part].append(record.ms)
    rates = [len(p) / s for p, s in zip(parts, timed.slice_s)]
    medians = [statistics.median(p) for p in parts if p]
    quiet = quieter_half(timed, kind)
    pool = [ms for i in quiet for ms in parts[i]]
    return {
        "ops_per_s": len(pool) / sum(timed.slice_s[i] for i in quiet),
        "p50_ms": statistics.median(pool),
        "tail": tail(timed.times_ms),
        "quiet_slices": quiet,
        "whole_run": {
            "ops_per_s": len(timed.records) / sum(timed.slice_s),
            "p50_ms": statistics.median(timed.times_ms),
        },
        "spread": {
            "op_ms": spread(timed.times_ms),
            "ops_per_s_slices": spread(rates),
            "p50_ms_slices": spread(medians),
        },
        "samples": {"ops_per_s_slices": rates, "p50_ms_slices": medians},
    }


@dataclass
class Result:
    """What one benchmark run reports."""

    attempted: int
    failures: List[str]
    metrics: Dict[str, float]
    report: Dict[str, Any] = field(default_factory=dict)


def end_to_end(
    timed: Timed,
    sides: Sides,
    rss_mb: float,
    kind: Callable[[int], Hashable],
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics of a timed phase plus their spreads."""
    ops = op_metrics(timed, kind)
    setup = spread(sides.setup_s)
    compile_ms = spread(sides.compile_ms)
    quiet_compiles = sorted(sides.compile_ms)[: (len(sides.compile_ms) + 1) // 2]
    metrics = {
        "setup_s": setup["median"],
        "ops_per_s": ops["ops_per_s"],
        "p50_ms": ops["p50_ms"],
        "tail_ms": ops["tail"]["value"],
        "peak_rss_mb": rss_mb,
        # Over the quicker half of the repetitions, like the op metrics
        # over the quieter half of the slices.
        "compile_ms": statistics.fmean(quiet_compiles),
    }
    report = {
        "tail": ops["tail"],
        "quiet_slices": ops["quiet_slices"],
        "whole_run": ops["whole_run"],
        "spread": dict(ops["spread"], setup_s=setup, compile_ms=compile_ms),
        "samples": dict(
            ops["samples"], setup_s=sides.setup_s, compile_ms=sides.compile_ms
        ),
        "rss_hwm_resets": sides.rss_resets,
    }
    return metrics, report


def failures_of(timed: Timed, check: Callable[[int, Any], Optional[str]]) -> List[str]:
    """One line per op that raised or whose answer ``check`` rejects."""
    out = []
    for record in timed.records:
        if record.error is not None:
            out.append(f"op {record.index}: raised\n{record.error}")
            continue
        reason = check(record.index, record.output)
        if reason is not None:
            out.append(f"op {record.index}: {reason}")
    return out
