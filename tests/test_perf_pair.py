"""The decision rule of CI's ``perf-pair`` gate (``benchmarks/perf_pair.py``).

Only the comparison is tested here, on hand-built runs; timing real
workloads is the job's business, not tier-1's.
"""

from benchmarks.perf_pair import FACTOR, FACTORS, compare

BETTER = {"ops_per_s": "higher", "p50_ms": "lower", "E2.wall_ms": "lower"}


def _factor(metric):
    return FACTORS.get(metric, FACTOR)


def _runs(parent, change, correct=True, experiments=None):
    """Parent, change, change, parent, as the job orders them; each side
    runs twice with the same metrics unless given a pair."""

    def run(side, metrics, ok=True):
        return {"side": side, "correct": ok, "metrics": metrics}

    workload = [
        run("parent", parent),
        run("change", change, correct),
        run("change", change),
        run("parent", parent),
    ]
    return {
        "workloads": {"verify-batch": workload},
        "experiments": experiments or [],
        "better": BETTER,
    }


class TestPerfPair:
    def test_identical_runs_pass(self):
        metrics = {"ops_per_s": 20.0, "p50_ms": 40.0}
        verdict = compare(_runs(metrics, dict(metrics)))
        assert verdict["failures"] == []
        assert {row["metric"] for row in verdict["rows"]} == {"ops_per_s", "p50_ms"}
        assert all(row["slowdown"] == 1.0 for row in verdict["rows"])

    def test_slowdown_beyond_factor_fails(self):
        parent = {"ops_per_s": 20.0, "p50_ms": 40.0}
        ops, p50 = _factor("ops_per_s"), _factor("p50_ms")
        # Within the factor in both directions of "better": passes.
        inside = {"ops_per_s": 20.0 / ops * 1.01, "p50_ms": 40.0 * p50 * 0.99}
        assert compare(_runs(parent, inside))["failures"] == []
        # Fewer ops per second, and a slower median: both flagged.
        beyond = {"ops_per_s": 20.0 / ops * 0.99, "p50_ms": 40.0 * p50 * 1.01}
        failures = compare(_runs(parent, beyond))["failures"]
        assert len(failures) == 2
        assert any("ops_per_s" in f for f in failures)
        assert any("p50_ms" in f for f in failures)

    def test_each_side_keeps_its_better_run(self):
        runs = _runs({"p50_ms": 40.0}, {"p50_ms": 40.0})
        # One noisy run per side does not decide anything.
        runs["workloads"]["verify-batch"][0]["metrics"] = {"p50_ms": 400.0}
        runs["workloads"]["verify-batch"][1]["metrics"] = {"p50_ms": 400.0}
        (row,) = compare(runs)["rows"]
        assert (row["parent"], row["change"]) == (40.0, 40.0)

    def test_metrics_on_one_side_only_are_skipped(self):
        verdict = compare(_runs({"p50_ms": 40.0}, {"ops_per_s": 1.0}))
        assert verdict["rows"] == [] and verdict["failures"] == []

    def test_incorrect_change_run_fails(self):
        metrics = {"p50_ms": 40.0}
        failures = compare(_runs(metrics, dict(metrics), correct=False))["failures"]
        assert failures == ["verify-batch: change-side run not correct"]

    def test_experiment_wall_time_is_gated(self):
        allowed = _factor("E2.wall_ms")
        experiments = [
            {"side": side, "metrics": {"E2.wall_ms": ms}}
            for side, ms in (("parent", 700), ("change", 700 * allowed * 1.1),
                             ("change", 700 * allowed * 1.05), ("parent", 720))
        ]
        metrics = {"p50_ms": 40.0}
        failures = compare(_runs(metrics, dict(metrics), experiments=experiments))[
            "failures"
        ]
        assert failures == [
            f"experiments E2.wall_ms: {allowed * 1.05:.2f}x worse (allowed {allowed}x)"
        ]
