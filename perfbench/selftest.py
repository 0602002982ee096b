"""Toy-size self-test of the benchmark runner.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on hand-built nested spans, that each
correctness check fires on a deliberately corrupted output (and passes
the intact one), and that every metric name and unit the runner prints
matches BENCHMARK.json, on toy-size runs of every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from spans import Span, Tracer, Wrap, layer_metrics, self_times  # noqa: E402


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def expect_fires(name, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        expect(exc.check == name, f"{fn.__name__} raised {exc.check}, expected {name}")
        return
    raise SystemExit(f"selftest FAILED: {fn.__name__} did not fire on corrupted input")


def nested_spans(first_index=0, t0=0):
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90] > b1 [50,60], b2 [70,90]
    layout = [("root", 0, 100, -1), ("a", 10, 40, 0), ("a1", 15, 25, 1),
              ("b", 50, 90, 0), ("b1", 50, 60, 3), ("b2", 70, 90, 3)]
    return [Span(name, t0 + s, t0 + e, p + first_index if p >= 0 else -1) for name, s, e, p in layout]


def test_self_time():
    spans = nested_spans()
    got = {spans[i].name: ns for i, ns in self_times(spans, 0).items()}
    expect(got == {"root": 30, "a": 20, "a1": 10, "b": 10, "b1": 10, "b2": 20}, f"self times {got}")
    checks.check_self_time_sum(got.values(), 100)
    # Two passes: counts are per pass, self time is the median over passes.
    spans = nested_spans() + nested_spans(first_index=6, t0=1000)
    stats = layer_metrics(spans, [0, 6], {"b": ("calls", "self_s", "p50_ms"), "zz": ("calls",)})
    expect(stats["b.calls"] == 1 and stats["b.self_s"] == 10e-9, f"layer stats {stats}")
    expect(stats["b.p50_ms"] == 40e-6 and stats["zz.calls"] == 0, f"layer stats {stats}")
    # Corrupted: b2 overlaps b1, so the self times no longer add up.
    spans = nested_spans()
    spans[5].start = 55
    expect_fires("self_time_sum", checks.check_self_time_sum, self_times(spans, 0).values(), 100)


def test_missing_wrap():
    # A wrapped name that no longer exists is skipped: no crash, zero calls.
    import refarm.experiments as experiments

    tracer = Tracer()
    original = experiments.solve_p1
    wraps = [Wrap("refarm.experiments:no_such_function", "experiments.gone"),
             Wrap("refarm.experiments:solve_p1", "allocator.solve_p1")]
    with tracer.installed(wraps):
        expect(experiments.solve_p1.__wrapped__ is original, "solve_p1 not wrapped")
        with tracer.span("bench.pass"):
            pass
    expect(experiments.solve_p1 is original, "solve_p1 not restored")
    expect(tracer.missing == ["refarm.experiments:no_such_function"], f"missing {tracer.missing}")
    stats = layer_metrics(tracer.spans, [0], {"experiments.gone": ("calls", "self_s", "p50_ms", "p99_ms")})
    expect(all(v == 0 for v in stats.values()), f"missing layer stats {stats}")


def test_checks_fire():
    import numpy as np
    from refarm.allocator import AllocationProblem, PowerAllocation

    problem = AllocationProblem(gains=np.ones((2, 4)), noise_floor=1.0, margin=1.0, power_caps=[2.0, 2.0])
    good = PowerAllocation.from_powers(np.array([[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]]))
    checks.check_allocation(good, problem)
    over_cap = PowerAllocation.from_powers(np.array([[3.0, 0, 0, 0], [0, 0, 0, 0]]))
    expect_fires("allocation_valid", checks.check_allocation, over_cap, problem)

    rows = [
        {"receiver": "mf", "channel_model": "awgn", "relative_error": 0.20},
        {"receiver": "mf", "channel_model": "selective", "relative_error": 0.01},
        {"receiver": "mmse", "channel_model": "selective", "relative_error": 0.09},
    ]
    checks.check_validation_rows(rows)
    rows[2]["relative_error"] = 0.11
    expect_fires("sinr_validation_bound", checks.check_validation_rows, rows)

    csv = (
        b"alpha,feasible,cdma_sinr_empirical_mean\n"
        b"0.05,true,1.6\n0.15,true,1.5\n0.25,false,nan\n"
    )
    target_db = 2.0  # 1.585 linear; floor 1.7 dB is 1.479 linear
    checks.check_protection(checks.parse_sweep_csv(csv), target_db)
    corrupted = csv.replace(b"0.15,true,1.5", b"0.15,true,1.4")
    expect_fires("protection_floor", checks.check_protection, checks.parse_sweep_csv(corrupted), target_db)

    checks.check_identical(csv, bytes(csv), "sweep")
    expect_fires("byte_identical", checks.check_identical, csv, corrupted, "sweep")
    expect_fires("repeatable", checks.check_repeatable, [1.0, 2.0], [1.0, 2.0000001], "rates")


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] + ["alloc_solve"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in dict.fromkeys(workloads):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                  f"extra {sorted(set(got) - set(wanted))}, "
                                  f"missing {sorted(set(wanted) - set(got))}, "
                                  f"units {[n for n in got if n in wanted and got[n] != wanted[n]]}")
            print(f"  {workload} trace={trace}: {len(got)} metrics match")


def main():
    test_self_time()
    print("self-time arithmetic ok")
    test_missing_wrap()
    print("missing wrapped name reports zero calls ok")
    test_checks_fire()
    print("every check fires on corrupted output ok")
    test_metric_names()
    print("selftest ok")


if __name__ == "__main__":
    main()
