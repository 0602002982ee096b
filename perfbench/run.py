"""Benchmark launcher for refarm.

    python3 perfbench/run.py --workload mc_validate --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Each workload runs in fresh worker processes (perfbench/worker.py) with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 and the
checkout's ``src`` first on PYTHONPATH.  Set-up is measured in
SETUP_PROBES extra processes that stop after set-up, plus the measuring
process itself; ``setup_s`` is the median.  With ``--trace 0`` the last
line of stdout is the JSON result with every end-to-end metric, with
``--trace 1`` every per-layer metric.  A full record of the run, with the
environment, goes to perfbench/out/.  The process exits 1 when a
correctness check fails and 2 when the refarm sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("mc_validate", "alloc_solve", "load_sweep")
DEFAULT_SEED = 42
SETUP_PROBES = 6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MEASURE_TIMEOUT_S = 170

# What one operation per second means on each workload.
OPS_NAME = {"mc_validate": "trials_per_s", "alloc_solve": "solves_per_s", "load_sweep": "points_per_s"}

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "success_frac": "ratio"}
QUALITY_UNITS = {
    "throughput_bits": "bits",
    "max_duality_gap": "ratio",
    "sinr_max_rel_err": "ratio",
    "protection_min_db": "dB",
}


def layer_unit(name):
    stat = name.rsplit(".", 1)[-1]
    if name.startswith("quality."):
        return QUALITY_UNITS[stat]
    return {
        "self_s": "s",
        "p50_ms": "ms",
        "p99_ms": "ms",
        "max_gap": "ratio",
        "bytes": "bytes",
        "trace_slowdown": "ratio",
    }.get(stat, "count")


def worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, workload, role, timeout):
    cmd = [
        sys.executable, str(WORKER),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
    ] + (["--toy"] if args.toy else [])
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({role}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(args, workload):
    """Run one workload; return its record (metrics, counts, raw worker output)."""
    probes = [run_worker(args, workload, "setup", 60)["setup_s"] for _ in range(SETUP_PROBES)]
    raw = run_worker(args, workload, "measure", MEASURE_TIMEOUT_S)
    setup = probes + [raw["setup_s"]]
    success = 1.0 - raw["unsuccessful"] / max(raw["attempted"], 1)
    e2e = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(o / t for o, t in zip(raw["pass_ops"], raw["pass_s"])),
        "peak_rss_mb": raw["peak_rss_mb"],
        "success_frac": success,
    }
    per_layer = dict(raw.get("layers", {}))
    if args.trace:
        per_layer["bench.trace_slowdown"] = raw["trace_slowdown"]
        for key in QUALITY_UNITS:
            per_layer[f"quality.{key}"] = raw["quality"].get(key, 0.0)
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not raw["failures"],
        "failures": raw["failures"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failed_frac": raw["unsuccessful"] / max(raw["attempted"], 1),
        "end_to_end": e2e,
        "per_layer": per_layer,
        "quality": raw["quality"],
        "setup_samples_s": setup,
        "pass_s": raw["pass_s"],
        "traced_pass_s": raw.get("traced_pass_s", []),
        "env": {**raw["env"], "git_commit": git_commit()},
    }


def print_table(record):
    w = record["workload"]
    print(f"== {w} seed={record['seed']} trace={record['trace']} passes={len(record['pass_s'])}"
          f"+{len(record['traced_pass_s'])} traced")
    e2e = record["end_to_end"]
    print(f"  {'setup_s':<22} {e2e['setup_s']:12.4f} s")
    print(f"  {OPS_NAME[w]:<22} {e2e['ops_per_s']:12.4f} 1/s   (ops_per_s)")
    print(f"  {'peak_rss_mb':<22} {e2e['peak_rss_mb']:12.1f} MB")
    print(f"  {'failed_frac':<22} {record['failed_frac']:12.4f} ratio (success_frac {e2e['success_frac']:.4f})")
    for key, unit in QUALITY_UNITS.items():
        if key in record["quality"]:
            print(f"  {key:<22} {record['quality'][key]:12.6g} {unit}")
    for name, value in record["per_layer"].items():
        print(f"  {name:<48} {value:14.6g}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "refarm" / "__init__.py").is_file():
        print(f"error: refarm sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    started = time.time()
    for name in names:
        try:
            record = run_workload(args, name)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        records.append(record)
        print_table(record)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(
        json.dumps({"started_unix": started, "records": records}, indent=1) + "\n"
    )

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for name, value in record[key].items():
            unit = layer_unit(name) if args.trace else E2E_UNITS[name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
