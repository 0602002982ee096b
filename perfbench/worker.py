"""One benchmark process: set up a workload, run timed passes, print one JSON line.

Started by run.py with BLAS threads pinned and ``src`` on PYTHONPATH.
Set-up time runs from the first line of this file, so it covers the
imports of numpy, scipy and refarm, building the inputs from the seed and
one warm-up call.  With ``--role setup`` the process stops there.

Passes repeat until the next one would end after ``--seconds`` (at least
the workload's minimum).  With ``--trace 1`` untraced and traced passes
alternate, starting untraced; only traced passes install the wraps, and
the ratio of their median times is the tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run_passes(workload, seconds, tracer, wraps):
    """Timed passes; returns (untraced seconds, untraced ops, traced seconds, roots)."""
    untraced, ops, traced, roots = [], [], [], []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(untraced) > len(traced)
        if use_trace:
            with tracer.installed(wraps):
                with tracer.span("bench.pass") as root:
                    outputs = workload.run_pass()
            roots.append(root)
            elapsed = (tracer.spans[root].end - tracer.spans[root].start) / 1e9
            traced.append(elapsed)
            workload.record(outputs)
        else:
            t = time.perf_counter()
            outputs = workload.run_pass()
            elapsed = time.perf_counter() - t
            untraced.append(elapsed)
            ops.append(workload.record(outputs))
        done = len(untraced) + len(traced)
        enough = done >= max(workload.min_passes, 2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + elapsed > seconds:
            return untraced, ops, traced, roots


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    scratch = OUT / f"tmp-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.toy, scratch)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = wraps = None
        if args.trace:
            from layers import WRAPS
            from spans import Tracer

            tracer, wraps = Tracer(), [wrap for wrap, _ in WRAPS]
        untraced, ops, traced, roots = _run_passes(workload, args.seconds, tracer, wraps)
    finally:
        workload.close()

    trace_report = _trace_report(tracer, roots, traced, untraced, args, workload) if tracer else {}
    result = {
        "setup_s": setup_s,
        "pass_s": untraced,
        "pass_ops": ops,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "unsuccessful": workload.unsuccessful,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": workload.quality,
        "failures": [str(exc) for exc in workload.failures],
        "env": _environment(),
        **trace_report,
    }
    print(json.dumps(result))
    return 0


def _trace_report(tracer, roots, traced, untraced, args, workload):
    """Check each traced pass, print notices, write the spans out, derive layer metrics."""
    import checks
    from layers import LAYERS, WRAPS
    from spans import layer_metrics, notice, self_times

    for root in roots:
        try:
            span = tracer.spans[root]
            checks.check_self_time_sum(self_times(tracer.spans, root).values(), span.end - span.start)
        except checks.CheckFailed as exc:
            workload.failures.append(exc)
    for target in tracer.missing:
        notice(f"{target} no longer exists; its layer reports zero calls")
    called = {span.name for span in tracer.spans}
    for wrap, expected_on in WRAPS:
        hit = any(name == wrap.layer or name.startswith(wrap.layer + ".") for name in called)
        if args.workload in expected_on and not hit and wrap.target not in tracer.missing:
            notice(f"{wrap.target} was not called on {args.workload}; its layer reports zero calls")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(
        json.dumps(
            {
                "roots": roots,
                "spans": [[s.name, s.start, s.end, s.parent, s.error, s.counts] for s in tracer.spans],
            }
        )
    )
    return {
        "layers": layer_metrics(tracer.spans, roots, LAYERS),
        "traced_pass_s": traced,
        "trace_slowdown": statistics.median(traced) / statistics.median(untraced),
    }


if __name__ == "__main__":
    sys.exit(main())
