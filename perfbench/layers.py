"""Which refarm names the traced run wraps, and the layer metrics they give.

Layers are refarm's modules.  Each wrap sits at the name the caller looks
up at call time, so moving a function between modules leaves its wrap
uncalled (reported as zero calls with a notice) instead of crashing.
``on`` lists the workloads that are expected to call the name; the
prediction table in README.md says which end-to-end metric each layer
should move there.
"""

from __future__ import annotations

import os

from spans import Wrap

# Instances with K**N at or below this many assignments take the
# exhaustive-enumeration path of solve_p1 at default SolverOptions.
TINY_ASSIGNMENTS = 4096

MC = ("mc_validate", "load_sweep")


def _u_vs_n(args, kwargs):
    users, n = args[0].shape
    return "u_lt_n" if users < n else "u_ge_n"


def _full_or_tiny(args, kwargs):
    users, n = args[0].gains.shape
    return "tiny" if users >= 1 and users**n <= TINY_ASSIGNMENTS else "full"


def _solve_counts(result, args, kwargs):
    _, state, _ = result
    return {
        "iterations": state.iteration,
        "unconverged": int(not state.converged),
        "max_gap": float(state.gap_trace[-1]),
    }


def _fixed_point_counts(result, args, kwargs):
    return {"iterations": result.iterations}


def _csv_bytes(result, args, kwargs):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (wrap, workloads expected to call it)
WRAPS = [
    (Wrap("refarm.experiments:gen_spreading_codes", "cdma.gen_spreading_codes"), MC),
    (Wrap("refarm.experiments:effective_signatures", "cdma.effective_signatures"), MC),
    (Wrap("refarm.experiments:mf_sinr_exact", "cdma.mf_sinr_exact"), MC),
    (Wrap("refarm.experiments:mmse_sinr_exact", "cdma.mmse_sinr_exact", split=_u_vs_n), MC),
    (Wrap("refarm.experiments:gen_channel_set", "channel.gen_channel_set"), MC),
    (Wrap("refarm.experiments:empirical_cdma_sinr", "experiments.empirical_cdma_sinr"), MC),
    (
        Wrap("refarm.experiments:run_sinr_validation", "experiments.run_sinr_validation"),
        ("mc_validate",),
    ),
    (Wrap("refarm.cli:run_load_sweep", "experiments.run_load_sweep"), ("load_sweep",)),
    (
        Wrap("refarm.experiments:solve_p1", "allocator.solve_p1", _full_or_tiny, _solve_counts),
        ("load_sweep",),
    ),
    (
        Wrap("refarm.allocator:solve_p1", "allocator.solve_p1", _full_or_tiny, _solve_counts),
        ("alloc_solve",),
    ),
    (
        Wrap("refarm.experiments:interference_margin", "asymptotics.interference_margin"),
        ("load_sweep",),
    ),
    (Wrap("refarm.experiments:mf_asymptotic_uniform", "asymptotics.mf_asymptotic_uniform"), MC),
    (
        Wrap(
            "refarm.experiments:mmse_fixed_point_uniform",
            "asymptotics.mmse_fixed_point_uniform",
            observe=_fixed_point_counts,
        ),
        MC,
    ),
    (Wrap("refarm.cli:main", "cli.main"), ("load_sweep",)),
    (Wrap("refarm.cli_io:parse_config", "cli_io.parse_config"), ("load_sweep",)),
    (Wrap("refarm.cli_io:emit_resolved_config", "cli_io.emit_resolved_config"), ("load_sweep",)),
    (Wrap("refarm.cli_io:emit_csv", "cli_io.emit_csv", observe=_csv_bytes), ("load_sweep",)),
]

SOLVE_STATS = ("calls", "self_s", "p50_ms", "iterations", "unconverged", "max_gap")

# Layer name -> stats reported for it.  "bench.pass" is the root span of
# each traced pass; its self time is the benchmark's own glue plus any
# refarm code no wrap covers.
LAYERS = {
    "cdma.mmse_sinr_exact.u_lt_n": ("calls", "self_s", "p50_ms", "p99_ms", "errors"),
    "cdma.mmse_sinr_exact.u_ge_n": ("calls", "self_s", "p50_ms", "errors"),
    "cdma.mf_sinr_exact": ("calls", "self_s", "p50_ms", "p99_ms", "errors"),
    "cdma.effective_signatures": ("self_s",),
    "cdma.gen_spreading_codes": ("self_s",),
    "channel.gen_channel_set": ("calls", "self_s", "p50_ms"),
    "experiments.empirical_cdma_sinr": ("calls", "self_s"),
    "experiments.run_sinr_validation": ("self_s",),
    "experiments.run_load_sweep": ("self_s",),
    "allocator.solve_p1.full": SOLVE_STATS,
    "allocator.solve_p1.tiny": SOLVE_STATS,
    "asymptotics.interference_margin": ("calls", "self_s"),
    "asymptotics.mf_asymptotic_uniform": ("calls", "self_s"),
    "asymptotics.mmse_fixed_point_uniform": ("calls", "self_s", "iterations"),
    "cli.main": ("self_s",),
    "cli_io.parse_config": ("self_s",),
    "cli_io.emit_resolved_config": ("self_s",),
    "cli_io.emit_csv": ("self_s", "bytes"),
    "bench.pass": ("self_s",),
}
