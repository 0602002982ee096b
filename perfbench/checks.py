"""Correctness checks on the program's outputs.

Each check raises CheckFailed naming itself; the worker records the
failure, the run reports ``correct: false`` and the launcher exits
nonzero.  The checks take plain outputs so the self-test can feed them
deliberately corrupted ones.
"""

from __future__ import annotations

import csv
import io
import math

from refarm.errors import InvalidParameterError

# Criterion-3 bounds on the selective rows of the SINR validation.  The
# awgn rows are reported but not gated: their finite-N bias is about 6 %.
SELECTIVE_REL_ERR_BOUND = {"mf": 0.05, "mmse": 0.10}

# Criterion-7 floor: empirical CDMA SINR at least target - 0.3 dB at every
# feasible sweep point.
PROTECTION_SLACK_DB = 0.3


class CheckFailed(Exception):
    def __init__(self, check, detail):
        super().__init__(f"{check}: {detail}")
        self.check = check


def check_allocation(alloc, problem):
    """Every returned allocation passes PowerAllocation.validate(problem)."""
    try:
        alloc.validate(problem)
    except InvalidParameterError as exc:
        raise CheckFailed("allocation_valid", str(exc)) from exc


def check_validation_rows(rows):
    """Selective rows of the SINR validation meet the criterion-3 bounds."""
    for row in rows:
        if row["channel_model"] != "selective":
            continue
        bound = SELECTIVE_REL_ERR_BOUND[row["receiver"]]
        if not row["relative_error"] < bound:
            raise CheckFailed(
                "sinr_validation_bound",
                f"{row['receiver']} selective relative error {row['relative_error']:.4f} >= {bound}",
            )


def parse_sweep_csv(data: bytes):
    """Rows of a sweep CSV as dicts of floats (booleans as 0/1)."""
    rows = []
    for raw in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        rows.append({k: 1.0 if v == "true" else 0.0 if v == "false" else float(v) for k, v in raw.items()})
    return rows


def protection_margins_db(rows, target_db):
    """Empirical CDMA SINR minus target, in dB, at every feasible point."""
    out = []
    for row in rows:
        if not row["feasible"]:
            continue
        mean = row["cdma_sinr_empirical_mean"]
        out.append(10.0 * math.log10(mean) - target_db if mean > 0 else -math.inf)
    return out


def check_protection(rows, target_db):
    """Criterion-7 floor at every feasible point of a load sweep."""
    for alpha, margin in zip(
        (r["alpha"] for r in rows if r["feasible"]), protection_margins_db(rows, target_db)
    ):
        if not margin >= -PROTECTION_SLACK_DB:
            raise CheckFailed(
                "protection_floor",
                f"alpha={alpha:g}: empirical SINR {margin:+.3f} dB from target, floor -{PROTECTION_SLACK_DB} dB",
            )


def check_identical(first: bytes, again: bytes, label):
    """Two passes over the same inputs write byte-identical files."""
    if first != again:
        raise CheckFailed("byte_identical", f"{label} differs between passes")


def check_repeatable(first, again, label):
    """Two passes over the same inputs return the same results."""
    if first != again:
        raise CheckFailed("repeatable", f"{label} differs between passes")


def check_self_time_sum(self_ns, root_duration_ns):
    """Self times of one traced pass sum to the root span's duration."""
    total = sum(self_ns)
    if total != root_duration_ns:
        raise CheckFailed(
            "self_time_sum", f"self times sum to {total} ns, root span lasted {root_duration_ns} ns"
        )
