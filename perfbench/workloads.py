"""The benchmark's workloads: inputs built from the seed, one timed pass, checks.

A workload object is made in the worker process after the clock for
set-up has started.  ``setup()`` builds every input from the seed and
makes one warm-up call; ``run_pass()`` is the timed region and returns
raw outputs; ``record()`` runs outside the timed region, applies the
correctness checks and accumulates operation counts and quality figures.
Every pass repeats the same inputs, so outputs must repeat exactly.

An operation is a solve_p1 call, a validation row, a sweep point or a
CLI command.  ``failed`` counts operations that raised, exited nonzero
or are otherwise unusable; ``unsuccessful`` adds solves that returned
``converged=False`` (a feasible, validated allocation whose duality gap
is still above tolerance).
"""

from __future__ import annotations

import math
import shutil
import sys
import traceback

import numpy as np

from refarm import allocator, cli, experiments
from refarm.allocator import AllocationProblem, SolverOptions
from refarm.asymptotics import interference_margin, supportable_load
from refarm.cdma import InterferenceProfile
from refarm.channel import gen_channel_set
from refarm.config import DEFAULT_TARGET_SINR_DB, RECEIVERS, SystemConfig

import checks


class Workload:
    min_passes = 1

    def __init__(self, seed, toy, scratch):
        self.seed = seed
        self.toy = toy
        self.scratch = scratch
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.unsuccessful = 0
        self.quality = {}
        self.failures = []  # CheckFailed, in order

    def record(self, outputs):
        """Account one pass; return the pass's operation count for its rate."""
        self.passes += 1
        return self._record(outputs)

    def check(self, fn, *args):
        """Apply one check; a failure is kept (once per message) and the run goes on."""
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            if all(str(exc) != str(seen) for seen in self.failures):
                self.failures.append(exc)

    def close(self):
        pass

    def _quality_max(self, key, value):
        self.quality[key] = max(self.quality.get(key, value), value)

    def _quality_min(self, key, value):
        self.quality[key] = min(self.quality.get(key, value), value)


def _report_exception(what):
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc()


class McValidate(Workload):
    """run_sinr_validation at the default point over {mf, mmse} x {awgn, selective}."""

    trials = 100
    rows_per_pass = 4  # {mf, mmse} x {awgn, selective}

    def setup(self):
        # No toy size: the criterion-3 bounds hold only near the default N = 256.
        self.cfg = SystemConfig()
        self.first_rows = None
        profile = InterferenceProfile.zero(self.cfg.n_subcarriers)
        rng = np.random.default_rng(self.seed)
        for receiver in RECEIVERS:
            experiments.empirical_cdma_sinr(self.cfg, profile, receiver, "selective", 1, rng)

    def run_pass(self):
        try:
            return experiments.run_sinr_validation(self.cfg, trials=self.trials, seed=self.seed)
        except Exception:
            _report_exception("run_sinr_validation")
            return None

    def _record(self, rows):
        self.attempted += self.rows_per_pass
        if rows is None:
            self.failed += self.rows_per_pass
            self.unsuccessful += self.rows_per_pass
            return 0
        self.check(checks.check_validation_rows, rows)
        if self.first_rows is None:
            self.first_rows = rows
        self.check(checks.check_repeatable, self.first_rows, rows, "validation rows")
        self._quality_max("sinr_max_rel_err", max(r["relative_error"] for r in rows))
        return sum(r["trials"] for r in rows)


class AllocSolve(Workload):
    """solve_p1 at default SolverOptions on prebuilt problems, no Monte Carlo."""

    n_tiny = 8

    def setup(self):
        cfg = SystemConfig(n_subcarriers=32, multipath_taps=4) if self.toy else SystemConfig()
        # The same split as the sweep's master seed, so the full-size gains
        # are the ones `refarm --seed S sweep-load` allocates over.
        gains_rng, tiny_rng = np.random.default_rng(self.seed).spawn(2)
        gains = gen_channel_set(cfg.replace(cdma_users=0), "selective", gains_rng).ofdma_gains
        points = []
        for receiver in RECEIVERS:
            limit = supportable_load(cfg.q, cfg.sigma2, cfg.beta_star, receiver)
            points += [(receiver, f * limit) for f in experiments.REGIME_LOAD_FRACTION.values()]
        # Two boundary points that stop unconverged at the default seed and
        # two converging interior points.
        points += [("mf", 0.55), ("mmse", 1.35), ("mf", 0.45), ("mmse", 1.15)]
        self.problems = []
        for receiver, alpha in points:
            # The OFDMA noise floor includes the CDMA load, so it moves with alpha.
            point = cfg.replace(alpha=alpha)
            margin = interference_margin(alpha, point.q, point.sigma2, point.beta_star, receiver).margin
            self.problems.append(
                AllocationProblem(
                    gains=gains,
                    noise_floor=point.noise_floor,
                    margin=margin,
                    power_caps=np.asarray(point.power_caps),
                )
            )
        # Tiny instances drawn as acceptance criterion 4 draws them, at 2 x 6
        # so that solve_p1 also enumerates every assignment.
        for _ in range(1 if self.toy else self.n_tiny):
            self.problems.append(
                AllocationProblem(
                    gains=tiny_rng.exponential(1.0, size=(2, 6)),
                    noise_floor=tiny_rng.uniform(0.5, 30.0),
                    margin=tiny_rng.uniform(0.05, 2.0),
                    power_caps=tiny_rng.uniform(1.0, 50.0, size=2),
                )
            )
        self.options = SolverOptions()
        self.first_rates = None
        allocator.solve_p1(self.problems[0], self.options)

    def run_pass(self):
        results = []
        for problem in self.problems:
            try:
                results.append(allocator.solve_p1(problem, self.options))
            except Exception:
                _report_exception("solve_p1")
                results.append(None)
        return results

    def _record(self, results):
        self.attempted += len(results)
        rates = []
        for problem, result in zip(self.problems, results):
            if result is None:
                self.failed += 1
                self.unsuccessful += 1
                rates.append(None)
                continue
            alloc, state, rate = result
            self.check(checks.check_allocation, alloc, problem)
            self.unsuccessful += int(not state.converged)
            self._quality_max("max_duality_gap", float(state.gap_trace[-1]))
            rates.append(rate)
        if self.first_rates is None:
            self.first_rates = rates
            self.quality["throughput_bits"] = float(sum(r for r in rates if r is not None))
        self.check(checks.check_repeatable, self.first_rates, rates, "solve_p1 throughputs")
        return len(results)


class LoadSweep(Workload):
    """`refarm sweep-load` in-process for mf then mmse on the default grid."""

    min_passes = 2
    trials = 30

    def setup(self):
        toy = ["--set", "subcarriers=64", "--set", "multipath=8", "--set", "grid=0.05:0.65:0.3"]
        self.argv = {
            receiver: [
                "--seed", str(self.seed),
                "--trials", str(2 if self.toy else self.trials),
                "--quiet",
                "--set", f"receiver={receiver}",
                *(toy if self.toy else []),
                "sweep-load",
            ]
            for receiver in RECEIVERS
        }
        self.first_csv = {}
        self.solves = []
        self._observe_solves()
        if cli.main(["--out", str(self.scratch / "warmup"), "--quiet", "margin"]) != 0:
            raise RuntimeError("warm-up `refarm margin` exited nonzero")

    def _observe_solves(self):
        """Keep every (problem, result) the sweep solves, for checks after the pass."""
        original = getattr(experiments, "solve_p1", None)
        if original is None:
            print("notice: refarm.experiments.solve_p1 not found; sweep solves unchecked",
                  file=sys.stderr)
            return
        solves = self.solves

        def observed(problem, *args, **kwargs):
            result = original(problem, *args, **kwargs)
            solves.append((problem, result))
            return result

        self._original_solve = original
        experiments.solve_p1 = observed

    def close(self):
        if getattr(self, "_original_solve", None) is not None:
            experiments.solve_p1 = self._original_solve
        shutil.rmtree(self.scratch, ignore_errors=True)

    def run_pass(self):
        out = self.scratch / f"pass{self.passes}"
        codes = {}
        for receiver in RECEIVERS:
            try:
                codes[receiver] = cli.main(["--out", str(out / receiver)] + self.argv[receiver])
            except Exception:
                _report_exception(f"sweep-load receiver={receiver}")
                codes[receiver] = None
        return out, codes

    def _record(self, outputs):
        out, codes = outputs
        solves = list(self.solves)
        self.solves.clear()
        points, throughput = 0, 0.0
        for receiver, code in codes.items():
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.unsuccessful += 1
                continue
            data = (out / receiver / "sweep_load.csv").read_bytes()
            self.first_csv.setdefault(receiver, data)
            self.check(checks.check_identical, self.first_csv[receiver], data, f"sweep_load.csv ({receiver})")
            rows = checks.parse_sweep_csv(data)
            self.check(checks.check_protection, rows, DEFAULT_TARGET_SINR_DB)
            self.attempted += len(rows)
            points += len(rows)
            throughput += sum(r["ofdma_throughput"] for r in rows)
            self._record_quality(rows)
        for problem, (alloc, state, _) in solves:
            self.attempted += 1
            self.check(checks.check_allocation, alloc, problem)
            self.unsuccessful += int(not state.converged)
            self._quality_max("max_duality_gap", float(state.gap_trace[-1]))
        self.quality["throughput_bits"] = throughput
        shutil.rmtree(out, ignore_errors=True)
        return points

    def _record_quality(self, rows):
        for margin in checks.protection_margins_db(rows, DEFAULT_TARGET_SINR_DB):
            self._quality_min("protection_min_db", margin)
        for r in rows:
            if not r["feasible"]:
                continue
            theory = r["cdma_sinr_theory"]
            if theory > 0 and not math.isnan(r["cdma_sinr_empirical_mean"]):
                err = abs(r["cdma_sinr_empirical_mean"] - theory) / theory
                self._quality_max("sinr_max_rel_err", err)


WORKLOADS = {"mc_validate": McValidate, "alloc_solve": AllocSolve, "load_sweep": LoadSweep}
