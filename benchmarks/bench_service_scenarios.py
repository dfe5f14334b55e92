"""Experiment E22 — production service scenarios under 1x-10x load.

A four-cell edge -> service -> storage deployment (tree fan-out DAG
requests, lognormal service tier, four tenant classes with (m, k)-firm
SLOs) is driven through the fluent ``repro.Scenario`` builder under
four configurations — plain EDF, Spring planning, EDF + admission
``reject`` and EDF + admission ``mk_firm`` — at 1x, 3x and 10x the
declared tenant rates.  For every (config, load) cell the scoreboard's
per-tenant p99/p999 latency, miss counts and accrued value are
recorded, quantifying the admission-control claim: under overload the
uncontrolled policies miss deadlines on admitted work, while the
admission-controlled ones shed load *before* guaranteeing it and keep
the admitted-work miss ratio at zero (enforced here as a hard
invariant at every load, not just the <= 3x the issue requires).

Gate design (``--check``, ``benchmarks/gate.py``): scenario runs are
fully seeded and deterministic, so the scoreboard figures (value,
admitted, missed) are compared **exactly** against the
``e22_service_scenarios`` section of the committed
``BENCH_engine.json``; wall-clock throughput (requests simulated per
second) is compared baseline-relative after normalizing by the gate's
in-process calibration loop, so runner speed never masquerades as a
regression.

CLI::

    python benchmarks/bench_service_scenarios.py --write   # re-baseline
    python benchmarks/bench_service_scenarios.py --check   # regression gate
    python benchmarks/bench_service_scenarios.py --smoke   # CI-sized run
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from benchmarks import gate  # noqa: E402

#: This experiment's section of BENCH_engine.json.
SECTION = "e22_service_scenarios"

SEED = 7
HORIZON = 400_000
LOADS = (1.0, 3.0, 10.0)
CONFIGS = ("edf", "spring", "adm_reject", "adm_mk_firm")
#: Loads at which admission-controlled configs must show zero misses on
#: admitted work (the issue requires <= 3x; empirically the pooled
#: response-time test holds the line at 10x too).
ADMITTED_MISS_FREE_LOADS = (1.0, 3.0, 10.0)
REPEATS = 2

#: Fractional drop of calibration-normalized simulation throughput that
#: fails the gate (scoreboard figures are compared exactly instead).
REGRESSION_TOLERANCE = 0.35

TENANTS = (
    # (name, rate req/s, mk, value, deadline us)
    ("gold", 60, (9, 10), 5, 40_000),
    ("silver", 100, (4, 5), 3, 50_000),
    ("bronze", 200, (1, 4), 1, 60_000),
    ("free", 150, None, 1, 80_000),
)


def build_scenario(config, load, horizon=HORIZON):
    """One (config, load) scenario on the shared deployment."""
    from repro import LogNormalService, Scenario

    builder = (Scenario()
               .tier("edge", replicas=2, wcet=300)
               .tier("svc", fan_out=3, wcet=800,
                     service=LogNormalService(median=250, sigma=0.7))
               .tier("store", fan_out=2, wcet=600)
               .cells(4)
               .load(load)
               .seed(SEED))
    for name, rate, mk, value, deadline in TENANTS:
        builder.tenant(name, rate=rate, mk=mk, value=value,
                       deadline=deadline)
    if config == "spring":
        builder.policy("spring", w_sched=0)
    else:
        builder.policy("edf", w_sched=0)
    if config == "adm_reject":
        builder.admission("reject")
    elif config == "adm_mk_firm":
        builder.admission("mk_firm")
    return builder


def run_cell(config, load, horizon=HORIZON):
    """Run one (config, load) cell; returns (summary dict, wall secs)."""
    start = time.perf_counter()
    result = build_scenario(config, load, horizon).run(until=horizon)
    elapsed = time.perf_counter() - start
    board = result.scoreboard.to_dict()
    admitted = sum(row["admitted"] for row in board.values())
    missed = sum(row["missed"] for row in board.values())
    summary = {
        "completed": result.completed,
        "admitted": admitted,
        "missed": missed,
        "scheduler_rejections": result.scheduler_rejections,
        "value": result.accrued_value(),
        "tenants": {
            name: {key: row[key]
                   for key in ("submitted", "admitted", "missed",
                               "p99", "p999", "value", "mk_violations")}
            for name, row in board.items()
        },
    }
    return summary, elapsed


def _assert_admission_invariant(config, load, summary):
    if config in ("adm_reject", "adm_mk_firm") \
            and load in ADMITTED_MISS_FREE_LOADS:
        assert summary["missed"] == 0, \
            (f"{config} at {load}x missed {summary['missed']} admitted "
             f"requests — the guarantee test let overload through")


def measure(loads=LOADS, configs=CONFIGS, horizon=HORIZON,
            repeats=REPEATS):
    """The full config x load matrix (best-of-N wall throughput)."""
    calibration = gate.calibration(repeats)
    cells = {}
    for config in configs:
        for load in loads:
            best_elapsed = None
            summary = None
            for _ in range(repeats):
                fresh, elapsed = gate.timed(run_cell, config=config,
                                            load=load, horizon=horizon)
                if summary is not None and fresh != summary:
                    raise AssertionError(
                        f"{config}@{load}x not deterministic across "
                        "repeats")
                summary = fresh
                best_elapsed = (elapsed if best_elapsed is None
                                else min(best_elapsed, elapsed))
            _assert_admission_invariant(config, load, summary)
            rate = summary["completed"] / best_elapsed
            summary["requests_per_sec"] = round(rate, 1)
            summary["normalized"] = rate / calibration
            cells[f"{config}@{load:g}x"] = summary
    return {
        "experiment": "E22",
        "description": "service scenarios: EDF vs Spring vs admission "
                       "under 1x-10x load "
                       "(see benchmarks/bench_service_scenarios.py)",
        "seed": SEED,
        "horizon": horizon,
        "calibration_ops_per_sec": round(calibration, 1),
        "tolerance": REGRESSION_TOLERANCE,
        "cells": cells,
    }


def check(results, baseline):
    """Exact scoreboard match + baseline-relative throughput gate."""
    tolerance = baseline.get("tolerance", REGRESSION_TOLERANCE)
    failures = []
    for label, entry in baseline["cells"].items():
        fresh = results["cells"].get(label)
        if fresh is None:
            failures.append((label, "missing"))
            continue
        failures += gate.exact(label, fresh, entry,
                               ("completed", "admitted", "missed", "value"))
        failures += gate.floor(f"{label}[throughput]", fresh["normalized"],
                               entry["normalized"], tolerance)
    return failures


def _print_results(results, baseline=None):
    from benchmarks.conftest import print_table

    rows = []
    for label, entry in results["cells"].items():
        gold = entry["tenants"].get("gold", {})
        row = [label, entry["completed"], entry["missed"],
               entry["scheduler_rejections"], entry["value"],
               gold.get("p99"), gold.get("p999"),
               f"{entry['requests_per_sec']:,.0f}"]
        if baseline is not None:
            base = baseline["cells"].get(label)
            row.append("" if base is None else
                       f"{entry['normalized'] / base['normalized']:.2f}x")
        rows.append(row)
    headers = ["config@load", "completed", "missed", "sched rej",
               "value", "gold p99", "gold p999", "req/s"]
    if baseline is not None:
        headers.append("vs baseline")
    print_table(
        f"E22 — service scenarios, seed {results['seed']}, horizon "
        f"{results['horizon']:,} us "
        f"(calibration {results['calibration_ops_per_sec']:,.0f} ops/s)",
        headers, rows)


def smoke():
    """CI-sized sanity run: shortened horizon, 1x/3x, and the
    admitted-work invariant.  No baseline comparison — containers are
    too noisy."""
    _print_results(measure(loads=(1.0, 3.0), horizon=150_000, repeats=1))
    print("smoke passed: no admitted request missed its deadline")
    return 0


#: pytest entry point so ``pytest benchmarks/ --benchmark-only`` and
#: ``python -m repro.experiments E22`` regenerate the comparison table.
def test_service_scenarios(benchmark):
    results = benchmark.pedantic(
        lambda: measure(loads=(1.0, 3.0), horizon=150_000, repeats=1),
        rounds=1, iterations=1)
    _print_results(results)


if __name__ == "__main__":
    raise SystemExit(gate.main(__doc__, SECTION, measure, check,
                               _print_results, smoke))
