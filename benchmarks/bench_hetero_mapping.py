"""Experiment E24 — heterogeneous engines: mapping quality, determinism.

Three gates over :mod:`repro.hetero` (engine pools, multi-version EUs
and the EU-to-engine mapping layer):

1. **Mapping quality** — an inference-serving request graph (ingress
   -> 4 multi-version model shards -> reply) on a node with two
   non-preemptive GPU units is simulated three ways: every shard on
   the CPU, shards mapped by the :func:`repro.auto_map` load-balance +
   critical-path heuristic, and the oracle-best assignment found by
   exhaustive :func:`repro.enumerate_assignments` search.  The gate:
   the heuristic beats cpu-only by at least :data:`SPEEDUP_FLOOR` (2x)
   while staying within :data:`ORACLE_SLACK` (10%) of the oracle.
   Response times are exact microsecond figures and are compared
   **exactly** against the committed baseline.
2. **Engine-trace determinism** — an engines-enabled
   :class:`repro.Scenario` (four cells, a GPU-backed infer tier) is
   run once; its record count and the SHA-256 of its engine-tagged
   ``cpu`` and ``dispatcher`` records must reproduce the baseline
   exactly.
3. **Mapped-scenario throughput** — wall-clock requests/sec of the
   hetero scenario, compared baseline-relative after the gate's
   in-process calibration normalization.

Gate design (``--check``, ``benchmarks/gate.py``): the figures of the
first two gates are compared **exactly** against the
``e24_hetero_mapping`` section of the committed ``BENCH_engine.json``.

CLI::

    python benchmarks/bench_hetero_mapping.py --write   # re-baseline
    python benchmarks/bench_hetero_mapping.py --check   # regression gate
    python benchmarks/bench_hetero_mapping.py --smoke   # CI-sized run
"""

import hashlib
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from benchmarks import gate  # noqa: E402

#: This experiment's section of BENCH_engine.json.
SECTION = "e24_hetero_mapping"

SEED = 3
HORIZON = 200_000
REPEATS = 3

#: The auto_map heuristic must beat cpu-only by at least this factor.
SPEEDUP_FLOOR = 2.0

#: ... while staying within this fraction of the oracle-best mapping.
ORACLE_SLACK = 0.10

#: Fractional drop of calibration-normalized scenario throughput that
#: fails the gate (quality/determinism figures are compared exactly).
#: Wider than the E23 gate: the hetero scenario is short enough that
#: per-run wall-clock noise dominates, and the exact quality and
#: digest comparisons above carry the semantic regression load.
REGRESSION_TOLERANCE = 0.5

#: Seeded figures of the determinism cell, compared exactly.
DETERMINISM_KEYS = ("records", "engine_records", "engine_sha256")

SHARD_UNITS = 4
CPU_WCET = 8_000
GPU_WCET = 900
PLATFORM = {"serve0": {"gpu": 2}}


# -- gate 1: mapping quality ---------------------------------------------------


def build_request():
    """ingress -> 4 multi-version model shards -> reply."""
    from repro import Task

    task = Task("inference", deadline=1_000_000, node_id="serve0")
    ingress = task.code_eu("ingress", wcet=200)
    reply = task.code_eu("reply", wcet=200)
    for i in range(SHARD_UNITS):
        shard = task.code_eu(f"shard{i}", wcet=CPU_WCET,
                             variants={"gpu": GPU_WCET})
        task.precede(ingress, shard)
        task.precede(shard, reply)
    return task.validate()


def _simulate(task):
    from repro import DispatcherCosts, HadesSystem

    system = HadesSystem(node_ids=["serve0"],
                         costs=DispatcherCosts.zero(),
                         engines=PLATFORM)
    instance = system.activate(task)
    system.run()
    return instance.response_time


def quality_check():
    """cpu-only vs heuristic vs exhaustive-oracle response times."""
    from repro import apply_assignment, auto_map, enumerate_assignments

    cpu_response = _simulate(build_request())

    mapped_task = build_request()
    assignment = auto_map(mapped_task, PLATFORM)
    mapped_response = _simulate(mapped_task)

    oracle_response = None
    combos = 0
    for candidate in enumerate_assignments(build_request(), PLATFORM):
        combos += 1
        task = build_request()
        apply_assignment(task, candidate)
        response = _simulate(task)
        if oracle_response is None or response < oracle_response:
            oracle_response = response

    speedup = cpu_response / mapped_response
    oracle_ratio = mapped_response / oracle_response
    assert speedup >= SPEEDUP_FLOOR, \
        (f"auto_map speedup {speedup:.2f}x below the "
         f"{SPEEDUP_FLOOR:.0f}x floor")
    assert oracle_ratio <= 1.0 + ORACLE_SLACK, \
        (f"auto_map {oracle_ratio:.2f}x of oracle exceeds "
         f"{1.0 + ORACLE_SLACK:.2f}x")
    return {
        "cpu_only_us": cpu_response,
        "mapped_us": mapped_response,
        "oracle_us": oracle_response,
        "oracle_space": combos,
        "offloaded": assignment.offloaded(),
        "speedup_milli": int(speedup * 1000),
        "oracle_ratio_milli": int(oracle_ratio * 1000),
    }


# -- gate 2: engine-trace determinism ------------------------------------------


def build_scenario(seed=SEED):
    """Engines-enabled four-cell scenario with IRQ and scheduler costs
    zeroed."""
    from repro import Scenario

    return (Scenario()
            .tier("edge", replicas=1, wcet=200)
            .tier("infer", fan_out=2, wcet=CPU_WCET,
                  engines={"gpu": 2}, variants={"gpu": GPU_WCET})
            .cells(4)
            .tenant("gold", rate=200, deadline=50_000)
            .tenant("bronze", rate=150, deadline=50_000)
            .policy("edf", w_sched=0)
            .load(1.0)
            .options(network_latency=50, network_jitter=0,
                     node_kwargs={"net_irq_wcet": 0})
            .seed(seed))


def _engine_digest(records):
    """(count, sha256) of the engine-tagged record stream."""
    lines = [json.dumps({"time": r.time, "category": r.category,
                         "event": r.event, "details": r.details},
                        sort_keys=True)
             for r in records if "engine" in r.details]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(lines), digest


def determinism_check(horizon=HORIZON):
    """Record count and engine-record digest of one scenario run."""
    result = build_scenario().run(until=horizon)
    engine_records, digest = _engine_digest(result.system.tracer.records)
    assert engine_records, "hetero scenario must emit engine records"
    return {"records": len(result.system.tracer),
            "engine_records": engine_records, "engine_sha256": digest}


# -- gate 3: mapped-scenario throughput ----------------------------------------


def throughput_check(horizon=HORIZON, repeats=REPEATS):
    """Best-of-N wall-clock requests/sec of the hetero scenario."""
    best = 0.0
    completed = 0
    for _ in range(repeats):
        builder = build_scenario()
        start = time.perf_counter()
        result = builder.run(until=horizon)
        elapsed = time.perf_counter() - start
        completed = sum(result.tenant(name)["completed"]
                        for name in ("gold", "bronze"))
        assert completed > 0, "no completed requests"
        best = max(best, completed / elapsed)
    return {"completed": completed,
            "requests_per_sec": round(best, 1)}


def measure(horizon=HORIZON, repeats=REPEATS):
    """All three gates."""
    calibration = gate.calibration(2)
    quality = quality_check()
    determinism = determinism_check(horizon=horizon)
    throughput = throughput_check(horizon=horizon, repeats=repeats)
    throughput["normalized"] = (throughput["requests_per_sec"]
                                / calibration)
    return {
        "experiment": "E24",
        "description": "heterogeneous engines: auto_map quality vs "
                       "cpu-only and oracle, engine-trace "
                       "determinism, mapped-scenario throughput "
                       "(see benchmarks/bench_hetero_mapping.py)",
        "seed": SEED,
        "horizon": horizon,
        "calibration_ops_per_sec": round(calibration, 1),
        "tolerance": REGRESSION_TOLERANCE,
        "quality": quality,
        "determinism": determinism,
        "throughput": throughput,
    }


def check(results, baseline):
    """Exact quality/determinism figures + the throughput gate."""
    tolerance = baseline.get("tolerance", REGRESSION_TOLERANCE)
    failures = gate.exact(
        "quality", results["quality"], baseline["quality"],
        ("cpu_only_us", "mapped_us", "oracle_us", "oracle_space",
         "offloaded", "speedup_milli", "oracle_ratio_milli"))
    failures += gate.exact("determinism", results["determinism"],
                           baseline["determinism"], DETERMINISM_KEYS)
    failures += gate.floor("throughput", results["throughput"]["normalized"],
                           baseline["throughput"]["normalized"], tolerance)
    return failures


def _print_results(results, baseline=None):
    from benchmarks.conftest import print_table

    quality = results["quality"]
    rows = [
        ["cpu-only", f"{quality['cpu_only_us']:,} us", "1.00x"],
        ["auto_map heuristic", f"{quality['mapped_us']:,} us",
         f"{quality['speedup_milli'] / 1000:.2f}x"],
        ["oracle (exhaustive)", f"{quality['oracle_us']:,} us",
         f"heuristic at {quality['oracle_ratio_milli'] / 1000:.2f}x"],
    ]
    print_table(
        f"E24 — mapping quality, {SHARD_UNITS} shards "
        f"(cpu {CPU_WCET} us / gpu {GPU_WCET} us, 2 GPU units, "
        f"{quality['oracle_space']} mappings searched)",
        ["mapping", "response", "vs cpu-only"], rows)
    cell = results["determinism"]
    print_table(
        f"E24 — engine-trace determinism, seed {results['seed']}, "
        f"horizon {results['horizon']:,} us",
        ["records", "engine records", "engine sha256"],
        [[cell["records"], cell["engine_records"],
          cell["engine_sha256"][:12]]])
    throughput = results["throughput"]
    suffix = ""
    if baseline is not None:
        suffix = (f"  ({throughput['normalized'] / baseline['throughput']['normalized']:.2f}x"
                  f" baseline)")
    print_table("E24 — mapped-scenario throughput",
                ["figure", "value"],
                [["completed requests", throughput["completed"]],
                 ["requests/sec",
                  f"{throughput['requests_per_sec']:,.0f}{suffix}"]])


def smoke():
    """CI-sized sanity run: mapping quality (2x floor, 10% oracle
    slack) and engine records emitted.  No baseline comparison —
    containers are too noisy for wall-clock gates, and the quality
    asserts are the point."""
    results = measure(horizon=150_000, repeats=2)
    _print_results(results)
    print("smoke passed: auto_map beats cpu-only >= 2x within 10% of "
          "the oracle; engine records emitted")
    return 0


#: pytest entry point so ``pytest benchmarks/ --benchmark-only`` and
#: ``python -m repro.experiments E24`` regenerate the comparison table.
def test_hetero_mapping(benchmark):
    results = benchmark.pedantic(
        lambda: measure(horizon=150_000, repeats=2),
        rounds=1, iterations=1)
    _print_results(results)


if __name__ == "__main__":
    raise SystemExit(gate.main(__doc__, SECTION, measure, check,
                               _print_results, smoke))
