"""Experiment E21 — sharded-simulation scaling over T_network lookahead.

A 256-node partitionable fan-out deployment (per-node periodic HEUG
chains plus cross-block messaging, full-mesh network built lazily) is
run serially and with ``run(shards=N)`` for N in 1/2/4/8, measuring
end-to-end **activation throughput** (activations completed per wall
second, worker construction and trace merging included).  The curve
quantifies the tentpole claim of the sharded executor: conservative
synchronization over the paper's guaranteed delivery bounds turns the
T_network layer into usable parallelism.

Gate design (``--check``, ``benchmarks/gate.py``): every fresh run is
compared against the ``e21_sharded_scaling`` section of the committed
``BENCH_engine.json`` **baseline-relative**, after normalizing by the
gate's in-process calibration loop, so runner speed never masquerades
as a regression.  The *absolute* speedup column is
recorded but only enforced when the measuring host actually has the
cores: on >= 8 physical CPUs the committed baseline must record at
least ``SPEEDUP_TARGET``x serial throughput at 8 shards; on smaller
hosts (CI containers are routinely 1-2 cores, where 8 forked workers
time-slice one CPU) the target is documented, recorded, and skipped —
the baseline-relative ratchet still catches coordination-layer
regressions there, because the per-window protocol overhead dominates
the single-core rate.  On a host with the cores, ``--write`` refuses
to record a speedup below the target.

CLI::

    python benchmarks/bench_sharded_scaling.py --write   # re-baseline
    python benchmarks/bench_sharded_scaling.py --check   # regression gate
    python benchmarks/bench_sharded_scaling.py --smoke   # CI-sized sanity run
"""

import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from benchmarks import gate  # noqa: E402

#: This experiment's section of BENCH_engine.json.
SECTION = "e21_sharded_scaling"

NODES = 256
ACTIVATIONS_PER_NODE = 3
PERIOD = 10_000
HORIZON = PERIOD * ACTIVATIONS_PER_NODE + 5_000
SHARD_COUNTS = (1, 2, 4, 8)
REPEATS = 3

#: Fractional drop of calibration-normalized throughput that fails the
#: gate, per shard count.  Sharded runs add OS process-scheduling noise
#: on top of the interpreter variance the E17 gate absorbs with 0.25;
#: observed run-to-run swing on a loaded 1-core container is ~30%, so
#: the floor sits below that (a real coordination regression — e.g. an
#: extra sync round per window — costs well over 40%).
REGRESSION_TOLERANCE = 0.40

#: Required committed speedup of 8 shards over serial — enforced at
#: --write and --check only when the host has >= SPEEDUP_TARGET_CORES
#: cores (see module docstring).
SPEEDUP_TARGET = 4.0
SPEEDUP_TARGET_CORES = 8


def build_scenario(node_count=NODES, activations=ACTIVATIONS_PER_NODE):
    """A shard-agnostic builder for the fan-out deployment."""
    from repro.core.attributes import Periodic
    from repro.core.heug import Task
    from repro.scheduling.edf import EDFScheduler

    node_ids = [f"n{i:03d}" for i in range(node_count)]
    block = max(1, node_count // 8)

    def build(system):
        for i, nid in enumerate(node_ids):
            system.attach_scheduler(EDFScheduler(scope=nid, w_sched=0))
            task = Task(f"t{nid}", deadline=PERIOD // 2,
                        arrival=Periodic(period=PERIOD,
                                         phase=100 + (i * 37) % PERIOD // 2),
                        node_id=nid)
            first = task.code_eu("a", wcet=60)
            second = task.code_eu("b", wcet=40)
            task.precede(first, second)
            system.register_periodic(task, count=activations)
        # Cross-block fan-out: node i messages its peer one block ahead
        # every period — guaranteed cross-shard traffic at every shard
        # count, so the synchronization protocol is always on the path.
        for i, nid in enumerate(node_ids):
            dst = node_ids[(i + block) % node_count]
            iface = system.network.interfaces[nid]
            for k in range(activations):
                system.sim.call_at(
                    300 + (i * 37) % PERIOD // 2 + k * PERIOD,
                    lambda iface=iface, dst=dst, k=k:
                    iface.send(dst, k, size=32))

    return node_ids, build


def run_once(shards, node_count=NODES, activations=ACTIVATIONS_PER_NODE):
    """One full run; returns (activations/sec, trace record count)."""
    from repro.core.costs import DispatcherCosts
    from repro.system import HadesSystem

    node_ids, build = build_scenario(node_count, activations)
    system = HadesSystem.scripted(build, node_ids=node_ids,
                                  costs=DispatcherCosts.zero(),
                                  lazy_links=True, seed=11)
    total = node_count * activations
    start = time.perf_counter()
    if shards == 1:
        system.run(until=HORIZON)
    else:
        system.run(until=HORIZON, shards=shards)
    elapsed = time.perf_counter() - start
    return total / elapsed, len(system.tracer)


def measure(shard_counts=SHARD_COUNTS, repeats=REPEATS,
            node_count=NODES, activations=ACTIVATIONS_PER_NODE):
    """Best-of-N activation throughput per shard count, interleaved."""
    calibration = gate.calibration(repeats)
    best = {shards: 0.0 for shards in shard_counts}
    records = {}
    for _ in range(repeats):
        for shards in shard_counts:
            rate, count = gate.timed(run_once, shards=shards,
                                     node_count=node_count,
                                     activations=activations)
            best[shards] = max(best[shards], rate)
            records[shards] = count
    serial_rate = best[shard_counts[0]]
    curve = {}
    for shards in shard_counts:
        curve[str(shards)] = {
            "rate": round(best[shards], 1),
            "unit": "activations/sec",
            "normalized": best[shards] / calibration,
            "speedup_vs_serial": round(best[shards] / serial_rate, 2),
            "trace_records": records[shards],
        }
    return {
        "experiment": "E21",
        "description": "sharded conservative simulation scaling "
                       "(see benchmarks/bench_sharded_scaling.py)",
        "nodes": node_count,
        "activations_per_node": activations,
        "cores": os.cpu_count(),
        "calibration_ops_per_sec": round(calibration, 1),
        "tolerance": REGRESSION_TOLERANCE,
        "speedup_target": SPEEDUP_TARGET,
        "speedup_target_cores": SPEEDUP_TARGET_CORES,
        "shards": curve,
    }


def check(results, baseline):
    """Baseline-relative gate; returns (label, detail) failures."""
    tolerance = baseline.get("tolerance", REGRESSION_TOLERANCE)
    failures = []
    for shards, entry in baseline["shards"].items():
        label = f"shards={shards}"
        fresh = results["shards"].get(shards)
        if fresh is None:
            failures.append((label, "missing"))
            continue
        failures += gate.floor(label, fresh["normalized"],
                               entry["normalized"], tolerance)
        failures += gate.exact(label, fresh, entry, ("trace_records",))
    cores = os.cpu_count() or 1
    target = baseline.get("speedup_target", SPEEDUP_TARGET)
    needed_cores = baseline.get("speedup_target_cores", SPEEDUP_TARGET_CORES)
    if cores >= needed_cores:
        recorded = (baseline["shards"].get(str(needed_cores), {})
                    .get("speedup_vs_serial"))
        if recorded is not None and recorded < target:
            failures.append((f"shards={needed_cores}[baseline speedup]",
                             f"{recorded:.2f}x < {target}x"))
    return failures


def _print_results(results, baseline=None):
    from benchmarks.conftest import print_table

    rows = []
    for shards, entry in results["shards"].items():
        row = [shards, f"{entry['rate']:,.0f}", entry["unit"],
               f"{entry['normalized']:.6f}",
               f"{entry['speedup_vs_serial']:.2f}x"]
        if baseline is not None:
            base = baseline["shards"].get(shards)
            row.append("" if base is None else
                       f"{entry['normalized'] / base['normalized']:.2f}x")
        rows.append(row)
    headers = ["shards", "rate", "unit", "normalized", "vs serial"]
    if baseline is not None:
        headers.append("vs baseline")
    print_table(
        f"E21 — sharded scaling, {results['nodes']} nodes x "
        f"{results['activations_per_node']} activations on "
        f"{results['cores']} core(s) "
        f"(calibration {results['calibration_ops_per_sec']:,.0f} ops/s)",
        headers, rows)


def smoke():
    """CI-sized sanity run: small deployment, serial vs 2 shards.

    Asserts the sharded run reproduces the serial record count (full
    byte-identity is pinned by tests/test_sharded_determinism.py; the
    smoke keeps the benchmark scenario itself honest) and prints the
    mini-curve.  No baseline comparison — containers are too noisy.
    """
    results = measure(shard_counts=(1, 2), repeats=1,
                      node_count=32, activations=2)
    _print_results(results)
    serial = results["shards"]["1"]["trace_records"]
    sharded = results["shards"]["2"]["trace_records"]
    assert serial == sharded > 0, \
        f"record counts diverged: serial {serial}, sharded {sharded}"
    print(f"smoke passed: {serial} records, serial == shards=2")
    return 0


#: pytest entry point so ``pytest benchmarks/ --benchmark-only`` and
#: ``python -m repro.experiments E21`` regenerate the scaling table.
#: CI-sized (64 nodes) — the committed-baseline gate stays with the
#: ``--check`` CLI, which measures the full 256-node deployment.
def test_sharded_scaling_curve(benchmark):
    results = benchmark.pedantic(
        lambda: measure(shard_counts=(1, 2, 4), repeats=1,
                        node_count=64, activations=2),
        rounds=1, iterations=1)
    _print_results(results)
    counts = {entry["trace_records"] for entry in results["shards"].values()}
    assert len(counts) == 1, f"record counts diverged across shards: {counts}"


if __name__ == "__main__":
    raise SystemExit(gate.main(__doc__, SECTION, measure, check,
                               _print_results, smoke))
