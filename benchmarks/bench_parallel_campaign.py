"""Experiment E16 — parallel deterministic fault campaigns.

The E9/E9b validation rests on large seeded fault-injection campaigns;
``Campaign.run(jobs=N)`` forks one worker process per chunk of seeds
and merges results in seed order.  This benchmark measures the two
claims that make that useful:

* **determinism** — the parallel campaign's ``per_run`` dicts and the
  campaign-level ``aggregate().to_dict()`` are identical to the serial
  path's, byte for byte;
* **speedup** — wall-clock improves materially at 4 workers, and the
  transfer overhead (a pickle round trip of each run and its report)
  is a negligible slice of the run cost.
"""

import json
import os
import pickle
import time

from benchmarks.bench_monitoring import campaign_jobs
from benchmarks.conftest import print_table
from repro.core import DispatcherCosts, Periodic, Task
from repro.faults import Campaign, random_plan
from repro.services import HeartbeatDetector
from repro.system import HadesSystem

SEEDS = range(24)
NODE_IDS = ["a", "b", "c", "d"]


def e16_scenario(seed):
    """A heavier E9-style run: 4 nodes, two pipelines, long horizon.

    Sized so one seed costs hundreds of milliseconds — the regime where
    campaign-level parallelism, not per-run micro-optimisation, sets
    the wall-clock.
    """
    system = HadesSystem(node_ids=NODE_IDS,
                         costs=DispatcherCosts.zero(), metrics=True)
    for name, src_node, dst_node in (("pipe0", "a", "b"),
                                     ("pipe1", "c", "d")):
        pipeline = Task(name, deadline=100_000,
                        arrival=Periodic(period=25_000), node_id=src_node)
        src = pipeline.code_eu("src", wcet=100)
        dst = pipeline.code_eu("dst", wcet=100, node_id=dst_node)
        pipeline.precede(src, dst)
        system.register_periodic(pipeline, count=60)
    for node_id in NODE_IDS:
        HeartbeatDetector.start_heartbeats(system.network, node_id,
                                           ["a"], 5_000)
    detector = HeartbeatDetector(system.network, "a", NODE_IDS,
                                 heartbeat_period=5_000)
    detector.start()
    plan = random_plan(NODE_IDS, horizon=1_200_000, seed=seed,
                       crash_count=1, omission_links=2,
                       spare_nodes=["a"])
    plan.apply(system)
    system.run(until=2_000_000)
    return {
        "suspected": len(detector.suspected),
        "violations": system.monitor.count(),
        "report": system.run_report(seed=seed),
    }


def test_parallel_campaign_speedup_and_determinism(benchmark):
    campaign = Campaign(e16_scenario, seeds=SEEDS)
    jobs = max(4, campaign_jobs())

    def compare():
        t0 = time.perf_counter()
        serial = campaign.run()
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = campaign.run(jobs=jobs)
        t_parallel = time.perf_counter() - t0
        # Merge overhead: the per-run pickle round trip the parallel
        # path adds on top of scenario execution.
        t0 = time.perf_counter()
        for run, report in zip(serial.per_run, serial.reports):
            pickle.loads(pickle.dumps((run, report)))
        t_merge = time.perf_counter() - t0
        return serial, parallel, t_serial, t_parallel, t_merge

    serial, parallel, t_serial, t_parallel, t_merge = benchmark.pedantic(
        compare, rounds=1, iterations=1)

    speedup = t_serial / t_parallel if t_parallel else float("inf")
    print_table(
        "E16 — parallel campaign vs serial (24 seeds)",
        ["metric", "value"],
        [
            ("workers", jobs),
            ("serial wall-clock (s)", f"{t_serial:.2f}"),
            (f"parallel wall-clock (s, jobs={jobs})", f"{t_parallel:.2f}"),
            ("speedup", f"{speedup:.2f}x"),
            ("merge overhead, all runs (ms)", f"{t_merge * 1000:.1f}"),
            ("merge overhead share", f"{t_merge / t_serial:.2%}"),
        ])

    # Determinism: identical per-run dicts and byte-identical aggregate.
    assert parallel.per_run == serial.per_run
    assert parallel.runs == serial.runs
    assert len(parallel.reports) == len(serial.reports)
    assert (json.dumps(parallel.aggregate().to_dict())
            == json.dumps(serial.aggregate().to_dict()))
    # Merge overhead is noise next to scenario execution.
    assert t_merge < 0.25 * t_serial
    # Speedup only asserted where it is meaningful: enough *effective*
    # cores (cgroup/affinity aware) and no noisy shared CI runner.
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if cores >= 4 and not os.environ.get("CI"):
        assert speedup > 1.5, f"expected >1.5x at {jobs} workers, got {speedup:.2f}x"
