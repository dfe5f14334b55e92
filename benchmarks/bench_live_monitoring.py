"""Experiment E23 — live monitoring plane: determinism, reactions, overhead.

Three gates over the :mod:`repro.obs.live` monitoring plane:

1. **Alert-stream determinism** — a monitored, overloaded (3x),
   stagger-quantized scenario (every duration on the mod-50 residue
   grid, burn-rate monitors on two tenants, a closed-loop reaction on
   one) is run serially and with ``shards=4`` on **both** event-set
   backends; the merged trace — ``monitor`` and ``alert`` records
   included — must be byte-identical to the serial run, and the alert
   stream's SHA-256 must reproduce the committed baseline exactly.
   The full gate additionally checks ``shards=2``.
2. **Detect -> react -> recover** — at 3x overload the optimistic
   utilization admission test lets doomed work through; the gold
   tenant's burn-rate alert raises and its reaction swaps the
   controller to the conservative response-time test.  The invariant:
   **zero** deadline misses among gold activations admitted *after*
   the raise instant (backlog admitted before the alert may still
   miss), while the same scenario without the reaction keeps missing.
3. **Monitoring overhead** — the E22 ``adm_reject@3x`` shape is timed
   with and without monitors on all four tenants, plain and monitored
   reps alternating; the overhead in this process's CPU time (the
   median of the per-pair monitored/plain ratios) must stay under
   :data:`OVERHEAD_LIMIT` (10%).

Gate design (``--check``, ``benchmarks/gate.py``): scenario runs are
fully seeded and deterministic, so the alert digests, raise instants
and classification counters are compared **exactly** against the
``e23_live_monitoring`` section of the committed ``BENCH_engine.json``;
monitored-run throughput is compared baseline-relative after the
gate's in-process calibration normalization.

CLI::

    python benchmarks/bench_live_monitoring.py --write   # re-baseline
    python benchmarks/bench_live_monitoring.py --check   # regression gate
    python benchmarks/bench_live_monitoring.py --smoke   # CI-sized run
"""

import hashlib
import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from benchmarks import gate  # noqa: E402

#: This experiment's section of BENCH_engine.json.
SECTION = "e23_live_monitoring"

SEED = 7
HORIZON = 200_000
REPEATS = 3

#: Hard ceiling on the monitored-vs-plain CPU-time overhead.
OVERHEAD_LIMIT = 0.10

#: Fractional drop of calibration-normalized monitored-run throughput
#: that fails the gate (alert figures are compared exactly instead).
REGRESSION_TOLERANCE = 0.35


def build_monitored(seed=SEED, react=True, backend=None):
    """The monitored overloaded scenario on the mod-50 residue grid.

    Every duration is a multiple of the stagger quantum and IRQ /
    scheduler costs are zeroed (the E22 determinism-probe discipline),
    so no two cells record at one instant and the probes tick on each
    tenant's cell phase: sharding stays byte-exact.
    """
    from repro import Scenario, UtilizationTest

    builder = (Scenario()
               .tier("edge", replicas=1, wcet=300)
               .tier("svc", fan_out=2, wcet=400)
               .cells(4)
               .tenant("gold", rate=600, mk=(9, 10), value=5,
                       deadline=3_000)
               .tenant("bronze", rate=900, deadline=3_000)
               .tenant("silver", rate=700, deadline=3_000)
               .tenant("iron", rate=800, deadline=3_000)
               .admission("reject", test=UtilizationTest(8.0))
               .policy("edf", w_sched=0)
               .load(3.0)
               .stagger(50)
               .options(network_latency=50, network_jitter=0,
                        node_kwargs={"net_irq_wcet": 0})
               .seed(seed)
               .monitor("gold", interval=20_000, objective_ppm=990_000,
                        react="conservative" if react else None,
                        on_clear="restore" if react else None)
               .monitor("silver", interval=20_000, objective_ppm=990_000))
    if backend is not None:
        builder.options(backend=backend)
    return builder


def _alert_digest(records):
    """(count, sha256) of the alert stream, canonically serialized."""
    lines = [json.dumps({"time": r.time, "event": r.event,
                         "details": r.details}, sort_keys=True)
             for r in records if r.category == "alert"]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(lines), digest


def determinism_check(backend, shards=4, horizon=HORIZON):
    """Serial vs ``shards=N`` byte-identity of the monitored trace."""
    serial, _ = gate.serial_equals_sharded(
        lambda: build_monitored(backend=backend), horizon, shards)
    alerts, digest = _alert_digest(serial.system.tracer.records)
    assert alerts, "3x overload must raise alerts"
    return {"records": len(serial.system.tracer), "alerts": alerts,
            "alert_sha256": digest}


def _gold_misses_after(records, cutoff):
    """Gold deadline misses among activations activated after cutoff."""
    late = set()
    misses = 0
    for record in records:
        if record.category != "dispatcher":
            continue
        details = record.details
        if details.get("task") != "gold":
            continue
        if record.event == "activate" and record.time > cutoff:
            late.add(details.get("activation_id"))
        elif record.event == "deadline_miss" \
                and details.get("activation_id") in late:
            misses += 1
    return misses


def reaction_check(horizon=HORIZON):
    """The detect -> react -> recover invariant at 3x overload."""
    reacted = build_monitored(react=True).run(until=horizon)
    monitor = next(m for m in reacted.monitors if m.tenant == "gold")
    raises = [a for a in monitor.alerts if a.kind == "raise"]
    assert raises, "3x overload must raise the gold burn alert"
    raise_time = raises[0].time
    records = reacted.system.tracer.records
    reconfigs = [r for r in records if r.category == "admission"
                 and r.event == "reconfigure"]
    assert reconfigs and reconfigs[0].time == raise_time, \
        "the reaction must reconfigure admission at the raise instant"
    assert reconfigs[0].details.get("to_test") == "response-time"
    reacted_misses = _gold_misses_after(records, raise_time)
    assert reacted_misses == 0, \
        (f"{reacted_misses} gold activations admitted after the "
         f"reaction still missed — the conservative test let "
         f"overload through")
    unreacted = build_monitored(react=False).run(until=horizon)
    unreacted_misses = _gold_misses_after(unreacted.system.tracer.records,
                                          raise_time)
    assert unreacted_misses > 0, \
        "without the reaction the overload must keep missing"
    counts = monitor.counts()
    return {
        "raise_time": raise_time,
        "raises": sum(1 for a in monitor.alerts if a.kind == "raise"),
        "clears": sum(1 for a in monitor.alerts if a.kind == "clear"),
        "reacted_misses_after": reacted_misses,
        "unreacted_misses_after": unreacted_misses,
        "submitted": counts["submitted"],
        "admitted": counts["admitted"],
        "good": counts["good"],
        "bad": counts["bad"],
    }


def overhead_check(horizon=HORIZON, repeats=REPEATS):
    """Monitored-vs-plain CPU time on the E22 shape (paired median).

    Plain and monitored reps alternate, and each adjacent pair gives
    one monitored/plain ratio of ``time.process_time()``; the overhead
    is the median ratio minus one.  The ceiling is about the work that
    monitoring adds to this process, which other processes on the host
    do not change; one slow pair moves one ratio rather than the whole
    estimate.  ``plain_sec`` and ``monitored_sec`` (the normalized
    rate's time) are the best reps by wall clock.  A rep keeps only
    its completed count, so the collection after it frees the whole
    run and every rep starts on the same heap.
    """
    from benchmarks.bench_service_scenarios import build_scenario

    def run_once(monitored):
        scenario = build_scenario("adm_reject", 3.0, horizon=horizon)
        if monitored:
            for name in ("gold", "silver", "bronze", "free"):
                scenario.monitor(name, interval=20_000,
                                 objective_ppm=990_000)
        start, cpu_start = time.perf_counter(), time.process_time()
        result = scenario.run(until=horizon)
        return (result.completed, time.perf_counter() - start,
                time.process_time() - cpu_start)

    plain_sec = monitored_sec = float("inf")
    ratios = []
    for _ in range(repeats):
        _, plain, plain_cpu = gate.timed(run_once, monitored=False)
        completed, monitored, monitored_cpu = gate.timed(run_once,
                                                         monitored=True)
        ratios.append(monitored_cpu / plain_cpu)
        plain_sec = min(plain_sec, plain)
        monitored_sec = min(monitored_sec, monitored)
    overhead = statistics.median(ratios) - 1.0
    assert overhead < OVERHEAD_LIMIT, \
        (f"monitoring overhead {overhead:.1%} exceeds the "
         f"{OVERHEAD_LIMIT:.0%} ceiling")
    return {
        "plain_sec": round(plain_sec, 4),
        "monitored_sec": round(monitored_sec, 4),
        "overhead_pct": round(overhead * 100, 2),
        "limit_pct": OVERHEAD_LIMIT * 100,
        "completed": completed,
        "monitored_requests_per_sec": round(completed / monitored_sec, 1),
    }


def measure(horizon=HORIZON, repeats=REPEATS, shard_counts=(2, 4)):
    """All three gates; determinism on both backends."""
    from repro import available_backends

    calibration = gate.calibration(2)
    determinism = {}
    for backend in sorted(available_backends(), key=lambda n: n != "heapq"):
        for shards in shard_counts:
            determinism[f"{backend}@s{shards}"] = determinism_check(
                backend, shards=shards, horizon=horizon)
    digests = {cell["alert_sha256"] for cell in determinism.values()}
    assert len(digests) == 1, \
        f"alert stream differs across backends/shard counts: {determinism}"
    reaction = reaction_check(horizon=horizon)
    overhead = overhead_check(horizon=horizon, repeats=repeats)
    overhead["normalized"] = (overhead["monitored_requests_per_sec"]
                              / calibration)
    return {
        "experiment": "E23",
        "description": "live monitoring plane: alert-stream determinism, "
                       "detect->react->recover, monitoring overhead "
                       "(see benchmarks/bench_live_monitoring.py)",
        "seed": SEED,
        "horizon": horizon,
        "calibration_ops_per_sec": round(calibration, 1),
        "tolerance": REGRESSION_TOLERANCE,
        "determinism": determinism,
        "reaction": reaction,
        "overhead": overhead,
    }


def check(results, baseline):
    """Exact alert/reaction figures + throughput/overhead gates."""
    tolerance = baseline.get("tolerance", REGRESSION_TOLERANCE)
    failures = []
    for label, entry in baseline["determinism"].items():
        fresh = results["determinism"].get(label)
        if fresh is None:
            failures.append((f"determinism[{label}]", "missing"))
            continue
        failures += gate.exact(f"determinism[{label}]", fresh, entry,
                               ("records", "alerts", "alert_sha256"))
    failures += gate.exact(
        "reaction", results["reaction"], baseline["reaction"],
        ("raise_time", "raises", "clears", "reacted_misses_after",
         "unreacted_misses_after", "submitted", "admitted", "good", "bad"))
    if results["overhead"]["overhead_pct"] >= OVERHEAD_LIMIT * 100:
        failures.append(("overhead",
                         f"{results['overhead']['overhead_pct']:.1f}% >= "
                         f"{OVERHEAD_LIMIT:.0%}"))
    failures += gate.floor("overhead[throughput]",
                           results["overhead"]["normalized"],
                           baseline["overhead"]["normalized"], tolerance)
    return failures


def _print_results(results, baseline=None):
    from benchmarks.conftest import print_table

    rows = []
    for label, entry in results["determinism"].items():
        rows.append([label, entry["records"], entry["alerts"],
                     entry["alert_sha256"][:12], "byte-identical"])
    print_table(
        f"E23 — alert-stream determinism, seed {results['seed']}, "
        f"horizon {results['horizon']:,} us",
        ["backend@shards", "records", "alerts", "alert sha256",
         "serial vs sharded"], rows)
    reaction = results["reaction"]
    overhead = results["overhead"]
    rows = [
        ["raise instant (us)", reaction["raise_time"]],
        ["raises / clears",
         f"{reaction['raises']} / {reaction['clears']}"],
        ["gold misses after reaction", reaction["reacted_misses_after"]],
        ["gold misses without reaction",
         reaction["unreacted_misses_after"]],
        ["gold submitted / admitted",
         f"{reaction['submitted']} / {reaction['admitted']}"],
        ["gold good / bad",
         f"{reaction['good']} / {reaction['bad']}"],
        ["monitor overhead",
         f"{overhead['overhead_pct']:.1f}% "
         f"(limit {overhead['limit_pct']:.0f}%)"],
        ["monitored req/s",
         f"{overhead['monitored_requests_per_sec']:,.0f}"
         + ("" if baseline is None else
            f"  ({overhead['normalized'] / baseline['overhead']['normalized']:.2f}x baseline)")],
    ]
    print_table("E23 — detect->react->recover at 3x overload",
                ["figure", "value"], rows)


def smoke():
    """CI-sized sanity run: serial-vs-shards=4 byte-identity of the
    monitored trace on both backends, the reaction invariant and the
    overhead ceiling.  No baseline comparison — containers are too
    noisy for wall-clock gates, and the determinism asserts are the
    point."""
    results = measure(horizon=150_000, repeats=5, shard_counts=(4,))
    _print_results(results)
    print("smoke passed: monitored traces byte-identical "
          "(serial == shards=4, both backends); reaction invariant "
          "holds; overhead within ceiling")
    return 0


#: pytest entry point so ``pytest benchmarks/ --benchmark-only`` and
#: ``python -m repro.experiments E23`` regenerate the comparison table.
def test_live_monitoring(benchmark):
    # repeats=3: the overhead ceiling is a median of per-pair ratios,
    # and a single pair leaves it at the mercy of host noise.
    results = benchmark.pedantic(
        lambda: measure(horizon=150_000, repeats=3, shard_counts=(4,)),
        rounds=1, iterations=1)
    _print_results(results)


if __name__ == "__main__":
    raise SystemExit(gate.main(__doc__, SECTION, measure, check,
                               _print_results, smoke))
