"""The benchmark's four workloads: deployment, traffic and checks.

Each workload runs one instance in the current process and reports
through a probe: ``probe.mark(event)`` at the phase boundaries
``seed_start``, ``run_start`` and ``run_end``, and
``probe.seed_done(system, stats, problems)`` once per simulated seed.
``stats`` is the canonical simulated-statistics dict that the
correctness gate hashes; ``problems`` lists the invariants the seed
broke.  Inputs derive from the seed alone.  Arrivals are open-loop in
simulated time; on the host every instance is one batch job.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from repro import (Campaign, DispatcherCosts, EDFScheduler, FaultPlan,
                   HadesSystem, LogNormalService, Periodic, Scenario, Task,
                   forensics_report, reconstruct)
from repro.core.monitoring import ViolationKind
from repro.services import ActiveReplication, ClockSyncService

# -- the E22 service deployment -------------------------------------------
#
# The deployments below copy benchmarks/bench_service_scenarios.py
# (TENANTS, build_scenario) and examples/avionics.py
# (build_control_cycle) on purpose, rather than importing them: a
# benchmark compares a parent commit with a change, so its workload must
# stay fixed when those scripts evolve.

TENANTS = (
    # (name, rate req/s, (m, k), value, deadline us)
    ("gold", 60, (9, 10), 5, 40_000),
    ("silver", 100, (4, 5), 3, 50_000),
    ("bronze", 200, (1, 4), 1, 60_000),
    ("free", 150, None, 1, 80_000),
)
#: Sizes keep every child near one host second: host noise per child is
#: about the same whatever its length, so shorter children give a run
#: more samples and a steadier median.
ADMISSION_HORIZON = 500_000
#: The EDF backlog at 10x grows without bound, so host cost is
#: superlinear in this horizon.
OVERLOAD_HORIZON = 60_000


def service_scenario(seed, load, admission):
    """Four cells of edge -> svc (x3) -> store (x2) under four tenants.

    With admission, tenants are Poisson streams through per-ingress
    controllers, each watched by a burn-rate monitor.  Without, tenants
    declare no rate and the caller registers stratified arrivals."""
    builder = (Scenario()
               .tier("edge", replicas=2, wcet=300)
               .tier("svc", fan_out=3, wcet=800,
                     service=LogNormalService(median=250, sigma=0.7))
               .tier("store", fan_out=2, wcet=600)
               .cells(4)
               .load(load)
               .seed(seed)
               .policy("edf", w_sched=0))
    for name, rate, mk, value, deadline in TENANTS:
        builder.tenant(name, rate=rate if admission else None, mk=mk,
                       value=value, deadline=deadline)
    if admission:
        builder.admission("reject")
        for name, *_ in TENANTS:
            builder.monitor(name, interval=20_000, objective_ppm=990_000,
                            react="conservative" if name == "gold"
                            else None)
    return builder


def stratified_arrivals(rate, horizon, rng):
    """One arrival per mean gap ``1/rate`` (req/s), uniform in its slot.

    The overload's host cost grows with the square of the backlog, and
    Poisson arrival noise alone moves it by about 11% between seeds.
    One arrival per slot keeps the offered rate and the open loop but
    makes the backlog, hence the cost, nearly seed-independent."""
    gap = 1_000_000 / rate
    return [int((slot + rng.random()) * gap)
            for slot in range(int(horizon / gap))]


def _service(seed, probe, load, admission, horizon):
    probe.mark("seed_start")
    scenario = service_scenario(seed, load, admission)
    build = scenario.build

    def timed_build():
        # Scenario.run builds, runs and scores in one call; wrapping the
        # built system's run() splits the phases without touching src/.
        system = build()
        if not admission:
            rng = random.Random(seed)
            for name, rate, *_ in TENANTS:
                system.dispatcher.register_arrivals(
                    system.dispatcher.known_tasks[name],
                    stratified_arrivals(rate * load, horizon, rng))
        run = system.run

        def timed_run(*args, **kwargs):
            probe.mark("run_start")
            try:
                return run(*args, **kwargs)
            finally:
                probe.mark("run_end")

        system.run = timed_run
        return system

    scenario.build = timed_build
    result = scenario.run(until=horizon)
    board = result.scoreboard.to_dict()
    stats = {"tenants": board, "records": record_counts(result.system),
             "offered": sum(row["submitted"] for row in board.values())}
    problems = []
    missed = sum(row["missed"] for row in board.values())
    if admission and missed:
        problems.append(f"{missed} admitted requests missed their deadline")
    probe.seed_done(result.system, stats, problems)


def svc_admission(seed, probe):
    """E22 ``adm_reject@3x`` plus burn-rate monitors on every tenant."""
    _service(seed, probe, 3.0, True, ADMISSION_HORIZON)


def svc_overload(seed, probe):
    """The same deployment under plain EDF at 10x, no admission."""
    _service(seed, probe, 10.0, False, OVERLOAD_HORIZON)


# -- the avionics deployment (examples/avionics.py) -------------------------

NODES = ("sensor", "flight", "actuator", "fms")
CLOCK_DRIFTS = {"sensor": 60e-6, "flight": -40e-6, "actuator": 25e-6,
                "fms": -70e-6}
MISSION = 10_000_000
CAMPAIGN_MISSION = 1_000_000
CAMPAIGN_SEEDS = 10


def _flight_control():
    """examples/avionics.py's 50 Hz control cycle, frozen (see above)."""
    cycle = Task("flight_control", deadline=15_000,
                 arrival=Periodic(period=20_000), node_id="sensor")
    acquire = cycle.code_eu("acquire", wcet=800, node_id="sensor",
                            action=lambda ctx: ctx.outputs.update(
                                attitude=ctx.now % 360))
    filter_eu = cycle.code_eu("filter", wcet=1_200, node_id="sensor")
    law = cycle.code_eu("control_law", wcet=2_500, node_id="flight",
                        action=lambda ctx: ctx.outputs.update(
                            surfaces={"elevator": 1, "rudder": 0}))
    actuate = cycle.code_eu("actuate", wcet=600, node_id="actuator")
    cycle.precede(acquire, filter_eu, param="attitude")
    cycle.precede(filter_eu, law)
    cycle.precede(law, actuate, param="surfaces")
    return cycle.validate()


def _loop(name, period, deadline, first, second):
    """A two-stage periodic loop: (eu, wcet, node) -> (eu, wcet, node)."""
    task = Task(name, deadline=deadline, arrival=Periodic(period=period),
                node_id=first[2])
    head = task.code_eu(first[0], wcet=first[1], node_id=first[2])
    tail = task.code_eu(second[0], wcet=second[1], node_id=second[2])
    task.precede(head, tail)
    return task.validate()


def avionics_system(seed, mission):
    """Four drifting-clock nodes: clock sync, replicated flight plan,
    and three periodic HEUGs at 50, 100 and 10 Hz."""
    system = HadesSystem(node_ids=NODES, costs=DispatcherCosts(),
                         network_latency=150, network_jitter=30, seed=seed,
                         background_activities=True,
                         clock_drifts=CLOCK_DRIFTS)
    for node in NODES:
        system.attach_scheduler(EDFScheduler(scope=node, w_sched=2))
        ClockSyncService(system.network, system.nodes[node], NODES, f=1,
                         resync_period=250_000)
    flight_plan = ActiveReplication(system.network, "fms", NODES[:3])
    tasks = (_flight_control(),
             _loop("attitude", 10_000, 8_000, ("sample", 300, "sensor"),
                   ("estimate", 700, "flight")),
             _loop("navigation", 100_000, 80_000,
                   ("guidance", 3_000, "flight"),
                   ("fms_update", 2_000, "fms")))
    for task in tasks:
        system.register_periodic(task, count=mission // task.arrival.period)
    for k in range(mission // 1_000_000):
        system.sim.call_at(k * 1_000_000 + 500_000,
                           lambda k=k: flight_plan.submit(
                               ("set", "waypoint", k)))
    return system, [task.name for task in tasks]


def mission_stats(system, task_names):
    misses = system.monitor.of_kind(ViolationKind.DEADLINE_MISS)
    records = record_counts(system)
    return {"response_times": {name: system.dispatcher.response_times(name)
                               for name in task_names},
            "misses": [[v.time, f"{v.task}#{v.instance}"] for v in misses],
            "ledger": system.dispatcher.ledger.total(),
            "records": records,
            "offered": records.get("dispatcher/activate", 0)}


def _mission(seed, probe, mission, plan):
    probe.mark("seed_start")
    system, task_names = avionics_system(seed, mission)
    plan.apply(system)
    probe.mark("run_start")
    system.run(until=mission)
    probe.mark("run_end")
    return system, task_names


def avionics_mission(seed, probe):
    """A 10 s mission; 5% omission on sensor->flight from 30% of it."""
    plan = FaultPlan(seed=seed).link_omission(3 * MISSION // 10, "sensor",
                                              "flight", probability=0.05)
    system, task_names = _mission(seed, probe, MISSION, plan)
    stats = mission_stats(system, task_names)
    problems = []
    if not plan.applied:
        problems.append("the omission fault was never injected")
    else:
        early = [m for m in stats["misses"] if m[0] < plan.applied[0].time]
        if early:
            problems.append(f"{len(early)} misses before the first fault")
    probe.seed_done(system, stats, problems)


def campaign_plan(seed, index):
    """The fault plan of the ``index``-th seed of a campaign block.

    Omission on sensor->flight from a random instant, p = 0.05, 0.2 and
    0.4 by turn; odd indices also crash a flight computer at a random
    instant.  Instants are stratified over the block (seed i draws from
    the i-th slice of the mission) because an early crash removes up to
    two thirds of a mission's work: unstratified blocks differ by about
    9% in total work, stratified ones keep it nearly seed-independent."""
    rng = random.Random(seed)
    slot = CAMPAIGN_MISSION // CAMPAIGN_SEEDS
    plan = FaultPlan(seed=seed).link_omission(
        index * slot + rng.randrange(slot), "sensor", "flight",
        probability=(0.05, 0.2, 0.4)[index % 3])
    if index % 2:
        crash_slot = CAMPAIGN_MISSION // (CAMPAIGN_SEEDS // 2)
        plan.crash(index // 2 * crash_slot + rng.randrange(crash_slot),
                   NODES[index // 2 % 3])
    return plan


def fault_campaign(seed, probe):
    """A serial Campaign of short missions, each explained by forensics."""

    def one_seed(sub_seed):
        plan = campaign_plan(sub_seed, sub_seed % CAMPAIGN_SEEDS)
        system, task_names = _mission(sub_seed, probe, CAMPAIGN_MISSION,
                                      plan)
        forest = reconstruct(system.tracer)
        report = forensics_report(system.tracer, forest)
        stats = mission_stats(system, task_names)
        stats["forensics_sha256"] = hashlib.sha256(
            report.encode()).hexdigest()
        reported = {line.split()[1] for line in report.splitlines()
                    if line.startswith("MISS ")}
        unexplained = [aid for _t, aid in stats["misses"]
                       if aid not in reported]
        problems = ([f"misses absent from forensics: {unexplained}"]
                    if unexplained else [])
        probe.seed_done(system, stats, problems)
        return {"misses": len(stats["misses"])}

    first = seed * CAMPAIGN_SEEDS
    Campaign(one_seed, range(first, first + CAMPAIGN_SEEDS)).run()


def record_counts(system):
    """Trace records per ``category/event``, sorted."""
    counts = Counter(f"{r.category}/{r.event}" for r in system.tracer)
    return dict(sorted(counts.items()))


WORKLOADS = {
    "svc_admission": svc_admission,
    "svc_overload": svc_overload,
    "avionics_mission": avionics_mission,
    "fault_campaign": fault_campaign,
}
