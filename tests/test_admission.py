"""Tests for repro.admission: guarantee tests, overload policies,
backpressure, distributed admission, and the observability wiring."""

import json

import pytest

from repro.admission import (
    AdmissionController,
    ResponseTimeTest,
    SpringProbeTest,
    UtilizationTest,
    Verdict,
)
from repro.admission.guarantee import GuaranteeTest, remaining_window
from repro.core import DispatcherCosts, Task
from repro.core.dispatcher import InstanceState
from repro.faults import FaultPlan
from repro.feasibility.response_time import (
    rta_schedulable,
    sort_deadline_monotonic,
)
from repro.feasibility.taskset import AnalysisTask
from repro.obs.forensics import forensics_report
from repro.obs.spans import reconstruct
from repro.obs.timeline import timeline_bytes
from repro.scheduling import EDFScheduler, SpringScheduler
from repro.services.modes import ModeManager
from repro.system import HadesSystem
from repro.workloads import overload_ramp_arrivals


def make_system(node_ids=("n0",), attach_edf=True, **kwargs):
    kwargs.setdefault("costs", DispatcherCosts.zero())
    kwargs.setdefault("metrics", True)
    system = HadesSystem(node_ids=list(node_ids), **kwargs)
    if attach_edf:
        for node_id in node_ids:
            system.attach_scheduler(EDFScheduler(scope=node_id, w_sched=0))
    return system


def aperiodic(name, wcet, deadline, node="n0"):
    task = Task(name, deadline=deadline, node_id=node)
    task.code_eu("run", wcet=wcet)
    return task.validate()


class TestGuaranteeTests:
    def test_utilization_quick_test(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  UtilizationTest(bound=1.0), w_adm=0)
        # densities 0.5 + 0.4 fit; a third 0.3 does not.
        adm.drive_arrivals(aperiodic("a", 500, 1000), [0])
        adm.drive_arrivals(aperiodic("b", 400, 1000), [0])
        adm.drive_arrivals(aperiodic("c", 300, 1000), [0])
        system.run()
        assert [r.decision for r in adm.decisions] == \
            ["admitted", "admitted", "rejected"]
        assert "density" in adm.decisions[-1].reason

    def test_utilization_bound_validation(self):
        with pytest.raises(ValueError):
            UtilizationTest(bound=0)

    def test_response_time_probe_orders_by_deadline(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  ResponseTimeTest(), w_adm=0)
        # Schedulable as {short, long} under DM even though the long
        # one is submitted first — the probe must sort, not trust
        # submission order.
        adm.drive_arrivals(aperiodic("long", 500, 10_000), [0])
        adm.drive_arrivals(aperiodic("short", 400, 1_000), [0])
        system.run()
        assert all(r.decision == "admitted" for r in adm.decisions)
        assert all(r.completed_in_time for r in adm.decisions)

    def test_spring_probe_matches_planner(self):
        system = make_system(attach_edf=False)
        spring = SpringScheduler(scope="n0", w_sched=0)
        system.attach_scheduler(spring)
        adm = AdmissionController(system.dispatcher, "n0",
                                  SpringProbeTest(spring), w_adm=0)
        # Staggered so the planner's guaranteed set is settled before
        # each probe: fits2 is mid-flight (runs 500..900) when nofit
        # (deadline 600+500=1100) probes at 600 — the plan would
        # finish it at 1300.
        adm.drive_arrivals(aperiodic("fits", 400, 1_000), [0])
        adm.drive_arrivals(aperiodic("fits2", 400, 1_000), [500])
        adm.drive_arrivals(aperiodic("nofit", 400, 500), [600])
        system.run()
        assert [r.decision for r in adm.decisions] == \
            ["admitted", "admitted", "rejected"]
        # The planner itself never saw (hence never rejected) the
        # unadmitted arrival: admission intercepted it up front.
        assert spring.rejected_count == 0
        assert spring.guaranteed_count == 2


class TestOverloadPolicies:
    def test_reject_is_default(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  UtilizationTest(0.6), w_adm=0)
        adm.drive_arrivals(aperiodic("a", 500, 1000), [0, 0])
        system.run()
        assert [r.decision for r in adm.decisions] == \
            ["admitted", "rejected"]

    def test_shed_lowest_value_makes_room(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  UtilizationTest(0.6), policy="shed",
                                  w_adm=0)
        cheap = adm.submit(aperiodic("cheap", 500, 1000), value=1)
        rich = adm.submit(aperiodic("rich", 500, 1000), value=5)
        system.run()
        assert cheap.decision == "shed"
        assert cheap.instance.state is InstanceState.ABORTED
        assert rich.decision == "admitted"
        assert rich.completed_in_time
        assert adm.counts()["shed"] == 1

    def test_shed_never_evicts_equal_or_higher_value(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  UtilizationTest(0.6), policy="shed",
                                  w_adm=0)
        first = adm.submit(aperiodic("first", 500, 1000), value=3)
        second = adm.submit(aperiodic("second", 500, 1000), value=3)
        system.run()
        assert first.decision == "admitted"
        assert second.decision == "rejected"
        assert adm.counts()["shed"] == 0

    def test_mk_firm_skips_then_violates(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  UtilizationTest(0.6), policy="mk_firm",
                                  mk=(1, 2), w_adm=0)
        task = aperiodic("mk", 500, 1000)
        adm.drive_arrivals(task, [0, 0, 0])
        system.run()
        assert [r.decision for r in adm.decisions] == \
            ["admitted", "skipped", "rejected"]
        assert adm.mk_violations == 1
        assert adm.counts()["skipped"] == 1

    def test_mk_firm_requires_window(self):
        system = make_system()
        with pytest.raises(ValueError):
            AdmissionController(system.dispatcher, "n0",
                                UtilizationTest(), policy="mk_firm")
        with pytest.raises(ValueError):
            AdmissionController(system.dispatcher, "n0",
                                UtilizationTest(), policy="mk_firm",
                                mk=(3, 2))

    def test_degrade_switches_mode_once_and_retests(self):
        system = make_system()
        manager = ModeManager(system.dispatcher)
        manager.define("nominal")
        manager.define("degraded")
        manager.switch_to("nominal")

        class DegradedOnly(GuaranteeTest):
            name = "stub"

            def admit(self, admitted, newcomer, now):
                return Verdict(manager.current == "degraded", self.name)

        adm = AdmissionController(system.dispatcher, "n0",
                                  DegradedOnly(), policy="degrade",
                                  mode_manager=manager,
                                  degraded_mode="degraded", w_adm=0)
        request = adm.submit(aperiodic("a", 100, 1000))
        system.run()
        # Failed in nominal, switched, passed the re-test.
        assert manager.current == "degraded"
        assert manager.switches[-1].trigger == "admission_overload"
        assert request.decision == "admitted"
        # A second overload must not re-trigger the (one-shot) switch.
        assert len([s for s in manager.switches
                    if s.trigger == "admission_overload"]) == 1

    def test_degrade_requires_manager_and_mode(self):
        system = make_system()
        with pytest.raises(ValueError):
            AdmissionController(system.dispatcher, "n0",
                                UtilizationTest(), policy="degrade")

    def test_unknown_policy_rejected(self):
        system = make_system()
        with pytest.raises(ValueError):
            AdmissionController(system.dispatcher, "n0",
                                UtilizationTest(), policy="drop-all")


class TestBackpressureAndLatency:
    def test_bounded_queue_rejects_overflow(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  UtilizationTest(), queue_capacity=1,
                                  w_adm=0)
        task = aperiodic("a", 10, 100_000)
        first = adm.submit(task)
        second = adm.submit(task)
        third = adm.submit(task)
        assert second.decision == "rejected"
        assert second.reason == "backpressure"
        assert third.decision == "rejected"
        system.run()
        assert first.decision == "admitted"
        assert adm.counts()["backpressure_rejected"] == 2

    def test_counts_tally_with_metrics_off(self):
        system = make_system(metrics=False)
        assert not system.metrics.enabled
        adm = AdmissionController(system.dispatcher, "n0",
                                  UtilizationTest(0.6), w_adm=0)
        adm.drive_arrivals(aperiodic("a", 500, 1000),
                           [0, 0, 0, 2_000, 2_000])
        system.run()
        assert [r.decision for r in adm.decisions] == [
            "admitted", "rejected", "rejected", "admitted", "rejected"]
        counts = adm.counts()
        assert (counts["submitted"], counts["admitted"],
                counts["rejected"]) == (5, 2, 3)
        assert "admitted=2/5" in repr(adm)

    def test_guarantee_latency_histogram_and_w_adm(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  UtilizationTest(), w_adm=7)
        adm.drive_arrivals(aperiodic("a", 10, 100_000), [0, 0])
        system.run()
        assert adm.h_latency.count == 2
        # Each decision costs w_adm on the CPU; the second waits for
        # the first.
        latencies = sorted(r.decided_at - r.submit_time
                           for r in adm.decisions)
        assert latencies == [7, 14]

    def test_expired_in_queue_is_rejected(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  UtilizationTest(), w_adm=500)
        request = adm.submit(aperiodic("tight", 100, 300))
        system.run()
        assert request.decision == "rejected"
        assert request.reason == "expired"


def two_node_system(**n0_kwargs):
    system = make_system(node_ids=("n0", "n1"))
    n0 = AdmissionController(system.dispatcher, "n0", ResponseTimeTest(),
                             peers=["n1"], w_adm=0, **n0_kwargs)
    n1 = AdmissionController(system.dispatcher, "n1", ResponseTimeTest(),
                             w_adm=0)
    return system, n0, n1


class TestDistributedAdmission:
    def test_peer_grant_runs_job_remotely(self):
        system, n0, n1 = two_node_system()
        # Two 800/1200 jobs fail DM-RTA together (1600 > 1200), so the
        # second is forwarded; the idle peer guarantees it.
        big = aperiodic("big", 800, 1_200)
        n0.drive_arrivals(big, [0, 100])
        system.run()
        decisions = [r.decision for r in n0.decisions]
        assert decisions == ["admitted", "forward_admitted"]
        assert n0.guarantee_ratio() == 1.0
        # The surrogate ran (and finished in time) on the peer.
        assert n1.accumulated_value() == 1
        remote = [r for r in n1.decisions if r.source == "remote"]
        assert len(remote) == 1
        assert remote[0].task_name == "big@n0"
        assert remote[0].completed_in_time

    def test_peer_denial_rejects_locally(self):
        system, n0, n1 = two_node_system()
        # Saturate the peer so its guarantee test denies the forward.
        n1.drive_arrivals(aperiodic("hog", 1_900, 2_000, node="n1"), [0])
        big = aperiodic("big", 800, 1_200)
        n0.drive_arrivals(big, [200, 300])
        system.run()
        assert [r.decision for r in n0.decisions] == \
            ["admitted", "rejected"]
        assert n0.decisions[-1].reason == "peer_rejected"
        assert n0.counts()["forward_timeouts"] == 0

    def test_dropped_request_times_out_conservatively(self):
        """Fault-plan coverage: a dropped guarantee request must
        resolve to a conservative local reject — no deadlock."""
        system, n0, n1 = two_node_system()
        plan = FaultPlan()
        plan.link_omission(0, "n0", "n1", probability=1.0)
        plan.apply(system)
        big = aperiodic("big", 800, 1_200)
        n0.drive_arrivals(big, [0, 100])
        system.run(until=1_000_000)
        assert [r.decision for r in n0.decisions] == \
            ["admitted", "rejected"]
        assert n0.decisions[-1].reason == "forward_timeout"
        assert n0.counts()["forward_timeouts"] == 1
        assert n1.counts()["submitted"] == 0  # request never arrived

    def test_dropped_reply_times_out_conservatively(self):
        """A lost grant reply also resolves to a local reject; the
        peer (which accepted) still runs the job — safe, documented."""
        system, n0, n1 = two_node_system()
        plan = FaultPlan()
        plan.link_omission(0, "n1", "n0", probability=1.0)
        plan.apply(system)
        big = aperiodic("big", 800, 1_200)
        n0.drive_arrivals(big, [0, 100])
        system.run(until=1_000_000)
        assert n0.decisions[-1].decision == "rejected"
        assert n0.decisions[-1].reason == "forward_timeout"
        assert n1.counts()["admitted"] == 1

    def test_timeout_is_deadline_aware(self):
        system, n0, n1 = two_node_system()
        # Zero slack (deadline == wcet): forwarding is pointless, the
        # controller must reject immediately without arming a timer.
        n0.drive_arrivals(aperiodic("big", 900, 1_000), [0])
        n0.drive_arrivals(aperiodic("big2", 900, 900), [50])
        system.run()
        assert n0.counts()["forwarded"] == 0
        assert n0.decisions[-1].decision == "rejected"

    def test_remote_requests_are_never_reforwarded(self):
        # n0 and n1 peer with each other; saturate both so a forwarded
        # request fails remotely too — it must come straight back as a
        # denial, not ping-pong.
        system = make_system(node_ids=("n0", "n1"))
        n0 = AdmissionController(system.dispatcher, "n0",
                                 UtilizationTest(0.6), peers=["n1"],
                                 w_adm=0)
        n1 = AdmissionController(system.dispatcher, "n1",
                                 UtilizationTest(0.6), peers=["n0"],
                                 w_adm=0)
        n1.drive_arrivals(aperiodic("hog1", 30_000, 60_000, node="n1"),
                          [0])
        n0.drive_arrivals(aperiodic("hog0", 30_000, 60_000), [0])
        n0.drive_arrivals(aperiodic("extra", 30_000, 60_000), [100])
        system.run(until=2_000_000)
        assert n0.decisions[-1].reason in ("peer_rejected",
                                           "forward_timeout")
        assert n1.counts()["forwarded"] == 0


class TestAdmissionObservability:
    def run_mixed(self):
        system = make_system()
        adm = AdmissionController(system.dispatcher, "n0",
                                  ResponseTimeTest(), w_adm=0)
        adm.drive_arrivals(aperiodic("a", 400, 1_000), [0, 100, 200])
        hog = Task("hog", deadline=100, node_id="n0")
        hog.code_eu("x", wcet=5_000)
        system.sim.call_at(50, lambda: system.activate(hog.validate()))
        system.run()
        return system, adm

    def test_spans_mark_admitted_activations(self):
        system, adm = self.run_mixed()
        forest = reconstruct(system.tracer)
        assert forest.has_admission
        assert forest.admission_submits == 3
        assert forest.admission_admits == 2
        assert [e.event for e in forest.admission_events] == ["reject"]
        flags = {a.activation_id: a.admitted
                 for a in forest.activations.values()}
        assert flags["a#1"] and flags["a#2"]
        assert not flags["hog#1"]

    def test_forensics_distinguishes_admitted_misses(self):
        system, adm = self.run_mixed()
        report = forensics_report(system.tracer)
        assert "admission: 3 submitted, 2 admitted, 1 rejected" in report
        assert "MISS hog#1 [not admitted]" in report
        assert "[admitted]" in report

    def test_forensics_without_admission_is_unchanged(self):
        system = make_system()
        system.activate(aperiodic("late", 900, 100))
        system.run()
        report = forensics_report(system.tracer)
        assert "admission:" not in report
        assert "[admitted]" not in report and "[not admitted]" not in report

    def test_timeline_renders_admission_instants(self):
        system, adm = self.run_mixed()
        payload = timeline_bytes(system.tracer)
        doc = json.loads(payload)
        instants = [e for e in doc["traceEvents"]
                    if e.get("cat") == "admission"]
        assert len(instants) == 1
        assert instants[0]["ph"] == "i"
        assert instants[0]["name"].startswith("admission_reject a")
        # Byte determinism is part of the export contract.
        assert payload == timeline_bytes(system.tracer)

    def test_timeline_instants_for_forward_and_timeout(self):
        system, n0, n1 = two_node_system()
        plan = FaultPlan()
        plan.link_omission(0, "n0", "n1", probability=1.0)
        plan.apply(system)
        n0.drive_arrivals(aperiodic("big", 800, 1_200), [0, 100])
        system.run(until=1_000_000)
        doc = json.loads(timeline_bytes(system.tracer))
        names = [e["name"] for e in doc["traceEvents"]
                 if e.get("cat") == "admission"]
        assert any(n.startswith("admission_forward big ->n1")
                   for n in names)
        assert any(n.startswith("admission_forward_timeout big")
                   for n in names)


class RecordingTest(ResponseTimeTest):
    """ResponseTimeTest that snapshots every evaluation's inputs — the
    WCETs and *remaining* windows it reasons over — so the verdicts can
    be re-derived offline."""

    def __init__(self):
        super().__init__()
        self.evaluations = []

    def admit(self, admitted, newcomer, now):
        verdict = super().admit(admitted, newcomer, now)
        snapshot = [(r.task_name, r.wcet, remaining_window(r, now))
                    for r in [*admitted, newcomer]]
        self.evaluations.append((snapshot, verdict.ok))
        return verdict


def overload_run(seed, policy="reject"):
    """One synthetic-overload run (~2.5x offered load) under the
    response-time probe; returns (system, controller, test)."""
    system = make_system()
    test = RecordingTest()
    adm = AdmissionController(system.dispatcher, "n0", test,
                              policy=policy, w_adm=0)
    shapes = [("ctrl", 400, 1_200, 5), ("video", 900, 4_000, 3),
              ("log", 600, 3_000, 1)]
    for index, (name, wcet, deadline, value) in enumerate(shapes):
        times = overload_ramp_arrivals(40_000, wcet, 0.3, 2.5 / len(shapes),
                                       jitter=0.2, seed=seed * 31 + index)
        adm.drive_arrivals(aperiodic(name, wcet, deadline), times,
                           value=value)
    system.run()
    return system, adm, test


class TestAdmissionProperties:
    @pytest.mark.parametrize("seed", range(24))
    def test_admitted_sets_pass_their_own_guarantee(self, seed):
        """Property: at every admit instant, the admitted set (incl.
        the newcomer) passes the guarantee test — re-derived offline
        from the recorded snapshots."""
        system, adm, test = overload_run(seed)
        accepted = [snapshot for snapshot, ok in test.evaluations if ok]
        assert len(accepted) == adm.counts()["admitted"]
        for snapshot in accepted:
            tasks = [AnalysisTask(name=f"{name}#{i}", wcet=wcet,
                                  deadline=deadline, period=deadline)
                     for i, (name, wcet, deadline) in enumerate(snapshot)]
            assert rta_schedulable(sort_deadline_monotonic(tasks))

    @pytest.mark.parametrize("seed", range(24))
    def test_zero_admitted_misses_under_overload(self, seed):
        """Property: under ~2.5x offered load, every admitted
        activation meets its deadline (the guarantee holds) while a
        significant share of arrivals is turned away."""
        system, adm, test = overload_run(seed)
        admitted = [r for r in adm.decisions if r.decision == "admitted"]
        assert admitted, "overload run admitted nothing"
        assert all(r.completed_in_time for r in admitted)
        assert adm.counts()["rejected"] > 0
        assert adm.guarantee_ratio() < 1.0
