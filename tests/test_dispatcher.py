"""Integration tests for the generic dispatcher (paper §3.2.1)."""

import random

import pytest

from repro.core import (
    AccessMode,
    ConditionVariable,
    DispatcherCosts,
    EUAttributes,
    Periodic,
    Resource,
    Sporadic,
    Task,
)
from repro.core.dispatcher import EUState, InstanceState, NEVER
from repro.core.monitoring import ViolationKind
from repro.core.notifications import Notification
from repro.core.scheduler_api import SchedulerBase
from repro.scheduling import EDFScheduler, FIFOScheduler
from repro.system import HadesSystem


def make_system(**kwargs):
    kwargs.setdefault("node_ids", ["n0"])
    kwargs.setdefault("costs", DispatcherCosts.zero())
    return HadesSystem(**kwargs)


class TestBasicExecution:
    def test_single_unit_runs_for_wcet(self):
        system = make_system()
        task = Task("t", deadline=1000, node_id="n0")
        task.code_eu("a", wcet=100)
        inst = system.activate(task)
        system.run()
        assert inst.state is InstanceState.DONE
        assert inst.response_time == 100

    def test_chain_respects_precedence(self):
        system = make_system()
        task = Task("t", node_id="n0")
        order = []
        a = task.code_eu("a", wcet=10,
                         action=lambda ctx: order.append(("a", ctx.now)))
        b = task.code_eu("b", wcet=20,
                         action=lambda ctx: order.append(("b", ctx.now)))
        task.precede(a, b)
        system.activate(task)
        system.run()
        assert [name for name, _t in order] == ["a", "b"]
        assert order[1][1] >= order[0][1] + 20

    def test_diamond_joins_wait_for_both_branches(self):
        system = make_system()
        task = Task("diamond", node_id="n0")
        a = task.code_eu("a", wcet=10)
        b = task.code_eu("b", wcet=30)
        c = task.code_eu("c", wcet=50)
        finish = []
        d = task.code_eu("d", wcet=5,
                         action=lambda ctx: finish.append(ctx.now))
        task.precede(a, b)
        task.precede(a, c)
        task.precede(b, d)
        task.precede(c, d)
        inst = system.activate(task)
        system.run()
        # Single CPU: 10 + 30 + 50 + 5 = 95.
        assert inst.response_time == 95
        assert len(finish) == 1

    def test_dispatcher_costs_charged(self):
        costs = DispatcherCosts(c_start_act=5, c_end_act=5, c_local=8)
        system = HadesSystem(node_ids=["n0"], costs=costs)
        task = Task("t", node_id="n0")
        a = task.code_eu("a", wcet=100)
        b = task.code_eu("b", wcet=50)
        task.precede(a, b)
        inst = system.activate(task)
        system.run()
        # 150 + 2*(5+5) + 8 = 178: matches inflate_wcet exactly.
        from repro.core.costs import inflate_wcet
        assert inst.response_time == inflate_wcet(task, costs) == 178

    def test_parameters_flow_along_edges(self):
        system = make_system()
        task = Task("pipe", node_id="n0")
        received = []

        def produce(ctx):
            ctx.outputs["value"] = 42

        def consume(ctx):
            received.append(ctx.inputs["value"])

        a = task.code_eu("a", wcet=5, action=produce)
        b = task.code_eu("b", wcet=5, action=consume)
        task.precede(a, b, param="value")
        system.activate(task)
        system.run()
        assert received == [42]

    def test_earliest_start_time_delays_unit(self):
        system = make_system()
        task = Task("t", node_id="n0")
        starts = []
        task.code_eu("a", wcet=10, attrs=EUAttributes(earliest=500),
                     action=lambda ctx: starts.append(ctx.now))
        system.activate(task)
        system.run()
        # Action effects apply at end of unit: start >= 500, end >= 510.
        assert starts[0] >= 510

    def test_condvar_gates_start(self):
        system = make_system()
        gate = ConditionVariable("gate")
        task = Task("t", node_id="n0")
        done = []
        task.code_eu("a", wcet=10, wait_for=[gate],
                     action=lambda ctx: done.append(ctx.now))
        system.activate(task)
        system.sim.call_in(300, gate.set)
        system.run()
        assert done[0] == 310

    def test_condvar_already_set_no_wait(self):
        system = make_system()
        gate = ConditionVariable("gate", initially=True)
        task = Task("t", node_id="n0")
        task.code_eu("a", wcet=10, wait_for=[gate])
        inst = system.activate(task)
        system.run()
        assert inst.response_time == 10

    def test_action_can_signal_condvar_at_unit_end(self):
        system = make_system()
        flag = ConditionVariable("flag")
        producer = Task("prod", node_id="n0")
        producer.code_eu("p", wcet=50,
                         action=lambda ctx: ctx.signal(flag))
        consumer = Task("cons", node_id="n0")
        done = []
        consumer.code_eu("c", wcet=10, wait_for=[flag],
                         action=lambda ctx: done.append(ctx.now))
        system.activate(consumer)
        system.activate(producer)
        system.run()
        assert done and done[0] >= 60

    def test_multiple_instances_coexist(self):
        system = make_system()
        task = Task("multi", deadline=10_000, node_id="n0")
        task.code_eu("a", wcet=100)
        i1 = system.activate(task)
        i2 = system.activate(task)
        system.run()
        assert i1.state is InstanceState.DONE
        assert i2.state is InstanceState.DONE
        assert i1.seq == 1 and i2.seq == 2

    def test_register_periodic_generates_activations(self):
        system = make_system()
        task = Task("per", deadline=500, arrival=Periodic(period=1000),
                    node_id="n0")
        task.code_eu("a", wcet=100)
        system.register_periodic(task, count=5)
        system.run()
        instances = system.dispatcher.instances_of("per")
        assert len(instances) == 5
        assert [inst.activation_time for inst in instances] == [
            0, 1000, 2000, 3000, 4000]


class TestResources:
    def test_exclusive_resource_serialises_critical_sections(self):
        system = make_system()
        res = Resource("R", node_id="n0")
        spans = []

        def make_task(name):
            task = Task(name, node_id="n0")
            task.code_eu("cs", wcet=100,
                         resources=[(res, AccessMode.EXCLUSIVE)],
                         action=lambda ctx, n=name: spans.append((n, ctx.now)))
            return task

        system.activate(make_task("t1"))
        system.activate(make_task("t2"))
        system.run()
        # Effects at unit end: ends at 100 and 200 — no overlap.
        assert sorted(t for _n, t in spans) == [100, 200]
        assert res.free

    def test_shared_mode_allows_concurrent_holders_across_nodes(self):
        system = make_system(node_ids=["n0", "n1"])
        res_a = Resource("RA", node_id="n0")
        res_b = Resource("RB", node_id="n1")
        # Same-named logical section but per-node resources; run truly in
        # parallel on two CPUs.
        t1 = Task("t1", node_id="n0")
        t1.code_eu("a", wcet=100, resources=[(res_a, AccessMode.SHARED)])
        t2 = Task("t2", node_id="n1")
        t2.code_eu("b", wcet=100, resources=[(res_b, AccessMode.SHARED)])
        i1 = system.activate(t1)
        i2 = system.activate(t2)
        system.run()
        assert i1.response_time == 100
        assert i2.response_time == 100

    def test_shared_holders_coexist_on_one_resource(self):
        system = make_system(node_ids=["n0", "n1"])
        res = Resource("R")  # no node binding: shared data object
        t1 = Task("t1", node_id="n0")
        t1.code_eu("a", wcet=100, resources=[(res, AccessMode.SHARED)])
        t2 = Task("t2", node_id="n1")
        t2.code_eu("b", wcet=100, resources=[(res, AccessMode.SHARED)])
        i1 = system.activate(t1)
        i2 = system.activate(t2)
        system.run()
        assert i1.response_time == 100 and i2.response_time == 100

    def test_highest_priority_waiter_gets_resource_first(self):
        system = make_system()
        res = Resource("R", node_id="n0")
        grabs = []

        def cs_task(name, prio, wcet=50):
            task = Task(name, node_id="n0")
            task.code_eu("cs", wcet=wcet,
                         resources=[(res, AccessMode.EXCLUSIVE)],
                         attrs=EUAttributes(prio=prio),
                         action=lambda ctx, n=name: grabs.append(n))
            return task

        system.activate(cs_task("holder", prio=5, wcet=100))
        system.sim.call_in(10, lambda: system.activate(cs_task("low", 2)))
        system.sim.call_in(20, lambda: system.activate(cs_task("high", 8)))
        system.run()
        assert grabs == ["holder", "high", "low"]

    def test_resource_contention_counted(self):
        system = make_system()
        res = Resource("R", node_id="n0")
        for name in ("a", "b"):
            task = Task(name, node_id="n0")
            task.code_eu("cs", wcet=50,
                         resources=[(res, AccessMode.EXCLUSIVE)])
            system.activate(task)
        system.run()
        assert res.grant_count == 2
        assert res.contention_count >= 1


class TestInvocations:
    def test_synchronous_invocation_waits_for_target(self):
        system = make_system()
        inner = Task("inner", node_id="n0")
        inner.code_eu("work", wcet=200)
        outer = Task("outer", node_id="n0")
        pre = outer.code_eu("pre", wcet=10)
        call = outer.inv_eu("call", inner, synchronous=True)
        post_times = []
        post = outer.code_eu("post", wcet=10,
                             action=lambda ctx: post_times.append(ctx.now))
        outer.chain(pre, call, post)
        inst = system.activate(outer)
        system.run()
        assert inst.state is InstanceState.DONE
        assert post_times[0] >= 220  # pre + inner before post runs

    def test_asynchronous_invocation_does_not_wait(self):
        system = make_system()
        inner = Task("inner", node_id="n0")
        inner.code_eu("work", wcet=1000)
        outer = Task("outer", deadline=5000, node_id="n0")
        call = outer.inv_eu("call", inner, synchronous=False)
        post = outer.code_eu("post", wcet=10,
                             attrs=EUAttributes(prio=500))
        outer.precede(call, post)
        inst = system.activate(outer)
        system.run()
        # outer completes long before inner's 1000us of work would allow
        # if the call were synchronous.
        assert inst.response_time < 1000
        assert system.dispatcher.instances_of("inner")[0].state is \
            InstanceState.DONE

    def test_invocation_costs_charged(self):
        costs = DispatcherCosts(c_start_inv=7, c_end_inv=9, c_start_act=0,
                                c_end_act=0, c_local=0)
        system = HadesSystem(node_ids=["n0"], costs=costs)
        inner = Task("inner", node_id="n0")
        inner.code_eu("w", wcet=100)
        outer = Task("outer", node_id="n0")
        outer.inv_eu("call", inner, synchronous=True)
        inst = system.activate(outer)
        system.run()
        assert inst.response_time == 100 + 7 + 9
        assert system.dispatcher.ledger.count("c_start_inv") == 1
        assert system.dispatcher.ledger.count("c_end_inv") == 1

    def test_nested_invocations(self):
        system = make_system()
        leaf = Task("leaf", node_id="n0")
        leaf.code_eu("w", wcet=50)
        middle = Task("middle", node_id="n0")
        middle.inv_eu("call_leaf", leaf, synchronous=True)
        top = Task("top", node_id="n0")
        top.inv_eu("call_middle", middle, synchronous=True)
        inst = system.activate(top)
        system.run()
        assert inst.state is InstanceState.DONE
        assert inst.response_time == 50


class TestDistributedExecution:
    def test_remote_precedence_crosses_network(self):
        system = make_system(node_ids=["n0", "n1"], network_latency=200)
        task = Task("dist", node_id="n0")
        a = task.code_eu("a", wcet=10)
        b = task.code_eu("b", wcet=10, node_id="n1")
        task.precede(a, b)
        inst = system.activate(task)
        system.run()
        assert inst.state is InstanceState.DONE
        # At least: a(10) + network(200) + irq wcet + b(10).
        assert inst.response_time >= 220

    def test_remote_parameter_transfer(self):
        system = make_system(node_ids=["n0", "n1"])
        task = Task("dist", node_id="n0")
        got = []
        a = task.code_eu("a", wcet=5,
                         action=lambda ctx: ctx.outputs.update(v="hello"))
        b = task.code_eu("b", wcet=5, node_id="n1",
                         action=lambda ctx: got.append(ctx.inputs["v"]))
        task.precede(a, b, param="v")
        system.activate(task)
        system.run()
        assert got == ["hello"]

    def test_remote_edge_through_tnetwork_task(self):
        system = make_system(node_ids=["n0", "n1"], with_tnetwork=True)
        task = Task("dist", node_id="n0")
        a = task.code_eu("a", wcet=5)
        b = task.code_eu("b", wcet=5, node_id="n1")
        task.precede(a, b)
        inst = system.activate(task)
        system.run()
        assert inst.state is InstanceState.DONE
        assert system.nodes["n0"].tnetwork.sent_count == 1

    def test_parallel_branches_on_two_nodes_overlap(self):
        system = make_system(node_ids=["n0", "n1"])
        task = Task("fan", node_id="n0")
        a = task.code_eu("a", wcet=10)
        b = task.code_eu("b", wcet=300)               # on n0
        c = task.code_eu("c", wcet=300, node_id="n1")  # on n1
        task.precede(a, b)
        task.precede(a, c)
        inst = system.activate(task)
        system.run()
        # True parallelism: well under the 610 serial time.
        assert inst.response_time < 500


class TestMonitoring:
    def test_deadline_miss_detected(self):
        system = make_system()
        task = Task("late", deadline=50, node_id="n0")
        task.code_eu("a", wcet=100)
        system.activate(task)
        system.run()
        misses = system.monitor.of_kind(ViolationKind.DEADLINE_MISS)
        assert len(misses) == 1
        assert misses[0].time == 50

    def test_deadline_met_no_violation(self):
        system = make_system()
        task = Task("fine", deadline=500, node_id="n0")
        task.code_eu("a", wcet=100)
        system.activate(task)
        system.run()
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0

    def test_abort_on_deadline_miss_kills_threads(self):
        system = make_system(on_deadline_miss="abort")
        task = Task("late", deadline=50, node_id="n0")
        a = task.code_eu("a", wcet=100)
        ran = []
        b = task.code_eu("b", wcet=10, action=lambda ctx: ran.append(1))
        task.precede(a, b)
        inst = system.activate(task)
        system.run()
        assert inst.state is InstanceState.ABORTED
        assert ran == []  # successor never ran

    def test_arrival_law_violation_detected(self):
        system = make_system()
        task = Task("sporadic", deadline=100,
                    arrival=Sporadic(pseudo_period=1000), node_id="n0")
        task.code_eu("a", wcet=10)
        system.activate(task)
        system.sim.call_in(500, lambda: system.activate(task))  # too soon
        system.run()
        assert system.monitor.count(ViolationKind.ARRIVAL_LAW) == 1

    def test_early_termination_detected(self):
        system = make_system()
        task = Task("early", node_id="n0")
        task.code_eu("a", wcet=100, actual_time=40)
        system.activate(task)
        system.run()
        earlies = system.monitor.of_kind(ViolationKind.EARLY_TERMINATION)
        assert len(earlies) == 1
        assert earlies[0].details["actual"] == 40

    def test_eu_level_deadline_monitored(self):
        system = make_system()
        task = Task("staged", node_id="n0")  # no task-level deadline
        a = task.code_eu("a", wcet=300)
        # b must finish within 400 us of activation: impossible after
        # a's 300 us plus its own 200 us.
        b = task.code_eu("b", wcet=200, attrs=EUAttributes(deadline=400))
        task.precede(a, b)
        system.activate(task)
        system.run()
        misses = system.monitor.of_kind(ViolationKind.DEADLINE_MISS)
        assert len(misses) == 1
        assert misses[0].details["eu"] == "b"
        assert misses[0].details["level"] == "eu"

    def test_eu_level_deadline_met_is_silent(self):
        system = make_system()
        task = Task("staged", node_id="n0")
        task.code_eu("a", wcet=100, attrs=EUAttributes(deadline=400))
        system.activate(task)
        system.run()
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0

    def test_latest_start_violation_detected(self):
        system = make_system()
        blocker = Task("blocker", node_id="n0")
        blocker.code_eu("long", wcet=1000, attrs=EUAttributes(prio=900))
        victim = Task("victim", node_id="n0")
        victim.code_eu("v", wcet=10,
                       attrs=EUAttributes(prio=1, latest=100))
        system.activate(blocker)
        system.activate(victim)
        system.run()
        assert system.monitor.count(ViolationKind.LATEST_START) == 1

    def test_network_omission_detected(self):
        from repro.network import OmissionFault
        system = make_system(node_ids=["n0", "n1"])
        task = Task("dist", deadline=100_000, node_id="n0")
        a = task.code_eu("a", wcet=10)
        b = task.code_eu("b", wcet=10, node_id="n1")
        task.precede(a, b)
        # Drop everything on the n0->n1 link.
        fault = OmissionFault(probability=1.0,
                              rng=__import__("random").Random(0))
        system.network.link("n0", "n1").add_fault(fault)
        system.activate(task)
        system.run()
        assert system.monitor.count(ViolationKind.NETWORK_OMISSION) == 1

    def test_no_omission_report_when_message_arrives(self):
        system = make_system(node_ids=["n0", "n1"])
        task = Task("dist", node_id="n0")
        a = task.code_eu("a", wcet=10)
        b = task.code_eu("b", wcet=10, node_id="n1")
        task.precede(a, b)
        system.activate(task)
        system.run()
        assert system.monitor.count(ViolationKind.NETWORK_OMISSION) == 0

    def test_orphan_detected_in_lazy_abort_mode(self):
        system = make_system(on_deadline_miss="abort", abort_mode="lazy")
        task = Task("late", deadline=50, node_id="n0")
        task.code_eu("a", wcet=100)
        system.activate(task)
        system.run()
        assert system.monitor.count(ViolationKind.ORPHAN) == 1

    def test_deadlock_detector_finds_unsatisfiable_wait(self):
        from repro.core.monitoring import DeadlockDetector
        system = make_system()
        never = ConditionVariable("never")
        task = Task("stuck", node_id="n0")
        task.code_eu("a", wcet=10, wait_for=[never])
        system.activate(task)
        system.run()
        findings = DeadlockDetector().scan(system.dispatcher)
        assert any(f["kind"] == "unsatisfiable_wait" for f in findings)

    def test_deadlock_detector_finds_condvar_cycle(self):
        from repro.core.monitoring import DeadlockDetector
        system = make_system()
        cv1 = ConditionVariable("cv1")
        cv2 = ConditionVariable("cv2")
        t1 = Task("t1", node_id="n0")
        t1.code_eu("a", wcet=10, wait_for=[cv1], may_signal=[cv2])
        t2 = Task("t2", node_id="n0")
        t2.code_eu("b", wcet=10, wait_for=[cv2], may_signal=[cv1])
        system.activate(t1)
        system.activate(t2)
        system.run()
        findings = DeadlockDetector().scan(system.dispatcher)
        assert any(f["kind"] == "cycle" for f in findings)

    def test_no_deadlock_in_clean_run(self):
        from repro.core.monitoring import DeadlockDetector
        system = make_system()
        task = Task("fine", node_id="n0")
        task.code_eu("a", wcet=10)
        system.activate(task)
        system.run()
        assert DeadlockDetector().scan(system.dispatcher) == []


class TestNodeCrash:
    def test_crash_stalls_instance_and_deadline_fires(self):
        system = make_system()
        task = Task("doomed", deadline=500, node_id="n0")
        task.code_eu("a", wcet=1000)
        system.activate(task)
        system.sim.call_in(100, system.nodes["n0"].crash)
        system.run()
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 1

    def test_remote_work_survives_sender_side_completion(self):
        system = make_system(node_ids=["n0", "n1"])
        task = Task("dist", node_id="n0")
        a = task.code_eu("a", wcet=10)
        b = task.code_eu("b", wcet=10, node_id="n1")
        task.precede(a, b)
        inst = system.activate(task)
        # Crash n0 after a finishes & message sent (latency 50).
        system.sim.call_in(30, system.nodes["n0"].crash)
        system.run()
        assert inst.eu_instances[b].state is EUState.DONE


class TestDispatcherPrimitive:
    def test_hold_and_release_via_earliest(self):
        system = make_system()
        task = Task("held", node_id="n0")
        task.code_eu("a", wcet=10)
        inst = system.activate(task)
        eui = list(inst.eu_instances.values())[0]
        # Hold it forever, then release at t=400.
        system.dispatcher.set_thread_params(eui, earliest=NEVER)
        system.sim.call_in(
            400, lambda: system.dispatcher.set_thread_params(eui, earliest=0))
        system.run()
        assert inst.finish_time == 410

    def test_priority_change_reflected_on_thread(self):
        system = make_system()
        task = Task("t", node_id="n0")
        task.code_eu("a", wcet=500)
        inst = system.activate(task)
        eui = list(inst.eu_instances.values())[0]
        system.sim.call_in(10, lambda: system.dispatcher.set_thread_params(
            eui, priority=700))
        system.run(until=20)
        assert eui.thread.priority == 700


class _Listener(SchedulerBase):
    """A policy that only receives notifications."""

    policy_name = "listener"

    def handle(self, notification):
        pass


def scan_notify(dispatcher, kind, eui, **details):
    """Reference delivery: ask every attached scheduler ``manages()``."""
    notification = Notification(kind, eui, dispatcher.sim.now, details)
    for scheduler in dispatcher._schedulers:
        if scheduler.manages(eui):
            scheduler.queue.put(notification)


class TestNotificationRouting:
    """``_notify`` reaches exactly the schedulers, in exactly the order,
    that a scan of every attached scheduler reaches."""

    NODES = ("n0", "n1", "n2", "n3")

    def run_program(self, seed, scan):
        rng = random.Random(seed)
        system = make_system(node_ids=list(self.NODES))
        dispatcher = system.dispatcher
        if scan:
            dispatcher._notify = (
                lambda kind, eui, **details:
                scan_notify(dispatcher, kind, eui, **details))
        deliveries = []

        def attach(scheduler):
            system.attach_scheduler(scheduler)
            index, put = len(dispatcher._schedulers) - 1, scheduler.queue.put

            def logged(notification):
                deliveries.append((index, notification.kind.value,
                                   notification.eu_instance.qualified_name,
                                   notification.time))
                put(notification)

            scheduler.queue.put = logged

        lock = Resource("lock")
        tasks = []
        for t in range(6):
            task = Task(f"t{t}", deadline=rng.randrange(2_000, 20_000),
                        node_id=rng.choice(self.NODES))
            for e in range(rng.randint(2, 3)):
                task.code_eu(f"e{e}", wcet=rng.randrange(10, 200),
                             node_id=self.NODES[(t + e) % len(self.NODES)],
                             resources=([(lock, AccessMode.EXCLUSIVE)]
                                        if t % 3 == e else []))
            tasks.append(task)
            system.dispatcher.register_arrivals(
                task, sorted(rng.randrange(0, 25_000) for _ in range(2))
                + [rng.randrange(25_000, 30_000)])
        # Mixed scopes: a node policy, two cohabiting ones (manage_only),
        # a global instant listener and a global one with a home node.
        attach(EDFScheduler(scope="n0", w_sched=rng.randrange(3)))
        attach(FIFOScheduler(scope="n1", manage_only={"t0", "t1", "t2"}))
        attach(EDFScheduler(scope="n1", manage_only={"t3", "t4"}))
        attach(_Listener(scope=None))
        attach(_Listener(scope=None, home_node="n2", w_sched=1))
        # Attached after activations began: later notifications for the
        # nodes seen so far must reach them too.
        system.sim.call_at(rng.randrange(5_000, 15_000),
                           lambda: attach(EDFScheduler(scope="n2")))
        system.sim.call_at(rng.randrange(10_000, 25_000),
                           lambda: attach(_Listener(
                               scope=None, manage_only={"t5", "t1"})))
        system.run()
        return deliveries, system.tracer.records

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_all_scheduler_scan(self, seed):
        deliveries, records = self.run_program(seed, scan=False)
        assert (deliveries, records) == self.run_program(seed, scan=True)
        assert {index for index, *_ in deliveries} == set(range(7))
        assert {kind for _i, kind, *_ in deliveries} == {"Atv", "Trm",
                                                         "Rac", "Rre"}
