"""Tests for the scheduling policies built over the dispatcher."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AccessMode,
    DispatcherCosts,
    EUAttributes,
    Periodic,
    Resource,
    Sporadic,
    Task,
)
from repro.core.dispatcher import EUState, InstanceState
from repro.core.monitoring import ViolationKind
from repro.core.notifications import Notification, NotificationKind
from repro.core.scheduler_api import SchedulerBase
from repro.kernel.priorities import PRIO_MAX_APPL, PRIO_MIN_APPL
from repro.scheduling import (
    DMScheduler,
    EDFScheduler,
    FIFOScheduler,
    PCPProtocol,
    RMScheduler,
    SpringScheduler,
    SRPProtocol,
    preemption_levels,
)
from repro.system import HadesSystem


def make_system(**kwargs):
    kwargs.setdefault("node_ids", ["n0"])
    kwargs.setdefault("costs", DispatcherCosts.zero())
    return HadesSystem(**kwargs)


def simple_task(name, wcet, deadline, node="n0", arrival=None):
    task = Task(name, deadline=deadline, arrival=arrival, node_id=node)
    task.code_eu("eu", wcet=wcet)
    return task


class TestEDF:
    def test_shorter_deadline_preempts(self):
        system = make_system()
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=1))
        long_task = simple_task("long", wcet=500, deadline=10_000)
        short_task = simple_task("short", wcet=100, deadline=300)
        system.activate(long_task)
        system.sim.call_in(100, lambda: system.activate(short_task))
        system.run()
        short_inst = system.dispatcher.instances_of("short")[0]
        long_inst = system.dispatcher.instances_of("long")[0]
        assert short_inst.response_time <= 300   # met its tight deadline
        assert long_inst.response_time > 500     # was preempted

    def test_edf_meets_full_utilization(self):
        # Two tasks at total utilisation 1.0: EDF schedules them, RM can't.
        system = make_system()
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
        t1 = simple_task("t1", wcet=500, deadline=1000,
                         arrival=Periodic(period=1000))
        t2 = simple_task("t2", wcet=1000, deadline=2000,
                         arrival=Periodic(period=2000))
        system.register_periodic(t1, count=10)
        system.register_periodic(t2, count=5)
        system.run()
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0
        assert system.dispatcher.completed_instances == 15

    def test_edf_matches_textbook_schedule(self):
        # Classic example: T1=(C=1,T=4), T2=(C=2,T=6), T3=(C=3,T=8)
        # (scaled x100); EDF meets all deadlines at U ~ 0.96.
        system = make_system()
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
        for name, c, p in [("t1", 100, 400), ("t2", 200, 600),
                           ("t3", 300, 800)]:
            task = simple_task(name, wcet=c, deadline=p,
                               arrival=Periodic(period=p))
            system.register_periodic(task, count=6)
        system.run()
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0

    def test_ties_keep_activation_order(self):
        system = make_system()
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
        done = []
        for name in ("first", "second"):
            task = Task(name, deadline=1000, node_id="n0")
            task.code_eu("eu", wcet=100,
                         action=lambda ctx, n=name: done.append(n))
            system.activate(task)
        system.run()
        assert done == ["first", "second"]

    def test_scheduler_cost_appears_in_accounting(self):
        system = make_system()
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=5))
        system.activate(simple_task("t", wcet=100, deadline=1000))
        system.run()
        assert system.nodes["n0"].cpu.busy_time.get("scheduler", 0) >= 5

    def test_a_failing_policy_stops_the_run(self):
        class FailingEDF(EDFScheduler):
            def handle(self, notification):
                raise ValueError("policy failed")

        system = make_system()
        system.attach_scheduler(FailingEDF(scope="n0", w_sched=1))
        inst = system.activate(simple_task("t", wcet=100, deadline=1000))
        with pytest.raises(ValueError, match="policy failed"):
            system.run()
        # Stopped at the scheduler's first notification, not after the
        # unit ran on without a scheduler.
        assert system.sim.now == 1
        assert inst.state is InstanceState.ACTIVE


# -- EDF's keyed order against the sort it replaced ---------------------------

class SortingEDF(SchedulerBase):
    """Reference ranking: on every Atv, drop the DONE/ABORTED units and
    stably re-sort the live ones (kept in Atv order) by deadline."""

    def __init__(self):
        super().__init__(scope="n0")
        self._live = []

    @staticmethod
    def deadline_of(eui):
        if eui.deadline is not None:
            return eui.deadline
        if eui.instance.abs_deadline is not None:
            return eui.instance.abs_deadline
        return 2 ** 62

    def handle(self, notification):
        eui = notification.eu_instance
        if notification.kind is NotificationKind.ATV:
            self._live.append(eui)
            self._live = [unit for unit in self._live
                          if unit.state not in (EUState.DONE,
                                                EUState.ABORTED)]
            ordered = sorted(self._live, key=self.deadline_of)
            for rank, unit in enumerate(ordered):
                priority = max(PRIO_MIN_APPL, PRIO_MAX_APPL - rank)
                if unit.priority != priority:
                    self.set_priority(unit, priority)
        elif notification.kind is NotificationKind.TRM:
            if eui in self._live:
                self._live.remove(eui)


class _Instance:
    def __init__(self, abs_deadline):
        self.abs_deadline = abs_deadline


class _Unit:
    """The EUInstance fields EDF reads."""

    def __init__(self, name, deadline, abs_deadline, priority):
        self.qualified_name = name
        self.deadline = deadline
        self.instance = _Instance(abs_deadline)
        self.priority = priority
        self.state = EUState.WAITING


class _PrimitiveLog:
    """Stands in for the dispatcher: logs and applies each priority
    change, as ``set_thread_params`` does."""

    def __init__(self):
        self.calls = []

    def set_thread_params(self, eui, priority=None,
                          preemption_threshold=None, earliest=None):
        self.calls.append((eui.qualified_name, priority,
                           preemption_threshold, earliest))
        eui.priority = priority


def replay_edf(scheduler, program):
    """Run an Atv/Trm/done/abort/poke program; returns the primitive
    calls and the final priority of every unit."""
    scheduler.dispatcher = log = _PrimitiveLog()
    units = []
    for op in program:
        if op[0] == "atv":
            _kind, deadline, abs_deadline, priority = op
            unit = _Unit(f"u{len(units)}", deadline, abs_deadline, priority)
            units.append(unit)
            scheduler.handle(Notification(NotificationKind.ATV, unit, 0))
            continue
        if not units:
            continue
        kind, pick = op[0], op[1]
        unit = units[pick % len(units)]
        if kind == "trm":
            if unit.state is not EUState.ABORTED:
                unit.state = EUState.DONE
            scheduler.handle(Notification(NotificationKind.TRM, unit, 0))
        elif kind == "done":
            unit.state = EUState.DONE      # its Trm comes later, or never
        elif kind == "abort":
            unit.state = EUState.ABORTED   # aborts send no Trm
        else:                              # another writer moves it
            unit.priority = op[2]
    return log.calls, [unit.priority for unit in units]


def _atv(rng, deadline_range):
    """An Atv with a tied, spread, EU-level or missing deadline."""
    shape = rng.randrange(4)
    tied = rng.choice((100, 200, 300))
    spread = rng.randrange(deadline_range)
    if shape == 0:
        deadline, abs_deadline = None, tied
    elif shape == 1:
        deadline, abs_deadline = None, spread
    elif shape == 2:
        deadline, abs_deadline = rng.choice((tied, spread)), rng.choice(
            (None, spread + 7))
    else:
        deadline, abs_deadline = None, None
    return ("atv", deadline, abs_deadline,
            rng.choice((1, 5, PRIO_MAX_APPL, rng.randrange(1, 999))))


def edf_program(seed, n_ops, atv_share=0.5, deadline_range=2_000):
    rng = random.Random(seed)
    program = []
    for _ in range(n_ops):
        if rng.random() < atv_share:
            program.append(_atv(rng, deadline_range))
        else:
            program.append((rng.choice(("trm", "trm", "done", "abort",
                                        "poke")),
                            rng.randrange(10 ** 6),
                            rng.randrange(1, 999)))
    return program


class TestEDFKeyedOrder:
    """EDFScheduler makes exactly the sort-based ranking's primitive
    calls, in the same order."""

    @given(seed=st.integers(0, 10 ** 6), n_ops=st.integers(1, 120))
    @settings(max_examples=150, deadline=None)
    def test_matches_sorting_reference(self, seed, n_ops):
        program = edf_program(seed, n_ops)
        assert (replay_edf(EDFScheduler(scope="n0"), program)
                == replay_edf(SortingEDF(), program))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_past_the_priority_band(self, seed):
        """More than 998 live units: the tail is clamped at
        PRIO_MIN_APPL and still ranked the same way."""
        rng = random.Random(seed)
        program = [("atv", None, 10_000 + k, rng.randrange(1, 999))
                   for k in range(1_050)]
        program += edf_program(seed, 150, atv_share=0.7,
                               deadline_range=12_000)
        calls, priorities = replay_edf(EDFScheduler(scope="n0"), program)
        assert (calls, priorities) == replay_edf(SortingEDF(), program)
        assert priorities.count(PRIO_MIN_APPL) > 50


class TestFixedPriority:
    def test_rm_assigns_by_period(self):
        system = make_system()
        fast = simple_task("fast", wcet=10, deadline=100,
                           arrival=Periodic(period=100))
        slow = simple_task("slow", wcet=50, deadline=1000,
                           arrival=Periodic(period=1000))
        scheduler = RMScheduler([slow, fast], scope="n0")
        system.attach_scheduler(scheduler)
        assert scheduler.priority_map["fast"] > scheduler.priority_map["slow"]

    def test_rm_schedules_harmonic_set_at_full_utilization(self):
        system = make_system()
        t1 = simple_task("t1", wcet=500, deadline=1000,
                         arrival=Periodic(period=1000))
        t2 = simple_task("t2", wcet=1000, deadline=2000,
                         arrival=Periodic(period=2000))
        system.attach_scheduler(RMScheduler([t1, t2], scope="n0", w_sched=0))
        system.register_periodic(t1, count=10)
        system.register_periodic(t2, count=5)
        system.run()
        # Harmonic periods: RM achieves U=1.
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0

    def test_rm_misses_where_edf_succeeds(self):
        # The classic Liu-Layland counterexample (scaled x100):
        # T1=(C=200,T=500), T2=(C=400,T=700): U = 0.971 < 1, above the
        # 2-task RM bound 0.828.  RM: R2 = 400 + 2*200 = 800 > 700.
        def run(policy):
            system = make_system()
            t1 = simple_task("t1", wcet=200, deadline=500,
                             arrival=Periodic(period=500))
            t2 = simple_task("t2", wcet=400, deadline=700,
                             arrival=Periodic(period=700))
            if policy == "rm":
                system.attach_scheduler(RMScheduler([t1, t2], scope="n0",
                                                    w_sched=0))
            else:
                system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
            system.register_periodic(t1, count=14)
            system.register_periodic(t2, count=10)
            system.run()
            return system.monitor.count(ViolationKind.DEADLINE_MISS)

        assert run("edf") == 0
        assert run("rm") > 0

    def test_rm_rejects_aperiodic_tasks(self):
        task = simple_task("ap", wcet=10, deadline=100)
        scheduler = RMScheduler([task])
        with pytest.raises(ValueError):
            scheduler.assign_priorities()

    def test_dm_assigns_by_deadline(self):
        urgent = simple_task("urgent", wcet=10, deadline=50,
                             arrival=Periodic(period=1000))
        relaxed = simple_task("relaxed", wcet=10, deadline=900,
                              arrival=Periodic(period=1000))
        scheduler = DMScheduler([relaxed, urgent])
        mapping = scheduler.assign_priorities()
        assert mapping["urgent"] > mapping["relaxed"]

    def test_dm_requires_deadline(self):
        task = Task("nodl", node_id="n0", arrival=Periodic(period=100))
        task.code_eu("eu", wcet=10)
        with pytest.raises(ValueError):
            DMScheduler([task]).assign_priorities()

    def test_dm_beats_rm_on_short_deadline_long_period(self):
        # T1: period 1000 but deadline 120, T2: period 400, C=100.
        # RM gives T2 higher priority -> T1 misses; DM gives T1 priority.
        def run(make_sched):
            system = make_system()
            t1 = simple_task("t1", wcet=100, deadline=120,
                             arrival=Periodic(period=1000))
            t2 = simple_task("t2", wcet=100, deadline=400,
                             arrival=Periodic(period=400))
            system.attach_scheduler(make_sched([t1, t2]))
            system.register_periodic(t1, count=4)
            system.register_periodic(t2, count=10)
            system.run()
            return system.monitor.count(ViolationKind.DEADLINE_MISS)

        assert run(lambda ts: DMScheduler(ts, scope="n0", w_sched=0)) == 0
        assert run(lambda ts: RMScheduler(ts, scope="n0", w_sched=0)) > 0


class TestFIFO:
    def test_fifo_flattens_priorities_to_activation_order(self):
        system = make_system()
        system.attach_scheduler(FIFOScheduler(scope="n0", w_sched=0))
        done = []
        for index in range(4):
            task = Task(f"t{index}", node_id="n0")
            # Later tasks get nominally higher static priorities; FIFO
            # must flatten them back to activation order.  Arrivals are
            # staggered so the scheduler task treats each activation
            # before the next one shows up.
            task.code_eu("eu", wcet=50, attrs=EUAttributes(prio=10 + index),
                         action=lambda ctx, i=index: done.append(i))
            system.sim.call_in(index, lambda t=task: system.activate(t))
        system.run()
        assert done == [0, 1, 2, 3]


class TestSRP:
    def make_cs_task(self, name, resource, deadline, wcet_before=50,
                     wcet_cs=100, wcet_after=50, arrival=None):
        task = Task(name, deadline=deadline, arrival=arrival, node_id="n0")
        a = task.code_eu("before", wcet=wcet_before)
        b = task.code_eu("cs", wcet=wcet_cs,
                         resources=[(resource, AccessMode.EXCLUSIVE)])
        c = task.code_eu("after", wcet=wcet_after)
        task.chain(a, b, c)
        return task

    def test_preemption_levels_by_deadline(self):
        t1 = simple_task("short", wcet=1, deadline=100)
        t2 = simple_task("long", wcet=1, deadline=1000)
        levels = preemption_levels([t1, t2])
        assert levels["short"] > levels["long"]

    def test_job_blocked_at_most_once(self):
        system = make_system()
        res = Resource("R", node_id="n0")
        low = self.make_cs_task("low", res, deadline=100_000)
        high = self.make_cs_task("high", res, deadline=1_000)
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
        srp = SRPProtocol([low, high], scope="n0", w_sched=0)
        system.attach_scheduler(srp)
        system.activate(low)
        # Arrive while low is inside its critical section.
        system.sim.call_in(60, lambda: system.activate(high))
        system.run()
        for inst in system.dispatcher.active_instances():
            assert False, f"unfinished {inst}"
        assert srp.blocked_starts >= 1
        # high is blocked before starting, then runs to completion with
        # no further blocking: its "cs" unit never waits on the resource.
        high_inst = system.dispatcher.instances_of("high")[0]
        cs_eui = [e for e in high_inst.eu_instances.values()
                  if e.eu.name == "cs"][0]
        before_eui = [e for e in high_inst.eu_instances.values()
                      if e.eu.name == "before"][0]
        # The cs unit started as soon as its predecessor finished.
        assert cs_eui.release_time is not None
        assert before_eui.finish_time == cs_eui.release_time

    def test_same_instant_arrival_and_cs_release_never_block_mid_job(self):
        # Regression: a job arriving at the exact instant another
        # started job's critical section is released used to pass the
        # ceiling test against a stale (not yet granted) resource state,
        # start, and then block mid-graph on the just-granted resource.
        # The gate now defers its decision to the tail of the instant.
        system = make_system()
        res = Resource("R", node_id="n0")
        # "slow" runs before for 104; "fast" arrives exactly when slow's
        # cs unit is released (and granted) at t = 104.
        slow = self.make_cs_task("slow", res, deadline=30_000,
                                 wcet_before=104, wcet_cs=297)
        fast = self.make_cs_task("fast", res, deadline=10_000,
                                 wcet_before=80, wcet_cs=106)
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
        srp = SRPProtocol([slow, fast], scope="n0", w_sched=0)
        system.attach_scheduler(srp)
        system.activate(slow)
        instances = []
        system.sim.call_in(104, lambda: instances.append(
            system.activate(fast)))
        system.run()
        fast_inst = instances[0]
        units = {e.eu.name: e for e in fast_inst.eu_instances.values()}
        # fast is blocked once, before starting (slow holds R from 104
        # to 401); once running it never waits again.
        assert units["before"].release_time == 104 + 297
        assert units["cs"].release_time == units["before"].finish_time
        assert srp.blocked_starts >= 1

    def test_srp_prevents_unbounded_priority_inversion(self):
        # Without SRP a medium task can interleave between low's CS and
        # high; SRP keeps medium out until high finishes.
        def run(with_srp):
            system = make_system()
            res = Resource("R", node_id="n0")
            low = self.make_cs_task("low", res, deadline=100_000,
                                    wcet_cs=200)
            high = self.make_cs_task("high", res, deadline=1_000)
            medium = simple_task("medium", wcet=700, deadline=5_000)
            system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
            if with_srp:
                system.attach_scheduler(
                    SRPProtocol([low, high, medium], scope="n0", w_sched=0))
            system.activate(low)
            system.sim.call_in(60, lambda: system.activate(medium))
            system.sim.call_in(80, lambda: system.activate(high))
            system.run()
            return system.dispatcher.instances_of("high")[0].response_time

        assert run(with_srp=True) <= run(with_srp=False)

    def test_system_ceiling_tracks_holders(self):
        system = make_system()
        res = Resource("R", node_id="n0")
        low = self.make_cs_task("low", res, deadline=10_000)
        high = self.make_cs_task("high", res, deadline=100)
        srp = SRPProtocol([low, high], scope="n0", w_sched=0)
        system.attach_scheduler(srp)
        assert srp.system_ceiling() == 0
        res.grant("someone", AccessMode.EXCLUSIVE)
        assert srp.system_ceiling() == srp.levels["high"]
        res.release("someone")
        assert srp.system_ceiling() == 0


class TestPCP:
    def test_inheritance_bounds_inversion(self):
        system = make_system()
        res = Resource("R", node_id="n0")
        # Static priorities: low=10, medium=50, high=90.
        low = Task("low", deadline=100_000, node_id="n0")
        low.code_eu("cs", wcet=300,
                    resources=[(res, AccessMode.EXCLUSIVE)],
                    attrs=EUAttributes(prio=10))
        medium = Task("medium", deadline=100_000, node_id="n0")
        medium.code_eu("eu", wcet=500, attrs=EUAttributes(prio=50))
        high = Task("high", deadline=100_000, node_id="n0")
        high.code_eu("cs", wcet=100,
                     resources=[(res, AccessMode.EXCLUSIVE)],
                     attrs=EUAttributes(prio=90))
        pcp = PCPProtocol([low, medium, high], scope="n0", w_sched=0)
        system.attach_scheduler(pcp)
        system.activate(low)
        system.sim.call_in(50, lambda: system.activate(medium))
        system.sim.call_in(60, lambda: system.activate(high))
        system.run()
        high_inst = system.dispatcher.instances_of("high")[0]
        # With inheritance, high waits only for low's remaining CS
        # (300-60=240) plus its own 100: well under medium's 500.
        assert high_inst.finish_time <= 60 + 240 + 100 + 10
        assert pcp.inheritance_events >= 1

    def test_restores_priority_after_release(self):
        system = make_system()
        res = Resource("R", node_id="n0")
        low = Task("low", node_id="n0")
        low_cs = low.code_eu("cs", wcet=200,
                             resources=[(res, AccessMode.EXCLUSIVE)],
                             attrs=EUAttributes(prio=10))
        tail = low.code_eu("tail", wcet=200, attrs=EUAttributes(prio=10))
        low.precede(low_cs, tail)
        high = Task("high", node_id="n0")
        high.code_eu("cs", wcet=50,
                     resources=[(res, AccessMode.EXCLUSIVE)],
                     attrs=EUAttributes(prio=90))
        pcp = PCPProtocol([low, high], scope="n0", w_sched=0)
        system.attach_scheduler(pcp)
        inst_low = system.activate(low)
        system.sim.call_in(50, lambda: system.activate(high))
        system.run()
        cs_eui = inst_low.eu_instances[low_cs]
        assert cs_eui.priority == 10  # restored after inheritance

    def test_gate_lets_unrelated_tasks_through(self):
        system = make_system()
        res = Resource("R", node_id="n0")
        user = Task("user", node_id="n0")
        user.code_eu("cs", wcet=100,
                     resources=[(res, AccessMode.EXCLUSIVE)],
                     attrs=EUAttributes(prio=10))
        free = Task("free", node_id="n0")
        free.code_eu("eu", wcet=10, attrs=EUAttributes(prio=90))
        pcp = PCPProtocol([user, free], scope="n0", w_sched=0)
        system.attach_scheduler(pcp)
        system.activate(user)
        system.sim.call_in(20, lambda: system.activate(free))
        system.run()
        free_inst = system.dispatcher.instances_of("free")[0]
        assert free_inst.response_time <= 20  # preempted the CS freely


class TestSpring:
    def test_feasible_set_guaranteed_and_meets_deadlines(self):
        system = make_system()
        spring = SpringScheduler(scope="n0", w_sched=0)
        system.attach_scheduler(spring)
        for index in range(3):
            task = simple_task(f"t{index}", wcet=100,
                               deadline=1000 + 400 * index)
            system.activate(task)
        system.run()
        assert spring.guaranteed_count == 3
        assert spring.rejected_count == 0
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0

    def test_infeasible_newcomer_rejected_not_running_tasks(self):
        system = make_system()
        spring = SpringScheduler(scope="n0", w_sched=0)
        system.attach_scheduler(spring)
        good = simple_task("good", wcet=800, deadline=1000)
        system.activate(good)
        # Arrives needing 500 by t=600 while 800-100=700 of good remain:
        # no plan fits both.
        impossible = simple_task("impossible", wcet=500, deadline=500)
        system.sim.call_in(100, lambda: system.activate(impossible))
        system.run()
        assert spring.rejected_count == 1
        good_inst = system.dispatcher.instances_of("good")[0]
        assert good_inst.state is InstanceState.DONE
        assert good_inst.response_time <= 1000

    def test_guaranteed_tasks_never_miss(self):
        # Overload: offer more work than fits; whatever Spring accepts
        # must meet its deadline (the guarantee property).
        system = make_system()
        spring = SpringScheduler(scope="n0", w_sched=0)
        system.attach_scheduler(spring)
        for index in range(6):
            task = simple_task(f"t{index}", wcet=400, deadline=1200)
            system.sim.call_in(index * 10,
                               lambda t=task: system.activate(t))
        system.run()
        assert spring.guaranteed_count + spring.rejected_count == 6
        assert spring.rejected_count >= 1
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0

    def test_heuristics_are_pluggable(self):
        from repro.scheduling.spring import h_min_laxity, h_min_wcet
        system = make_system()
        spring = SpringScheduler(scope="n0", heuristic=h_min_laxity,
                                 w_sched=0)
        system.attach_scheduler(spring)
        system.activate(simple_task("a", wcet=100, deadline=2000))
        system.activate(simple_task("b", wcet=100, deadline=500))
        system.run()
        assert spring.guaranteed_count == 2
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0


class TestCohabitation:
    def test_guaranteed_and_best_effort_coexist(self):
        # §2.2.1: one feasibility-tested scheduler + best-effort FIFO.
        system = make_system(node_ids=["n0", "n1"])
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
        system.attach_scheduler(FIFOScheduler(scope="n1", w_sched=0))
        critical = simple_task("critical", wcet=100, deadline=500,
                               arrival=Periodic(period=1000))
        besteffort = simple_task("besteffort", wcet=300, deadline=100_000,
                                 node="n1")
        system.register_periodic(critical, count=5)
        system.activate(besteffort)
        system.run()
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0
        assert system.dispatcher.completed_instances == 6


class TestSpringTryPlan:
    """The side-effect-free probe behind admission's SpringProbeTest."""

    @staticmethod
    def _fingerprint(system, spring):
        import json
        state = {
            "plan": sorted((repr(key), start)
                           for key, start in spring.plan.items()),
            "guaranteed": [id(job) for job in spring._guaranteed],
            "counts": (spring.guaranteed_count, spring.rejected_count,
                       spring.handled_count),
            "threads": [(index, job.eui.priority,
                         getattr(job.eui, "earliest", None))
                        for index, job in enumerate(spring._guaranteed)],
            "trace": len(system.tracer.records),
        }
        return json.dumps(state, sort_keys=True).encode("utf-8")

    def test_rejected_probe_leaves_state_byte_identical(self):
        system = make_system()
        spring = SpringScheduler(scope="n0", w_sched=0)
        system.attach_scheduler(spring)
        system.activate(simple_task("good", wcet=800, deadline=1000))
        snap = {}

        def probe():
            # good has ~700us left toward t=1000: a 500us/600 probe
            # cannot fit either way around it, a 100us/5100 one can.
            snap["before"] = self._fingerprint(system, spring)
            snap["reject"] = spring.try_plan(500, system.sim.now + 500)
            snap["after_reject"] = self._fingerprint(system, spring)
            snap["accept"] = spring.try_plan(100, system.sim.now + 5000)
            snap["after_accept"] = self._fingerprint(system, spring)

        system.sim.call_in(100, probe)
        system.run()
        assert snap["reject"] is None
        assert snap["accept"] is not None
        # Neither outcome left a trace: plan, guaranteed set, counters,
        # thread parameters and the trace log are byte-identical.
        assert snap["after_reject"] == snap["before"]
        assert snap["after_accept"] == snap["before"]
        assert spring.rejected_count == 0
        assert spring.guaranteed_count == 1
        good = system.dispatcher.instances_of("good")[0]
        assert good.state is InstanceState.DONE
        assert not good.missed_deadline

    def test_try_plan_requires_attachment(self):
        spring = SpringScheduler(scope="n0", w_sched=0)
        with pytest.raises(RuntimeError):
            spring.try_plan(100, 1000)
