"""Property-based tests (hypothesis) on the core invariants.

These check the DESIGN.md §5 invariants over randomly generated
structures: HEUG acyclicity, precedence-respecting execution, resource
exclusion, EDF equivalence with an independent reference simulator,
generator correctness, and feasibility-test safety.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AccessMode,
    DispatcherCosts,
    EUAttributes,
    Resource,
    Task,
)
from repro.core.dispatcher import InstanceState
from repro.core.monitoring import ViolationKind
from repro.feasibility import AnalysisTask, spuri_edf_test, utilization
from repro.scheduling import EDFScheduler
from repro.system import HadesSystem
from repro.workloads import uunifast


# -- strategy helpers ---------------------------------------------------------

def random_dag_task(rng: random.Random, n_units: int,
                    node_ids=("n0",)) -> Task:
    """A random acyclic HEUG: edges only from lower to higher index."""
    task = Task(f"rand{rng.randrange(10**6)}", node_id=node_ids[0])
    units = [task.code_eu(f"u{i}", wcet=rng.randrange(1, 50),
                          node_id=rng.choice(node_ids))
             for i in range(n_units)]
    for i in range(n_units):
        for j in range(i + 1, n_units):
            if rng.random() < 0.3:
                task.precede(units[i], units[j])
    return task


class TestHEUGProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_random_dags_validate_and_order(self, seed, n):
        rng = random.Random(seed)
        task = random_dag_task(rng, n)
        task.validate()
        order = task.topological_order()
        position = {eu: i for i, eu in enumerate(order)}
        for edge in task.edges:
            assert position[edge.src] < position[edge.dst]

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_execution_respects_precedence(self, seed, n):
        rng = random.Random(seed)
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero())
        task = Task("dag", node_id="n0")
        finish_order = []
        units = []
        for i in range(n):
            units.append(task.code_eu(
                f"u{i}", wcet=rng.randrange(1, 30),
                action=lambda ctx, k=i: finish_order.append(k)))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    task.precede(units[i], units[j])
                    edges.append((i, j))
        instance = system.activate(task)
        system.run()
        assert instance.state is InstanceState.DONE
        position = {unit: idx for idx, unit in enumerate(finish_order)}
        for src, dst in edges:
            assert position[src] < position[dst]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_exclusive_resource_never_shared(self, seed):
        rng = random.Random(seed)
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero())
        resource = Resource("R", node_id="n0")
        holds = []

        def enter(ctx, name):
            holds.append(("end", name, ctx.now))

        n_tasks = rng.randrange(2, 6)
        instances = []
        for index in range(n_tasks):
            task = Task(f"t{index}", node_id="n0")
            wcet = rng.randrange(5, 40)
            task.code_eu("cs", wcet=wcet,
                         resources=[(resource, AccessMode.EXCLUSIVE)],
                         attrs=EUAttributes(prio=rng.randrange(1, 20)),
                         action=lambda ctx, nm=f"t{index}": enter(ctx, nm))
            delay = rng.randrange(0, 60)
            system.sim.call_in(delay, lambda t=task: instances.append(
                system.activate(t)))
        system.run()
        # Reconstruct critical-section intervals from the trace: between
        # thread_start and eu_done of each cs unit, intervals must not
        # overlap (single exclusive holder).
        spans = []
        for inst in instances:
            eui = list(inst.eu_instances.values())[0]
            if eui.start_time is not None and eui.finish_time is not None:
                spans.append((eui.release_time, eui.finish_time))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1 or s2 >= s1  # ordered, non-overlapping grants

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_no_thread_starts_before_earliest(self, seed, n):
        rng = random.Random(seed)
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero())
        checks = []
        for index in range(n):
            earliest = rng.randrange(0, 200)
            task = Task(f"t{index}", node_id="n0")
            task.code_eu("a", wcet=rng.randrange(1, 20),
                         attrs=EUAttributes(earliest=earliest))
            instance = system.activate(task)
            checks.append((instance, earliest))
        system.run()
        for instance, earliest in checks:
            eui = list(instance.eu_instances.values())[0]
            assert eui.start_time is not None
            assert eui.start_time >= earliest


class TestAccountingConservation:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_application_cpu_time_equals_executed_work(self, seed):
        """Accounting invariant: the CPU's application-category busy
        time equals the sum of the actual execution times of completed
        units — no work lost, duplicated, or misattributed across
        preemptions."""
        rng = random.Random(seed)
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero())
        expected = 0
        instances = []
        for index in range(rng.randrange(2, 7)):
            task = Task(f"t{index}", node_id="n0")
            units = rng.randrange(1, 4)
            previous = None
            for unit_index in range(units):
                wcet = rng.randrange(1, 200)
                actual = rng.randrange(0, wcet + 1)
                expected += actual
                eu = task.code_eu(f"u{unit_index}", wcet=wcet,
                                  actual_time=actual,
                                  attrs=EUAttributes(
                                      prio=rng.randrange(1, 50)))
                if previous is not None:
                    task.precede(previous, eu)
                previous = eu
            delay = rng.randrange(0, 100)
            system.sim.call_in(delay, lambda t=task: instances.append(
                system.activate(t)))
        system.run()
        assert all(i.state is InstanceState.DONE for i in instances)
        observed = system.nodes["n0"].cpu.busy_time.get("application", 0)
        assert observed == expected


class TestEDFEquivalence:
    @staticmethod
    def reference_edf(jobs):
        """Independent preemptive-EDF simulator: jobs = [(arrival, wcet,
        abs_deadline)]; returns finish times, by event stepping."""
        pending = []  # (deadline, index, remaining)
        finish = {}
        events = sorted({arrival for arrival, _w, _d in jobs})
        time = events[0] if events else 0
        arrivals = sorted(range(len(jobs)), key=lambda i: jobs[i][0])
        next_arrival = 0
        while len(finish) < len(jobs):
            while (next_arrival < len(jobs)
                   and jobs[arrivals[next_arrival]][0] <= time):
                index = arrivals[next_arrival]
                pending.append([jobs[index][2], index, jobs[index][1]])
                next_arrival += 1
            if not pending:
                time = jobs[arrivals[next_arrival]][0]
                continue
            pending.sort()
            deadline, index, remaining = pending[0]
            # Run until completion or next arrival.
            horizon = (jobs[arrivals[next_arrival]][0]
                       if next_arrival < len(jobs) else time + remaining)
            step = min(remaining, max(1, horizon - time))
            remaining -= step
            time += step
            if remaining == 0:
                pending.pop(0)
                finish[index] = time
            else:
                pending[0][2] = remaining
        return finish

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_on_random_jobs(self, seed):
        rng = random.Random(seed)
        n_jobs = rng.randrange(2, 7)
        jobs = []
        t = 0
        for _ in range(n_jobs):
            t += rng.randrange(0, 40)
            wcet = rng.randrange(5, 60)
            deadline = t + wcet + rng.randrange(10, 400)
            jobs.append((t, wcet, deadline))
        self.check_against_reference(jobs)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_at_depth(self, seed):
        """300 jobs on one node, 0-9 us apart: the live set peaks near
        260 units, deep in the ranks but inside the 998-wide band."""
        rng = random.Random(seed)
        jobs = []
        t = 0
        for _ in range(300):
            t += rng.randrange(0, 10)
            wcet = rng.randrange(5, 60)
            deadline = t + wcet + rng.randrange(10, 400)
            jobs.append((t, wcet, deadline))
        reference = self.check_against_reference(jobs)
        peak = max(sum(1 for index, (arrival, _w, _d) in enumerate(jobs)
                       if arrival <= at < reference[index])
                   for at, _w, _d in jobs)
        assert 200 <= peak < 998

    def check_against_reference(self, jobs):
        """Run ``jobs`` under EDFScheduler on one node and assert every
        finish time equals the reference's; returns the reference."""
        reference = self.reference_edf(jobs)
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero())
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
        instances = []
        for index, (arrival, wcet, deadline) in enumerate(jobs):
            task = Task(f"j{index}", deadline=deadline - arrival,
                        node_id="n0")
            task.code_eu("a", wcet=wcet)
            system.sim.call_at(arrival, lambda tk=task: instances.append(
                (tk.name, system.activate(tk))))
        system.run()
        finish_by_name = {name: inst.finish_time
                          for name, inst in instances}
        for index in range(len(jobs)):
            assert finish_by_name[f"j{index}"] == reference[index], \
                (jobs, finish_by_name, reference)
        return reference


class TestGeneratorProperties:
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 30),
           target=st.floats(0.05, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_uunifast_sums_and_bounds(self, seed, n, target):
        values = uunifast(n, target, random.Random(seed))
        assert len(values) == n
        assert abs(sum(values) - target) < 1e-9
        assert all(0 <= v <= target + 1e-9 for v in values)


class TestFeasibilitySafety:
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_accepted_periodic_sets_meet_deadlines_under_edf(self, seed):
        from repro.workloads import random_periodic_taskset, periodic_to_heug

        tasks = random_periodic_taskset(3, 0.65, seed=seed,
                                        period_range=(2_000, 20_000))
        report = spuri_edf_test(tasks)
        if not report["feasible"]:
            return  # only accepted sets carry the safety obligation
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero())
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
        horizon = 3 * max(t.period for t in tasks)
        for atask in tasks:
            heug = periodic_to_heug(atask, "n0")
            count = max(1, horizon // atask.period)
            system.register_periodic(heug, count=count)
        system.run()
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0
