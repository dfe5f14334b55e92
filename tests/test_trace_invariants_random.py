"""Randomized trace-replay invariants (§3.2.1 dispatching rules).

For each seed we generate a random HEUG workload (DAG tasks spread over
two nodes, globally unique priorities, a guaranteed deadline miss and —
on some seeds — a sporadic arrival-law violation), run it to
completion, then *replay the trace* record by record, reconstructing
each node's ready set and running thread, and assert the paper's rules:

* running rule — at every settled instant, no runnable thread has a
  priority strictly above the running thread's (per node);
* preemption rule — a ``cpu/preempt`` record names a challenger with a
  strictly higher priority than the preempted thread;
* lifecycle — every dispatched thread was started by the dispatcher
  (``irq:`` kernel handlers excepted), every started thread completes
  exactly once, no orphan threads remain;
* precedence — a unit's thread never starts before all its
  predecessors' ``eu_done`` records (local and remote edges alike);
* earliest-start — first dispatch at or after activation + earliest;
* accounting — violation counters in the :class:`MetricsRegistry`
  match the :class:`ExecutionMonitor`, and dispatcher/cpu counters
  match the trace.
"""

import random

import pytest

from repro.core import DispatcherCosts, EUAttributes, Sporadic, Task
from repro.core.monitoring import ViolationKind
from repro.system import HadesSystem
from tests.conftest import BACKENDS, on_engine

NODES = ("n0", "n1")
SEEDS = list(range(24))

IRQ_PRIO = 1_000  # PRIO_MAX: kernel interrupt handlers


def build_workload(seed, backend="heapq"):
    """Random DAG tasks + one guaranteed-miss task (+ sporadic abuse)."""
    rng = random.Random(seed)
    with on_engine(backend):
        system = HadesSystem(node_ids=list(NODES),
                             costs=DispatcherCosts.zero(), metrics=True,
                             on_deadline_miss="record")
    tasks = []
    prios = list(range(10, 60))
    rng.shuffle(prios)
    earliest_offsets = {}  # eu name -> offset

    for t in range(rng.randint(3, 5)):
        task = Task(f"t{t}", deadline=400_000)
        n_eus = rng.randint(2, 4)
        for e in range(n_eus):
            earliest = rng.choice((None, None, None, rng.randint(500, 2_000)))
            name = f"e{e}"
            if earliest is not None:
                earliest_offsets[f"{task.name}/{name}"] = earliest
            task.code_eu(name, wcet=rng.randint(20, 400),
                         node_id=rng.choice(NODES),
                         attrs=EUAttributes(prio=prios.pop(),
                                            earliest=earliest))
        for i in range(n_eus):
            for j in range(i + 1, n_eus):
                if rng.random() < 0.35:
                    task.precede(task.eus[i], task.eus[j])
        tasks.append(task)

    # Guaranteed deadline miss: wcet exceeds the relative deadline.
    late = Task("late", deadline=100, node_id=rng.choice(NODES))
    late.code_eu("l", wcet=300, attrs=EUAttributes(prio=prios.pop()))
    tasks.append(late)

    for task in tasks:
        for _ in range(rng.randint(1, 2)):
            when = rng.randint(0, 20_000)
            system.sim.call_at(when, lambda t=task: system.activate(t))

    expect_arrival_violation = seed % 3 == 0
    if expect_arrival_violation:
        sporadic = Task("spor", arrival=Sporadic(pseudo_period=5_000),
                        node_id="n0")
        sporadic.code_eu("s", wcet=50, attrs=EUAttributes(prio=prios.pop()))
        # 1_200 - 1_000 < pseudo_period: the second request is illegal.
        system.dispatcher.register_arrivals(sporadic, [1_000, 1_200])
        tasks.append(sporadic)

    return system, tasks, earliest_offsets, expect_arrival_violation


class Replay:
    """Per-node ready/running reconstruction from the trace."""

    def __init__(self):
        self.ready = {n: {} for n in NODES}    # name -> priority
        self.running = {n: None for n in NODES}  # name or None
        # Thread names are only unique per node ("irq:net:1" exists on
        # every node), so priorities are keyed by (node, name).
        self.prio = {}                           # (node, name) -> priority
        self.started = {}                        # eu name -> time
        self.first_dispatch = {}                 # eu name -> time
        self.completed = {}                      # eu name -> time
        self.activations = []                    # (task, seq, time)

    def settle(self, time):
        """End-of-instant check: the paper's running rule, per node."""
        for node in NODES:
            run = self.running[node]
            if run is None:
                assert not self.ready[node], (
                    f"t={time} node={node}: idle CPU with runnable "
                    f"threads {sorted(self.ready[node])}")
            else:
                run_prio = self.prio[node, run]
                for name, prio in self.ready[node].items():
                    assert prio <= run_prio, (
                        f"t={time} node={node}: ready {name} (prio {prio}) "
                        f"above running {run} (prio {run_prio})")

    def apply(self, rec):
        d = rec.details
        if rec.category == "dispatcher" and rec.event == "activate":
            self.activations.append((d["task"], d["seq"], rec.time))
        elif rec.category == "dispatcher" and rec.event == "thread_start":
            name, node = d["eu"], d["node"]
            assert name not in self.started, f"{name} started twice"
            self.started[name] = rec.time
            self.prio[node, name] = d["priority"]
            self.ready[node][name] = d["priority"]
        elif rec.category == "cpu" and rec.event == "dispatch":
            node, name = d["node"], d["thread"]
            if (node, name) not in self.prio:
                # Kernel interrupt handlers have no dispatcher start.
                assert name.startswith("irq:"), f"orphan dispatch: {name}"
                self.prio[node, name] = d["priority"]
                self.ready[node][name] = d["priority"]
            assert self.running[node] is None, (
                f"dispatch {name} while {self.running[node]} runs")
            assert name in self.ready[node], f"{name} dispatched, not ready"
            assert d["priority"] == self.prio[node, name]
            del self.ready[node][name]
            self.running[node] = name
            if not name.startswith("irq:"):
                self.first_dispatch.setdefault(name, rec.time)
        elif rec.category == "cpu" and rec.event == "preempt":
            node, name, by = d["node"], d["thread"], d["by"]
            if (node, by) not in self.prio:
                # An interrupt handler may preempt before its own
                # dispatch record; its priority is always PRIO_MAX
                # (checked against the dispatch record that follows).
                assert by.startswith("irq:"), f"orphan challenger: {by}"
                self.prio[node, by] = IRQ_PRIO
                self.ready[node][by] = IRQ_PRIO
            assert self.running[node] == name, "preempted thread not running"
            assert self.prio[node, by] > self.prio[node, name], (
                f"preemption without higher priority: {by} over {name}")
            self.ready[node][name] = self.prio[node, name]
            self.running[node] = None
        elif rec.category == "cpu" and rec.event == "complete":
            node, name = d["node"], d["thread"]
            assert self.running[node] == name, "completed thread not running"
            self.running[node] = None
        elif rec.category == "cpu" and rec.event == "withdraw":
            pytest.fail(f"unexpected withdraw in record-only mode: {d}")
        elif rec.category == "dispatcher" and rec.event == "eu_done":
            name = d["eu"]
            assert name in self.started, f"eu_done for unstarted {name}"
            assert name not in self.completed, f"{name} completed twice"
            self.completed[name] = rec.time


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_replay_invariants(seed, backend):
    system, tasks, earliest_offsets, expect_arrival = build_workload(
        seed, backend=backend)
    system.run()
    graphs = {task.name: task for task in tasks}

    replay = Replay()
    current = None
    for rec in system.tracer.records:
        if current is not None and rec.time != current:
            replay.settle(current)
        current = rec.time
        replay.apply(rec)
    replay.settle(current)

    # Lifecycle: everything started has completed; CPUs drained.
    assert set(replay.completed) == set(replay.started)
    assert all(run is None for run in replay.running.values())
    assert all(not ready for ready in replay.ready.values())
    assert system.monitor.count(ViolationKind.ORPHAN) == 0
    assert system.tracer.count("dispatcher", "instance_abort") == 0

    # Precedence: a unit never starts before its predecessors finish.
    for task_name, seq, activated_at in replay.activations:
        task = graphs[task_name]
        for edge in task.edges:
            src = f"{task_name}#{seq}/{edge.src.name}"
            dst = f"{task_name}#{seq}/{edge.dst.name}"
            assert dst in replay.started, f"{dst} never started"
            assert replay.started[dst] >= replay.completed[src], (
                f"{dst} started before {src} finished")
        # Earliest-start offsets are honoured relative to activation.
        for eu in task.eus:
            offset = earliest_offsets.get(f"{task_name}/{eu.name}")
            if offset is not None:
                name = f"{task_name}#{seq}/{eu.name}"
                assert replay.first_dispatch[name] >= activated_at + offset

    # Accounting: registry counters match the monitor and the trace.
    report = system.run_report()
    tracer = system.tracer
    assert report.counter("dispatcher.activations") == len(replay.activations)
    assert report.counter("dispatcher.thread_starts") == \
        tracer.count("dispatcher", "thread_start") == len(replay.started)
    assert report.counter("dispatcher.eu_completions") == len(replay.completed)
    assert report.counter("cpu.preemptions") == tracer.count("cpu", "preempt")
    assert report.counter("cpu.dispatches") == tracer.count("cpu", "dispatch")
    assert report.counter("violations.total") == system.monitor.count()
    for kind in ViolationKind:
        assert report.counter(f"violations.{kind.value}") == \
            system.monitor.count(kind), kind
    assert system.monitor.count(ViolationKind.DEADLINE_MISS) >= 1
    if expect_arrival:
        assert system.monitor.count(ViolationKind.ARRIVAL_LAW) >= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_identical_across_backends(seed):
    """Engine against reference: every seed's full trace (records and
    details) and metric report must agree between the heap engine and
    its test-local reference."""
    captured = {}
    for backend in BACKENDS:
        system, *_ = build_workload(seed, backend=backend)
        system.run()
        records = [(rec.time, rec.category, rec.event, rec.details)
                   for rec in system.tracer.records]
        captured[backend] = (records, system.run_report().to_dict())
    reference = BACKENDS[0]
    assert len(captured[reference][0]) > 50
    for backend in BACKENDS[1:]:
        assert captured[backend] == captured[reference], \
            f"seed {seed}: engine {backend} diverges from {reference}"
