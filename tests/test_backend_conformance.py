"""Differential proof that every event-set backend is interchangeable.

The calendar-queue backend (``repro.sim.event_set.CalendarEventSet``
and its engine flavour ``CalendarSimulator``) is only useful if it is
*indistinguishable* from the heapq reference: in a safety-critical
reproduction, determinism of the execution core is the property
everything else is built on.  This module is that proof, at three
levels:

1. **Event-set level** — randomized push/pop sequences (and a seeded,
   shrinkable hypothesis state machine) through both ``EventSet``
   implementations assert identical pop order, peek times and sizes,
   tombstones included.
2. **Engine level** — random interleavings of schedule / cancel /
   re-schedule at equal timestamps, tombstone-skip and ``run(until=)``
   bound re-check edges, replayed on both ``Simulator`` flavours,
   assert identical dispatch logs and time advancement; random
   cascades assert that callbacks read identical ``pending`` and
   ``next_event_time()`` values, mid-instant included.
3. **System level** — the PR-4 trace contract: one seeded scenario run
   on both backends must export *byte-identical* JSONL traces, equal
   metric reports, and a representative fault campaign must produce
   identical ``CampaignResult`` wire dicts.

The 24-seed random-workload harness (``test_trace_invariants_random``)
and the determinism suite (``test_trace_determinism``) additionally run
their invariants per backend via the ``backend`` fixture.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.campaign import Campaign
from repro.sim.engine import CalendarSimulator, SimulationError, Simulator
from repro.sim.event_set import (
    EVENT_SET_BACKENDS,
    WHEEL_SPAN,
    CalendarEventSet,
    HeapEventSet,
)

from tests.conftest import BACKENDS
from tests.test_trace_determinism import run_scenario
from tests.test_trace_invariants_random import build_workload

#: Delays chosen to straddle every calendar boundary: same instant,
#: window interior, the window edge (WHEEL_SPAN +/- 1), deep overflow.
BOUNDARY_DELAYS = (0, 0, 1, 2, 5, WHEEL_SPAN - 1, WHEEL_SPAN,
                   WHEEL_SPAN + 1, 500, 10_000)


# -- 1. event-set level -----------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_random_op_sequences_pop_identically(seed):
    """Both event sets replay one random op sequence identically."""
    rng = random.Random(seed)
    reference, candidate = HeapEventSet(), CalendarEventSet()
    popped_ref, popped_cand = [], []
    current = 0
    for op in range(3_000):
        if len(reference) and rng.random() < 0.45:
            entry_ref = reference.pop()
            entry_cand = candidate.pop()
            popped_ref.append(entry_ref)
            popped_cand.append(entry_cand)
            current = entry_ref[0]
        else:
            time = current + rng.choice(BOUNDARY_DELAYS)
            tag = f"e{op}"
            reference.push(time, tag)
            candidate.push(time, tag)
        assert len(reference) == len(candidate)
        assert reference.peek_time() == candidate.peek_time(), (seed, op)
    while len(reference):
        popped_ref.append(reference.pop())
        popped_cand.append(candidate.pop())
    assert popped_ref == popped_cand


def test_pop_empty_raises_index_error():
    for backend_cls in EVENT_SET_BACKENDS.values():
        events = backend_cls()
        with pytest.raises(IndexError):
            events.pop()
        assert events.peek_time() is None
        assert len(events) == 0 and not events


def test_calendar_rejects_push_behind_anchor():
    events = CalendarEventSet()
    events.push(10, "a")
    assert events.pop() == (10, "a")
    with pytest.raises(ValueError):
        events.push(9, "late")


def test_every_backend_rejects_push_behind_last_pop():
    """The monotone-push contract is enforced uniformly.

    Historically only the calendar backend raised on a push behind the
    current instant, so a scheduling bug surfaced under one backend
    and silently corrupted event order under the other — a divergence
    the conformance harness could never catch because it only drives
    contract-conforming interleavings.
    """
    for name, backend_cls in EVENT_SET_BACKENDS.items():
        events = backend_cls()
        events.push(10, "a")
        events.push(10, "b")        # same instant stays legal
        assert events.pop() == (10, "a")
        events.push(10, "c")        # re-push at the popped instant too
        match = "before the last popped" if name == "heapq" else None
        with pytest.raises(ValueError, match=match):
            events.push(9, "late")
        # The failed push must not have corrupted the set.
        assert [events.pop() for _ in range(len(events))] == [
            (10, "b"), (10, "c")]


class TestCalendarEdges:
    """Targeted ring/overflow boundary cases for the calendar queue."""

    def test_pure_overflow_jump_clears_half_drained_slot(self):
        # Two entries at instant 0 occupy slot 0; WHEEL_SPAN maps onto
        # the SAME slot but lives in overflow.  After draining instant
        # 0 the anchor jumps via the pure-overflow path — which must
        # clear the consumed slot first, or a later push at the new
        # anchor instant would replay the instant-0 entries.
        events = CalendarEventSet()
        events.push(0, "a0")
        events.push(0, "a1")
        events.push(WHEEL_SPAN, "b")  # overflow, slot index 0 again
        assert events.pop() == (0, "a0")
        assert events.pop() == (0, "a1")
        assert events.pop() == (WHEEL_SPAN, "b")
        # The slot was cleared: same-slot instants keep working.
        events.push(WHEEL_SPAN, "c")
        events.push(2 * WHEEL_SPAN, "d")
        assert events.pop() == (WHEEL_SPAN, "c")
        assert events.pop() == (2 * WHEEL_SPAN, "d")
        assert len(events) == 0

    def test_peek_after_pure_overflow_jump(self):
        events = CalendarEventSet()
        events.push(0, "a")
        events.push(WHEEL_SPAN + 3, "b")
        assert events.pop() == (0, "a")
        # Peek must report the overflow head without disturbing state,
        # however many times it is asked.
        for _ in range(3):
            assert events.peek_time() == WHEEL_SPAN + 3
        assert events.pop() == (WHEEL_SPAN + 3, "b")
        # After the jump the window is re-anchored there: a push just
        # inside the new window rides the ring, and peek sees it.
        events.push(WHEEL_SPAN + 3 + (WHEEL_SPAN - 1), "c")
        assert events.peek_time() == 2 * WHEEL_SPAN + 2
        assert events.pop() == (2 * WHEEL_SPAN + 2, "c")
        assert events.peek_time() is None

    def test_window_edge_in_vs_out(self):
        # Delta WHEEL_SPAN-1 is the last ring instant; WHEEL_SPAN is
        # the first overflow instant.  Pop order must be identical to
        # the reference either way.
        events = CalendarEventSet()
        events.push(WHEEL_SPAN, "far")      # overflow (anchor 0)
        events.push(WHEEL_SPAN - 1, "near")  # ring
        assert events.peek_time() == WHEEL_SPAN - 1
        assert events.pop() == (WHEEL_SPAN - 1, "near")
        assert events.pop() == (WHEEL_SPAN, "far")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([WHEEL_SPAN - 1, WHEEL_SPAN]),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=3))
    def test_window_edge_differential(self, deltas, pops_between):
        """Straddling the exact window edge never diverges.

        Every push lands at current + (WHEEL_SPAN-1) (ring) or
        current + WHEEL_SPAN (overflow, same slot index as the
        anchor) — the adversarial pair for slot-collision bugs.
        """
        reference, candidate = HeapEventSet(), CalendarEventSet()
        current = 0
        for i, delta in enumerate(deltas):
            reference.push(current + delta, i)
            candidate.push(current + delta, i)
            assert candidate.peek_time() == reference.peek_time()
            for _ in range(pops_between):
                if not len(reference):
                    break
                entry = reference.pop()
                assert candidate.pop() == entry
                current = entry[0]
            assert len(candidate) == len(reference)
        while len(reference):
            assert candidate.pop() == reference.pop()
        assert candidate.peek_time() is None


def test_heap_backend_rejects_negative_first_push():
    # Before any pop the floor is instant 0, matching the calendar
    # backend's anchor-at-zero behaviour.
    events = HeapEventSet()
    with pytest.raises(ValueError):
        events.push(-1, "early")
    events.push(0, "ok")
    assert events.pop() == (0, "ok")


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from(BOUNDARY_DELAYS)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    min_size=1, max_size=120,
))
def test_event_set_conformance_property(ops):
    """Seeded, shrinkable differential: any op interleaving agrees.

    ``push`` schedules at ``last popped time + delta`` (the engine's
    monotone-push contract); ``pop`` is skipped while empty.  The heapq
    implementation is the oracle for order, peek and size.
    """
    reference, candidate = HeapEventSet(), CalendarEventSet()
    current = 0
    counter = 0
    for op, delta in ops:
        if op == "push":
            counter += 1
            tag = f"e{counter}"
            reference.push(current + delta, tag)
            candidate.push(current + delta, tag)
        elif len(reference):
            entry_ref = reference.pop()
            assert candidate.pop() == entry_ref
            current = entry_ref[0]
        assert reference.peek_time() == candidate.peek_time()
        assert len(reference) == len(candidate)
    while len(reference):
        assert candidate.pop() == reference.pop()


# -- 2. engine level --------------------------------------------------------

def _random_engine_scenario(sim, seed):
    """Random schedule/cancel/re-schedule mix; returns the dispatch log.

    Same-instant collisions, double-cancel, cancel-after-schedule and
    bound re-checks are all exercised; the log records every observable
    (fire order, times, process wakeups), so comparing logs across
    backends pins the full engine contract.
    """
    rng = random.Random(seed)
    log = []

    def worker(name):
        for i in range(rng.randint(5, 25)):
            delay = rng.choice(BOUNDARY_DELAYS)
            timer = sim.timeout(delay, value=(name, i))
            if rng.random() < 0.35:
                doomed = sim.timeout(rng.choice(BOUNDARY_DELAYS))
                doomed.cancel()
                if rng.random() < 0.5:
                    doomed.cancel()  # double-cancel must stay a no-op
            yield timer
            log.append(("wake", sim.now, name, i))

    for k in range(rng.randint(2, 5)):
        sim.process(worker(f"p{k}"))
    for _ in range(rng.randint(3, 8)):
        when = rng.randint(0, 300)
        sim.call_at(when, lambda w=when: log.append(("call", sim.now, w)))
    # A same-instant cluster: several timers at one future instant, some
    # cancelled before firing — fire order must be scheduling order.
    cluster_at = rng.randint(50, 150)
    for j in range(6):
        timer = sim.call_at(cluster_at, lambda j=j: log.append(
            ("cluster", sim.now, j)))
        if j % 2 == 1:
            timer.cancel()
    # Run in bounded hops (tombstone bound re-check edge), then drain.
    horizon = 0
    for _ in range(rng.randint(1, 4)):
        horizon += rng.randint(10, 400)
        sim.run(until=horizon)
        log.append(("bound", sim.now, horizon))
    sim.run()
    log.append(("end", sim.now))
    return log


@pytest.mark.parametrize("seed", range(12))
def test_engines_dispatch_identically(seed):
    logs = {}
    for backend in BACKENDS:
        logs[backend] = _random_engine_scenario(
            Simulator(backend=backend), seed)
    reference = logs[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        assert logs[backend] == reference, seed


def test_tombstone_before_bound_recheck(backend):
    """A tombstone at the bound must not let the run overshoot it."""
    sim = Simulator(backend=backend)
    fired = []
    sim.timeout(10).cancel()
    sim.timeout(12).add_callback(lambda evt: fired.append(sim.now))
    sim.run(until=11)
    assert fired == [] and sim.now == 11
    sim.run()
    assert fired == [12]


def test_push_at_now_after_bounded_run(backend):
    """Pushes at the bound instant after run(until=) stay in order —
    the window re-anchor edge for the calendar backend."""
    sim = Simulator(backend=backend)
    sim.timeout(50)
    sim.run(until=120)
    order = []
    sim.call_at(120, lambda: order.append("a"))
    sim.call_at(120, lambda: order.append("b"))
    sim.call_at(120 + WHEEL_SPAN, lambda: order.append("far"))
    sim.run()
    assert order == ["a", "b", "far"]
    assert sim.now == 120 + WHEEL_SPAN


def test_cancel_after_trigger_raises_on_all_backends(backend):
    sim = Simulator(backend=backend)
    timer = sim.timeout(5)
    sim.run()
    with pytest.raises(SimulationError):
        timer.cancel()


def test_step_interleaves_with_bulk_run(backend):
    """step()-then-run() hands the half-drained instant over cleanly."""
    sim = Simulator(backend=backend)
    order = []
    for j in range(5):
        sim.call_at(10, lambda j=j: order.append(j))
    sim.timeout(10 + WHEEL_SPAN * 2)  # force an overflow entry too
    assert sim.step()
    assert order == [0] and sim.now == 10
    sim.run()
    assert order == [0, 1, 2, 3, 4]
    assert sim.now == 10 + WHEEL_SPAN * 2


#: Follow-up delays: same instant, window interior, both sides of the
#: window edge, overflow.
FOLLOW_UP_DELAYS = (0, 1, 3, WHEEL_SPAN - 1, WHEEL_SPAN, WHEEL_SPAN + 1, 200)


def _callback_view_log(sim, seed):
    """Random cascade; every callback logs what it sees of the engine.

    Each callback records ``(now, next_event_time(), pending)`` and
    schedules one to three follow-ups, a fifth of them cancelled, until
    a fixed budget runs out.  The schedule is drained mostly by the
    unbounded ``run()``, entered after a random mix of ``step()`` and
    ``run(until=)`` so it also starts from half-drained instants.
    """
    rng = random.Random(seed)
    log = []
    budget = [400]

    def fire(tag):
        log.append((tag, sim.now, sim.next_event_time(), sim.pending))
        for _ in range(rng.randint(1, 3)):
            if budget[0] == 0:
                return
            budget[0] -= 1
            child = budget[0]
            timer = sim.call_in(rng.choice(FOLLOW_UP_DELAYS),
                                lambda child=child: fire(child))
            if rng.random() < 0.2:
                timer.cancel()

    for k in range(rng.randint(3, 10)):
        sim.call_at(rng.randint(0, 100), lambda k=k: fire(f"root{k}"))
    for _ in range(rng.randint(0, 3)):
        sim.step()
        log.append(("step", sim.now, sim.next_event_time(), sim.pending))
    if rng.random() < 0.5:
        sim.run(until=sim.now + rng.randint(0, 150))
        log.append(("bound", sim.now, sim.next_event_time(), sim.pending))
    sim.run()
    log.append(("end", sim.now, sim.next_event_time(), sim.pending))
    return log


@pytest.mark.parametrize("seed", range(100))
def test_callbacks_see_identical_pending_state(seed):
    """``pending`` and ``next_event_time()`` read inside callbacks agree
    on every backend, mid-instant included — the state the SRP settle
    tick polls (``SRPProtocol._settle_tick``)."""
    logs = {backend: _callback_view_log(Simulator(backend=backend), seed)
            for backend in BACKENDS}
    reference = logs[BACKENDS[0]]
    assert len(reference) > 100
    for backend in BACKENDS[1:]:
        assert logs[backend] == reference, seed


# -- 3. system level --------------------------------------------------------

def test_trace_bytes_identical_across_backends(tmp_path, monkeypatch):
    """The seeded determinism scenario exports byte-identical JSONL and
    equal structured reports on every backend (selected via the
    environment override, as the CI matrix does)."""
    exports = {}
    reports = {}
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        path = tmp_path / f"{backend}.jsonl"
        system = run_scenario(path)
        assert system.backend == backend
        exports[backend] = path.read_bytes()
        reports[backend] = system.run_report().to_dict()
    reference = BACKENDS[0]
    assert len(exports[reference]) > 1_000
    for backend in BACKENDS[1:]:
        assert exports[backend] == exports[reference]
        assert reports[backend] == reports[reference]


@pytest.mark.parametrize("seed", [0, 7, 13, 23])
def test_random_workload_traces_identical_across_backends(seed, monkeypatch):
    """Spot-check of the 24-seed harness: the full trace (records and
    details) and the metric report agree across backends.  The complete
    sweep runs in CI via the backend matrix."""
    captured = {}
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        system, *_ = build_workload(seed)
        system.run()
        records = [(rec.time, rec.category, rec.event, rec.details)
                   for rec in system.tracer.records]
        captured[backend] = (records, system.run_report().to_dict())
    reference = BACKENDS[0]
    assert len(captured[reference][0]) > 50
    for backend in BACKENDS[1:]:
        assert captured[backend][0] == captured[reference][0], seed
        assert captured[backend][1] == captured[reference][1], seed


def _campaign_result():
    def scenario(seed):
        # build_workload constructs its own HadesSystem, which resolves
        # the backend from REPRO_SIM_BACKEND — exactly the path the CI
        # matrix exercises.
        system, *_ = build_workload(seed)
        system.run()
        return system.run_report()
    return Campaign(scenario, seeds=range(4)).run()


def test_campaign_results_identical_across_backends(monkeypatch):
    """A representative fault campaign aggregates to identical wire
    dicts (per-run metrics and merged report) on every backend."""
    outcomes = {}
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        result = _campaign_result()
        aggregate = result.aggregate()
        outcomes[backend] = {
            "runs": result.runs,
            "per_run": json.dumps(result.per_run, sort_keys=True,
                                  default=str),
            "aggregate": aggregate.to_dict() if aggregate else None,
        }
    reference = BACKENDS[0]
    assert outcomes[reference]["runs"] == 4
    for backend in BACKENDS[1:]:
        assert outcomes[backend] == outcomes[reference]


# -- selection plumbing (engine side) ---------------------------------------

def test_simulator_dispatches_to_flavour(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    assert type(Simulator()) is Simulator
    assert type(Simulator(backend="heapq")) is Simulator
    calendar = Simulator(backend="calendar")
    assert type(calendar) is CalendarSimulator
    assert isinstance(calendar, Simulator)
    assert calendar.backend == "calendar"


def test_flavour_class_rejects_foreign_backend():
    with pytest.raises(ValueError):
        CalendarSimulator(backend="heapq")
    assert CalendarSimulator().backend == "calendar"
    assert CalendarSimulator(backend="calendar").backend == "calendar"
