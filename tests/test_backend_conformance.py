"""Differential proof that the heap engine behaves as its reference.

The execution core is one heap engine (:class:`repro.sim.Simulator`).
In a safety-critical reproduction its determinism is the property
everything else is built on, and the §5.3 test's safety property is
checked against its runs, so the core is itself an oracle.  This
module checks it against an independent one,
``tests.conftest.CalendarReference``: a calendar of instants whose
earliest entry is found by a scan.  It does so at three levels:

1. **Pending-set level** — randomized push/pop sequences (and a seeded,
   shrinkable hypothesis property) through both engines assert
   identical pop order, ``next_event_time()``, ``pending`` and ``now``.
2. **Engine level** — random interleavings of schedule / cancel /
   re-schedule at equal timestamps, tombstone-skip and ``run(until=)``
   bound re-check edges, replayed on both engines, assert identical
   dispatch logs and time advancement; random cascades assert that
   callbacks read identical ``pending`` and ``next_event_time()``
   values, mid-instant included.
3. **System level** — the trace contract: one seeded scenario run on
   both engines must export *byte-identical* JSONL traces and equal
   metric reports, and a representative fault campaign must produce
   identical ``CampaignResult`` wire dicts.

The 24-seed random-workload harness (``test_trace_invariants_random``)
and the determinism suite (``test_trace_determinism``) additionally run
their invariants on both engines via the ``backend`` fixture.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.campaign import Campaign
from repro.sim.engine import SimulationError, Simulator

from tests.conftest import BACKENDS, ENGINES
from tests.test_trace_determinism import run_scenario
from tests.test_trace_invariants_random import build_workload

#: Delays that straddle the instants a pending set can get wrong: the
#: same instant, near ones, both sides of 64 µs (the window edge of the
#: calendar queue the engine once had), far ones.
BOUNDARY_DELAYS = (0, 0, 1, 2, 5, 63, 64, 65, 500, 10_000)


# -- 1. pending-set level ---------------------------------------------------

def _pending_sets():
    """One engine per id, each with the log its entries append
    ``(now, tag)`` to when they fire."""
    return [(ENGINES[backend](), []) for backend in BACKENDS]


def _push(engines, time, tag):
    for engine, log in engines:
        engine.call_at(time, lambda engine=engine, log=log:
                       log.append((engine.now, tag)))


def _pop(engines):
    for engine, _log in engines:
        assert engine.step()


def _assert_same_view(engines, context):
    views = [(engine.now, engine.pending, engine.next_event_time(),
              log[-1:]) for engine, log in engines]
    assert all(view == views[0] for view in views[1:]), context


def _drain_and_compare(engines):
    for engine, _log in engines:
        engine.run()
    logs = [log for _engine, log in engines]
    assert all(log == logs[0] for log in logs[1:])
    return logs[0]


@pytest.mark.parametrize("seed", range(20))
def test_random_op_sequences_pop_identically(seed):
    """Both engines replay one random push/pop sequence identically."""
    rng = random.Random(seed)
    engines = _pending_sets()
    heap = engines[0][0]
    for op in range(3_000):
        if heap.pending and rng.random() < 0.45:
            _pop(engines)
        else:
            _push(engines, heap.now + rng.choice(BOUNDARY_DELAYS), f"e{op}")
        _assert_same_view(engines, (seed, op))
    assert len(_drain_and_compare(engines)) > 1_000


def test_pop_empty_raises_index_error():
    for engine_cls in ENGINES.values():
        engine = engine_cls()
        with pytest.raises(IndexError):
            engine._take()
        assert engine.next_event_time() is None
        assert engine.pending == 0 and engine.step() is False


def test_every_backend_rejects_push_behind_last_pop():
    """The monotone-push contract holds on both engines.

    A push behind the current instant raises, whether it names an
    absolute time or a negative delay; a push at the current instant
    stays legal; and the rejected push leaves the pending set intact.
    """
    for engine_cls in ENGINES.values():
        engine = engine_cls()
        order = []
        engine.call_at(10, lambda: order.append("a"))
        engine.call_at(10, lambda: order.append("b"))  # same instant
        assert engine.step() and order == ["a"]
        engine.call_at(10, lambda: order.append("c"))  # the popped instant
        with pytest.raises(SimulationError, match="in the past"):
            engine.call_at(9, lambda: order.append("late"))
        with pytest.raises(ValueError, match="negative"):
            engine.timeout(-1)
        assert engine.pending == 2
        engine.run()
        assert order == ["a", "b", "c"]


def test_heap_backend_rejects_negative_first_push():
    # Before any pop the floor is instant 0.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_at(-1, lambda: None)
    with pytest.raises(ValueError):
        sim.timeout(-1)
    assert sim.pending == 0
    fired = []
    sim.call_at(0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0]


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

    ``push`` schedules at ``now + delta`` (the engine's monotone-push
    contract); ``pop`` is skipped while empty.  The reference is the
    oracle for order, ``next_event_time()``, ``pending`` and ``now``.
    """
    engines = _pending_sets()
    heap = engines[0][0]
    for index, (op, delta) in enumerate(ops):
        if op == "push":
            _push(engines, heap.now + delta, f"e{index}")
        elif heap.pending:
            _pop(engines)
        _assert_same_view(engines, index)
    _drain_and_compare(engines)


# -- 2. engine level --------------------------------------------------------

def _random_engine_scenario(sim, seed):
    """Random schedule/cancel/re-schedule mix; returns the dispatch log.

    Same-instant collisions, double-cancel, cancel-after-schedule and
    bound re-checks are all exercised; the log records every observable
    (fire order, times, timeout values), so comparing logs pins the
    engine contract.
    """
    rng = random.Random(seed)
    log = []

    def wait(name, i, steps):
        # One link of a timer chain: wait on a timeout, sometimes with
        # a doomed timeout cancelled beside it.
        if i == steps:
            return
        timer = sim.timeout(rng.choice(BOUNDARY_DELAYS), value=(name, i))
        if rng.random() < 0.35:
            doomed = sim.timeout(rng.choice(BOUNDARY_DELAYS))
            doomed.cancel()
            if rng.random() < 0.5:
                doomed.cancel()  # double-cancel must stay a no-op
        timer.add_callback(lambda evt: wake(evt, name, i, steps))

    def wake(evt, name, i, steps):
        log.append(("wake", sim.now, evt.value))
        wait(name, i + 1, steps)

    for k in range(rng.randint(2, 5)):
        steps = rng.randint(5, 25)
        sim.call_in(0, lambda k=k, steps=steps: wait(f"p{k}", 0, steps))
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
    logs = {backend: _random_engine_scenario(ENGINES[backend](), seed)
            for backend in BACKENDS}
    reference = logs[BACKENDS[0]]
    assert len(reference) > 20
    for backend in BACKENDS[1:]:
        assert logs[backend] == reference, seed


def test_tombstone_before_bound_recheck(sim):
    """A tombstone at the bound must not let the run overshoot it."""
    fired = []
    sim.timeout(10).cancel()
    sim.timeout(12).add_callback(lambda evt: fired.append(sim.now))
    sim.run(until=11)
    assert fired == [] and sim.now == 11
    sim.run()
    assert fired == [12]


def test_push_at_now_after_bounded_run(sim):
    """Pushes at the bound instant after run(until=) stay in order."""
    sim.timeout(50)
    sim.run(until=120)
    order = []
    sim.call_at(120, lambda: order.append("a"))
    sim.call_at(120, lambda: order.append("b"))
    sim.call_at(184, lambda: order.append("far"))
    sim.run()
    assert order == ["a", "b", "far"]
    assert sim.now == 184


def test_cancel_after_trigger_raises_on_all_backends(sim):
    timer = sim.timeout(5)
    sim.run()
    with pytest.raises(SimulationError):
        timer.cancel()


def test_step_interleaves_with_bulk_run(sim):
    """step()-then-run() hands the half-drained instant over cleanly."""
    order = []
    for j in range(5):
        sim.call_at(10, lambda j=j: order.append(j))
    sim.timeout(138)
    assert sim.step()
    assert order == [0] and sim.now == 10
    sim.run()
    assert order == [0, 1, 2, 3, 4]
    assert sim.now == 138


#: Follow-up delays: same instant, near, both sides of 64 µs, far.
FOLLOW_UP_DELAYS = (0, 1, 3, 63, 64, 65, 200)


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
    with the reference, mid-instant included — the state the SRP settle
    tick polls (``SRPProtocol._settle_tick``)."""
    logs = {backend: _callback_view_log(ENGINES[backend](), seed)
            for backend in BACKENDS}
    reference = logs[BACKENDS[0]]
    assert len(reference) > 100
    for backend in BACKENDS[1:]:
        assert logs[backend] == reference, seed


# -- 3. system level --------------------------------------------------------

def test_trace_bytes_identical_across_backends(tmp_path):
    """The seeded determinism scenario exports byte-identical JSONL and
    equal structured reports on the engine and on its reference."""
    exports = {}
    reports = {}
    for backend in BACKENDS:
        path = tmp_path / f"{backend}.jsonl"
        system = run_scenario(path, backend=backend)
        assert type(system.sim) is ENGINES[backend]
        exports[backend] = path.read_bytes()
        reports[backend] = system.run_report().to_dict()
    reference = BACKENDS[0]
    assert len(exports[reference]) > 1_000
    for backend in BACKENDS[1:]:
        assert exports[backend] == exports[reference]
        assert reports[backend] == reports[reference]


@pytest.mark.parametrize("seed", [0, 7, 13, 23])
def test_random_workload_traces_identical_across_backends(seed):
    """Spot-check of the 24-seed harness: the full trace (records and
    details) and the metric report agree between the engines.  The
    complete sweep is ``test_trace_invariants_random``'s
    ``test_trace_identical_across_backends``."""
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
        assert captured[backend][0] == captured[reference][0], seed
        assert captured[backend][1] == captured[reference][1], seed


def _campaign_result(backend):
    def scenario(seed):
        system, *_ = build_workload(seed, backend=backend)
        system.run()
        return system.run_report()
    return Campaign(scenario, seeds=range(4)).run()


def test_campaign_results_identical_across_backends():
    """A representative fault campaign aggregates to identical wire
    dicts (per-run metrics and merged report) on both engines."""
    outcomes = {}
    for backend in BACKENDS:
        result = _campaign_result(backend)
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
