"""Shared engine fixtures, parametrized over event-set backends, and
the call counter of the counted ceilings.

Engine-level tests (``test_sim_engine.py``, ``test_engine_edges.py``,
``test_engine_cancellation.py``) run against every registered backend
via the ``sim`` fixture, so the semantics they pin — same-instant FIFO,
tombstone time-advance, ``run(until=)`` bound re-checks — are enforced
on the heapq reference and the calendar queue alike.  Suites that need
a specific configuration (network, kernel, devices) keep their own
``sim`` fixture, which shadows this one.
"""

import cProfile
import gc

import pytest

from repro.sim.engine import Simulator
from repro.sim.event_set import EVENT_SET_BACKENDS

#: Every registered event-set backend, reference first.
BACKENDS = tuple(sorted(EVENT_SET_BACKENDS, key=lambda n: n != "heapq"))


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Event-set backend name; parametrizes dependent fixtures/tests."""
    return request.param


@pytest.fixture
def sim(backend):
    """A fresh engine on every registered backend."""
    return Simulator(backend=backend)


def count_calls(fn, *args, **kwargs):
    """Every call cProfile counts while ``fn(*args, **kwargs)`` runs.

    A collection first keeps the previous run's garbage out of the
    count, so the count is exact per seed.  Compare two counts taken in
    one interpreter: call counts differ between Python versions.
    """
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn(*args, **kwargs)
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())
