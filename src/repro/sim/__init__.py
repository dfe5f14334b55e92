"""Deterministic discrete-event simulation engine.

This package is the foundation every other HADES subsystem runs on.  It
replaces the paper's physical testbed (ChorusR3 kernel on Pentium
workstations connected by ATM) with a deterministic event-driven virtual
time base, which is what makes the paper's predictability and
cost-integration arguments reproducible bit-for-bit.

Simulated time is an integer number of microseconds.  Determinism is a
hard requirement: given identical inputs (including random seeds), two
runs produce identical traces.  Ties between events scheduled for the
same instant are broken by insertion order.

The pending-event set is swappable (:mod:`repro.sim.event_set`):
``Simulator(backend="heapq")`` is the reference binary-heap flavour,
``backend="calendar"`` a calendar-queue flavour tuned for
timeout/cancel heavy workloads.  A flavour supplies only its storage,
push, drain and ``_advance_to``; everything else in
:mod:`repro.sim.engine` is shared.  Both are proven observably
identical by the differential harness in
``tests/test_backend_conformance.py``.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    CalendarSimulator,
    Event,
    Interrupt,
    Process,
    ProcessKilled,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.event_set import (
    BACKEND_ENV,
    CalendarEventSet,
    HeapEventSet,
    available_backends,
    resolve_backend,
)
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "BACKEND_ENV",
    "CalendarEventSet",
    "CalendarSimulator",
    "Event",
    "HeapEventSet",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "available_backends",
    "resolve_backend",
]
