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

There is one event core, :class:`~repro.sim.engine.Simulator`: one
binary heap, one push and one drain (see :mod:`repro.sim.engine`).
The tests check it against a small test-local reference engine that
keeps pending entries by instant and finds the earliest by a scan
(``tests/conftest.py``).
"""

from repro.sim.engine import (
    AnyOf,
    Event,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AnyOf",
    "Event",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
