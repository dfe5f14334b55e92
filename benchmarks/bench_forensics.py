"""Experiment E18 — deadline-miss forensics on a miss-heavy workload.

A two-node system is driven deliberately past its feasible region:
periodic victims with cross-node precedence edges compete against a
high-priority CPU hog, fight over an exclusive resource, and receive
their remote edges over a link with an injected performance fault
(messages delivered past the guaranteed bound).  The result is a trace
dense with deadline misses of *different* causes — exactly the input
the forensic pipeline must untangle.

Checked properties (the PR's acceptance criteria):

* every missed activation that finished gets a response-time
  decomposition whose components sum **exactly** to the measured
  response time;
* the blame report names at least one concrete contributor per miss;
* the Chrome trace-event export is schema-valid (ph/ts/pid/tid on
  every event) and **byte-identical** across two independent runs of
  the same seed;
* reconstruction is a single O(n) pass — throughput is reported, and
  so is the cost of the forensics report on the reconstructed forest.

Run directly or via ``python -m repro.experiments E18``.
"""

import json
import time

import pytest

from benchmarks.conftest import print_table
from repro.core.attributes import EUAttributes, Periodic
from repro.core.heug import Task
from repro.core.resources import AccessMode, Resource
from repro.network.link import PerformanceFault
from repro.obs.forensics import forensics_report
from repro.obs.spans import decompose, reconstruct
from repro.obs.timeline import build_timeline, timeline_bytes
from repro.system import HadesSystem

HORIZON = 200_000


def build_and_run():
    """One deterministic miss-heavy run; returns the finished system."""
    system = HadesSystem(node_ids=["n0", "n1"])
    bus = Resource("bus", node_id="n0")

    # Victim: sense (n0, needs the bus) -> act (n1) over a faulty link.
    victim = Task("victim", deadline=2_400, arrival=Periodic(period=4_000))
    sense = victim.code_eu("sense", wcet=600, node_id="n0",
                           resources=[(bus, AccessMode.EXCLUSIVE)],
                           attrs=EUAttributes(prio=10))
    act = victim.code_eu("act", wcet=400, node_id="n1",
                         attrs=EUAttributes(prio=10))
    victim.precede(sense, act)

    # Hog: preempts the victim's sense EU on n0.
    hog = Task("hog", arrival=Periodic(period=3_000, phase=100))
    hog.code_eu("spin", wcet=900, node_id="n0", attrs=EUAttributes(prio=30))

    # Holder: grabs the bus at medium priority, blocking sense.
    holder = Task("holder", arrival=Periodic(period=5_000, phase=50))
    holder.code_eu("hold", wcet=700, node_id="n0",
                   resources=[(bus, AccessMode.EXCLUSIVE)],
                   attrs=EUAttributes(prio=20))

    # Remote edges arrive late: +800us past the guaranteed bound.
    system.network.link("n0", "n1").add_fault(PerformanceFault(800))

    system.register_periodic(victim.validate())
    system.register_periodic(hog.validate())
    system.register_periodic(holder.validate())
    system.run(until=HORIZON)
    return system


def test_forensics_miss_decomposition(benchmark):
    system = benchmark.pedantic(build_and_run, rounds=1, iterations=1)

    t0 = time.perf_counter()
    forest = reconstruct(system.tracer)
    reconstruct_s = time.perf_counter() - t0
    records = len(system.tracer)

    misses = forest.misses()
    assert len(misses) >= 10, "workload must be miss-heavy"

    finished = [m for m in misses if m.finished]
    assert finished, "record-mode misses must run to completion"
    exact = 0
    for miss in finished:
        dec = decompose(miss)
        assert dec is not None
        # Exactness: components partition the measured response time.
        assert dec.total == dec.response == miss.response_time
        assert dec.path, "critical path must be non-empty"
        exact += 1

    t0 = time.perf_counter()
    report = forensics_report(system.tracer, forest=forest)
    forensics_s = time.perf_counter() - t0
    # Every miss section names at least one concrete contributor.
    sections = [s for s in report.split("MISS ")[1:]]
    assert len(sections) == len(misses)
    for section in sections:
        assert "blame:" in section, section
        assert "1. " in section, section
    causes = {"preemption": "preemption " in report,
              "blocked": "blocked resource" in report,
              "late link": "LATE" in report}
    assert all(causes.values()), f"missing blame causes: {causes}"

    print_table(
        "E18 — deadline-miss forensics",
        ["metric", "value"],
        [("trace records", records),
         ("activations", len(forest.activations)),
         ("deadline misses", len(misses)),
         ("exact decompositions", exact),
         ("messages", len(forest.messages)),
         ("reconstruct (ms)", f"{reconstruct_s * 1e3:.1f}"),
         ("records/sec", f"{records / max(reconstruct_s, 1e-9):,.0f}"),
         ("forensics report (ms)", f"{forensics_s * 1e3:.1f}")])


def test_timeline_schema_and_determinism(tmp_path):
    system_a = build_and_run()
    doc = build_timeline(reconstruct(system_a.tracer))

    events = doc["traceEvents"]
    assert events, "timeline must not be empty"
    phases = set()
    for event in events:
        # Chrome trace-event required keys.
        for key in ("ph", "ts", "pid", "tid"):
            assert key in event, event
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
        phases.add(event["ph"])
    assert {"M", "X", "s", "f", "i"} <= phases, phases
    json.dumps(doc)  # must be serialisable as-is

    # Byte determinism: an independent rerun exports identical bytes,
    # and the forensics text is identical too.
    system_b = build_and_run()
    bytes_a = timeline_bytes(reconstruct(system_a.tracer))
    bytes_b = timeline_bytes(reconstruct(system_b.tracer))
    assert bytes_a == bytes_b
    assert (forensics_report(system_a.tracer)
            == forensics_report(system_b.tracer))

    out = tmp_path / "timeline.json"
    out.write_bytes(bytes_a)
    print_table(
        "E18b — Perfetto timeline export",
        ["metric", "value"],
        [("events", len(events)),
         ("phases", ",".join(sorted(phases))),
         ("bytes", len(bytes_a)),
         ("deterministic rerun", "byte-identical")])


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
