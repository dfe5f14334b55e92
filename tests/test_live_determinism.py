"""Determinism of the live monitoring plane across event-set backends.

The monitor samples and alert transitions are trace records, and every
burn-rate decision is integer arithmetic, so the alert stream of a
monitored run must not depend on the event-set backend."""

import json

from repro import Scenario, UtilizationTest


def monitored(seed):
    """An overloaded monitored scenario: four cells, two monitored
    tenants, one of them reacting to its alerts."""
    return (Scenario()
            .tier("edge", replicas=1, wcet=300)
            .tier("svc", fan_out=2, wcet=400)
            .cells(4)
            .tenant("gold", rate=600, mk=(9, 10), value=5,
                    deadline=3_000)
            .tenant("bronze", rate=900, deadline=3_000)
            .tenant("silver", rate=700, deadline=3_000)
            .tenant("iron", rate=800, deadline=3_000)
            .admission("reject", test=UtilizationTest(8.0))
            .policy("edf", w_sched=0)
            .load(3.0)
            .options(network_latency=50, network_jitter=0,
                     node_kwargs={"net_irq_wcet": 0})
            .seed(seed)
            .monitor("gold", interval=20_000, objective_ppm=990_000,
                     react="conservative", on_clear="restore")
            .monitor("silver", interval=20_000, objective_ppm=990_000))


def test_alert_stream_identical_across_backends(tmp_path):
    # Burn-rate decisions are all-integer: the alert stream must not
    # depend on the event-set backend either.
    def alert_lines(backend):
        result = monitored(7).options(backend=backend).run(until=200_000)
        return [json.dumps({"time": r.time, "event": r.event,
                            "details": r.details}, sort_keys=True)
                for r in result.system.tracer.records
                if r.category == "alert"]

    heapq_lines = alert_lines("heapq")
    assert heapq_lines
    assert heapq_lines == alert_lines("calendar")
