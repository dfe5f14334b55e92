"""Experiment E17/E20 — engine hot-path throughput, per backend, gated.

The ROADMAP's north star ("runs as fast as the hardware allows") is
bounded by the event loop's constant factors: every §5 experiment
funnels millions of tiny timed events through ``Simulator.step``.  This
benchmark measures raw engine throughput across the three workload
shapes that dominate the paper's evaluation, for every event-set
backend (E20 extends E17 across ``repro.sim.event_set`` backends):

* **timeout_heavy** — four processes yielding back-to-back timeouts:
  the pure schedule/pop/resume cycle (events/sec);
* **cancel_heavy** — every other scheduled timer is cancelled before it
  fires: measures the lazy-tombstone skip path (events/sec, cancelled
  entries included — they still transit the event set);
* **activation_heavy** — full middleware activations of a two-node
  HEUG with a remote precedence edge (activations/sec): dispatcher,
  kernel threads, network and tracer all on the path.

Because absolute rates vary with the host, the committed baseline
(``BENCH_engine.json``) also stores a *calibration* rate — a fixed
pure-Python workload measured in the same process — and the regression
gate compares rates **normalized by calibration**, so a slower CI
runner does not masquerade as a code regression.  Backends are measured
*interleaved* (heapq rep, calendar rep, heapq rep, ...) so CPU
frequency drift within the process hits both equally; the gate
additionally enforces the cross-backend floors: the committed baseline
must record at least ``CALENDAR_SPEEDUP_FLOOR``× heapq for the
calendar backend on the timeout/cancel shapes, and every fresh run
must reproduce at least ``FRESH_SPEEDUP_FLOOR``× in-process.

CLI (``benchmarks/gate.py``; the CI ``gates`` job runs ``--check``)::

    python benchmarks/bench_engine_hotpath.py --write   # re-baseline
    python benchmarks/bench_engine_hotpath.py --check   # gate: big drops fail

Re-baselining is deliberate: after an intentional perf change, run
``--write`` on the reference machine and commit the new
``e17_engine_hotpath`` section of ``BENCH_engine.json`` alongside the
change.  ``--write`` refuses to record a calendar speedup below
``CALENDAR_SPEEDUP_FLOOR``.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from benchmarks import gate  # noqa: E402

#: This experiment's section of BENCH_engine.json.
SECTION = "e17_engine_hotpath"

#: Fractional throughput drop (normalized) that fails the gate.
#: Sized to the observed process-to-process variance on a single-core
#: host: even best-of-7 with interleaved backends and calibration
#: normalization, every shape's rate swings ~±20% between interpreter
#: processes (allocator/layout luck the calibration workload does not
#: share).  A floor tighter than that flakes; catastrophic
#: regressions — the failure mode this gate exists for — are far
#: larger than 25%.
REGRESSION_TOLERANCE = 0.25

#: Per-shape overrides of the tolerance.  activation_heavy runs the
#: full middleware stack — dispatcher, kernel, scheduler, tracer —
#: and is the noisiest of the three; real engine regressions show up
#: on the tight event-loop shapes first anyway.
SHAPE_TOLERANCES = {"activation_heavy": 0.35}

#: Event-set backends measured and gated, reference first.
BACKENDS = ("heapq", "calendar")

#: Cross-backend gate, applied to the *recorded baseline*: a
#: ``--write`` may never commit a ``speedup_vs_heapq`` below this on
#: the gated shapes (the 1.5x claim minus a 15% measurement margin).
#: It is checked against the committed JSON, not the fresh run,
#: because the within-run ratio is hostage to per-process noise (the
#: calendar rate swings ~20% between interpreter processes on a busy
#: host even best-of-7) — genuine calendar regressions are caught
#: deterministically by its own calibration-normalized ratchet.
CALENDAR_SPEEDUP_FLOOR = 1.5 * (1.0 - 0.15)

#: Within-run sanity floor for fresh measurements: whatever the host
#: noise, the calendar backend must still *beat* heapq on its target
#: shapes.  A structural rot (e.g. every push spilling to the overflow
#: heap) drops the ratio below 1.0 and fails here even if the
#: normalized gates were re-baselined around it.
FRESH_SPEEDUP_FLOOR = 1.05

#: Shapes the cross-backend floor applies to (the calendar queue's
#: target workloads; activation_heavy is dominated by the middleware
#: stack, not the event core).
SPEEDUP_GATED_SHAPES = ("timeout_heavy", "cancel_heavy")

TIMEOUT_EVENTS = 200_000
CANCEL_EVENTS = 200_000
ACTIVATIONS = 1_000
REPEATS = 7


# -- workload shapes --------------------------------------------------------

def run_timeout_heavy(backend="heapq", n=TIMEOUT_EVENTS):
    """Pure schedule/pop/resume cycling; returns events/sec."""
    from repro.sim.engine import Simulator

    sim = Simulator(backend=backend)

    def proc():
        for _ in range(n // 4):
            yield sim.timeout(1)

    for _ in range(4):
        sim.process(proc())
    start = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - start)


def run_cancel_heavy(backend="heapq", n=CANCEL_EVENTS):
    """Half the timers are tombstoned before firing; returns events/sec
    over *all* scheduled events (tombstones still transit the set)."""
    from repro.sim.engine import Simulator

    sim = Simulator(backend=backend)

    def proc():
        for _ in range(n // 2):
            doomed = sim.timeout(10)
            doomed.cancel()
            yield sim.timeout(1)

    sim.process(proc())
    start = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - start)


def run_activation_heavy(backend="heapq", n=ACTIVATIONS):
    """Full-stack HEUG activations with a remote edge; activations/sec."""
    from repro.core.costs import DispatcherCosts
    from repro.core.heug import EUAttributes, Task
    from repro.system import HadesSystem

    system = HadesSystem(node_ids=["n0", "n1"], costs=DispatcherCosts.zero(),
                         backend=backend)
    task = Task("bench", deadline=10_000)
    first = task.code_eu("a", wcet=10, node_id="n0",
                         attrs=EUAttributes(prio=20))
    second = task.code_eu("b", wcet=10, node_id="n1",
                          attrs=EUAttributes(prio=20))
    task.precede(first, second)
    task.validate()
    start = time.perf_counter()
    for _ in range(n):
        system.activate(task)
        system.run()
    return n / (time.perf_counter() - start)


SHAPES = {
    "timeout_heavy": (run_timeout_heavy, "events/sec"),
    "cancel_heavy": (run_cancel_heavy, "events/sec"),
    "activation_heavy": (run_activation_heavy, "activations/sec"),
}

#: Rates measured on the reference machine at the pre-optimization
#: commit (af16af8), same shapes and parameters, heapq backend.  Kept
#: so the committed baseline records the speedup the optimization PRs
#: delivered; not used by the regression gate.
PRE_PR_MAIN = {
    "timeout_heavy": 389_624.0,
    "cancel_heavy": 282_838.0,
    "activation_heavy": 1_356.0,
}


# -- measurement & gate -----------------------------------------------------

def best_of_backends(fn, repeat=REPEATS):
    """Per-backend best rates, reps interleaved across backends.

    Interleaving means thermal/turbo drift over the measurement window
    degrades (or boosts) every backend alike, which is what makes the
    cross-backend speedup gate stable.
    """
    best = {backend: 0.0 for backend in BACKENDS}
    for _ in range(repeat):
        for backend in BACKENDS:
            best[backend] = max(best[backend],
                                gate.timed(fn, backend=backend))
    return best


def measure():
    """Best-of-N per-backend rates for every shape plus calibration."""
    calibration = gate.calibration(REPEATS)
    shapes = {}
    for name, (fn, unit) in SHAPES.items():
        rates = best_of_backends(fn)
        per_backend = {}
        for backend in BACKENDS:
            rate = rates[backend]
            entry = {
                "rate": round(rate, 1),
                "unit": unit,
                "normalized": rate / calibration,
            }
            if backend == "heapq":
                entry["speedup_vs_pre_pr"] = round(rate / PRE_PR_MAIN[name], 2)
            else:
                entry["speedup_vs_heapq"] = round(rate / rates["heapq"], 2)
            per_backend[backend] = entry
        shapes[name] = per_backend
    return {
        "experiment": "E17/E20",
        "description": "engine hot-path throughput per event-set backend "
                       "(see benchmarks/bench_engine_hotpath.py)",
        "calibration_ops_per_sec": round(calibration, 1),
        "tolerance": REGRESSION_TOLERANCE,
        "shape_tolerances": SHAPE_TOLERANCES,
        "calendar_speedup_floor": round(CALENDAR_SPEEDUP_FLOOR, 3),
        "backends": list(BACKENDS),
        "shapes": shapes,
    }


def check(results, baseline, extra_tolerance=0.0):
    """Gate the fresh ``results`` against the committed ``baseline``.

    Three families of failure, returned as ``(label, detail)`` pairs:

    * per-backend normalized regressions — new/old normalized
      throughput below ``1 - tolerance`` for any (shape, backend);
    * baseline speedup floor — the *committed* ``speedup_vs_heapq``
      below ``calendar_speedup_floor`` on a gated shape (a re-baseline
      can never quietly record less than the claimed speedup);
    * fresh-run sanity — calendar not at least
      ``FRESH_SPEEDUP_FLOOR``x the heapq rate of the same fresh run
      on the gated shapes (structural rot, noise-proof margin).

    ``extra_tolerance`` widens the normalized gate; the pytest face
    uses it because the baseline is recorded standalone and the full
    middleware shape runs measurably slower under the test harness.
    """
    tolerance = baseline.get("tolerance", REGRESSION_TOLERANCE)
    shape_tolerances = baseline.get("shape_tolerances", SHAPE_TOLERANCES)
    failures = []
    for name, backends in baseline["shapes"].items():
        shape_tolerance = (shape_tolerances.get(name, tolerance)
                           + extra_tolerance)
        for backend, entry in backends.items():
            label = f"{name}[{backend}]"
            fresh = results["shapes"].get(name, {}).get(backend)
            if fresh is None:
                failures.append((label, "missing"))
                continue
            failures += gate.floor(label, fresh["normalized"],
                                   entry["normalized"], shape_tolerance)
    floor = baseline.get("calendar_speedup_floor", CALENDAR_SPEEDUP_FLOOR)
    for name in SPEEDUP_GATED_SHAPES:
        recorded = (baseline["shapes"].get(name, {})
                    .get("calendar", {}).get("speedup_vs_heapq"))
        if recorded is not None and recorded < floor:
            failures.append((f"{name}[baseline calendar/heapq]",
                             f"{recorded:.2f}x < {floor:.2f}x"))
        backends = results["shapes"].get(name, {})
        if "calendar" not in backends or "heapq" not in backends:
            continue
        speedup = backends["calendar"]["rate"] / backends["heapq"]["rate"]
        if speedup < FRESH_SPEEDUP_FLOOR:
            failures.append((f"{name}[calendar/heapq]",
                             f"{speedup:.2f}x < {FRESH_SPEEDUP_FLOOR:.2f}x"))
    return failures


def _print_results(results, baseline=None):
    from benchmarks.conftest import print_table

    rows = []
    for name, backends in results["shapes"].items():
        for backend, entry in backends.items():
            row = [f"{name}[{backend}]", f"{entry['rate']:,.0f}",
                   entry["unit"], f"{entry['normalized']:.4f}"]
            speedup = entry.get("speedup_vs_heapq")
            row.append("" if speedup is None else f"{speedup:.2f}x")
            if baseline is not None:
                base = baseline["shapes"].get(name, {}).get(backend)
                row.append("" if base is None else
                           f"{entry['normalized'] / base['normalized']:.2f}x")
            rows.append(row)
    headers = ["shape[backend]", "rate", "unit", "normalized", "vs heapq"]
    if baseline is not None:
        headers.append("vs baseline")
    print_table("E17/E20 — engine hot-path throughput "
                f"(calibration {results['calibration_ops_per_sec']:,.0f} ops/s)",
                headers, rows)


# -- pytest face ------------------------------------------------------------

#: Extra normalized slack for the pytest face only: the committed
#: baseline is written by the standalone ``--write`` process (as the
#: CI ``--check`` gate measures), and under the pytest/benchmark
#: harness the activation-heavy shape runs 15–20% slower than
#: standalone on the same machine.  The strict ratchet is the
#: standalone CI job; this face still catches catastrophic
#: regressions when run via ``pytest benchmarks/`` or
#: ``repro.experiments``.
PYTEST_HARNESS_MARGIN = 0.10


def test_engine_hotpath_rates(benchmark):
    """Regenerates the E17/E20 table and gates against the baseline."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    baseline = gate.load().get(SECTION)
    _print_results(results, baseline)
    for name, backends in results["shapes"].items():
        for backend, entry in backends.items():
            assert entry["rate"] > 0, (name, backend)
    if baseline is not None:
        failures = check(results, baseline,
                         extra_tolerance=PYTEST_HARNESS_MARGIN)
        assert not failures, (
            f"throughput regression(s) beyond "
            f"{REGRESSION_TOLERANCE + PYTEST_HARNESS_MARGIN:.0%}: "
            f"{failures}")


def test_cancel_heavy_tombstones_are_skipped():
    """The cancel-heavy shape really exercises the tombstone path —
    on every backend."""
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Simulator

    for backend in BACKENDS:
        sim = Simulator(metrics=MetricsRegistry(), backend=backend)

        def proc():
            for _ in range(100):
                sim.timeout(10).cancel()
                yield sim.timeout(1)

        sim.process(proc())
        sim.run()
        skipped = sim.metrics.counter("engine.cancelled_skips").value
        assert skipped == 100, backend


if __name__ == "__main__":
    raise SystemExit(gate.main(__doc__, SECTION, measure, check,
                               _print_results, None))
