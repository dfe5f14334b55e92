"""Experiment E17 — engine hot-path throughput, gated.

The ROADMAP's north star ("runs as fast as the hardware allows") is
bounded by the event loop's constant factors: every §5 experiment
funnels millions of tiny timed events through the engine.  This
benchmark measures raw engine throughput across the three workload
shapes that dominate the paper's evaluation, on the path the simulated
system runs: direct-call timers, the way kernel threads, CPU
completions and arrivals schedule their work.

* **timeout_heavy** — four self-rescheduling ``call_in(1, ...)``
  chains: the pure schedule/pop/dispatch cycle (events/sec);
* **cancel_heavy** — each step schedules and cancels a
  ``call_in(10, ...)``, then schedules its successor with
  ``call_in(1, ...)``: the lazy-tombstone skip path (events/sec,
  cancelled entries included — they still transit the event set);
* **activation_heavy** — full middleware activations of a two-node
  HEUG with a remote precedence edge (activations/sec): dispatcher,
  kernel threads, network and tracer all on the path.

Because absolute rates vary with the host, the committed baseline
(``BENCH_engine.json``) also stores a *calibration* rate — a fixed
pure-Python workload measured in the same process — and the regression
gate compares rates **normalized by calibration**, so a slower CI
runner does not masquerade as a code regression.

CLI (``benchmarks/gate.py``; the CI ``gates`` job runs ``--check``)::

    python benchmarks/bench_engine_hotpath.py --write   # re-baseline
    python benchmarks/bench_engine_hotpath.py --check   # gate: big drops fail

Re-baselining is deliberate: after an intentional perf change, run
``--write`` on the reference machine and commit the new
``e17_engine_hotpath`` section of ``BENCH_engine.json`` alongside the
change.
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
#: host: even best-of-7 with calibration normalization, every shape's
#: rate swings ~±20% between interpreter processes (allocator/layout
#: luck the calibration workload does not share).  A floor tighter
#: than that flakes; catastrophic regressions — the failure mode this
#: gate exists for — are far larger than 25%.
REGRESSION_TOLERANCE = 0.25

#: Per-shape overrides of the tolerance.  activation_heavy runs the
#: full middleware stack — dispatcher, kernel, scheduler, tracer —
#: and is the noisiest of the three; real engine regressions show up
#: on the tight event-loop shapes first anyway.
SHAPE_TOLERANCES = {"activation_heavy": 0.35}

TIMEOUT_EVENTS = 200_000
CANCEL_EVENTS = 200_000
ACTIVATIONS = 1_000
REPEATS = 7


# -- workload shapes --------------------------------------------------------

def run_timeout_heavy(n=TIMEOUT_EVENTS):
    """Pure schedule/pop/dispatch cycling; returns events/sec."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    call_in = sim.call_in

    def chain(left):
        if left:
            call_in(1, lambda: chain(left - 1))

    for _ in range(4):
        chain(n // 4)
    start = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - start)


def run_cancel_heavy(n=CANCEL_EVENTS):
    """Half the timers are tombstoned before firing; returns events/sec
    over *all* scheduled events (tombstones still transit the set)."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    call_in = sim.call_in

    def step(left):
        if left:
            call_in(10, _noop).cancel()
            call_in(1, lambda: step(left - 1))

    step(n // 2)
    start = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - start)


def _noop():
    pass


def run_activation_heavy(n=ACTIVATIONS):
    """Full-stack HEUG activations with a remote edge; activations/sec."""
    from repro.core.costs import DispatcherCosts
    from repro.core.heug import EUAttributes, Task
    from repro.system import HadesSystem

    system = HadesSystem(node_ids=["n0", "n1"], costs=DispatcherCosts.zero())
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
#: commit (af16af8), same shape and parameters.  Kept so the committed
#: baseline records the speedup the optimization PRs delivered; not
#: used by the regression gate.  The timer shapes have no entry: they
#: drive call_in chains, which that commit's shapes did not.
PRE_PR_MAIN = {
    "activation_heavy": 1_356.0,
}


# -- measurement & gate -----------------------------------------------------

def measure():
    """Best-of-N rates for every shape plus calibration."""
    calibration = gate.calibration(REPEATS)
    shapes = {}
    for name, (fn, unit) in SHAPES.items():
        rate = max(gate.timed(fn) for _ in range(REPEATS))
        entry = {
            "rate": round(rate, 1),
            "unit": unit,
            "normalized": rate / calibration,
        }
        if name in PRE_PR_MAIN:
            entry["speedup_vs_pre_pr"] = round(rate / PRE_PR_MAIN[name], 2)
        shapes[name] = entry
    return {
        "experiment": "E17",
        "description": "engine hot-path throughput "
                       "(see benchmarks/bench_engine_hotpath.py)",
        "calibration_ops_per_sec": round(calibration, 1),
        "tolerance": REGRESSION_TOLERANCE,
        "shape_tolerances": SHAPE_TOLERANCES,
        "shapes": shapes,
    }


def check(results, baseline, extra_tolerance=0.0):
    """Gate the fresh ``results`` against the committed ``baseline``.

    Returns ``(label, detail)`` pairs: a shape missing from the fresh
    results, or one whose new/old normalized throughput is below
    ``1 - tolerance``.

    ``extra_tolerance`` widens the normalized gate; the pytest face
    uses it because the baseline is recorded standalone and the full
    middleware shape runs measurably slower under the test harness.
    """
    tolerance = baseline.get("tolerance", REGRESSION_TOLERANCE)
    shape_tolerances = baseline.get("shape_tolerances", SHAPE_TOLERANCES)
    failures = []
    for name, entry in baseline["shapes"].items():
        fresh = results["shapes"].get(name)
        if fresh is None:
            failures.append((name, "missing"))
            continue
        failures += gate.floor(name, fresh["normalized"],
                               entry["normalized"],
                               shape_tolerances.get(name, tolerance)
                               + extra_tolerance)
    return failures


def _print_results(results, baseline=None):
    from benchmarks.conftest import print_table

    rows = []
    for name, entry in results["shapes"].items():
        row = [name, f"{entry['rate']:,.0f}", entry["unit"],
               f"{entry['normalized']:.4f}"]
        if baseline is not None:
            base = baseline["shapes"].get(name)
            row.append("" if base is None else
                       f"{entry['normalized'] / base['normalized']:.2f}x")
        rows.append(row)
    headers = ["shape", "rate", "unit", "normalized"]
    if baseline is not None:
        headers.append("vs baseline")
    print_table("E17 — engine hot-path throughput "
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
    """Regenerates the E17 table and gates against the baseline."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    baseline = gate.load().get(SECTION)
    _print_results(results, baseline)
    for name, entry in results["shapes"].items():
        assert entry["rate"] > 0, name
    if baseline is not None:
        failures = check(results, baseline,
                         extra_tolerance=PYTEST_HARNESS_MARGIN)
        assert not failures, (
            f"throughput regression(s) beyond "
            f"{REGRESSION_TOLERANCE + PYTEST_HARNESS_MARGIN:.0%}: "
            f"{failures}")


def test_cancel_heavy_tombstones_are_skipped():
    """The cancel-heavy shape really exercises the tombstone path."""
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Simulator

    sim = Simulator(metrics=MetricsRegistry())

    def step(left):
        if left:
            sim.call_in(10, _noop).cancel()
            sim.call_in(1, lambda: step(left - 1))

    step(100)
    sim.run()
    assert sim.metrics.counter("engine.cancelled_skips").value == 100
    assert sim.metrics.counter("engine.events_fired").value == 100


if __name__ == "__main__":
    raise SystemExit(gate.main(__doc__, SECTION, measure, check,
                               _print_results, None))
