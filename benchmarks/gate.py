"""The one regression-gate harness of the gated experiment scripts.

Four experiments (E17, E22, E23, E24) gate CI against figures
committed in ``BENCH_engine.json``.  This module holds the decision
they share — how a gated experiment is timed, stored and compared —
so each script keeps only its workload builders, ``measure``,
``check``, results table and pytest face:

* every timed rep runs with the cyclic GC paused (:func:`timed`);
* wall-clock figures are normalized by a fixed pure-Python
  calibration loop measured in the same process
  (:func:`calibration`), so runner speed never masquerades as a
  regression;
* fully seeded figures are compared exactly (:func:`exact`) and
  normalized rates against a tolerance (:func:`floor`);
* each experiment owns exactly one section of ``BENCH_engine.json``,
  written and checked by the one CLI (:func:`main`)::

      python benchmarks/<script>.py --write   # re-baseline this section
      python benchmarks/<script>.py --check   # regression gate
      python benchmarks/<script>.py --smoke   # CI-sized sanity run

``--write`` runs the script's own ``check(results, results)`` first
and refuses to write when it fails, so a baseline can never record a
figure the gate itself would reject (a speedup below its floor, an
overhead above its ceiling).
"""

import gc
import json
import pathlib
import sys
import time

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def timed(fn, **kwargs):
    """One rep with the cyclic GC paused, collected afterwards.

    Collector pauses landing inside a timed region are the dominant
    run-to-run noise for the allocation-heavy workloads; collecting
    *between* reps keeps garbage from one rep from slowing the next.
    Whatever ``fn`` returns survives that collection, so return
    figures, not the simulated system.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(**kwargs)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()


def _calibration_rate(n=2_000_000):
    start = time.perf_counter()
    total = 0
    for i in range(n):
        total += i & 7
    assert total > 0
    return n / (time.perf_counter() - start)


def calibration(repeats):
    """Best-of-``repeats`` host-speed yardstick (ops/sec).

    The loop must never change: every committed ``normalized`` figure
    is a rate divided by it.
    """
    return max(timed(_calibration_rate) for _ in range(repeats))


def exact(label, fresh, base, keys):
    """Failures for every ``key`` whose fresh value differs from base.

    For fully seeded figures: a changed value means the workload's
    semantics (not the host) changed without a re-baseline.
    """
    return [(f"{label}[{key}]", f"{fresh[key]} != {base[key]}")
            for key in keys if fresh[key] != base[key]]


def floor(label, fresh, base, tolerance):
    """A failure when ``fresh / base`` drops below ``1 - tolerance``."""
    ratio = fresh / base
    if ratio < 1.0 - tolerance:
        return [(label, f"{ratio:.2f}x")]
    return []


def load():
    """The parsed baseline file, ``{}`` when there is none yet."""
    if BENCH_FILE.exists():
        return json.loads(BENCH_FILE.read_text())
    return {}


def _report(failures):
    for label, detail in failures:
        print(f"REGRESSION {label}: {detail}", file=sys.stderr)


def main(doc, section, measure, check, show, smoke, argv=None):
    """The ``--write``/``--check``/``--smoke`` CLI; returns an exit code.

    ``measure()`` returns the results dict stored as ``section``;
    ``check(results, baseline)`` returns ``(label, detail)`` failures;
    ``show(results, baseline=None)`` prints the results table;
    ``smoke`` (or ``None``) runs the CI-sized sanity check.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--smoke" in argv and smoke is not None:
        return smoke()
    if "--write" in argv:
        results = measure()
        show(results)
        failures = check(results, results)
        if failures:
            _report(failures)
            print(f"error: refusing to write {section!r}: the fresh "
                  f"results fail their own gate", file=sys.stderr)
            return 1
        data = load()
        data[section] = results
        BENCH_FILE.write_text(json.dumps(data, indent=2) + "\n")
        print(f"baseline section {section!r} written to {BENCH_FILE}")
        return 0
    if "--check" in argv:
        baseline = load().get(section)
        if baseline is None:
            print(f"error: no {section!r} section in {BENCH_FILE}; "
                  f"run --write first", file=sys.stderr)
            return 2
        results = measure()
        show(results, baseline)
        failures = check(results, baseline)
        if failures:
            _report(failures)
            return 1
        print(f"gate passed: {section} reproduces the committed baseline "
              f"(exact figures equal, normalized rates within tolerance)")
        return 0
    print(doc)
    return 0
