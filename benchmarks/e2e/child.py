"""Run one workload instance in this fresh process; print one JSON line.

Spawned by ``run.py``::

    python benchmarks/e2e/child.py WORKLOAD SEED SPAWNED TRACED

``SPAWNED`` is the parent's CLOCK_MONOTONIC reading when it started this
process, so ``wall_s`` spans process start to verified result.  With
``TRACED`` = 1 the whole run is wrapped in cProfile, and each seed's
trace is exported as JSONL to a temporary file next to this script with
the profiler paused, to measure trace volume.
"""

import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


START = now()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

#: Host-side boundary counts read from the profile:
#: metric -> (module, function).
CALLS = {
    "sim.engine.events": ("repro.sim.engine", "_dispatch"),
    "core.dispatcher.set_thread_params": ("repro.core.dispatcher",
                                          "set_thread_params"),
    "kernel.cpu.submits": ("repro.kernel.cpu", "submit"),
    "network.max_message_delay.calls": ("repro.network.network",
                                        "max_message_delay"),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Probe:
    """Phase marks and per-seed results of one workload instance."""

    def __init__(self, profiler):
        self.profiler = profiler
        self.marks = {}
        self.first_run_start = None
        self.seeds = []
        #: Host seconds spent with the profiler paused (trace export).
        self.paused = 0.0
        self.records = Counter()
        self.volume = {"records": Counter(), "bytes": Counter()}
        self.late = 0

    def mark(self, event):
        moment = now()
        self.marks[event] = moment
        if event == "run_start" and self.first_run_start is None:
            self.first_run_start = moment

    def seed_done(self, system, stats, problems):
        end = now()
        marks = self.marks
        self.seeds.append({
            "seed_ms": (end - marks["seed_start"]) * 1e3,
            "run_s": marks["run_end"] - marks["run_start"],
            "analysis_s": end - marks["run_end"],
            "offered": stats["offered"],
            "digest": sha256(json.dumps(stats, sort_keys=True)),
            "problems": problems,
        })
        if self.profiler is not None:
            self.profiler.disable()
            paused_at = now()
            self._tally(system, stats)
            self.paused += now() - paused_at
            self.profiler.enable()

    def _tally(self, system, stats):
        """Record counts, late deliveries and trace volume per category
        (bytes from a JSONL export to a temporary file)."""
        self.records.update(stats["records"])
        handle, path = tempfile.mkstemp(suffix=".jsonl", dir=HERE)
        os.close(handle)
        try:
            system.tracer.to_jsonl(path)
            with open(path, "rb") as export:
                for record, line in zip(system.tracer, export):
                    self.volume["records"][record.category] += 1
                    self.volume["bytes"][record.category] += len(line)
                    if (record.category == "network"
                            and record.event == "deliver"
                            and record.details.get("outcome") == "late"):
                        self.late += 1
        finally:
            os.remove(path)


def main(argv):
    workload, seed, spawned, traced = (argv[1], int(argv[2]),
                                       float(argv[3]), argv[4] == "1")
    profiler = None
    if traced:
        import cProfile
        profiler = cProfile.Profile()
        traced_start = now()
        profiler.enable()
    from workloads import WORKLOADS
    probe = Probe(profiler)
    WORKLOADS[workload](seed, probe)
    digest = sha256("".join(entry["digest"] for entry in probe.seeds))
    verified = now()
    if profiler is not None:
        profiler.disable()
    result = {
        "wall_s": verified - spawned,
        "setup_s": probe.first_run_start - START,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest,
        "seeds": probe.seeds,
    }
    if profiler is not None:
        import pstats

        import layers
        stats = pstats.Stats(profiler).stats
        calls = layers.call_counts(stats, CALLS.values())
        result["traced"] = {
            "wall_s": verified - traced_start - probe.paused,
            "self_s": layers.fold(stats),
            "calls": {name: calls[key] for name, key in CALLS.items()},
            "records": dict(probe.records),
            "late": probe.late,
            "volume": {kind: dict(counts)
                       for kind, counts in probe.volume.items()},
        }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown of the simulated system's object graph.
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv)
