#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the HADES simulator.

Every measured run is a fresh child process (``child.py``) running one
workload instance; this script spawns them one at a time, checks their
outputs and prints each metric by name with its unit and bound::

    python3 benchmarks/e2e/run.py [--seed N] [--out FILE]
        # all workloads, 5 untraced runs each round-robin, then one
        # traced run each
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--out FILE]
        # one workload, untraced runs for S seconds (then one traced run
        # with --trace 1); the last stdout line is the JSON result
        # (end-to-end metrics, or per-layer ones with --trace 1)
    python3 benchmarks/e2e/run.py --compare PARENT.json CHANGE.json
    python3 benchmarks/e2e/run.py --write-digests

Both modes share one protocol and one result file format, so
``--compare`` reads the ``--out`` file of either.  Metrics, workloads
and bounds are declared in ``BENCHMARK.json`` at the repository root;
README.md next to this file explains them.
"""

import argparse
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 7
#: Untraced runs per workload when every workload runs.
RUNS = 5
CHILD_TIMEOUT_S = 150

#: Host-speed calibration.  On a shared host, other tenants slow every
#: process by up to ~1.7x, in sub-second bursts and in phases lasting
#: minutes, so medians of raw host seconds spread by up to 44% between
#: runs (README.md, "Host-speed calibration and bounds").  Each child is
#: therefore timed between two runs of a fixed reference loop that uses
#: the standard library only, and its host seconds are scaled by
#: REF_S / (mean reference time): reported seconds are seconds on a host
#: where the reference loop takes REF_S, the quiet reference host's time.
REF_ITERATIONS = 20_000
REF_S = 0.020

#: Per-seed host latency, reported only where one run simulates several
#: seeds (``fault_campaign``).  Elsewhere it would repeat ``wall_s``, so
#: it is not among BENCHMARK.json's end-to-end metrics, which every
#: workload reports.
SEED_METRICS = (
    {"name": "seed_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2,
     "q": 0.5},
    {"name": "seed_ms_p90", "unit": "ms", "better": "lower", "bound": 0.2,
     "q": 0.9},
)


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_info():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


class _Item:
    __slots__ = ("time", "order")

    def __init__(self, time, order):
        self.time = time
        self.order = order

    def key(self):
        return (self.time, self.order)


def reference_loop():
    """Host seconds that a fixed piece of interpreter work takes now:
    object creation, method calls, a heap and a dict, as in the
    simulator, but none of its code."""
    start = now()
    heap, table = [], {}
    for i in range(REF_ITERATIONS):
        item = _Item((i * 7919) % 1000, i)
        heapq.heappush(heap, item.key())
        table[i & 255] = table.get(i & 255, 0) + item.order
        if len(heap) > 64:
            heapq.heappop(heap)
        table[-1] = f"{item.time}:{item.order}"
    return now() - start


def spawn(workload, seed, traced):
    """One workload instance in a fresh process, timed between two
    reference loops; its result dict with the calibration ``scale``
    added, or ``{"error": ...}``."""
    # Children always use the bytecode cache, whatever the caller's
    # environment says, so setup_s measures import as users see it.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    before = reference_loop()
    command = [sys.executable, os.path.join(HERE, "child.py"), workload,
               str(seed), repr(now()), "1" if traced else "0"]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    after = reference_loop()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["reference_s"] = (before + after) / 2
    result["scale"] = REF_S / result["reference_s"]
    return result


def quantile(values, q):
    """Inclusive-method quantile (exact for one value)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(sorted(values), n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def describe(values):
    """Median, quartiles, range and count of one metric over the runs."""
    return {"median": statistics.median(values),
            "q1": quantile(values, 0.25), "q3": quantile(values, 0.75),
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


def run_seconds(child):
    """A child's calibrated host seconds in the simulation phase."""
    return sum(s["run_s"] for s in child["seeds"]) * child["scale"]


def end_to_end(children):
    """End-to-end metrics over the untraced runs, in calibrated host
    seconds (see REF_S)."""
    per_run = {
        "wall_s": [c["wall_s"] * c["scale"] for c in children],
        "sim_req_per_s": [sum(s["offered"] for s in c["seeds"])
                          / run_seconds(c) for c in children],
        "setup_s": [c["setup_s"] * c["scale"] for c in children],
        "analysis_s": [sum(s["analysis_s"] for s in c["seeds"])
                       * c["scale"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    if len(children[0]["seeds"]) > 1:
        for entry in SEED_METRICS:
            per_run[entry["name"]] = [
                quantile([s["seed_ms"] for s in c["seeds"]], entry["q"])
                * c["scale"] for c in children]
    return {name: describe(values) for name, values in per_run.items()}


def per_layer(children, traced, spec_names):
    """Per-layer metrics from the traced run (boundary counts included);
    seconds are calibrated like the end-to-end ones."""
    t = traced["traced"]
    wall = t["wall_s"]
    scale = traced["scale"]
    records = t["records"]
    calls = t["calls"]
    volume = t["volume"]
    metrics = {}
    for layer, seconds in t["self_s"].items():
        metrics[f"{layer}.self_s"] = seconds * scale
        metrics[f"{layer}.share"] = seconds / wall
    metrics["profile.repro_share"] = sum(
        s for layer, s in t["self_s"].items()
        if layer not in layers.BENCH_LAYERS) / wall
    metrics["profile.overhead"] = wall * scale / statistics.median(
        c["wall_s"] * c["scale"] for c in children)
    events = calls["sim.engine.events"]
    metrics["sim.engine.events"] = events
    metrics["sim.engine.ns_per_event"] = statistics.median(
        run_seconds(c) for c in children) * 1e9 / events
    metrics["sim.trace.records"] = sum(volume["records"].values())
    metrics["sim.trace.bytes"] = sum(volume["bytes"].values())
    for name in spec_names:
        for kind in ("records", "bytes"):
            prefix = f"sim.trace.{kind}."
            if name.startswith(prefix):
                metrics[name] = volume[kind].get(name[len(prefix):], 0)
    submitted = records.get("admission/submit", 0)
    admitted = records.get("admission/admit", 0)
    metrics.update({
        "core.dispatcher.activations": records.get("dispatcher/activate", 0),
        "core.dispatcher.set_thread_params":
            calls["core.dispatcher.set_thread_params"],
        "kernel.cpu.submits": calls["kernel.cpu.submits"],
        "kernel.cpu.preemptions": records.get("cpu/preempt", 0),
        "kernel.interrupts.irqs": records.get("kernel/interrupt", 0),
        "network.sends": records.get("network/send", 0),
        "network.max_message_delay.calls":
            calls["network.max_message_delay.calls"],
        "network.late": t["late"],
        "network.dropped": records.get("network/drop", 0),
        "admission.submitted": submitted,
        "admission.admitted": admitted,
        "admission.admit_ratio": admitted / submitted if submitted else 0.0,
    })
    missing = set(spec_names) - set(metrics)
    if missing:
        raise KeyError(f"BENCHMARK.json names unknown metrics {missing}")
    return {name: metrics[name] for name in spec_names}


def verify(workload, seed, runs):
    """(attempted, failed, messages) over every run of one workload.

    A seed fails when it breaks an invariant; a run fails when it
    crashed or its digest differs from the reference: the committed one
    at the default seed, else the first run's."""
    committed = load_digests()
    reference = (committed["workloads"].get(workload)
                 if committed.get("seed") == seed else None)
    attempted = failed = 0
    messages = []
    for run in runs:
        if "error" in run:
            attempted += 1
            failed += 1
            messages.append(f"run failed: {run['error']}")
            continue
        reference = reference or run["digest"]
        attempted += len(run["seeds"])
        for index, seed_result in enumerate(run["seeds"]):
            if seed_result["problems"]:
                failed += 1
                messages.append(f"seed {index}: "
                                + "; ".join(seed_result["problems"]))
        if run["digest"] != reference:
            failed += 1
            messages.append(f"digest {run['digest'][:16]} differs from "
                            f"reference {reference[:16]}")
    return attempted, failed, messages


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def load_digests():
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def e2e_entries(spec, e2e):
    """Declared end-to-end metrics plus the seed metrics, if reported."""
    return list(spec["end_to_end"]) + [entry for entry in SEED_METRICS
                                       if entry["name"] in e2e]


def print_metrics(title, metrics, entries):
    print(title)
    for entry in entries:
        m = metrics[entry["name"]]
        print(f"  {entry['name']:<14} {m['median']:>11.4f} "
              f"{entry['unit']:<6} [q1 {m['q1']:.4f}, q3 {m['q3']:.4f}] "
              f"range [{m['min']:.4f}, {m['max']:.4f}] n={m['n']}; "
              f"bound {entry['bound']:.0%}, {entry['better']} is better")


def print_layers(title, metrics, spec_metrics):
    print(title)
    for entry in spec_metrics:
        value = metrics[entry["name"]]
        text = f"{value:.6g}" if isinstance(value, float) else f"{value}"
        print(f"  {entry['name']:<36} {text:>14} {entry['unit']}")


def summarize(spec, workload, seed, untraced, traced):
    """Verify and print one workload's runs; its result record.

    The record's metrics are None when a run crashed, per-layer also
    without a traced run."""
    runs = untraced + ([traced] if traced else [])
    attempted, failed, messages = verify(workload, seed, runs)
    print(f"\n== {workload}, seed {seed}: {len(untraced)} untraced runs, "
          f"{attempted} seeds attempted, {failed} failed, digest "
          f"{untraced[0].get('digest', '-')[:16]}")
    for message in messages:
        print(f"  FAILED {message}")
    record = {"attempted": attempted, "failed": failed,
              "digest": untraced[0].get("digest"), "end_to_end": None,
              "per_layer": None}
    if any("error" in run for run in runs):
        return record
    record["end_to_end"] = end_to_end(untraced)
    record["reference_s"] = describe([c["reference_s"] for c in untraced])
    record["raw_wall_s"] = describe([c["wall_s"] for c in untraced])
    print(f"host speed: reference loop median "
          f"{record['reference_s']['median'] * 1e3:.1f} ms (REF_S "
          f"{REF_S * 1e3:.1f} ms); uncalibrated wall_s median "
          f"{record['raw_wall_s']['median']:.4f} s")
    e2e = record["end_to_end"]
    print_metrics("end-to-end over the untraced runs (median, calibrated):",
                  e2e, e2e_entries(spec, e2e))
    if traced:
        record["per_layer"] = per_layer(
            untraced, traced, [m["name"] for m in spec["per_layer"]])
        print_layers("per-layer (traced run):", record["per_layer"],
                     spec["per_layer"])
    return record


def benchmark(names, seed, trace, seconds=None, out=None):
    """The one run protocol: untraced children round-robin over ``names``
    -- RUNS rounds, or with ``seconds`` as many rounds as start within
    that time -- then, with ``trace``, one traced child per workload.

    Returns the result (host, seed and one record per workload), saved
    to ``out`` if given."""
    spec = load_spec()
    untraced = {name: [] for name in names}
    start = now()
    rounds = 0
    while True:
        for name in names:
            untraced[name].append(spawn(name, seed, traced=False))
        rounds += 1
        crashed = any("error" in runs[-1] for runs in untraced.values())
        if crashed or (rounds >= RUNS if seconds is None
                       else now() - start >= seconds):
            break
    traced = {name: (spawn(name, seed, traced=True)
                     if trace and not crashed else None) for name in names}
    result = {"host": host_info(), "seed": seed, "workloads": {}}
    print(f"host {json.dumps(result['host'])}")
    for name in names:
        result["workloads"][name] = summarize(spec, name, seed,
                                              untraced[name], traced[name])
    if out:
        with open(out, "w") as handle:
            json.dump(result, handle, indent=1)
    return result


def measure(workload, seed, seconds, trace, out):
    """One workload for ``seconds``; prints the JSON result last."""
    spec = load_spec()
    record = benchmark([workload], seed, trace, seconds, out)[
        "workloads"][workload]
    if record["end_to_end"] is None:
        return 1
    if trace:
        values = {m["name"]: {"value": record["per_layer"][m["name"]],
                              "unit": m["unit"]}
                  for m in spec["per_layer"]}
    else:
        values = {m["name"]: {"value": record["end_to_end"][m["name"]][
            "median"], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": values}))
    return 0 if record["failed"] == 0 else 1


def suite(seed, out):
    """Every workload, RUNS untraced runs each, then a traced run each."""
    spec = load_spec()
    result = benchmark([w["name"] for w in spec["workloads"]], seed, True,
                       out=out)
    failed = [record["failed"] or record["end_to_end"] is None
              for record in result["workloads"].values()]
    return 1 if any(failed) else 0


def verdict(a, b, entry):
    """better / same / unresolved / worse for one metric, B against A,
    judged on medians."""
    bound = entry["bound"]
    sign = 1 if entry["better"] == "lower" else -1
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((m["q3"] - m["q1"]) / m["median"] for m in (a, b))
    b_wins = (max(b["values"]) < min(a["values"]) if sign == 1
              else min(b["values"]) > max(a["values"]))
    if spread > bound:
        return "better" if b_wins else "unresolved"
    if change > bound:
        return "worse"
    return "better" if -change > spread else "same"


def compare(path_a, path_b):
    spec = load_spec()
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    print(f"A {path_a}: {json.dumps(a['host'])}, seed {a['seed']}")
    print(f"B {path_b}: {json.dumps(b['host'])}, seed {b['seed']}")
    self_s_names = [m["name"] for m in spec["per_layer"]
                    if m["name"].endswith(".self_s")]
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        same = "identical" if wa["digest"] == wb["digest"] else "DIFFERENT"
        print(f"\n== {name} (simulated results {same})")
        if wa["end_to_end"] is None or wb["end_to_end"] is None:
            print("  a run crashed; nothing to compare")
            continue
        print(f"  reference loop median: A "
              f"{wa['reference_s']['median'] * 1e3:.1f} ms, B "
              f"{wb['reference_s']['median'] * 1e3:.1f} ms")
        print(f"  {'metric':<14} {'A: median [q1, q3] n':>32} "
              f"{'B: median [q1, q3] n':>32} {'B/A':>6}  verdict")
        for entry in e2e_entries(spec, wa["end_to_end"]):
            ma = wa["end_to_end"][entry["name"]]
            mb = wb["end_to_end"][entry["name"]]
            cells = [f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] "
                     f"{m['n']}" for m in (ma, mb)]
            print(f"  {entry['name']:<14} {cells[0]:>32} {cells[1]:>32} "
                  f"{mb['median'] / ma['median']:>6.3f}  "
                  f"{verdict(ma, mb, entry)} (bound {entry['bound']:.0%})")
        if wa["per_layer"] is None or wb["per_layer"] is None:
            continue
        print(f"  {'layer self_s':<28} {'A':>9} {'B':>9} {'B-A':>9}")
        for layer in self_s_names:
            sa, sb = wa["per_layer"][layer], wb["per_layer"][layer]
            print(f"  {layer:<28} {sa:>9.4f} {sb:>9.4f} {sb - sa:>+9.4f}")
    return 0


def write_digests():
    """Record each workload's digest at the default seed."""
    spec = load_spec()
    digests = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in spec["workloads"]:
        run = spawn(workload["name"], DEFAULT_SEED, traced=False)
        if "error" in run or any(s["problems"] for s in run["seeds"]):
            print(f"{workload['name']}: not recorded: {run}", file=sys.stderr)
            return 1
        digests["workloads"][workload["name"]] = run["digest"]
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(digests, handle, indent=2)
        handle.write("\n")
    print(json.dumps(digests, indent=2))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="save the result (JSON) for --compare")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.write_digests:
        return write_digests()
    if args.workload:
        names = [w["name"] for w in load_spec()["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {names}")
        seconds = (args.seconds if args.seconds is not None
                   else load_spec()["run_seconds"])
        return measure(args.workload, args.seed, seconds, args.trace,
                       args.out)
    return suite(args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
