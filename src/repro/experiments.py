"""Standalone experiment runner: ``python -m repro.experiments``.

Regenerates the paper's figures and experiment tables (DESIGN.md §4)
by running the benchmark harness with table printing enabled.  This is
a thin front door over ``pytest benchmarks/ --benchmark-only -s``; it
therefore needs a source checkout (the ``benchmarks/`` directory is
not installed as part of the library).

Usage::

    python -m repro.experiments              # everything
    python -m repro.experiments E4 E11       # only selected experiments
    python -m repro.experiments E9 --jobs 4  # parallel fault campaigns
    python -m repro.experiments --list       # what is available

``--jobs N`` fans campaign-style experiments (E9/E9b, the parallel
campaign benchmark) out to N worker processes; results are merged in
seed order and are identical to a serial run.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from typing import List, Optional

#: Environment variable carrying ``--jobs`` into the benchmark processes.
JOBS_ENV = "REPRO_CAMPAIGN_JOBS"

#: Experiment id -> benchmark file (kept in sync with DESIGN.md §4).
EXPERIMENTS = {
    "F1": "bench_architecture.py",
    "F2": "bench_fig2_edf_cooperation.py",
    "F3": "bench_fig3_translation.py",
    "E1": "bench_cost_calibration.py",
    "E2": "bench_kernel_activities.py",
    "E3": "bench_spuri_test.py",
    "E4": "bench_hades_test.py",
    "E5": "bench_compatibility.py",
    "E6": "bench_clocksync.py",
    "E7": "bench_broadcast.py",
    "E8": "bench_replication.py",
    "E9": "bench_monitoring.py",
    "E10": "bench_policy_comparison.py",
    "E11": "bench_pessimism.py",
    "E12": "bench_end_to_end.py",
    "E13": "bench_end_to_end_analysis.py",
    "E14": "bench_overhead.py",
    "E15": "bench_observability.py",
    "E16": "bench_parallel_campaign.py",
    "E17": "bench_engine_hotpath.py",
    "E18": "bench_forensics.py",
    "E19": "bench_admission.py",
    "E22": "bench_service_scenarios.py",
    "E23": "bench_live_monitoring.py",
    "E24": "bench_hetero_mapping.py",
    "A1": "bench_ablations.py",
    "A2": "bench_ablations.py",
    "A3": "bench_ablations.py",
    "A4": "bench_ablations.py",
    "A5": "bench_modes_cohabitation.py",
    "A6": "bench_modes_cohabitation.py",
    "A7": "bench_modes_cohabitation.py",
    "PERF": "bench_scalability.py",
}


def find_benchmarks_dir() -> Optional[pathlib.Path]:
    """Locate the benchmarks directory of a source checkout."""
    candidates = [
        pathlib.Path.cwd() / "benchmarks",
        # src/repro/experiments.py -> repo root / benchmarks
        pathlib.Path(__file__).resolve().parent.parent.parent / "benchmarks",
    ]
    for candidate in candidates:
        if candidate.is_dir() and any(candidate.glob("bench_*.py")):
            return candidate
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--list" in argv:
        for exp_id, filename in EXPERIMENTS.items():
            print(f"{exp_id:>5}  {filename}")
        return 0

    jobs: Optional[int] = None
    if "--jobs" in argv:
        position = argv.index("--jobs")
        try:
            jobs = int(argv[position + 1])
        except (IndexError, ValueError):
            print("error: --jobs requires an integer argument",
                  file=sys.stderr)
            return 2
        if jobs < 1:
            print("error: --jobs must be >= 1", file=sys.stderr)
            return 2
        del argv[position:position + 2]

    benchmarks = find_benchmarks_dir()
    if benchmarks is None:
        print("error: benchmarks/ not found — the experiment harness "
              "needs a source checkout of the repository.",
              file=sys.stderr)
        return 2

    selected = [arg for arg in argv if not arg.startswith("-")]
    unknown = [exp for exp in selected if exp not in EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiment id(s): {', '.join(unknown)} "
              f"(try --list)", file=sys.stderr)
        return 2
    if selected:
        files = sorted({EXPERIMENTS[exp] for exp in selected})
        targets = [str(benchmarks / name) for name in files]
    else:
        targets = [str(benchmarks)]

    command = [sys.executable, "-m", "pytest", *targets,
               "--benchmark-only", "-s", "-q"]
    env = dict(os.environ)
    if jobs is not None:
        env[JOBS_ENV] = str(jobs)
    print("+", " ".join(command))
    return subprocess.call(command, cwd=str(benchmarks.parent), env=env)


if __name__ == "__main__":
    raise SystemExit(main())
