"""Parallel deterministic fault campaigns over forked workers.

Fault-injection campaigns are embarrassingly parallel: every seeded run
is independent, deterministic, and communicates only through its final
metric dict and :class:`~repro.obs.metrics.RunReport`.  This module
splits the seeds of a :class:`~repro.faults.campaign.Campaign` into
chunks and forks one worker process per chunk, at most ``jobs`` alive
at a time.  A worker runs its seeds, sends the normalised
``(metrics, report)`` pairs back over its own pipe as one pickled
message, and exits.  The parent merges the chunks **in seed order**, so
the resulting :class:`CampaignResult` (``per_run``, ``reports``,
``aggregate()``) is identical to what the serial path produces.

Robustness shapes (the part that matters for long campaigns):

* **Per-seed timeout** — a worker still running ``timeout`` seconds
  per seed of its chunk (plus a short grace) after its start is
  terminated, and its seeds become structured
  ``{"seed": s, "campaign_error": "timeout: ..."}`` runs
  (``on_timeout="record"``, the default); under ``on_timeout="raise"``
  every worker is terminated and :class:`CampaignTimeoutError` raised.
* **Bounded retry on worker crash** — a worker that dies (OOM-killed,
  ``os._exit``) closes its pipe without sending.  Its chunk alone is
  re-run while ``retries`` lasts, then recorded as
  ``"worker crashed ..."`` error runs; no other chunk runs again.
* **Scenario exceptions** become structured error runs inside the
  worker (unlike the serial path, which propagates), so one bad seed
  cannot kill a 10k-seed campaign.

Workers are forked and not daemonic, so closures run in parallel too
and a seed may itself fork processes.  Without
the fork start method, and for ``jobs <= 1`` or a single seed, the
campaign runs serially in-process.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, Optional, Sequence

from repro.faults.campaign import (Campaign, CampaignResult, Scenario,
                                   normalise_outcome)

__all__ = ["CampaignTimeoutError", "run_parallel"]

#: Slack added to every chunk deadline, absorbing worker start latency.
_TIMEOUT_GRACE = 0.5


class CampaignTimeoutError(RuntimeError):
    """A seed exceeded the per-seed timeout under ``on_timeout="raise"``."""


def _run_chunk(conn, scenario: Scenario, seeds: Sequence[int]) -> None:
    """Worker body: run a contiguous chunk of seeds, send the runs.

    Scenario exceptions are contained per seed so the rest of the chunk
    still completes.  The runs go out in one ``send`` so a report
    embedded in its run's dict stays the same object after unpickling.
    """
    runs = []
    for seed in seeds:
        try:
            runs.append(normalise_outcome(scenario(seed), seed))
        except Exception as exc:  # contained: becomes a structured run
            runs.append(({"seed": seed, "campaign_error":
                          f"scenario raised {type(exc).__name__}: {exc}"},
                         None))
    try:
        conn.send(runs)
    except Exception as exc:  # e.g. an unpicklable metric value
        conn.send(f"worker failed ({type(exc).__name__}): {exc}")
    conn.close()


def run_parallel(scenario: Scenario, seeds: Sequence[int], jobs: int,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 chunk_size: Optional[int] = None,
                 on_timeout: str = "record") -> CampaignResult:
    """Run a campaign's seeds across at most ``jobs`` forked workers.

    Returns a :class:`CampaignResult` identical to
    ``Campaign(scenario, seeds).run()`` for deterministic scenarios —
    per-run dicts in seed order, reports in seed order, byte-identical
    ``aggregate().to_dict()``.

    ``timeout`` is wall-clock seconds *per seed*, counted from the
    start of the chunk's worker; ``on_timeout`` is ``"record"``
    (terminate that worker, record structured error runs, continue) or
    ``"raise"`` (terminate every worker and raise
    :class:`CampaignTimeoutError`).  ``retries`` bounds re-runs of a
    chunk whose worker process crashed.  ``chunk_size`` defaults to 1
    when a timeout is set (per-seed kill granularity), else to
    ``ceil(len(seeds) / (jobs * 4))`` for few forks.
    """
    if on_timeout not in ("record", "raise"):
        raise ValueError(f"unknown on_timeout policy {on_timeout!r}")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    import multiprocessing
    from multiprocessing.connection import wait

    seeds = list(seeds)
    if (jobs <= 1 or len(seeds) <= 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return Campaign(scenario, seeds).run()
    ctx = multiprocessing.get_context("fork")

    if chunk_size is None:
        chunk_size = (1 if timeout is not None
                      else max(1, math.ceil(len(seeds) / (jobs * 4))))
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunks = [seeds[i:i + chunk_size]
              for i in range(0, len(seeds), chunk_size)]

    # chunk index -> list of (metrics, report), or an error string for
    # the whole chunk.  Chunks to start form a stack, so a crashed
    # chunk's retry starts next.
    outcomes: Dict[int, Any] = {}
    to_start = [(index, retries) for index in reversed(range(len(chunks)))]
    # reader end of a worker's pipe -> (chunk index, retries left,
    # process, deadline)
    running: Dict[Any, tuple] = {}
    try:
        while to_start or running:
            while to_start and len(running) < jobs:
                index, budget = to_start.pop()
                reader, writer = ctx.Pipe(duplex=False)
                process = ctx.Process(target=_run_chunk,
                                      args=(writer, scenario, chunks[index]))
                process.start()
                writer.close()
                limit = (math.inf if timeout is None
                         else timeout * len(chunks[index]) + _TIMEOUT_GRACE)
                running[reader] = (index, budget, process,
                                   time.monotonic() + limit)

            earliest = min(entry[3] for entry in running.values())
            wait_for = (None if earliest == math.inf
                        else max(0.0, earliest - time.monotonic()))
            for reader in wait(list(running), timeout=wait_for):
                index, budget, process, _deadline = running.pop(reader)
                try:
                    outcome = reader.recv()
                except EOFError:  # died without sending: a crash
                    outcome = None
                reader.close()
                process.join()
                if outcome is not None:
                    outcomes[index] = outcome
                elif budget > 0:
                    to_start.append((index, budget - 1))
                else:
                    outcomes[index] = (f"worker crashed (exit code "
                                       f"{process.exitcode})")

            now = time.monotonic()
            for reader, (index, _budget, process, deadline) in list(
                    running.items()):
                if now < deadline:
                    continue
                if on_timeout == "raise":
                    raise CampaignTimeoutError(
                        f"seeds {chunks[index]} exceeded the per-seed "
                        f"timeout of {timeout}s")
                del running[reader]
                process.terminate()
                process.join()
                reader.close()
                outcomes[index] = (f"timeout: exceeded {timeout}s per seed; "
                                   f"worker killed")
    finally:
        for reader, (_index, _budget, process, _deadline) in running.items():
            process.terminate()
            process.join()
            reader.close()

    result = CampaignResult(runs=len(seeds))
    for index, chunk in enumerate(chunks):
        outcome = outcomes[index]
        if isinstance(outcome, str):  # whole-chunk failure
            outcome = [({"seed": seed, "campaign_error": outcome}, None)
                       for seed in chunk]
        for metrics, report in outcome:
            result.per_run.append(metrics)
            if report is not None:
                result.reports.append(report)
    return result
