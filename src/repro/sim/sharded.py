"""Sharded conservative parallel simulation over T_network lookahead.

The paper's ``T_network`` layer guarantees every message a bounded
delivery delay — which is exactly the *lookahead* a conservative
(Chandy–Misra-style) parallel discrete-event simulation needs.  This
module partitions a :class:`~repro.system.HadesSystem`'s nodes into
shards, runs each shard's event loop in its own worker process, and
synchronizes the shards on the network's link bounds:

Lookahead
    ``L = min(base_latency)`` over every link crossing a shard
    boundary.  A shard at local time *t* cannot affect a peer before
    ``t + L`` — the link layer adds at least the base latency (plus
    size cost, jitter and fault delays, all non-negative) before any
    delivery, and FIFO push-back only moves deliveries later.

Barrier windows (the null-message protocol)
    The coordinator repeatedly computes ``T = min(earliest pending
    instant across all shards)`` — each shard's earliest-output-time
    report doubles as a null message, so an idle shard cannot deadlock
    its peers — and releases every shard to advance through the window
    ``[T, T + L - 1]``.  No event inside the window can send a message
    that *arrives* inside it (arrivals land at ``>= T + L``), so the
    windows of different shards are causally independent and may run
    concurrently.  After each window the coordinator routes the
    send-side delivery decisions (message, delivery instant, planned
    outcome — decided deterministically on the sender's replica,
    including jitter, fault and FIFO effects) to the destination
    shards, which replay them through their local replica link's
    normal delivery path.

Replicas and ownership
    Every worker rebuilds the *whole* system from the
    :meth:`~repro.system.HadesSystem.scripted` builder, then runs only
    its shard: foreign nodes are inert stand-ins (no task activations,
    no sends, no background activity, no fault events), so one
    shard-agnostic builder drives both the serial and the sharded run.
    Determinism carries over because every per-entity RNG is seeded by
    name (links) or pre-drawn in plan order (fault plans) and message
    ids are allocated per sender — allocation never depends on
    cross-shard interleaving.

Trace merging
    Each worker streams its JSONL trace with every line prefixed by
    the **global node rank** of the node the record is attributable to
    (``"<rank>\\t<json>"`` — rank = position of the node in the
    system's construction-order node list, resolved from the record's
    ``node``/``eu``/``task``/``link`` details).  The coordinator runs
    a head-based stable merge: it repeatedly pops the stream whose
    *head* record has the smallest ``(time, node_rank, shard_rank)``
    key and copies that line — tag stripped — verbatim.  Because only
    stream heads are compared, intra-shard emission order is never
    violated, and same-instant records from *different* shards come
    out in node-rank order.  Construction-time records (time 0) are
    emitted cell-major by scenario builders, i.e. grouped by ascending
    node rank within each shard, so the merge reproduces the serial
    engine's order even for **non-contiguous** cell partitions — the
    serial engine dispatches same-instant events in global push order,
    which at time 0 is exactly node-construction order.  Runtime
    records never collide across shards under the residue-class
    discipline the 24-seed harness in
    ``tests/test_sharded_determinism.py`` pins; scenarios that do
    collide keep a valid total order, just not necessarily the serial
    engine's intra-instant interleaving.  Untagged files (older
    exports) merge on the legacy ``(time, file_order, sequence)`` key.

Surface: ``HadesSystem.run(shards=N)`` or ``run(partition=[[...],
...])``; :func:`auto_partition` is the default min-cut-ish partitioner
(greedy agglomeration over the task co-location graph).  Workers are
forked, so closures in builders need no pickling; results come back as
:class:`~repro.obs.metrics.RunReport` dicts (``to_dict`` /
``from_dict``).
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
import time as _wall
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.network.link import DeliveryOutcome
from repro.obs.metrics import RunReport
from repro.sim.engine import SimulationError
from repro.sim.trace import TraceRecord, _record_to_json, read_jsonl

__all__ = ["ShardRunResult", "auto_partition", "colocation_weights",
           "make_rank_resolver", "merge_shard_traces", "run_sharded"]

#: Co-location weight added per task whose EUs span a node pair: far
#: above any traffic weight, so the greedy partitioner merges those
#: nodes first (a task split across shards cannot run at all).
COLOCATION_WEIGHT = 1_000_000


@dataclass
class ShardRunResult:
    """Outcome of one sharded run."""

    #: The node groups actually used, in shard-rank order.
    partition: List[List[str]]
    #: Conservative lookahead (min cross-shard base latency), or
    #: ``None`` for the degenerate single-shard run.
    lookahead: Optional[int]
    #: Synchronization windows executed.
    windows: int
    #: Cross-shard deliveries shipped between workers.
    messages: int
    #: Per-shard metric reports, in shard-rank order.
    reports: List[Any] = field(default_factory=list)
    #: Path of the merged JSONL trace (``None`` for single-shard runs,
    #: whose trace stays in the system tracer as usual).
    trace_path: Optional[str] = None
    #: Final simulated time (mirrors the serial run's ``sim.now``).
    sim_time: int = 0
    #: Path of the per-barrier-window coordinator introspection sidecar
    #: (``coordinator.jsonl``; ``None`` for single-shard runs).  One
    #: JSON line per window: start/bound instants, shipped messages,
    #: and per-shard stall/null/outbox figures.  Wall-clock stalls are
    #: inherently nondeterministic, which is why this lives in a
    #: sidecar and never in the merged trace.
    coordinator_path: Optional[str] = None
    #: Per-shard coordinator totals, in shard-rank order: dicts with
    #: ``windows``, ``stall_us`` (wall-clock µs the coordinator spent
    #: blocked on this shard's barrier replies), ``null_replies``
    #: (windows where the shard shipped nothing — pure null messages),
    #: ``messages_out`` and ``bytes_out`` (cross-shard traffic volume).
    shard_stats: List[Dict[str, int]] = field(default_factory=list)

    def counter_totals(self) -> Dict[str, int]:
        """Every metric counter summed across shards.

        Each simulated occurrence is counted on exactly one shard
        (sends and drops on the sender's, deliveries on the
        receiver's), so domain totals (``network.*``, ``dispatcher.*``,
        ...) equal a serial run's counters.  The ``engine.*`` event-loop
        counters are per-process bookkeeping — injected-delivery
        callbacks and replica scheduling inflate them — and are not
        comparable to a serial run.
        """
        totals: Dict[str, int] = {}
        for report in self.reports:
            for name, value in report.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals


# --------------------------------------------------------------------------
# Partitioning
# --------------------------------------------------------------------------

def colocation_weights(dispatcher) -> Dict[Tuple[str, str], int]:
    """Node-pair weights from the dispatcher's registered tasks.

    Every task contributes :data:`COLOCATION_WEIGHT` per pair of
    distinct nodes it touches (its nodes *must* share a shard) plus one
    unit per remote precedence edge (traffic proportionality between
    already-feasible cuts).
    """
    weights: Dict[Tuple[str, str], int] = {}

    def bump(a: str, b: str, amount: int) -> None:
        pair = (a, b) if a < b else (b, a)
        weights[pair] = weights.get(pair, 0) + amount

    for name in sorted(dispatcher.known_tasks):
        task = dispatcher.known_tasks[name]
        nodes = sorted({task.node_of(eu) for eu in task.eus} - {None})
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                bump(nodes[i], nodes[j], COLOCATION_WEIGHT)
        for edge in task.edges:
            src_node = task.node_of(edge.src)
            dst_node = task.node_of(edge.dst)
            if (src_node is not None and dst_node is not None
                    and src_node != dst_node):
                bump(src_node, dst_node, 1)
    return weights


def auto_partition(node_ids: Sequence[str], shards: int,
                   weights: Optional[Dict[Tuple[str, str], int]] = None,
                   ) -> List[List[str]]:
    """Partition ``node_ids`` into at most ``shards`` balanced groups.

    Min-cut-ish greedy agglomeration: heaviest edges first, two groups
    merge while the merged size stays within the balanced cap
    ``ceil(n / shards)``; the resulting groups are then packed onto
    shards by descending size (least-loaded shard first).  Fully
    deterministic — ties break on node order — and with no weights it
    degenerates to contiguous balanced chunks.
    """
    node_ids = list(node_ids)
    n = len(node_ids)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n)
    if shards <= 1:
        return [node_ids] if node_ids else []
    if not weights:
        base, extra = divmod(n, shards)
        out, i = [], 0
        for k in range(shards):
            step = base + (1 if k < extra else 0)
            out.append(node_ids[i:i + step])
            i += step
        return [group for group in out if group]

    index = {nid: i for i, nid in enumerate(node_ids)}
    cap = -(-n // shards)  # ceil: the balanced group-size cap
    parent = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = sorted(
        ((-w, min(index[a], index[b]), max(index[a], index[b]))
         for (a, b), w in weights.items()
         if a in index and b in index and a != b))
    for neg_w, ia, ib in edges:
        ra, rb = find(ia), find(ib)
        if ra == rb:
            continue
        if size[ra] + size[rb] <= cap:
            # Deterministic union: lower root wins.
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
            size[lo] += size[hi]
        elif -neg_w >= COLOCATION_WEIGHT:
            raise ValueError(
                f"cannot partition into {shards} shards: co-located "
                f"nodes {node_ids[ia]!r} and {node_ids[ib]!r} would "
                f"overflow the balanced shard size {cap}")

    groups: Dict[int, List[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # Pack groups (largest first, ties by first node) onto the least
    # loaded shard (ties by shard index).
    ordered = sorted(groups.values(), key=lambda g: (-len(g), g[0]))
    bins: List[List[int]] = [[] for _ in range(shards)]
    for group in ordered:
        target = min(range(shards), key=lambda k: (len(bins[k]), k))
        bins[target].extend(group)
    out = [sorted(b) for b in bins if b]
    out.sort(key=lambda g: g[0])
    return [[node_ids[i] for i in group] for group in out]


# --------------------------------------------------------------------------
# Node-rank attribution & trace merging
# --------------------------------------------------------------------------

def make_rank_resolver(system) -> Callable[[TraceRecord], int]:
    """Map a trace record to the global rank of the node it concerns.

    The rank is the node's position in the system's construction-order
    node list — identical in every shard replica (replicas build the
    *whole* node set), so tags computed independently per worker agree
    globally.  Resolution order: an explicit ``node`` detail, the link
    endpoint this shard owns (``send``/``drop`` → source, deliveries →
    destination), then the task named by ``eu`` / ``activation_id`` /
    ``task`` (tasks never span shards, so the task's minimum node rank
    stays inside the right shard), finally the shard's lowest owned
    rank (process-global records like mode switches).
    """
    rank: Dict[str, int] = {nid: i for i, nid in enumerate(system.nodes)}
    if system.owned_nodes:
        fallback = min(rank[nid] for nid in system.owned_nodes)
    else:
        fallback = 0
    known = system.dispatcher.known_tasks
    task_cache: Dict[str, int] = {}

    def task_rank(name: str) -> int:
        cached = task_cache.get(name)
        if cached is not None:
            return cached
        task = known.get(name)
        resolved = fallback
        if task is not None:
            ranks = [rank[node] for node in
                     {task.node_of(eu) for eu in task.eus}
                     if node in rank]
            if ranks:
                resolved = min(ranks)
        task_cache[name] = resolved
        return resolved

    def resolve(entry: TraceRecord) -> int:
        details = entry.details
        node = details.get("node")
        if node is not None:
            found = rank.get(node)
            if found is not None:
                return found
        link = details.get("link")
        if link is not None:
            src, _, dst = str(link).partition("->")
            found = rank.get(src if entry.event in ("send", "drop")
                             else dst)
            if found is not None:
                return found
        eu = details.get("eu")
        if eu:
            return task_rank(str(eu).partition("#")[0])
        activation_id = details.get("activation_id")
        if activation_id:
            return task_rank(str(activation_id).partition("#")[0])
        task = details.get("task")
        if task:
            return task_rank(str(task))
        return fallback

    return resolve


class _TaggedTraceStream:
    """Streams rank-tagged JSONL (``"<rank>\\t<json>"``) to a file.

    The worker-side counterpart of :func:`merge_shard_traces`: the tag
    lets the coordinator order same-instant records from different
    shards by global node rank instead of by shard rank, which is what
    makes non-contiguous partitions byte-identical to serial runs.
    """

    def __init__(self, system, path: str):
        self._resolve = make_rank_resolver(system)
        self._handle = open(path, "w")
        self._tracer = system.tracer
        self._tracer.subscribe(self._on_record)

    def _on_record(self, entry: TraceRecord) -> None:
        self._handle.write(f"{self._resolve(entry)}\t"
                           f"{_record_to_json(entry)}\n")

    def close(self) -> None:
        self._tracer.unsubscribe(self._on_record)
        self._handle.close()


_TIME_PREFIX = '{"time": '


def _parse_time(payload: str) -> int:
    plen = len(_TIME_PREFIX)
    if payload.startswith(_TIME_PREFIX):
        try:
            return int(payload[plen:payload.index(",", plen)])
        except ValueError:
            pass
    return json.loads(payload)["time"]


def _tagged_entries(handle, fallback_rank: int,
                    ) -> Iterator[Tuple[int, int, str]]:
    """Yield ``(time, node_rank, json_line)`` from one shard stream.

    Tagged lines (``"<rank>\\t<json>"``) carry their own node rank;
    untagged lines — legacy per-shard exports — fall back to the
    stream's file order, reproducing the historical ``(time,
    shard_rank, sequence)`` merge key.
    """
    for line in handle:
        tag, sep, payload = line.partition("\t")
        if sep and tag.isdigit():
            yield (_parse_time(payload), int(tag), payload)
        else:
            yield (_parse_time(line), fallback_rank, line)


def merge_shard_traces(paths: Sequence[str], out_path: str) -> int:
    """Merge per-shard JSONL traces into one global, untagged trace.

    Head-based stable merge: a heap tracks each stream's *head* record
    under the key ``(time, node_rank, shard_rank)``; the minimum head
    is copied (tag stripped) and its stream advanced.  Comparing only
    heads preserves each shard's emission order unconditionally, while
    same-instant records from different shards interleave by global
    node rank — the serial engine's order for construction-time
    records even under non-contiguous partitions (see the module
    docstring).  Output lines are byte-identical to a serial
    ``Tracer.to_jsonl`` export.  Returns the number of records written.
    """
    written = 0
    with ExitStack() as stack:
        out = stack.enter_context(open(out_path, "w"))
        streams = [_tagged_entries(stack.enter_context(open(path)), rank)
                   for rank, path in enumerate(paths)]
        heap: List[Tuple[int, int, int, str]] = []
        for rank, stream in enumerate(streams):
            head = next(stream, None)
            if head is not None:
                time, node_rank, line = head
                heap.append((time, node_rank, rank, line))
        heapq.heapify(heap)
        while heap:
            _time, _node_rank, rank, line = heapq.heappop(heap)
            out.write(line)
            written += 1
            head = next(streams[rank], None)
            if head is not None:
                time, node_rank, line = head
                heapq.heappush(heap, (time, node_rank, rank, line))
    return written


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

def _worker_main(conn, rank: int, owned: List[str], builder,
                 kwargs: Dict[str, Any], trace_path: str) -> None:
    """One shard's process: build the replica, serve advance commands.

    Protocol (coordinator -> worker / worker -> coordinator):

    * ``("ready", next_time)`` after construction.
    * ``("advance", bound, injections)`` -> run to ``bound`` after
      scheduling the injected cross-shard deliveries; reply
      ``("at", next_time, outbox)`` with the drained send-side
      decisions for other shards.
    * ``("finish",)`` -> close the trace stream, reply
      ``("done", report_dict, now)`` and exit.

    Any exception is reported as ``("error", text)``.
    """
    from repro.system import HadesSystem

    try:
        system = HadesSystem(owned_nodes=owned, **kwargs)
        stream = _TaggedTraceStream(system, trace_path)
        builder(system)
        conn.send(("ready", system.sim.next_event_time()))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "advance":
                _op, bound, injections = command
                for message, deliver_at, outcome_value in injections:
                    system.network.inject_delivery(
                        message, deliver_at,
                        DeliveryOutcome(outcome_value))
                system.sim.run(until=bound)
                outbox = system.network.drain_shard_outbox()
                conn.send(("at", system.sim.next_event_time(), outbox))
            elif op == "finish":
                stream.close()
                report = system.run_report(shard=rank)
                conn.send(("done", report.to_dict(),
                           system.sim.now))
                return
            else:
                raise RuntimeError(f"unknown shard command {op!r}")
    except BaseException as exc:  # report, never hang the coordinator
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


# --------------------------------------------------------------------------
# Coordinator
# --------------------------------------------------------------------------

def _validate_partition(partition: Sequence[Sequence[str]],
                        node_ids: Sequence[str]) -> List[List[str]]:
    plan = [list(group) for group in partition]
    flat = [nid for group in plan for nid in group]
    if any(not group for group in plan):
        raise ValueError("partition groups must be non-empty")
    if len(flat) != len(set(flat)):
        raise ValueError("partition groups overlap")
    if set(flat) != set(node_ids):
        missing = sorted(set(node_ids) - set(flat))
        extra = sorted(set(flat) - set(node_ids))
        raise ValueError(
            f"partition must cover the node set exactly "
            f"(missing {missing}, unknown {extra})")
    return plan


def run_sharded(system, until: Optional[int] = None,
                shards: Optional[int] = None,
                partition: Optional[Sequence[Sequence[str]]] = None,
                trace_dir: Optional[str] = None) -> ShardRunResult:
    """Execute ``system``'s scripted scenario across shard processes.

    Called through :meth:`HadesSystem.run(shards=N) <repro.system.
    HadesSystem.run>`.  On return the merged trace has been loaded
    back into ``system.tracer`` (and ``system.sim.now`` advanced), so
    post-hoc analyses — span reconstruction, forensics, JSONL export —
    see the same record stream a serial run would have left.  The
    system itself is *finished*: its own event loop never ran, so it
    cannot be resumed with another ``run()``.

    With ``until=None`` the run ends when every shard is quiescent;
    the final clock then sits at the last barrier bound, which may
    exceed the serial run's last-event instant by up to
    ``lookahead - 1`` (the trace itself is unaffected).
    """
    if system._builder is None:
        raise SimulationError(
            "run(shards=N) needs a replayable scenario; build the "
            "system with HadesSystem.scripted(builder, ...)")
    if system.owned_nodes is not None:
        raise SimulationError("cannot shard a shard replica")
    if system.sim.now != 0 or len(system.tracer):
        raise SimulationError(
            "sharded runs must start from a fresh system (time 0, "
            "empty trace)")
    node_ids = list(system.nodes)
    if partition is not None:
        plan = _validate_partition(partition, node_ids)
        if shards is not None and shards != len(plan):
            raise ValueError(
                f"shards={shards} contradicts the explicit partition "
                f"of {len(plan)} groups")
    else:
        if shards is None:
            raise ValueError("pass shards=N or an explicit partition=")
        plan = auto_partition(node_ids, shards,
                              colocation_weights(system.dispatcher))

    if len(plan) <= 1:
        # Degenerate case: nothing to parallelize.
        system.sim.run(until=until)
        return ShardRunResult(partition=plan, lookahead=None, windows=0,
                              messages=0,
                              reports=[system.run_report(shard=0)],
                              sim_time=system.sim.now)

    owner = {nid: rank for rank, group in enumerate(plan)
             for nid in group}
    lookahead = system.network.min_cross_base_latency(owner)
    if lookahead is None or lookahead < 1:
        raise SimulationError(
            f"conservative sharding needs every cross-shard link to "
            f"have base_latency >= 1 (derived lookahead: {lookahead})")

    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise SimulationError(
            "sharded execution requires the fork start method "
            "(POSIX); run serially on this platform") from exc

    kwargs = dict(system._scripted_kwargs or {})
    # Overwrite everything RunOptions owns with the parent's resolved
    # bundle: pins the backend so workers cannot re-resolve differently
    # (e.g. if the environment changed after construction).
    kwargs.update(system.options.to_kwargs())

    if trace_dir is None:
        trace_dir = tempfile.mkdtemp(prefix="repro-shards-")
    else:
        os.makedirs(trace_dir, exist_ok=True)
    shard_paths = [os.path.join(trace_dir, f"shard{rank}.jsonl")
                   for rank in range(len(plan))]
    coordinator_path = os.path.join(trace_dir, "coordinator.jsonl")
    coordinator_log = open(coordinator_path, "w")

    conns, procs = [], []
    try:
        for rank, group in enumerate(plan):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, rank, group, system._builder, kwargs,
                      shard_paths[rank]),
                daemon=True)
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        def receive(rank: int):
            try:
                reply = conns[rank].recv()
            except EOFError:
                raise SimulationError(
                    f"shard {rank} (nodes {plan[rank]}) died "
                    f"unexpectedly") from None
            if reply[0] == "error":
                raise SimulationError(f"shard {rank} failed: {reply[1]}")
            return reply

        worker_next: List[Optional[int]] = []
        for rank in range(len(plan)):
            _tag, next_time = receive(rank)
            worker_next.append(next_time)

        inbox: List[List[Tuple[Any, int, str]]] = [[] for _ in plan]
        windows = 0
        shipped = 0
        # Per-barrier-window introspection: where does sharded
        # wall-clock go?  ``stall_us`` is the wall time the coordinator
        # spent blocked on each shard's barrier reply (replies are
        # collected in rank order, so each shard is charged only the
        # wait *beyond* the previous reply); a ``null`` reply shipped
        # no cross-shard messages — the shard's earliest-output report
        # acted as a pure null message.
        shard_stats = [{"windows": 0, "stall_us": 0, "null_replies": 0,
                        "messages_out": 0, "bytes_out": 0} for _ in plan]
        while True:
            earliest: Optional[int] = None
            for rank in range(len(plan)):
                candidate = worker_next[rank]
                for _message, deliver_at, _outcome in inbox[rank]:
                    if candidate is None or deliver_at < candidate:
                        candidate = deliver_at
                if candidate is not None and (earliest is None
                                              or candidate < earliest):
                    earliest = candidate
            if earliest is None or (until is not None
                                    and earliest > until):
                break
            bound = earliest + lookahead - 1
            if until is not None and bound > until:
                bound = until
            for rank in range(len(plan)):
                conns[rank].send(("advance", bound, inbox[rank]))
                inbox[rank] = []
            window_rows = []
            window_shipped = 0
            last_reply = _wall.perf_counter()
            for rank in range(len(plan)):
                _tag, next_time, outbox = receive(rank)
                now_wall = _wall.perf_counter()
                stall_us = int((now_wall - last_reply) * 1_000_000)
                last_reply = now_wall
                worker_next[rank] = next_time
                bytes_out = 0
                for message, deliver_at, outcome_value in outbox:
                    inbox[owner[message.dst]].append(
                        (message, deliver_at, outcome_value))
                    shipped += 1
                    window_shipped += 1
                    bytes_out += getattr(message, "size", 0) or 0
                stats = shard_stats[rank]
                stats["windows"] += 1
                stats["stall_us"] += stall_us
                stats["messages_out"] += len(outbox)
                stats["bytes_out"] += bytes_out
                if not outbox:
                    stats["null_replies"] += 1
                window_rows.append({"rank": rank, "next": next_time,
                                    "out": len(outbox),
                                    "bytes": bytes_out,
                                    "stall_us": stall_us})
            coordinator_log.write(json.dumps(
                {"window": windows, "start": earliest, "bound": bound,
                 "shipped": window_shipped, "shards": window_rows}) + "\n")
            windows += 1

        if until is not None:
            # Mirror the serial run's final clock advance to the bound
            # (events beyond it — including not-yet-due cross-shard
            # deliveries — stay pending, exactly as in a serial run).
            for rank in range(len(plan)):
                conns[rank].send(("advance", until, inbox[rank]))
                inbox[rank] = []
            for rank in range(len(plan)):
                _tag, next_time, _outbox = receive(rank)
                worker_next[rank] = next_time

        reports = []
        final_time = 0 if until is None else until
        for rank in range(len(plan)):
            conns[rank].send(("finish",))
            _tag, report_dict, worker_now = receive(rank)
            reports.append(RunReport.from_dict(report_dict))
            if until is None and worker_now > final_time:
                final_time = worker_now
        for proc in procs:
            proc.join(timeout=30)
    finally:
        coordinator_log.close()
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()

    merged_path = os.path.join(trace_dir, "merged.jsonl")
    record_count = merge_shard_traces(shard_paths, merged_path)

    # Load the merged stream back into the parent tracer so post-hoc
    # analyses see the global record sequence.
    tracer = system.tracer
    for entry in read_jsonl(merged_path):
        tracer.record(entry.category, entry.event, time=entry.time,
                      **entry.details)
    system.sim.now = final_time

    result = ShardRunResult(partition=plan, lookahead=lookahead,
                            windows=windows, messages=shipped,
                            reports=reports, trace_path=merged_path,
                            sim_time=final_time,
                            coordinator_path=coordinator_path,
                            shard_stats=shard_stats)
    assert record_count == len(tracer) or tracer.maxlen is not None
    return result
