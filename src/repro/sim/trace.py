"""Timestamped execution tracing.

Every HADES subsystem records what it does through a shared
:class:`Tracer`.  Traces drive the monitoring benchmarks (experiment E9)
and the invariant checks in the test suite: rather than trusting the
dispatcher's own bookkeeping, tests replay the trace and verify the
paper's runnable/running rules against it.

The tracer scales to long runs in these ways:

* **Deferred formatting** — :meth:`record` stores the raw fields of a
  slotted :class:`TraceRecord`; all string interpolation (human dump,
  JSONL encoding) happens at render/export time, never on the hot path.
* **One storage path** — :meth:`emit` stores every record.
  :meth:`record` takes the details as keywords, snapshots any plain
  container among them, and ends in :meth:`emit`.  A hot record site
  calls :meth:`emit` itself with a dict literal made for the call and
  holding only scalars: the dict becomes the record's payload as is,
  with no keyword re-packing and no snapshot loop.  Filter, clock,
  ring buffer, listeners and return value are the same either way,
  and so are the exported bytes.
* **Category filtering** — ``Tracer(categories={...})`` restricts
  recording to the named categories; a filtered call pays one frozenset
  membership test and returns ``None`` (``filtered`` counts the drops).
* **Bounded ring buffer** — ``Tracer(maxlen=...)`` keeps only the most
  recent records (post-mortem tail), dropping the oldest; ``dropped``
  counts evictions.
* **Per-key query buckets** — :meth:`select` and :meth:`count` with a
  category run over a bucket holding the records of that (category,
  event) key, or of the whole category when ``event`` is ``None``.  A
  key's first query scans the held records once; each later query
  scans only the records appended since (the bucket's watermark), so
  from then on queries are O(matching records), not O(trace length).
  :meth:`record` does no index work at all, and buckets exist only for
  keys that were queried.
* **Time windows** — ``select(..., t_min=..., t_max=...)`` restricts a
  query to a window of simulated time.  With a category filter the
  window runs over the key's bucket; on the common monotone
  (clock-bound) trace it is found by binary search, so scoping a
  deadline miss to its busy period costs O(log n), plus the records
  returned.

**Streaming JSONL export** — :meth:`Tracer.stream_jsonl` writes records
to disk as they are emitted, so a bounded tracer still produces a
complete on-disk trace.  Streaming and category filtering compose the
obvious way: a record dropped by ``categories=`` is never created, so
it never reaches any stream either — the stream sees exactly what
:meth:`record` returns.  Pass ``footer=True`` to append a final
metadata line counting what the stream did (and did not) capture.
:func:`read_jsonl` is the one decoder of that format: :func:`load_trace`
and the ``repro.obs`` consumers read trace files through it.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)


class TraceRecord:
    """One timestamped fact about the execution.

    ``category`` is a coarse subsystem tag (``"dispatcher"``,
    ``"kernel"``, ``"network"``, ...), ``event`` the specific occurrence
    (``"thread_start"``, ``"deadline_miss"``, ...), and ``details`` a
    free-form payload.

    Records are created on the simulation hot path, so the class is
    slotted and its constructor does nothing but store the four fields
    (it is a tuple with names, not a dataclass).  Treat instances as
    immutable; formatting is deferred to :meth:`__str__` and the JSONL
    exporters.
    """

    __slots__ = ("time", "category", "event", "details")

    def __init__(self, time: int, category: str, event: str,
                 details: Optional[Dict[str, Any]] = None):
        self.time = time
        self.category = category
        self.event = event
        self.details = {} if details is None else details

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is TraceRecord:
            return (self.time == other.time
                    and self.category == other.category
                    and self.event == other.event
                    and self.details == other.details)
        return NotImplemented

    __hash__ = None  # mutable payload, like the frozen-dataclass-with-dict

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, "
                f"category={self.category!r}, event={self.event!r}, "
                f"details={self.details!r})")

    def __str__(self) -> str:
        payload = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.time:>10d}] {self.category}/{self.event} {payload}"


#: Detail value types that are snapshotted on record() so that later
#: caller-side mutation cannot rewrite already-recorded history.
_MUTABLE_CONTAINERS = frozenset((list, dict, set, tuple))


def snapshot(value: Any) -> Any:
    """Recursively copy plain containers; scalars pass through.

    :meth:`Tracer.record` applies it to every container detail; a site
    that calls :meth:`Tracer.emit` applies it to any container it does
    not own.

    Only exact ``list``/``dict``/``set``/``tuple`` instances are
    copied — exotic subclasses and arbitrary objects are stored as
    given (they are stringified at export time anyway).
    """
    t = type(value)
    if t is list:
        return [snapshot(item) for item in value]
    if t is dict:
        return {key: snapshot(item) for key, item in value.items()}
    if t is tuple:
        return tuple(snapshot(item) for item in value)
    if t is set:
        return {snapshot(item) for item in value}
    return value


def _jsonable(value: Any) -> Any:
    """Map a detail value to a JSON-faithful equivalent.

    int/float/bool/str/None pass through; lists/tuples and dicts recurse
    (tuples become lists — JSON has no tuple); anything else is
    stringified *explicitly* here, not silently by ``json.dumps``, so a
    saved trace reloads with the same typed values it was saved with.
    """
    if value is None or type(value) in (bool, int, float, str):
        return value
    if isinstance(value, bool):  # bool subclasses handled before int
        return bool(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


def _record_to_json(entry: TraceRecord) -> str:
    return json.dumps({
        "time": entry.time,
        "category": entry.category,
        "event": entry.event,
        "details": {key: _jsonable(value)
                    for key, value in entry.details.items()},
    })


class JsonlStream:
    """Streams records to a JSON-lines file as they are emitted.

    Created by :meth:`Tracer.stream_jsonl`; usable as a context manager.
    Closing detaches the stream from the tracer and closes the file.

    A stream only sees records the tracer actually creates: a record
    dropped by the tracer's ``categories=`` filter never reaches the
    stream (it is counted in :attr:`filtered` instead), and ring-buffer
    eviction is irrelevant here — eviction happens *after* streaming,
    so a bounded tracer still streams everything it recorded.  The
    :attr:`filtered` / :attr:`dropped` properties count what happened
    *while this stream was attached*; with ``footer=True`` they are
    also written as a final ``{"footer": ...}`` metadata line on close
    (skipped by :func:`load_trace`).
    """

    def __init__(self, tracer: "Tracer", path: str, footer: bool = False):
        self.tracer = tracer
        self.path = path
        self.footer = footer
        self.written = 0
        self._filtered_at_open = tracer.filtered
        self._dropped_at_open = tracer.dropped
        self._handle: Optional[IO[str]] = open(path, "w")
        tracer.subscribe(self._on_record)

    @property
    def filtered(self) -> int:
        """Records the category filter dropped while streaming (they
        were never recorded, hence never written)."""
        return self.tracer.filtered - self._filtered_at_open

    @property
    def dropped(self) -> int:
        """Ring-buffer evictions while streaming (already written —
        eviction only affects the in-memory tail)."""
        return self.tracer.dropped - self._dropped_at_open

    def _on_record(self, entry: TraceRecord) -> None:
        if self._handle is not None:
            self._handle.write(_record_to_json(entry))
            self._handle.write("\n")
            self.written += 1

    def close(self) -> None:
        """Stop streaming and close the underlying file (idempotent).

        With ``footer=True`` a final metadata line is appended first:
        ``{"footer": {"written": ..., "filtered": ..., "dropped": ...,
        "categories": ...}}``.
        """
        if self._handle is None:
            return
        self.tracer.unsubscribe(self._on_record)
        if self.footer:
            categories = self.tracer.categories
            self._handle.write(json.dumps({"footer": {
                "written": self.written,
                "filtered": self.filtered,
                "dropped": self.dropped,
                "categories": (None if categories is None
                               else sorted(categories)),
            }}))
            self._handle.write("\n")
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "JsonlStream":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class _Bucket:
    """The held records of one query key, in emission order.

    ``seqs``, ``times`` and ``records`` are parallel lists: a record's
    sequence number (its position in the whole emission history), its
    time and the record itself.  Eviction pruning bisects ``seqs`` and
    window queries bisect ``times``.  ``watermark`` is the sequence
    number of the first record this key has not scanned yet.
    """

    __slots__ = ("seqs", "times", "records", "watermark")

    def __init__(self) -> None:
        self.seqs: List[int] = []
        self.times: List[int] = []
        self.records: List[TraceRecord] = []
        self.watermark = 0


def _scan(records: Iterable[TraceRecord], category: Optional[str],
          event: Optional[str], t_min: Optional[int], t_max: Optional[int],
          details: Dict[str, Any]) -> List[TraceRecord]:
    """The records that pass every given filter, by one linear pass."""
    found = []
    for entry in records:
        if category is not None and entry.category != category:
            continue
        if event is not None and entry.event != event:
            continue
        if t_min is not None and entry.time < t_min:
            continue
        if t_max is not None and entry.time > t_max:
            continue
        if details and any(entry.details.get(k) != v
                           for k, v in details.items()):
            continue
        found.append(entry)
    return found


def _window(times: List[int], t_min: Optional[int],
            t_max: Optional[int]) -> Tuple[int, int]:
    """Index range of the sorted ``times`` inside ``[t_min, t_max]``."""
    lo = 0 if t_min is None else bisect_left(times, t_min)
    hi = len(times) if t_max is None else bisect_right(times, t_max, lo)
    return lo, hi


class Tracer:
    """Collects :class:`TraceRecord` instances in emission order."""

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 maxlen: Optional[int] = None, index: bool = True,
                 categories: Optional[Iterable[str]] = None):
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self._records: Any = (deque(maxlen=maxlen) if maxlen is not None
                              else [])
        self.maxlen = maxlen
        self._clock = clock
        # Replaced, never mutated, by subscribe/unsubscribe, so record()
        # can iterate it while a listener (un)subscribes.
        self._listeners: Tuple[Callable[[TraceRecord], None], ...] = ()
        #: Records evicted by the ring buffer so far (also the sequence
        #: number of the oldest held record).
        self.dropped = 0
        #: Records dropped by the category filter so far.
        self.filtered = 0
        # None means "record everything"; otherwise a frozenset of the
        # categories kept.  Checked first in record() so a filtered
        # category costs one membership test, nothing else.
        self._categories: Optional[frozenset] = (
            None if categories is None else frozenset(categories))
        # Whether record times have been non-decreasing so far; lets
        # time-window queries binary-search a bucket.
        self._monotonic = True
        self._last_time: Optional[int] = None
        self._index_enabled = index
        # Lazily created on the first indexed query:  (category, event)
        # -> _Bucket, with event None for a whole-category bucket.
        self._by_cat_event: Optional[Dict[Tuple[str, Optional[str]],
                                          _Bucket]] = None

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Attach the time source used when ``record`` omits a time."""
        self._clock = clock

    @property
    def categories(self) -> Optional[frozenset]:
        """The category allow-list (``None`` records everything)."""
        return self._categories

    def set_categories(self,
                       categories: Optional[Iterable[str]]) -> "Tracer":
        """Restrict future recording to ``categories`` (``None`` = all).

        Already-held records are unaffected.  Returns the tracer, so the
        call chains off the constructor.
        """
        self._categories = (None if categories is None
                            else frozenset(categories))
        return self

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke ``listener`` synchronously for every new record.

        A listener subscribed while a record is being dispatched first
        sees the next record.
        """
        self._listeners = self._listeners + (listener,)

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Remove a previously subscribed listener (no-op if absent).

        Removal during dispatch does not disturb it: every listener
        subscribed when the record was emitted still sees that record.
        """
        listeners = list(self._listeners)
        try:
            listeners.remove(listener)
        except ValueError:
            return
        self._listeners = tuple(listeners)

    def record(self, category: str, event: str, time: Optional[int] = None,
               **details: Any) -> Optional[TraceRecord]:
        """Append a record; time defaults to the bound clock's now.

        Returns ``None`` (and counts in :attr:`filtered`) when
        ``category`` is excluded by the filter — the near-free path.

        Detail values that are plain containers (list/dict/set/tuple)
        are snapshotted at record time: mutating the caller's object
        afterwards does not rewrite the recorded history.  The record
        is then stored by :meth:`emit`.
        """
        allowed = self._categories
        if allowed is not None and category not in allowed:
            self.filtered += 1
            return None
        for key, value in details.items():
            if type(value) in _MUTABLE_CONTAINERS:
                details[key] = snapshot(value)
        return self.emit(category, event, details, time)

    def emit(self, category: str, event: str, details: Dict[str, Any],
             time: Optional[int] = None) -> Optional[TraceRecord]:
        """Append a record whose payload is ``details``, as given.

        The storage path of every record (:meth:`record` ends here).
        The tracer keeps ``details`` — and any container in it — as the
        record's payload without copying, so pass a dict made for this
        call and do not touch it afterwards.  Filter, clock, ring
        buffer, listeners and return value behave as in :meth:`record`.
        """
        allowed = self._categories
        if allowed is not None and category not in allowed:
            self.filtered += 1
            return None
        if time is None:
            if self._clock is None:
                raise RuntimeError("tracer has no bound clock")
            time = self._clock()
        last = self._last_time
        if last is not None and time < last:
            self._monotonic = False
        self._last_time = time
        entry = TraceRecord(time, category, event, details)
        if self.maxlen is not None and len(self._records) == self.maxlen:
            self.dropped += 1
        self._records.append(entry)
        if self._listeners:
            for listener in self._listeners:
                listener(entry)
        return entry

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        """All records in emission order (immutable view)."""
        return tuple(self._records)

    # -- indexed queries ----------------------------------------------------

    def _bucket(self, category: str, event: Optional[str]) -> _Bucket:
        """The key's bucket, caught up with every held record."""
        table = self._by_cat_event
        if table is None:
            table = self._by_cat_event = {}
        key = (category, event)
        bucket = table.get(key)
        if bucket is None:
            bucket = table[key] = _Bucket()
        held = self._records
        first = self.dropped              # sequence number of held[0]
        end = first + len(held)           # sequence number of the next record
        new = end - max(bucket.watermark, first)
        if new:
            if new == len(held):
                tail = held
            else:
                tail = list(islice(reversed(held), new))
                tail.reverse()
            seqs, times, records = bucket.seqs, bucket.times, bucket.records
            for seq, entry in enumerate(tail, end - new):
                if entry.category == category and (event is None
                                                   or entry.event == event):
                    seqs.append(seq)
                    times.append(entry.time)
                    records.append(entry)
            bucket.watermark = end
        seqs = bucket.seqs
        if seqs and seqs[0] < first:
            # Drop entries the ring buffer has evicted since.
            evicted = bisect_left(seqs, first)
            del seqs[:evicted], bucket.times[:evicted]
            del bucket.records[:evicted]
        return bucket

    def select(self, category: Optional[str] = None,
               event: Optional[str] = None,
               t_min: Optional[int] = None,
               t_max: Optional[int] = None,
               **details: Any) -> List[TraceRecord]:
        """Records matching the given category/event/detail filters.

        With a ``category`` filter this runs over the key's bucket —
        O(matching records) once the key has been queried; other shapes
        fall back to a linear scan.

        ``t_min``/``t_max`` bound the record times (both inclusive) —
        the forensics tooling uses this to scope a deadline miss to its
        busy period.  On a monotone trace (times never decreased, the
        normal clock-bound case) the bucket's window is found by binary
        search.
        """
        if category is None or not self._index_enabled:
            return _scan(self._records, category, event, t_min, t_max,
                         details)
        bucket = self._bucket(category, event)
        if not self._monotonic:
            return _scan(bucket.records, None, None, t_min, t_max, details)
        lo, hi = _window(bucket.times, t_min, t_max)
        rows = bucket.records[lo:hi]
        if details:
            rows = _scan(rows, None, None, None, None, details)
        return rows

    def count(self, category: Optional[str] = None,
              event: Optional[str] = None,
              t_min: Optional[int] = None,
              t_max: Optional[int] = None, **details: Any) -> int:
        """Current number of matching items."""
        if (category is not None and self._index_enabled and not details
                and (self._monotonic or (t_min is None and t_max is None))):
            lo, hi = _window(self._bucket(category, event).times,
                             t_min, t_max)
            return hi - lo
        return len(self.select(category, event, t_min=t_min, t_max=t_max,
                               **details))

    # -- rendering & export -------------------------------------------------

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of (the head of) the trace."""
        rows = (self._records if limit is None
                else islice(self._records, limit))
        return "\n".join(str(entry) for entry in rows)

    def to_jsonl(self, path: str) -> int:
        """Write the currently held records as JSON lines; returns the
        record count.

        The format round-trips through :func:`load_trace` type-faithfully
        for int/float/bool/str/list/dict detail values (tuples load as
        lists; other objects are stringified at write time).  A bounded
        tracer writes only what the ring buffer still holds — use
        :meth:`stream_jsonl` for a complete trace of a bounded run.
        """
        written = 0
        with open(path, "w") as handle:
            for entry in self._records:
                handle.write(_record_to_json(entry))
                handle.write("\n")
                written += 1
        return written

    def stream_jsonl(self, path: str, footer: bool = False) -> JsonlStream:
        """Stream every future record to ``path`` as JSON lines.

        Returns the :class:`JsonlStream` handle (a context manager);
        records already held are **not** written — open the stream
        before running the scenario.

        Category filtering composes with streaming: a record the
        tracer's ``categories=`` filter drops is never created, so it
        is not streamed either.  ``footer=True`` appends one final
        metadata line on close with the ``written``/``filtered``/
        ``dropped`` counters for the streaming window (see
        :class:`JsonlStream`); leave it off when the file must be
        byte-comparable to a :meth:`to_jsonl` batch export.
        """
        return JsonlStream(self, path, footer=footer)


def read_jsonl(path: str) -> Iterator[TraceRecord]:
    """Yield the records of a JSONL trace in file order.

    Reads what :meth:`Tracer.to_jsonl` and :meth:`Tracer.stream_jsonl`
    write; blank lines and metadata lines without a ``time`` (the
    stream ``footer``) are skipped.
    """
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            raw = json.loads(line)
            if "time" in raw:
                yield TraceRecord(raw["time"], raw["category"],
                                  raw["event"], raw.get("details"))


def load_trace(path: str, maxlen: Optional[int] = None) -> "Tracer":
    """Load a trace previously saved with :meth:`Tracer.to_jsonl` or
    :meth:`Tracer.stream_jsonl` (see :func:`read_jsonl`)."""
    tracer = Tracer(clock=lambda: 0, maxlen=maxlen)
    for entry in read_jsonl(path):
        tracer.emit(entry.category, entry.event, entry.details, entry.time)
    return tracer
