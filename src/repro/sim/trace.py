"""Timestamped execution tracing.

Every HADES subsystem records what it does through a shared
:class:`Tracer`.  Traces drive the monitoring benchmarks (experiment E9)
and the invariant checks in the test suite: rather than trusting the
dispatcher's own bookkeeping, tests replay the trace and verify the
paper's runnable/running rules against it.

The tracer scales to long runs in these ways:

* **Deferred formatting** — a record stores the raw fields; all string
  interpolation (human dump, JSONL encoding) happens at render/export
  time, never on the hot path.
* **One record class** — every record is one slotted
  :class:`TraceRecord` holding ``time``, ``category``, ``event``, its
  :class:`Layout` and one slot per field, with no details dict.
  :data:`LAYOUTS` declares the fields of every key a site writes, in
  the order the site passes them; a key with optional trailing fields
  declares one layout per variant, and a key it does not declare gets
  a layout on first use.  A record's ``details`` is a fresh dict built
  in declared order each time it is read; consumers that read every
  record call :meth:`TraceRecord.get` or read the slots, which builds
  nothing.
* **One frame per record** — :meth:`Tracer._store` keeps every record:
  it applies the ring buffer and calls the listeners of the record's
  key.  :meth:`Tracer.emit` runs the same steps inline, and builds its
  record inline too, with no ``TraceRecord.__init__`` frame; it reads
  the time off the :class:`~repro.sim.engine.Simulator` the tracer's
  clock names, with no call.  So a hot record costs the one Python
  frame of ``emit`` (DESIGN.md §6).  A hot site calls
  :meth:`Tracer.emit` with its declared layout and the field values,
  positionally; :meth:`Tracer.record` takes the details as keywords,
  snapshots any plain container among them, and stores the record in
  the layout of their names, raising ``ValueError`` when a declared
  key's names match none of its layouts.  Both apply the category
  filter and the clock before building the record, so a filtered call
  builds nothing.  A clock is a ``Simulator``, read as ``now``, or any
  callable returning the time, called once per record.
* **Listeners by key** — ``subscribe(listener, keys=...)`` names the
  (category, event) keys a listener reads, and the tracer keeps the
  tuple of listeners of each named key, so a record reaches only the
  code that reads it, in subscription order.  Routing a record costs
  one dict lookup on its key (built once, on the record's
  :class:`Layout`) and no Python call; with no listener it costs
  nothing.  A listener without keys sees every record.
* **Category filtering** — ``Tracer(categories={...})`` restricts
  recording to the named categories; a filtered call pays one frozenset
  membership test and returns ``None`` (``filtered`` counts the drops).
* **Bounded ring buffer** — ``Tracer(maxlen=...)`` keeps only the most
  recent records (post-mortem tail), dropping the oldest; ``dropped``
  counts evictions.
* **Queries are one scan** — :meth:`select` keeps the held records
  that pass its filters (category, event, an inclusive ``t_min`` /
  ``t_max`` window, detail values), in order, and :meth:`count` counts
  them.  The trace's consumers read each record once, so the tracer
  keeps no per-key index (DESIGN.md §6).

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
from collections import deque
from itertools import islice
from operator import attrgetter
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


#: The declared record layouts: (category, event) -> its layouts, each
#: the names of its fields in the order the record site passes them.  A
#: key with optional trailing fields declares one layout per variant.
#: Every key a site in ``src/`` writes is declared here, except
#: ``monitor/sample``, whose ``burn_<rule>`` fields follow the monitor's
#: rules.  DESIGN.md (section 11) renders this table.
LAYOUTS: Dict[Tuple[str, str], Tuple[Tuple[str, ...], ...]] = {
    key: tuple(tuple(fields.split()) for fields in variants)
    for key, variants in {
        # The hot keys: 98-100% of every benchmark workload's records.
        ("cpu", "dispatch"): ("node thread remaining priority",
                              "node thread remaining priority engine"),
        ("cpu", "complete"): ("node thread", "node thread engine"),
        ("cpu", "preempt"): ("node thread by by_priority",
                             "node thread by by_priority engine"),
        ("cpu", "withdraw"): ("node thread", "node thread engine"),
        ("thread", "block"): ("node thread reason delay",
                              "node thread reason target"),
        ("kernel", "interrupt"): ("node source seq",),
        ("dispatcher", "activate"): ("task seq activation_id deadline",),
        ("dispatcher", "set_params"): ("eu priority earliest",),
        ("dispatcher", "thread_start"): ("eu node priority",
                                         "eu node priority engine"),
        ("dispatcher", "eu_done"): ("eu",),
        ("dispatcher", "edge_satisfied"): (
            "activation_id edge src dst remaining",),
        ("dispatcher", "remote_edge_sent"): ("eu dst activation_id edge",),
        ("dispatcher", "remote_edge_recv"): ("task seq edge",),
        ("dispatcher", "instance_done"): (
            "task seq activation_id response missed",),
        ("network", "send"): ("link msg kind size",
                              "link msg kind size activation_id",
                              "link msg kind size activation_id edge"),
        ("network", "deliver"): ("link msg kind latency outcome bound",),
        # Every other key.
        ("dispatcher", "eu_blocked"): ("eu cause condvars",
                                       "eu cause until", "eu cause",
                                       "eu cause resource holders"),
        ("dispatcher", "eu_error"): ("eu",),
        ("dispatcher", "recovery_activated"): ("failed recovery",),
        ("dispatcher", "inv_done"): ("eu",),
        ("dispatcher", "instance_abort"): (
            "task seq activation_id reason",),
        ("dispatcher", "deadline_miss"): (
            "task seq activation_id deadline remaining_eus",),
        ("network", "drop"): ("link msg reason",),
        ("network", "dst_crashed"): ("link msg kind",),
        ("network", "no_route"): ("src dst msg",),
        ("node", "crash"): ("node",),
        ("node", "recover"): ("node",),
        ("device", "actuate"): ("node actuator",),
        ("scheduler", "spring_reject"): ("task seq",),
        ("admission", "submit"): ("node task value",
                                  "node task value origin"),
        ("admission", "reconfigure"): (
            "node trigger from_policy to_policy",
            "node trigger from_test to_test",
            "node trigger from_policy to_policy from_test to_test"),
        ("admission", "skip"): ("node task value reason",),
        ("admission", "degrade"): ("node task mode",),
        ("admission", "admit"): ("node task value activation_id",),
        ("admission", "reject"): ("node task value reason",),
        ("admission", "shed"): ("node task value for_task",),
        ("admission", "forward"): ("node task value peer timeout",),
        ("admission", "forward_timeout"): ("node task",),
        ("admission", "forward_result"): ("node task peer granted",),
        ("service", "mode_switch"): ("from_mode to_mode trigger",),
        ("service", "value_failure_detected"): ("req dissenters",),
        ("service", "failover"): ("style new_primary", "style new_leader"),
        ("service", "consensus_decide"): ("node decision rounds",),
        ("service", "clocksync_round"): ("node correction round",),
        ("service", "recovery"): ("failed recovery cause",),
        ("service", "rbcast_deliver"): ("node origin seq",),
        ("service", "suspect"): ("observer suspect",),
        ("service", "unsuspect"): ("observer suspect",),
        ("faults", "inject"): ("kind target",),
        ("alert", "raise"): ("node tenant rule burn_fast_milli "
                             "burn_slow_milli fast_window slow_window "
                             "threshold_milli",),
        ("alert", "clear"): ("node tenant rule burn_fast_milli "
                             "burn_slow_milli held",),
    }.items()}

#: The slots that hold a record's fields, in declared order.
FIELD_SLOTS = ("f0", "f1", "f2", "f3", "f4", "f5")


class Layout:
    """One record layout: its key and its field names, in order.

    A layout of more than six fields is *wide*: its first five fields
    have a slot each and the rest share ``f5``, as one tuple.
    :func:`layout` hands out the one instance of each declared layout; a
    hot site passes it to :meth:`Tracer.emit`.
    """

    __slots__ = ("category", "event", "key", "fields", "wide", "getters")

    def __init__(self, category: str, event: str, fields: Tuple[str, ...]):
        self.category = category
        self.event = event
        #: (category, event), built once: the tracer routes a record of
        #: this layout to its listeners by it.
        self.key = (category, event)
        self.fields = fields
        #: Whether the sixth and later fields share ``f5``, as a tuple.
        self.wide = len(fields) > len(FIELD_SLOTS)
        own = fields[:len(FIELD_SLOTS) - 1] if self.wide else fields
        #: Field name -> a function reading it off a record.
        self.getters: Dict[str, Callable[["TraceRecord"], Any]] = {
            name: attrgetter(slot) for name, slot in zip(own, FIELD_SLOTS)}
        for index, name in enumerate(fields[len(own):]):
            self.getters[name] = (
                lambda record, index=index: record.f5[index])

    def __repr__(self) -> str:
        names = "".join(f", {name!r}" for name in self.fields)
        return f"layout({self.category!r}, {self.event!r}{names})"

    def __reduce__(self) -> Tuple[Any, ...]:
        return (_layout_of, (self.category, self.event, self.fields))


class TraceRecord:
    """One timestamped fact about the execution.

    ``category`` is a coarse subsystem tag (``"dispatcher"``,
    ``"kernel"``, ``"network"``, ...), ``event`` the specific occurrence
    (``"thread_start"``, ``"deadline_miss"``, ...), and its fields are
    those of its :class:`Layout`.

    A record holds ``time``, ``category``, ``event``, its layout and
    one slot per field, in declared order (``f0``, ``f1``, ...; the
    slots past the layout's last field hold ``None``, and a wide
    layout's sixth and later fields share ``f5`` as a tuple).  Build
    records through :meth:`Tracer.record`, :meth:`Tracer.emit` or
    :func:`read_jsonl`, which pick the layout.  :attr:`details` builds
    a fresh dict each time it is read; :meth:`get` and the slots read
    one field without building anything.  Treat records as immutable;
    formatting is deferred to :meth:`__str__` and the JSONL exporters.

    Every layout shares this one class, so a loop over a trace reads
    ``time``, ``category`` and ``event`` from one record type: with a
    class per layout, CPython could not specialize those reads, and
    counting an avionics trace's records by key took a quarter longer.
    """

    __slots__ = ("time", "category", "event", "layout") + FIELD_SLOTS

    def __init__(self, time: int, layout: Layout, f0: Any = None,
                 f1: Any = None, f2: Any = None, f3: Any = None,
                 f4: Any = None, f5: Any = None):
        # Tracer.emit sets the same slots itself; keep the two in step.
        self.time = time
        self.category = layout.category
        self.event = layout.event
        self.layout = layout
        self.f0 = f0
        self.f1 = f1
        self.f2 = f2
        self.f3 = f3
        self.f4 = f4
        self.f5 = f5

    @property
    def details(self) -> Dict[str, Any]:
        """A fresh dict of the fields, in declared order."""
        values = (self.f0, self.f1, self.f2, self.f3, self.f4, self.f5)
        if self.layout.wide:
            values = values[:-1] + self.f5
        return dict(zip(self.layout.fields, values))

    def get(self, name: str, default: Any = None) -> Any:
        """One field, as ``details.get`` reads it, with no dict built."""
        getter = self.layout.getters.get(name)
        return default if getter is None else getter(self)

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not TraceRecord:
            return NotImplemented
        if self.layout is other.layout:
            return ((self.time, self.f0, self.f1, self.f2, self.f3, self.f4,
                     self.f5)
                    == (other.time, other.f0, other.f1, other.f2, other.f3,
                        other.f4, other.f5))
        return (self.time == other.time and self.category == other.category
                and self.event == other.event
                and self.details == other.details)

    __hash__ = None  # mutable payload, like the frozen-dataclass-with-dict

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, "
                f"category={self.category!r}, event={self.event!r}, "
                f"details={self.details!r})")

    def __str__(self) -> str:
        payload = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.time:>10d}] {self.category}/{self.event} {payload}"


#: (category, event) -> {fields: layout}, for every declared layout.
_LAYOUTS: Dict[Tuple[str, str], Dict[Tuple[str, ...], Layout]] = {
    key: {fields: Layout(*key, fields) for fields in variants}
    for key, variants in LAYOUTS.items()}
#: The same, for the keys :data:`LAYOUTS` does not declare: each layout
#: is made on its first use.  A layout never changes, so every tracer
#: shares it, and an unpickled record finds its own.
_UNDECLARED: Dict[Tuple[str, str], Dict[Tuple[str, ...], Layout]] = {}


def layout(category: str, event: str, *fields: str) -> Layout:
    """The declared layout of these fields, for :meth:`Tracer.emit`.

    Raises ``KeyError`` unless :data:`LAYOUTS` declares exactly
    ``fields`` for (category, event), so a site that names its fields
    cannot drift from the table.
    """
    return _LAYOUTS[category, event][fields]


def _layout_of(category: str, event: str,
               fields: Tuple[str, ...]) -> Layout:
    """The layout of a record of this key with these fields, in order.

    A declared key's fields must be one of its layouts, or this raises
    ``ValueError``; an undeclared key gets one layout per field tuple,
    made on its first use.
    """
    key = (category, event)
    variants = _LAYOUTS.get(key)
    if variants is None:
        variants = _UNDECLARED.setdefault(key, {})
        found = variants.get(fields)
        if found is None:
            found = variants[fields] = Layout(category, event, fields)
        return found
    found = variants.get(fields)
    if found is None:
        declared = " | ".join(" ".join(names) for names in variants)
        raise ValueError(f"{category}/{event} declares the fields "
                         f"({declared}), not ({' '.join(fields)})")
    return found


def _build(time: int, category: str, event: str,
           details: Dict[str, Any]) -> TraceRecord:
    """The record of ``details``, in the layout of their fields."""
    record_layout = _layout_of(category, event, tuple(details))
    values = tuple(details.values())
    if record_layout.wide:
        tail = len(FIELD_SLOTS) - 1
        values = values[:tail] + (values[tail:],)
    return TraceRecord(time, record_layout, *values)


#: Detail value types that are snapshotted on record() so that later
#: caller-side mutation cannot rewrite already-recorded history.
_MUTABLE_CONTAINERS = frozenset((list, dict, set, tuple))


def snapshot(value: Any) -> Any:
    """Recursively copy plain containers; scalars pass through.

    :meth:`Tracer.record` applies it to every container detail; a site
    that calls :meth:`Tracer.emit` applies it to any container field it
    does not own.

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


#: Allocates a :class:`TraceRecord` without running its ``__init__``.
_new_record = object.__new__


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


class _ClockCall:
    """A clock callable, read as ``now`` the way a ``Simulator`` is."""

    __slots__ = ("clock",)

    def __init__(self, clock: Callable[[], int]):
        self.clock = clock

    @property
    def now(self) -> int:
        return self.clock()


class _NoClock:
    """The time source of a tracer with no bound clock."""

    __slots__ = ()

    @property
    def now(self) -> int:
        raise RuntimeError("tracer has no bound clock")


def _time_source(clock: Any) -> Any:
    """What the tracer reads ``now`` off for ``clock``: a ``Simulator``
    (any object with a ``now``) itself, a callable through a wrapper."""
    if clock is None:
        return _NoClock()
    if callable(clock):
        return _ClockCall(clock)
    if not hasattr(clock, "now"):
        raise TypeError(f"a tracer clock is a Simulator or a callable, "
                        f"not {clock!r}")
    return clock


class Tracer:
    """Collects trace records (:class:`TraceRecord`) in emission order.

    ``clock`` gives a record its time: the
    :class:`~repro.sim.engine.Simulator` whose ``now`` it reads (what
    every tracer of a system is given), or a callable returning the
    time.  Without one, only records with an explicit time are taken
    until :meth:`bind_clock` names one.
    """

    def __init__(self, clock: Any = None,
                 maxlen: Optional[int] = None,
                 categories: Optional[Iterable[str]] = None):
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self._records: Any = (deque(maxlen=maxlen) if maxlen is not None
                              else [])
        self.maxlen = maxlen
        # The clock as given (None while unbound), and what ``now`` is
        # read off.
        self._clock = clock
        self._time = _time_source(clock)
        # Every subscription, (listener, its keys or None), in order.
        # This and the two routing fields below are replaced, never
        # mutated, by subscribe/unsubscribe, so _store can iterate a
        # route while a listener (un)subscribes.
        self._subscriptions: Tuple[Tuple[Callable[[TraceRecord], None],
                                         Optional[frozenset]], ...] = ()
        # (category, event) -> the listeners that receive it, for every
        # key some keyed listener names; None while nothing listens.
        self._routes: Optional[Dict[Tuple[str, str],
                                    Tuple[Callable[[TraceRecord], None],
                                          ...]]] = None
        # The route of every other key: the unkeyed listeners.
        self._unkeyed: Tuple[Callable[[TraceRecord], None], ...] = ()
        #: Records evicted by the ring buffer so far.
        self.dropped = 0
        #: Records dropped by the category filter so far.
        self.filtered = 0
        # None means "record everything"; otherwise a frozenset of the
        # categories kept.  Checked first in record() so a filtered
        # category costs one membership test, nothing else.
        self._categories: Optional[frozenset] = (
            None if categories is None else frozenset(categories))

    def bind_clock(self, clock: Any) -> None:
        """Attach the time source used when ``record`` omits a time: a
        ``Simulator`` or a callable, as for the constructor."""
        self._time = _time_source(clock)
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

    def subscribe(self, listener: Callable[[TraceRecord], None],
                  keys: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        """Invoke ``listener`` synchronously for each new record.

        With ``keys``, a set of (category, event) pairs, the listener
        receives only the records of those keys; without, every record.
        Each record reaches its listeners in subscription order, keyed
        and unkeyed alike.  The tracer keeps, per named key, the tuple
        of listeners that receive it, so storing a record costs one
        lookup that makes no Python call while listeners exist and
        nothing when there are none.

        A listener subscribed while a record is being dispatched first
        sees the next record.  Subscribing a listener twice makes it
        receive a record once per subscription that names its key.
        """
        if keys is not None:
            keys = frozenset(keys)
            if not keys:
                raise ValueError("a keyed listener needs at least one "
                                 "(category, event) key")
            for key in keys:
                if not (type(key) is tuple and len(key) == 2
                        and all(type(part) is str for part in key)):
                    raise TypeError(f"key {key!r} is not a (category, "
                                    f"event) pair of strings")
        self._route(self._subscriptions + ((listener, keys),))

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Remove a listener's first subscription (no-op if absent).

        Removal during dispatch does not disturb it: every listener
        subscribed when the record was emitted still sees that record.
        """
        subscriptions = self._subscriptions
        for index, (subscribed, _keys) in enumerate(subscriptions):
            if subscribed == listener:
                self._route(subscriptions[:index]
                            + subscriptions[index + 1:])
                return

    def _route(self, subscriptions: Tuple[Tuple[Callable[[TraceRecord], None],
                                                Optional[frozenset]],
                                          ...]) -> None:
        """Install ``subscriptions`` and the routes they imply."""
        self._subscriptions = subscriptions
        self._unkeyed = tuple(listener for listener, keys in subscriptions
                              if keys is None)
        named = set()
        for _listener, keys in subscriptions:
            if keys is not None:
                named |= keys
        self._routes = None if not subscriptions else {
            key: tuple(listener for listener, keys in subscriptions
                       if keys is None or key in keys)
            for key in named}

    def record(self, category: str, event: str, time: Optional[int] = None,
               **details: Any) -> Optional[TraceRecord]:
        """Append a record; time defaults to the bound clock's now.

        Returns ``None`` (and counts in :attr:`filtered`) when
        ``category`` is excluded by the filter — the near-free path.

        Detail values that are plain containers (list/dict/set/tuple)
        are snapshotted at record time: mutating the caller's object
        afterwards does not rewrite the recorded history.  The record
        is stored in the layout of its details' names, in order: for a
        key of :data:`LAYOUTS` that is a declared layout, or this
        raises ``ValueError``; any other key gets a layout on its first
        use.
        """
        allowed = self._categories
        if allowed is not None and category not in allowed:
            self.filtered += 1
            return None
        for key, value in details.items():
            if type(value) in _MUTABLE_CONTAINERS:
                details[key] = snapshot(value)
        if time is None:
            time = self._time.now
        return self._store(_build(time, category, event, details))

    def emit(self, record_layout: Layout, f0: Any, f1: Any = None,
             f2: Any = None, f3: Any = None, f4: Any = None,
             f5: Any = None) -> Optional[TraceRecord]:
        """Append a record of a declared layout, at the clock's now.

        ``record_layout`` comes from :func:`layout` and has at most six
        fields; ``f0``, ``f1``, ... are its fields, positionally and in
        declared order, and any position past its last field is left
        ``None``.  The tracer keeps the values as given, so a container
        among them must be the site's own (see :func:`snapshot`).
        Filter, clock, ring buffer, listeners and return value behave
        as in :meth:`record`.

        The signature is fixed, not ``*values``: a call with plain
        positional arguments is the cheapest one CPython makes, and this
        runs for nearly every record.  For the same reason the record is
        built inline, as ``TraceRecord.__init__`` does, and stored
        inline, as :meth:`_store` does; keep the three in sync.
        """
        allowed = self._categories
        if allowed is not None and record_layout.category not in allowed:
            self.filtered += 1
            return None
        entry = _new_record(TraceRecord)
        entry.time = self._time.now
        entry.category = record_layout.category
        entry.event = record_layout.event
        entry.layout = record_layout
        entry.f0 = f0
        entry.f1 = f1
        entry.f2 = f2
        entry.f3 = f3
        entry.f4 = f4
        entry.f5 = f5
        if self.maxlen is not None and len(self._records) == self.maxlen:
            self.dropped += 1
        self._records.append(entry)
        routes = self._routes
        if routes is not None:
            key = record_layout.key
            for listener in (routes[key] if key in routes
                             else self._unkeyed):
                listener(entry)
        return entry

    def _store(self, entry: TraceRecord) -> TraceRecord:
        """The storage path: ring buffer, and the listeners of the
        record's key (see :meth:`subscribe`).  :meth:`emit` runs a copy
        of it inline."""
        if self.maxlen is not None and len(self._records) == self.maxlen:
            self.dropped += 1
        self._records.append(entry)
        routes = self._routes
        if routes is not None:
            key = entry.layout.key
            for listener in (routes[key] if key in routes
                             else self._unkeyed):
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

    # -- queries ------------------------------------------------------------

    def select(self, category: Optional[str] = None,
               event: Optional[str] = None,
               t_min: Optional[int] = None,
               t_max: Optional[int] = None,
               **details: Any) -> List[TraceRecord]:
        """The held records that pass every given filter, in emission
        order, by one scan.

        ``t_min``/``t_max`` bound the record times, both inclusive,
        whether or not the trace's times go back.
        """
        found = []
        for entry in self._records:
            if category is not None and entry.category != category:
                continue
            if event is not None and entry.event != event:
                continue
            if t_min is not None and entry.time < t_min:
                continue
            if t_max is not None and entry.time > t_max:
                continue
            if details and any(entry.get(k) != v
                               for k, v in details.items()):
                continue
            found.append(entry)
        return found

    def count(self, category: Optional[str] = None,
              event: Optional[str] = None,
              t_min: Optional[int] = None,
              t_max: Optional[int] = None, **details: Any) -> int:
        """The number of records :meth:`select` returns for the same
        filters."""
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
    stream ``footer``) are skipped.  Each record loads in the layout
    of its details' names, in order, as :meth:`Tracer.record` stores
    it, and a declared key with other fields raises ``ValueError``.
    """
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            raw = json.loads(line)
            if "time" in raw:
                yield _build(raw["time"], raw["category"], raw["event"],
                             raw.get("details") or {})


def load_trace(path: str, maxlen: Optional[int] = None) -> "Tracer":
    """Load a trace previously saved with :meth:`Tracer.to_jsonl` or
    :meth:`Tracer.stream_jsonl` (see :func:`read_jsonl`)."""
    tracer = Tracer(clock=lambda: 0, maxlen=maxlen)
    for entry in read_jsonl(path):
        tracer._store(entry)
    return tracer
