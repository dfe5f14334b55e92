"""Live monitoring plane: deterministic in-sim time-series & alerts.

Everything observability did before this module is post-hoc: spans,
forensics and the scenario scoreboard all reconstruct *finished*
traces.  HADES's defining claim, though, is that temporal failures are
detected **online** and trigger recovery while the system runs.  This
module closes that loop inside the simulation:

* **Time-series core** — sliding-window rolling counters
  (:class:`RollingCounter`), fixed-point :class:`Ewma`, and tumbling
  fixed-bin histograms with exact nearest-rank quantiles
  (:class:`TumblingHistogram`, sharing
  :func:`~repro.obs.metrics.exact_quantile` and
  :meth:`~repro.obs.metrics.HistogramSnapshot.merge` with the
  scoreboard and campaign reports).  All state is integer arithmetic —
  no floats ever enter an alert decision.
* **SLO burn-rate monitors** — a :class:`LiveMonitor` subscribes to
  the tracer, classifies one tenant's request outcomes as they happen,
  and evaluates multi-window :class:`BurnRateRule`\\ s (a fast window
  for responsiveness and a slow window for persistence, with
  hysteresis on clearing) at in-sim probe instants.  Probes and alert
  transitions are trace records (``monitor`` / ``alert`` categories),
  so an alert is a first-class causal event in spans, forensics and
  the timeline export.
* **Closed-loop reactions** — :meth:`LiveMonitor.on_alert` /
  :meth:`LiveMonitor.on_clear` run callbacks at the probe instant:
  swap an admission policy or guarantee test
  (:func:`react_reconfigure`), degrade the mode
  (:func:`react_degrade`) and revert it on clear
  (:func:`react_revert`).

Sampling determinism
--------------------
The monitor is driven purely by (a) the trace-record stream it
ingests and (b) probe events scheduled on the simulator, so its
samples and alerts are byte-reproducible across seeds and event-set
backends.  :meth:`Scenario.monitor
<repro.scenarios.scenario.Scenario.monitor>` wires a monitor to a
tenant's ingress node.

Dashboard
---------
``python -m repro.obs.live trace.jsonl`` renders the sample series
and the alert log as a text dashboard.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.obs.metrics import (DEFAULT_BUCKETS, HistogramSnapshot,
                               exact_quantile)
from repro.sim.trace import TraceRecord, read_jsonl

__all__ = [
    "Alert",
    "BurnRateRule",
    "Ewma",
    "LiveMonitor",
    "RollingCounter",
    "SloSpec",
    "TumblingHistogram",
    "react_degrade",
    "react_reconfigure",
    "react_revert",
    "render_dashboard",
    "main",
]

#: Trace category of probe samples.
CATEGORY_MONITOR = "monitor"
#: Trace category of alert transitions.
CATEGORY_ALERT = "alert"

#: Fixed-point scale for burn rates: 1000 = a burn of exactly 1×
#: (consuming the error budget at precisely the sustainable rate).
BURN_SCALE = 1000


# --------------------------------------------------------------------------
# Time-series primitives (all-integer state)
# --------------------------------------------------------------------------

class RollingCounter:
    """Event counts over a sliding window of simulated time.

    Counts are binned on a fixed ``quantum`` grid; :meth:`total`
    sums the bins inside ``[now - window, now)``.  With integer bins
    and integer times the result is exact and deterministic — the
    sliding-window primitive burn-rate rules query at probe instants.
    """

    __slots__ = ("max_window", "quantum", "_bins", "cumulative")

    def __init__(self, max_window: int, quantum: int = 1):
        if max_window < 1 or quantum < 1:
            raise ValueError("max_window and quantum must be >= 1")
        self.max_window = max_window
        self.quantum = quantum
        self._bins: Deque[Tuple[int, int]] = deque()  # (bin_start, count)
        #: All-time event total (not windowed).
        self.cumulative = 0

    def add(self, time: int, count: int = 1) -> None:
        """Record ``count`` events at ``time`` (non-decreasing)."""
        self.cumulative += count
        bin_start = time - time % self.quantum
        if self._bins and self._bins[-1][0] == bin_start:
            start, held = self._bins[-1]
            self._bins[-1] = (start, held + count)
        else:
            self._bins.append((bin_start, count))

    def _evict(self, now: int) -> None:
        floor = now - self.max_window
        while self._bins and self._bins[0][0] + self.quantum <= floor:
            self._bins.popleft()

    def total(self, now: int, window: Optional[int] = None) -> int:
        """Events with ``now - window <= time < now``.

        ``window`` defaults to (and must not exceed) ``max_window``.
        A bin straddling the window edge counts entirely — windows
        aligned to the quantum grid (the supported configuration)
        never straddle.
        """
        if window is None:
            window = self.max_window
        if window > self.max_window:
            raise ValueError(f"window {window} exceeds retained "
                             f"max_window {self.max_window}")
        self._evict(now)
        floor = now - window
        return sum(count for start, count in self._bins
                   if start >= floor and start < now)


class Ewma:
    """Fixed-point exponentially weighted moving average.

    ``value`` is maintained in parts-per-``scale`` with pure integer
    arithmetic (floor division), so identical observation streams give
    bit-identical averages on every platform: ``v' = (num * x * scale
    + (den - num) * v) // den``.
    """

    __slots__ = ("num", "den", "scale", "value", "samples")

    def __init__(self, num: int = 1, den: int = 8, scale: int = 1000):
        if not 0 < num <= den:
            raise ValueError("smoothing needs 0 < num <= den")
        self.num = num
        self.den = den
        self.scale = scale
        #: Current average, scaled by ``scale`` (0 before any sample).
        self.value = 0
        self.samples = 0

    def update(self, observation: int) -> int:
        """Fold in one observation; returns the new scaled value."""
        scaled = observation * self.scale
        if self.samples == 0:
            self.value = scaled
        else:
            self.value = (self.num * scaled
                          + (self.den - self.num) * self.value) // self.den
        self.samples += 1
        return self.value


class TumblingHistogram:
    """Per-window fixed-bin histogram with exact nearest-rank quantiles.

    Observations accumulate until :meth:`roll` closes the window: the
    sample list yields *exact* quantiles (via the shared
    :func:`~repro.obs.metrics.exact_quantile`), the fixed bins yield a
    :class:`~repro.obs.metrics.HistogramSnapshot` that merges across
    windows/seeds through :meth:`HistogramSnapshot.merge
    <repro.obs.metrics.HistogramSnapshot.merge>` — one aggregation
    path with the campaign reports.
    """

    def __init__(self, buckets: Sequence[int] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be sorted and non-empty")
        self.buckets = tuple(buckets)
        self._samples: List[int] = []
        #: Snapshots of every closed window, in roll order.
        self.windows: List[HistogramSnapshot] = []

    def observe(self, value: int) -> None:
        self._samples.append(value)

    def roll(self) -> Dict[str, Optional[int]]:
        """Close the current window; returns its quantile summary."""
        import bisect
        samples = sorted(self._samples)
        counts = [0] * (len(self.buckets) + 1)
        for value in samples:
            counts[bisect.bisect_left(self.buckets, value)] += 1
        snapshot = HistogramSnapshot(
            buckets=self.buckets, counts=tuple(counts),
            count=len(samples), total=sum(samples),
            min_value=samples[0] if samples else None,
            max_value=samples[-1] if samples else None)
        self.windows.append(snapshot)
        summary = {"n": len(samples),
                   "p50": exact_quantile(samples, 0.5),
                   "p99": exact_quantile(samples, 0.99),
                   "max": samples[-1] if samples else None}
        self._samples = []
        return summary

    def merged(self) -> Optional[HistogramSnapshot]:
        """All closed windows merged into one snapshot (None if none)."""
        if not self.windows:
            return None
        return HistogramSnapshot.merge(self.windows, name="tumbling")


# --------------------------------------------------------------------------
# SLO declarations & burn-rate rules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SloSpec:
    """A tenant's availability objective for burn-rate accounting.

    ``objective_ppm`` is the satisfied-request objective in parts per
    million (e.g. ``990_000`` = 99%); the error budget is its
    complement.  ``window`` is the SLO accounting window in simulated
    microseconds — rule windows are usually expressed as fractions of
    it (the classic fast = window/60, slow = window/5 split).
    """

    objective_ppm: int
    window: int

    def __post_init__(self) -> None:
        if not 0 < self.objective_ppm < 1_000_000:
            raise ValueError("objective_ppm must be in (0, 1000000)")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def budget_ppm(self) -> int:
        """The error budget (1 - objective), in ppm."""
        return 1_000_000 - self.objective_ppm


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alert rule.

    The *burn rate* over a window is ``bad / (budget * total)`` — how
    many times faster than sustainable the error budget is burning
    (scaled by :data:`BURN_SCALE`).  The rule **raises** when both the
    fast and the slow window burn at ``>= threshold_milli`` (the fast
    window makes the alert respond quickly, the slow window keeps a
    brief blip from paging), and **clears** only after the burn sits
    ``< clear_milli`` on both windows for ``hold`` consecutive probes
    — the hysteresis that stops a flapping tenant from re-arming
    reactions every probe.  All comparisons are integer
    cross-multiplications; no floats.
    """

    name: str
    fast_window: int
    slow_window: int
    threshold_milli: int = 1000
    clear_milli: Optional[int] = None
    hold: int = 2

    def __post_init__(self) -> None:
        if self.fast_window < 1 or self.slow_window < self.fast_window:
            raise ValueError("need 1 <= fast_window <= slow_window")
        if self.threshold_milli < 1:
            raise ValueError("threshold_milli must be >= 1")
        if self.clear_milli is None:
            object.__setattr__(self, "clear_milli", self.threshold_milli)
        if not 0 < self.clear_milli <= self.threshold_milli:
            raise ValueError("need 0 < clear_milli <= threshold_milli")
        if self.hold < 1:
            raise ValueError("hold must be >= 1")


@dataclass(frozen=True)
class Alert:
    """One alert transition, as handed to reaction callbacks."""

    time: int
    rule: str
    tenant: str
    kind: str                     # "raise" | "clear"
    burn_fast_milli: int
    burn_slow_milli: int


class _RuleState:
    __slots__ = ("active", "below", "raises", "clears")

    def __init__(self) -> None:
        self.active = False
        self.below = 0            # consecutive probes below clear_milli
        self.raises = 0
        self.clears = 0


def _burn_milli(bad: int, total: int, budget_ppm: int) -> int:
    """Burn rate scaled by BURN_SCALE, exact integer floor."""
    if total == 0:
        return 0
    return (bad * 1_000_000 * BURN_SCALE) // (budget_ppm * total)


# --------------------------------------------------------------------------
# The live monitor
# --------------------------------------------------------------------------

class _TracerHub:
    """One tracer subscription shared by every monitor on a system.

    Monitors classify only their own tenant's ``admission`` /
    ``dispatcher`` records, so the hot path is a single category check
    and one dict probe per trace record no matter how many tenants are
    monitored — without the hub each monitor would pay a Python
    callback on every record in the system.
    """

    __slots__ = ("tracer", "_by_tenant")

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self._by_tenant: Dict[str, List["LiveMonitor"]] = {}
        tracer.subscribe(self._dispatch)

    def add(self, monitor: "LiveMonitor") -> None:
        self._by_tenant.setdefault(monitor.tenant, []).append(monitor)

    def remove(self, monitor: "LiveMonitor") -> None:
        monitors = self._by_tenant.get(monitor.tenant)
        if monitors and monitor in monitors:
            monitors.remove(monitor)
            if not monitors:
                del self._by_tenant[monitor.tenant]

    def _dispatch(self, entry) -> None:
        category = entry.category
        if category == "dispatcher" or category == "admission":
            monitors = self._by_tenant.get(entry.get("task"))
            if monitors:
                for monitor in monitors:
                    monitor._ingest(entry)


class LiveMonitor:
    """Watches one tenant's SLO burn online, inside the simulation.

    Subscribes to the system tracer, classifies the tenant's request
    outcomes as the records appear (reject/skip → bad at decision
    time; instance completion → good or bad by the deadline; miss
    while running and aborts → bad), and evaluates its burn-rate rules
    at probe instants scheduled on the simulator.  See the module
    docstring for the determinism rules; see
    :meth:`~repro.scenarios.scenario.Scenario.monitor` for the
    scenario wiring.
    """

    def __init__(self, system, tenant: str, slo: SloSpec,
                 rules: Sequence[BurnRateRule], *,
                 interval: int, horizon: int,
                 node: Optional[str] = None, samples: bool = True,
                 response_buckets: Sequence[int] = DEFAULT_BUCKETS):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        if not rules:
            raise ValueError("a monitor needs at least one rule")
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate rule names")
        self.system = system
        self.tenant = tenant
        self.slo = slo
        self.rules = tuple(rules)
        self.interval = interval
        self.horizon = horizon
        self.node = node
        self.samples = samples
        max_window = max(rule.slow_window for rule in rules)
        self._good = RollingCounter(max_window, quantum=interval)
        self._bad = RollingCounter(max_window, quantum=interval)
        self._submitted = 0
        self._admitted = 0
        self._open: Dict[str, str] = {}      # activation_id -> "open"|"counted"
        self.response = TumblingHistogram(response_buckets)
        self.response_ewma = Ewma()
        self._state: Dict[str, _RuleState] = {r.name: _RuleState()
                                              for r in rules}
        self._on_alert: Dict[str, List[Callable[[Any, Alert], None]]] = {}
        self._on_clear: Dict[str, List[Callable[[Any, Alert], None]]] = {}
        self._fired: Dict[str, int] = {}
        #: Every alert transition, in probe order (both kinds).
        self.alerts: List[Alert] = []
        #: In-memory sample series: (time, good_window, bad_window,
        #: {rule: (fast_milli, slow_milli)}).
        self.series: List[Tuple[int, int, int, Dict[str, Tuple[int, int]]]] \
            = []
        hub = getattr(system, "_live_hub", None)
        if hub is None or hub.tracer is not system.tracer:
            hub = system._live_hub = _TracerHub(system.tracer)
        hub.add(self)
        self._hub = hub
        probe_time = (system.sim.now // interval + 1) * interval
        while probe_time <= horizon:
            system.sim.call_at(probe_time, self._probe)
            probe_time += interval

    # -- record ingestion --------------------------------------------------

    def _ingest(self, entry) -> None:
        # The hub pre-filters: only this tenant's admission/dispatcher
        # records arrive here.
        category = entry.category
        if category == "admission":
            event = entry.event
            if event == "submit":
                self._submitted += 1
            elif event == "admit":
                self._admitted += 1
            elif event in ("reject", "skip"):
                self._bad.add(entry.time)
            # "shed" victims are not double-counted here: the abort of
            # the shed instance lands in the dispatcher stream below.
        elif category == "dispatcher":
            event = entry.event
            if event == "activate":
                self._open[entry.get("activation_id")] = "open"
                return
            aid = entry.get("activation_id")
            state = self._open.get(aid)
            if state is None:
                return
            if event == "deadline_miss":
                if state == "open":
                    self._bad.add(entry.time)
                    self._open[aid] = "counted"
            elif event == "instance_done":
                if state == "open":
                    if entry.get("missed"):
                        self._bad.add(entry.time)
                    else:
                        self._good.add(entry.time)
                        response = entry.get("response")
                        if response is not None:
                            self.response.observe(response)
                            self.response_ewma.update(response)
                del self._open[aid]
            elif event == "instance_abort":
                if state == "open":
                    self._bad.add(entry.time)
                del self._open[aid]

    # -- reactions ---------------------------------------------------------

    def on_alert(self, rule: str, callback: Callable[[Any, Alert], None],
                 once: bool = True) -> "LiveMonitor":
        """Run ``callback(system, alert)`` when ``rule`` raises.

        With ``once=True`` (default) the callback fires only on the
        rule's first raise — re-raises after a clear do not re-run it.
        """
        self._check_rule(rule)
        self._on_alert.setdefault(rule, []).append(callback)
        self._fired.setdefault(rule, 1 if once else -1)
        return self

    def on_clear(self, rule: str,
                 callback: Callable[[Any, Alert], None]) -> "LiveMonitor":
        """Run ``callback(system, alert)`` on every clear of ``rule``."""
        self._check_rule(rule)
        self._on_clear.setdefault(rule, []).append(callback)
        return self

    def _check_rule(self, rule: str) -> None:
        if rule not in self._state:
            raise ValueError(f"unknown rule {rule!r} "
                             f"(have {sorted(self._state)})")

    # -- the probe ---------------------------------------------------------

    def _probe(self) -> None:
        now = self.system.sim.now
        tracer = self.system.tracer
        budget = self.slo.budget_ppm
        burns: Dict[str, Tuple[int, int]] = {}
        good_window = self._good.total(now)
        bad_window = self._bad.total(now)
        for rule in self.rules:
            bad_fast = self._bad.total(now, rule.fast_window)
            good_fast = self._good.total(now, rule.fast_window)
            bad_slow = self._bad.total(now, rule.slow_window)
            good_slow = self._good.total(now, rule.slow_window)
            fast_milli = _burn_milli(bad_fast, bad_fast + good_fast, budget)
            slow_milli = _burn_milli(bad_slow, bad_slow + good_slow, budget)
            burns[rule.name] = (fast_milli, slow_milli)
            state = self._state[rule.name]
            # Raise: both windows at or above threshold.  Integer
            # cross-multiplication — never compare float burn rates.
            over = (bad_fast * 1_000_000 * BURN_SCALE
                    >= rule.threshold_milli * budget * (bad_fast + good_fast)
                    and (bad_fast + good_fast) > 0
                    and bad_slow * 1_000_000 * BURN_SCALE
                    >= rule.threshold_milli * budget * (bad_slow + good_slow))
            under_clear = (fast_milli < rule.clear_milli
                           and slow_milli < rule.clear_milli)
            if not state.active:
                if over:
                    state.active = True
                    state.below = 0
                    state.raises += 1
                    alert = Alert(now, rule.name, self.tenant, "raise",
                                  fast_milli, slow_milli)
                    self.alerts.append(alert)
                    tracer.record(
                        CATEGORY_ALERT, "raise", node=self.node,
                        tenant=self.tenant, rule=rule.name,
                        burn_fast_milli=fast_milli,
                        burn_slow_milli=slow_milli,
                        fast_window=rule.fast_window,
                        slow_window=rule.slow_window,
                        threshold_milli=rule.threshold_milli)
                    self._react(self._on_alert, rule.name, alert,
                                consume=True)
            else:
                if under_clear:
                    state.below += 1
                else:
                    state.below = 0
                if state.below >= rule.hold:
                    state.active = False
                    state.below = 0
                    state.clears += 1
                    alert = Alert(now, rule.name, self.tenant, "clear",
                                  fast_milli, slow_milli)
                    self.alerts.append(alert)
                    tracer.record(
                        CATEGORY_ALERT, "clear", node=self.node,
                        tenant=self.tenant, rule=rule.name,
                        burn_fast_milli=fast_milli,
                        burn_slow_milli=slow_milli, held=rule.hold)
                    self._react(self._on_clear, rule.name, alert,
                                consume=False)
        self.series.append((now, good_window, bad_window, burns))
        if self.samples:
            window = self.response.roll()
            details: Dict[str, Any] = {
                "node": self.node, "tenant": self.tenant,
                "good": good_window, "bad": bad_window,
                "submitted": self._submitted, "admitted": self._admitted,
                "response_n": window["n"],
                "response_p50": window["p50"],
                "response_p99": window["p99"],
                "response_ewma_milli": self.response_ewma.value,
            }
            for name in sorted(burns):
                fast_milli, slow_milli = burns[name]
                details[f"burn_{name}"] = [fast_milli, slow_milli]
            tracer.record(CATEGORY_MONITOR, "sample", **details)

    def _react(self, registry: Dict[str, List[Callable]], rule: str,
               alert: Alert, consume: bool) -> None:
        callbacks = registry.get(rule)
        if not callbacks:
            return
        if consume:
            remaining = self._fired.get(rule, -1)
            if remaining == 0:
                return
            if remaining > 0:
                self._fired[rule] = remaining - 1
        for callback in callbacks:
            callback(self.system, alert)

    # -- post-hoc accessors ------------------------------------------------

    def active_alerts(self) -> List[str]:
        """Rules currently in the raised state."""
        return [name for name, state in self._state.items() if state.active]

    def counts(self) -> Dict[str, int]:
        """Cumulative classification counters (not windowed)."""
        return {"submitted": self._submitted, "admitted": self._admitted,
                "good": self._good.cumulative, "bad": self._bad.cumulative}

    def detach(self) -> None:
        """Stop ingesting records (pending probes become no-ops on an
        already-finished run; they still tick if the run continues)."""
        self._hub.remove(self)

    def __repr__(self) -> str:
        return (f"<LiveMonitor {self.tenant} rules={len(self.rules)} "
                f"alerts={len(self.alerts)}>")


# --------------------------------------------------------------------------
# Built-in reactions
# --------------------------------------------------------------------------

def react_reconfigure(controllers: Iterable, policy: Optional[str] = None,
                      test_factory: Optional[Callable[[], Any]] = None,
                      ) -> Callable[[Any, Alert], None]:
    """Reaction: reconfigure admission controllers when a rule raises.

    ``policy`` switches the overload policy; ``test_factory`` builds a
    fresh guarantee test per controller (e.g. ``ResponseTimeTest`` to
    drop from an optimistic utilization bound to the conservative
    test).  Uses :meth:`AdmissionController.reconfigure
    <repro.admission.controller.AdmissionController.reconfigure>`, so
    the change itself is a traced, attributable event.
    """
    controllers = list(controllers)

    def react(system, alert: Alert) -> None:
        for controller in controllers:
            controller.reconfigure(
                policy=policy,
                test=test_factory() if test_factory is not None else None,
                trigger=f"alert:{alert.rule}")

    return react


def react_degrade(manager, mode: str) -> Callable[[Any, Alert], None]:
    """Reaction: switch the :class:`~repro.services.modes.ModeManager`
    to ``mode`` (trigger ``alert:<rule>``) when a rule raises."""

    def react(system, alert: Alert) -> None:
        manager.switch_to(mode, trigger=f"alert:{alert.rule}")

    return react


def react_revert(manager) -> Callable[[Any, Alert], None]:
    """Reaction for :meth:`LiveMonitor.on_clear`: revert the mode
    manager to the mode it ran before the last switch — the recover
    half of detect→react→recover."""

    def react(system, alert: Alert) -> None:
        manager.revert(trigger=f"alert_clear:{alert.rule}")

    return react


# --------------------------------------------------------------------------
# Text dashboard (CLI)
# --------------------------------------------------------------------------

def render_dashboard(trace_path: str,
                     tenant: Optional[str] = None) -> str:
    """Render the monitor/alert stream of a JSONL trace as text."""
    samples: Dict[str, List[TraceRecord]] = {}
    alerts: List[TraceRecord] = []
    for rec in read_jsonl(trace_path):
        who = rec.get("tenant")
        if tenant is not None and who != tenant:
            continue
        if rec.category == CATEGORY_MONITOR and rec.event == "sample":
            samples.setdefault(who, []).append(rec)
        elif rec.category == CATEGORY_ALERT:
            alerts.append(rec)
    lines: List[str] = []
    if not samples and not alerts:
        lines.append("no monitor/alert records"
                     + (f" for tenant {tenant!r}" if tenant else "")
                     + " in this trace")
        return "\n".join(lines) + "\n"
    raised_at: Dict[Tuple[str, str], List[Tuple[int, Optional[int]]]] = {}
    for rec in alerts:
        key = (rec.details.get("tenant"), rec.details.get("rule"))
        if rec.event == "raise":
            raised_at.setdefault(key, []).append((rec.time, None))
        elif rec.event == "clear" and raised_at.get(key):
            start, _ = raised_at[key][-1]
            raised_at[key][-1] = (start, rec.time)
    for who in sorted(samples):
        rows = samples[who]
        burn_keys = sorted(key for key in rows[-1].details
                           if key.startswith("burn_"))
        header = (f"{'time':>12} {'good':>7} {'bad':>7} "
                  + " ".join(f"{key[5:] + ' f/s':>17}"
                             for key in burn_keys)
                  + f" {'p99':>8} alerts")
        lines.append(f"tenant {who}")
        lines.append(header)
        lines.append("-" * len(header))
        for rec in rows:
            details = rec.details
            time = rec.time
            active = sorted(
                rule for (tenant_key, rule), spans in raised_at.items()
                if tenant_key == who
                and any(start <= time and (end is None or time < end)
                        for start, end in spans))
            burn_cells = []
            for key in burn_keys:
                fast, slow = details.get(key, [0, 0])
                burn_cells.append(f"{fast / BURN_SCALE:>8.2f}/"
                                  f"{slow / BURN_SCALE:<8.2f}")
            p99 = details.get("response_p99")
            lines.append(
                f"{time:>12} {details.get('good', 0):>7} "
                f"{details.get('bad', 0):>7} "
                + " ".join(burn_cells)
                + f" {p99 if p99 is not None else '-':>8} "
                + (" ".join("!" + rule for rule in active) or "-"))
        lines.append("")
    if alerts:
        lines.append("alert log")
        lines.append("-" * 9)
        for rec in alerts:
            details = rec.details
            mark = "RAISE" if rec.event == "raise" else "clear"
            lines.append(
                f"{rec.time:>12} {mark:<5} {details.get('tenant')}"
                f"/{details.get('rule')} "
                f"burn {details.get('burn_fast_milli', 0) / BURN_SCALE:.2f}"
                f"/{details.get('burn_slow_milli', 0) / BURN_SCALE:.2f}")
    else:
        lines.append("no alerts")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.live",
        description="Text dashboard for the live monitoring plane: "
                    "sample series and alert log from a JSONL trace.")
    parser.add_argument("trace",
                        help="input trace (JSONL, as written by "
                             "Tracer.to_jsonl / stream_jsonl)")
    parser.add_argument("--tenant", default=None,
                        help="restrict the dashboard to one tenant")
    args = parser.parse_args(argv)
    sys.stdout.write(render_dashboard(args.trace, tenant=args.tenant))
    return 0


if __name__ == "__main__":
    sys.exit(main())
