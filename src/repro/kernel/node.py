"""A processor node: CPU + hardware clock + kernel facilities.

The paper's platform is "a network of mono-processor machines"
(§2.2.1).  A :class:`Node` is one of those machines: it owns exactly
one :class:`~repro.kernel.cpu.Cpu`, one hardware clock, its interrupt
sources, and spawns kernel threads.  Node crash / recovery is part of
the fault model (§2.1: crash, omission and coherent-value failures for
processors).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.kernel.clocks import HardwareClock
from repro.kernel.cpu import Cpu
from repro.kernel.interrupts import InterruptSource, PeriodicInterrupt
from repro.kernel.threads import KThread, ThreadBody
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

#: Default background kernel activity parameters (paper §4.2 measured
#: the clock interrupt and the ATM receive interrupt of ChorusR3; these
#: are our simulated stand-ins, in microseconds).
DEFAULT_CLOCK_TICK_PERIOD = 10_000    # 10 ms kernel tick
DEFAULT_CLOCK_TICK_WCET = 15          # w_clock
DEFAULT_NET_IRQ_WCET = 40             # w_atm
DEFAULT_NET_IRQ_PSEUDO_PERIOD = 100   # P_atm: min gap between receipts


class Node:
    """One simulated machine running the (simulated) COTS RT kernel."""

    def __init__(self, sim: Simulator, node_id: str,
                 tracer: Optional[Tracer] = None,
                 clock: Optional[HardwareClock] = None,
                 context_switch_cost: int = 0,
                 clock_tick_period: int = DEFAULT_CLOCK_TICK_PERIOD,
                 clock_tick_wcet: int = DEFAULT_CLOCK_TICK_WCET,
                 net_irq_wcet: int = DEFAULT_NET_IRQ_WCET,
                 net_irq_pseudo_period: int = DEFAULT_NET_IRQ_PSEUDO_PERIOD,
                 metrics=None,
                 engines: Optional[Dict[str, int]] = None):
        self.sim = sim
        self.node_id = node_id
        self.tracer = tracer if tracer is not None else Tracer(sim)
        if self.tracer._clock is None:
            self.tracer.bind_clock(sim)
        self.clock = clock if clock is not None else HardwareClock(sim)
        self.metrics = metrics
        self.cpu = Cpu(sim, self.tracer, node_id, context_switch_cost,
                       metrics=metrics)
        # Numbers this node's threads, so an unnamed thread's name
        # depends on this node's history only, not on the process's.
        self._thread_ids = itertools.count(1)
        #: Heterogeneous engine pool (repro.hetero), or None for the
        #: paper's homogeneous mono-processor node.
        self.engines = None
        if engines is not None:
            # Imported lazily: repro.hetero is an optional layer above
            # the kernel, and importing it here unconditionally would
            # cycle through the repro facade during package import.
            from repro.hetero.engines import HeterogeneousPool
            self.engines = HeterogeneousPool(self, engines)
        self.crashed = False
        self._threads: List[KThread] = []
        self._crash_listeners: List[Callable[["Node"], None]] = []
        #: Software clock value maintained by the tick handler, mirroring
        #: ChorusR3's tick-updated software clock (§4.2).
        self.software_clock = 0
        self.clock_tick = PeriodicInterrupt(
            self, "clock", clock_tick_wcet, clock_tick_period,
            handler=self._on_clock_tick)
        self.net_irq = InterruptSource(
            self, "net", net_irq_wcet, net_irq_pseudo_period)

    # -- kernel services --------------------------------------------------

    def spawn(self, body: ThreadBody, name: str = "", priority: int = 1,
              preemption_threshold: Optional[int] = None) -> KThread:
        """Create and start a kernel thread on this node."""
        if self.crashed:
            raise RuntimeError(f"node {self.node_id} has crashed")
        thread = KThread(self, body, name=name, priority=priority,
                         preemption_threshold=preemption_threshold)
        self._threads.append(thread)
        thread.start()
        return thread

    def now(self) -> int:
        """This node's *local* clock reading (drifts from real time)."""
        return self.clock.read()

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` microseconds of real time."""
        self.sim.call_in(delay, self._guarded(callback))

    def _guarded(self, callback: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            if not self.crashed:
                callback()
        return run

    def _on_clock_tick(self, _payload: Any) -> None:
        self.software_clock += self.clock_tick.period

    def start_background_activities(self) -> None:
        """Activate the periodic kernel tick (§4.2 background activity)."""
        self.clock_tick.activate()

    # -- fault model --------------------------------------------------------

    def on_crash(self, listener: Callable[["Node"], None]) -> None:
        """Register a listener invoked when this node crashes."""
        self._crash_listeners.append(listener)

    def crash(self) -> None:
        """Crash failure: the node stops executing, silently and forever
        (until :meth:`recover`)."""
        if self.crashed:
            return
        self.crashed = True
        self.tracer.record("node", "crash", node=self.node_id)
        self.clock_tick.deactivate()
        for thread in self._threads:
            thread.kill()
        self._threads.clear()
        for listener in self._crash_listeners:
            listener(self)

    def recover(self) -> None:
        """Restart the node with empty state (threads are not restored)."""
        if not self.crashed:
            return
        self.crashed = False
        self.tracer.record("node", "recover", node=self.node_id)

    # -- introspection --------------------------------------------------------

    @property
    def threads(self) -> List[KThread]:
        """Live thread objects spawned on this node (copy); finished
        threads stay in ``_threads`` until :meth:`crash`."""
        return [thread for thread in self._threads if thread.alive]

    def utilization(self, horizon: Optional[int] = None) -> float:
        """Fraction of elapsed (or ``horizon``) time the CPU was busy."""
        span = horizon if horizon is not None else self.sim.now
        if span <= 0:
            return 0.0
        return self.cpu.utilization_time / span

    def kernel_activity_parameters(self) -> Dict[str, int]:
        """The §4.2 characterisation of this node's background activities."""
        return {
            "w_clock": self.clock_tick.wcet,
            "P_clock": self.clock_tick.period,
            "w_net": self.net_irq.wcet,
            "P_net": self.net_irq.pseudo_period,
        }

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"<Node {self.node_id} {state} threads={len(self.threads)}>"
