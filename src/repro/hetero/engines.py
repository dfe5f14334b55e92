"""Heterogeneous processing engines (C-DAG / YASMIN, ROADMAP item 4).

A node of the original HADES platform is a homogeneous CPU.  Modern
safety-critical platforms attach accelerators — GPUs, DSPs, FPGA
shells — whose execution semantics differ from the CPU in one crucial
way: a kernel launched on them runs to completion.  Zahaf et al.'s
C-DAG model captures this as *alternative implementations* of a graph
node per engine class with per-class preemption semantics; YASMIN
generalizes it to multi-version tasks on COTS heterogeneous platforms.

This module provides the platform half of that model:

* :class:`EngineClass` — a named class of processing units with its
  preemption discipline (``cpu`` is preemptive; everything else is
  non-preemptive by default),
* :class:`HeterogeneousPool` — the per-node pool of engine units.
  Each unit is a :class:`repro.kernel.cpu.Cpu` instance flagged
  non-preemptive and labeled (``gpu0``, ``gpu1``, …) so trace records
  attribute time to the unit that ran it.

The mapping half — which EU version runs on which engine — lives in
:mod:`repro.hetero.mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.kernel.cpu import Cpu

#: The engine class every node implicitly owns: the preemptive CPU.
CPU_CLASS = "cpu"


@dataclass(frozen=True)
class EngineClass:
    """A class of processing units sharing execution semantics.

    ``preemptive`` is the one semantic axis the kernel honours: on a
    preemptive class a higher-priority challenger takes the unit
    mid-block; on a non-preemptive class a started compute block runs
    to completion and challengers wait.
    """

    name: str
    preemptive: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"engine class name must be a non-empty "
                             f"string, got {self.name!r}")


class HeterogeneousPool:
    """The non-CPU processing units owned by one node.

    Construction takes ``{"gpu": 2, "dsp": 1}`` — engine class name to
    unit count — and builds one non-preemptive :class:`Cpu` per unit,
    labeled ``gpu0``, ``gpu1``, ``dsp0``.  The node's plain CPU is not
    part of the pool; it stays the default processor for every thread
    that does not ask for an engine.
    """

    def __init__(self, node, spec: Dict[str, int]):
        if not isinstance(spec, dict) or not spec:
            raise ValueError(
                f"node {node.node_id!r}: engines= must be a non-empty "
                f"mapping of engine class to unit count, got {spec!r}")
        self.node = node
        self._classes: Dict[str, EngineClass] = {}
        self._units: Dict[str, List[Cpu]] = {}
        #: Outstanding thread claims per unit label.  Thread compute
        #: submission is asynchronous (the start timer), so queue state
        #: alone under-counts load at selection time; the dispatcher
        #: claims a unit at thread start and releases it at thread end.
        self._claims: Dict[str, int] = {}
        for cls_name in sorted(spec):
            count = spec[cls_name]
            if cls_name == CPU_CLASS:
                raise ValueError(
                    f"node {node.node_id!r}: engine class 'cpu' is "
                    f"implicit (the node's own CPU); declare only "
                    f"accelerator classes")
            if not isinstance(cls_name, str) or not cls_name:
                raise ValueError(
                    f"node {node.node_id!r}: engine class name must be "
                    f"a non-empty string, got {cls_name!r}")
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 1:
                raise ValueError(
                    f"node {node.node_id!r}: engine class {cls_name!r} "
                    f"needs a positive unit count, got {count!r}")
            engine_class = EngineClass(cls_name, preemptive=False)
            self._classes[cls_name] = engine_class
            self._units[cls_name] = [
                Cpu(node.sim, node.tracer, node.node_id,
                    context_switch_cost=0, metrics=node.metrics,
                    engine_class=cls_name,
                    engine_label=f"{cls_name}{index}")
                for index in range(count)
            ]

    # -- inspection -------------------------------------------------------

    def classes(self) -> List[str]:
        """Engine class names owned by this pool, sorted."""
        return list(self._classes)

    def engine_class(self, name: str) -> EngineClass:
        """The :class:`EngineClass` record for ``name``."""
        return self._classes[name]

    def has(self, cls_name: str) -> bool:
        """Whether the pool owns at least one ``cls_name`` unit."""
        return cls_name in self._units

    def units(self, cls_name: Optional[str] = None) -> List[Cpu]:
        """All units, or the units of one class (deterministic order)."""
        if cls_name is not None:
            return list(self._units.get(cls_name, ()))
        return [unit for name in self._units for unit in self._units[name]]

    def count(self, cls_name: str) -> int:
        """Number of units of ``cls_name`` in this pool."""
        return len(self._units.get(cls_name, ()))

    def spec(self) -> Dict[str, int]:
        """The class -> count mapping this pool was built from."""
        return {name: len(units) for name, units in self._units.items()}

    # -- runtime selection ------------------------------------------------

    def unit_for(self, cls_name: str) -> Cpu:
        """Pick the least-loaded unit of ``cls_name`` (deterministic).

        Load is the number of outstanding claims on the unit (threads
        assigned to it and not yet finished); ties break toward the
        lowest label, so repeated runs pick identical units and traces
        stay byte-reproducible.
        """
        units = self._units.get(cls_name)
        if not units:
            raise RuntimeError(
                f"node {self.node.node_id!r} has no {cls_name!r} engine "
                f"units (available: {sorted(self._units) or 'none'})")
        return min(units, key=lambda unit: (
            self._claims.get(unit.engine_label, 0), unit.engine_label))

    def acquire(self, cls_name: str) -> Cpu:
        """Pick the least-loaded unit and record a claim on it.

        The claim must be paired with :meth:`release` when the claiming
        thread finishes (the dispatcher's thread end hook releases it).
        """
        unit = self.unit_for(cls_name)
        label = unit.engine_label
        self._claims[label] = self._claims.get(label, 0) + 1
        return unit

    def release(self, unit: Cpu) -> None:
        """Drop one claim recorded by :meth:`acquire`."""
        label = unit.engine_label
        count = self._claims.get(label, 0)
        self._claims[label] = max(0, count - 1)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}x{len(units)}"
                          for name, units in self._units.items())
        return f"<HeterogeneousPool {self.node.node_id} {inner}>"


def engine_labels(spec: Dict[str, int]) -> List[str]:
    """The unit labels a pool built from ``spec`` will carry."""
    return [f"{name}{index}" for name in sorted(spec)
            for index in range(spec[name])]
