"""Static mapping of multi-version EUs onto heterogeneous engines.

The mapping problem (which engine class runs each Code_EU of a HEUG)
is an ILP in Zahaf et al.'s C-DAG formulation.  This module solves it
with a deterministic ILP-lite heuristic good enough for a middleware:

1. **Critical-path ranking** — each unit is ranked by the longest
   path from it to a sink, measured in *optimistic* WCETs (the fastest
   variant available on the unit's node).  Units whose remaining path
   dominates the end-to-end response are mapped first.
2. **Greedy earliest-finish selection** — in decreasing rank order,
   each unit picks the engine class minimizing a load-balance
   estimate: accumulated class load on its node, divided by the number
   of units of that class, plus the variant's WCET.  Integer
   arithmetic only, ties broken on ``(estimate, wcet, class name)`` —
   the mapping is a pure function of the task and platform, so
   rebuilding a system reaches the identical assignment and traces
   stay byte-reproducible.

Entry points:

* :func:`map_task` — compute an :class:`Assignment` (no mutation),
* :func:`apply_assignment` — stamp an assignment onto the task,
* :func:`auto_map` — both, returning the assignment,
* :func:`enumerate_assignments` — exhaustive search space (the oracle
  baseline of benchmark E24).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.heug import CodeEU, Task

#: Platform description: node id -> {engine class -> unit count}.
#: Every node implicitly owns one preemptive "cpu" unit.
PlatformSpec = Dict[str, Dict[str, int]]


@dataclass(frozen=True)
class Assignment:
    """An engine-class choice per Code_EU name of one task."""

    task_name: str
    mapping: Dict[str, str] = field(default_factory=dict)

    def engine_of(self, eu_name: str) -> str:
        """The engine class chosen for ``eu_name`` ("cpu" if unmapped)."""
        return self.mapping.get(eu_name, "cpu")

    def items(self) -> List[Tuple[str, str]]:
        """(eu name, engine class) pairs, insertion-ordered."""
        return list(self.mapping.items())

    def offloaded(self) -> List[str]:
        """Names of units mapped off the CPU."""
        return [name for name, cls in self.mapping.items() if cls != "cpu"]

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}->{cls}"
                          for name, cls in self.mapping.items())
        return f"<Assignment {self.task_name} {inner or 'cpu-only'}>"


def _candidates(eu: CodeEU, node_engines: Dict[str, int]) -> List[str]:
    """Engine classes ``eu`` can run on, on its node.  CPU always can;
    a variant is usable only if the node owns units of its class."""
    usable = ["cpu"]
    usable.extend(cls for cls in eu.variants
                  if cls != "cpu" and node_engines.get(cls, 0) > 0)
    return usable


def _rank_units(task: Task,
                engines: PlatformSpec) -> List[Tuple[int, int, CodeEU]]:
    """Code_EUs with their critical-path rank (longest optimistic path
    to a sink), sorted mapping-first: decreasing rank, then topo index."""
    topo = task.topological_order()
    topo_index = {eu: index for index, eu in enumerate(topo)}
    best: Dict[object, int] = {}
    for eu in topo:
        if isinstance(eu, CodeEU):
            node_engines = engines.get(task.node_of(eu) or "", {})
            best[eu] = min(eu.wcet_on(cls)
                           for cls in _candidates(eu, node_engines))
        else:
            best[eu] = 0
    rank: Dict[object, int] = {}
    for eu in reversed(topo):
        downstream = [rank[succ] for succ in task.successors(eu)]
        rank[eu] = best[eu] + (max(downstream) if downstream else 0)
    ranked = [(rank[eu], topo_index[eu], eu)
              for eu in topo if isinstance(eu, CodeEU)]
    ranked.sort(key=lambda entry: (-entry[0], entry[1]))
    return ranked


def map_task(task: Task, engines: PlatformSpec) -> Assignment:
    """Compute the heuristic engine assignment for ``task``.

    ``engines`` describes the platform's accelerator pools per node
    (the same shape ``HadesSystem(engines=...)`` takes).  The task is
    not modified — use :func:`apply_assignment` or :func:`auto_map` to
    make the assignment effective.
    """
    if not isinstance(engines, dict):
        raise ValueError(f"engines must map node id -> {{class: count}}, "
                         f"got {engines!r}")
    mapping: Dict[str, str] = {}
    load: Dict[Tuple[str, str], int] = {}
    for _rank, _index, eu in _rank_units(task, engines):
        node = task.node_of(eu) or ""
        node_engines = engines.get(node, {})
        best_cls: Optional[str] = None
        best_key: Optional[Tuple[int, int, str]] = None
        for cls in _candidates(eu, node_engines):
            wcet = eu.wcet_on(cls)
            units = node_engines.get(cls, 0) if cls != "cpu" else 1
            estimate = load.get((node, cls), 0) // max(units, 1) + wcet
            key = (estimate, wcet, cls)
            if best_key is None or key < best_key:
                best_cls, best_key = cls, key
        assert best_cls is not None
        mapping[eu.name] = best_cls
        load[(node, best_cls)] = (load.get((node, best_cls), 0)
                                  + eu.wcet_on(best_cls))
    return Assignment(task.name, mapping)


def apply_assignment(task: Task, assignment: Assignment) -> Task:
    """Stamp ``assignment`` onto the task's Code_EUs; returns the task.

    Unmapped units fall back to the CPU.  The graph cache is
    invalidated because ``total_wcet`` (and feasibility maths built on
    it) depend on the selected variants.
    """
    names = {eu.name for eu in task.code_eus()}
    unknown = sorted(set(assignment.mapping) - names)
    if unknown:
        raise ValueError(
            f"task {task.name!r}: assignment names unknown EU(s) "
            f"{', '.join(repr(name) for name in unknown)}")
    for eu in task.code_eus():
        eu.engine = assignment.engine_of(eu.name)
    return task.invalidate_cache()


def auto_map(task: Task, engines: PlatformSpec) -> Assignment:
    """Map and apply in one step; returns the chosen assignment."""
    assignment = map_task(task, engines)
    apply_assignment(task, assignment)
    return assignment


def cpu_only(task: Task) -> Assignment:
    """The baseline assignment: every unit on its node's CPU."""
    return Assignment(task.name,
                      {eu.name: "cpu" for eu in task.code_eus()})


def enumerate_assignments(task: Task,
                          engines: PlatformSpec) -> Iterator[Assignment]:
    """Every feasible engine assignment (the E24 oracle's search space).

    Cartesian product of each unit's usable classes, in deterministic
    order.  Exponential — intended for small benchmark DAGs only.
    """
    eus = task.code_eus()
    choice_lists = []
    for eu in eus:
        node_engines = engines.get(task.node_of(eu) or "", {})
        choice_lists.append(_candidates(eu, node_engines))
    for combo in itertools.product(*choice_lists):
        yield Assignment(task.name,
                         {eu.name: cls for eu, cls in zip(eus, combo)})
