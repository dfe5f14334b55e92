"""The HEUG task model (paper §3.1).

A task is a finite set of *elementary units* (EUs) connected by
precedence constraints, forming a directed acyclic graph — the "Hades
Elementary Unit Graph".  Two kinds of EU exist:

* :class:`CodeEU` — a sequence of code (*action*) with a designer-
  guaranteed worst-case execution time, statically assigned to one
  processor, accessing only resources local to that processor, and
  performing no synchronisation internally;
* :class:`InvEU` — a request to execute another task, synchronous
  (ends when the invoked task ends) or asynchronous (ends at once).

Precedence constraints may carry named parameters that transfer data
between units.  A constraint between EUs on different processors is
*remote* and models an invocation of the ``T_network`` communication
task (paper §3.1); locality is derived from the EU node assignments, so
applications are designed independently of the network actually used.

**Builder idiom.**  :class:`Task` is a chainable builder: the
``code_eu``/``inv_eu`` conveniences return the unit they created,
``chain``/``precede-free`` construction helpers and ``validate`` return
the task itself, so a complete HEUG reads as one expression::

    control = Task("control", deadline=10_000, node_id="n0")
    sense = control.code_eu("sense", wcet=300)
    compute = control.code_eu("compute", wcet=1_500)
    actuate = control.code_eu("actuate", wcet=200)
    control.chain(sense, compute, actuate).validate()

**Compiled once.**  A HEUG is static while it runs: its units'
processors and its precedence constraints are fixed before the system
starts (§3.1).  So :class:`Task` derives its graph structure (adjacency,
remoteness of each edge, the topological order behind ``validate``) in
one pass, the first time it is queried, and serves it until the graph
is *mutated* — ``add``/``code_eu``/``inv_eu``/``precede``/``chain`` all
invalidate.  The same pass compiles the dispatcher's plan: one
:class:`EUPlan` per unit (its processor, its in-degree and its
out-edges), which every activation reads instead of querying the graph
(:meth:`Task.plan`).  Mutating attributes the cache depends on
*without* going through those methods (reassigning ``eu.node_id`` or
``task.node_id`` after a query, editing ``task.edges`` in place) must
be followed by an explicit :meth:`Task.invalidate_cache`.  A unit's
``attrs`` and ``engine`` are not compiled: the dispatcher reads them
per activation, because schedulers write them after validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.attributes import Aperiodic, ArrivalLaw, EUAttributes
from repro.core.condvars import ConditionVariable
from repro.core.resources import AccessMode, Resource, validate_claims


class ActionContext:
    """Execution context handed to a Code_EU's action.

    ``inputs`` holds values received over incoming precedence
    parameters; the action writes ``outputs`` for outgoing parameters
    and may queue condition-variable signals (applied by the dispatcher
    when the unit ends — actions themselves never synchronise).
    """

    __slots__ = ("inputs", "outputs", "activation_time", "now", "_signals")

    def __init__(self, inputs: Dict[str, Any], activation_time: int,
                 now: int):
        self.inputs = inputs
        self.outputs: Dict[str, Any] = {}
        self.activation_time = activation_time
        self.now = now
        # Queued condvar signals, deduplicated per condvar with
        # last-write-wins semantics (see signal()).  Insertion-ordered
        # by *first* signal of each condvar.
        self._signals: Dict[ConditionVariable, bool] = {}

    def signal(self, condvar: ConditionVariable, value: bool = True) -> None:
        """Queue a set (or clear) of ``condvar`` for end of unit.

        Signals are applied by the dispatcher when the unit ends, one
        state change per condition variable: signalling the same
        condvar several times within one unit keeps only the **last**
        value (last-write-wins).  A set-then-clear sequence therefore
        ends the unit with exactly one ``clear`` applied — watchers do
        *not* observe the intermediate set.
        """
        self._signals[condvar] = value


Action = Callable[[ActionContext], None]
ActualTime = Union[int, Callable[[Dict[str, Any]], int]]


class EU:
    """Common base for elementary units."""

    def __init__(self, name: str):
        self.name = name
        self.task: Optional["Task"] = None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class CodeEU(EU):
    """A sequence of code with a known WCET, bound to one processor.

    ``wcet`` is the designer-guaranteed worst-case execution time
    (paper: its designer *must* guarantee it can be determined).
    ``actual_time`` is what an execution really consumes — an int, or a
    callable of the action inputs — and must never exceed ``wcet``
    (executions shorter than the WCET are the "early termination"
    events the dispatcher monitors).

    **Multi-version units (repro.hetero).**  ``variants`` optionally
    maps engine class names to per-class WCETs — alternative
    implementations of the same unit on heterogeneous engines (C-DAG /
    YASMIN): ``variants={"cpu": 900, "gpu": 120}``.  The positional
    ``wcet`` stays the CPU version's bound (a ``"cpu"`` key, if given,
    must agree with it).  ``engine`` selects the version that runs —
    ``"cpu"`` by default, normally chosen by the mapping layer
    (:mod:`repro.hetero.mapping`) rather than by hand.
    ``actual_variants`` optionally gives per-engine actual times (int
    or callable of the inputs); a non-CPU engine without an entry runs
    for its full variant WCET — the CPU ``actual_time`` never transfers
    across engine classes.
    """

    def __init__(self, name: str, wcet: int,
                 node_id: Optional[str] = None,
                 action: Optional[Action] = None,
                 actual_time: Optional[ActualTime] = None,
                 resources: Sequence[Tuple[Resource, AccessMode]] = (),
                 wait_for: Sequence[ConditionVariable] = (),
                 may_signal: Sequence[ConditionVariable] = (),
                 attrs: Optional[EUAttributes] = None,
                 variants: Optional[Dict[str, int]] = None,
                 actual_variants: Optional[Dict[str, ActualTime]] = None,
                 engine: str = "cpu"):
        super().__init__(name)
        if wcet < 0:
            raise ValueError(
                f"EU {name!r}: wcet must be >= 0, got {wcet}")
        self.wcet = int(wcet)
        self.variants: Dict[str, int] = {}
        if variants is not None:
            if not isinstance(variants, dict) or not variants:
                raise ValueError(
                    f"EU {name!r}: variants= must be a non-empty "
                    f"mapping of engine class to wcet, got {variants!r}")
            for cls_name, bound in variants.items():
                if not isinstance(cls_name, str) or not cls_name:
                    raise ValueError(
                        f"EU {name!r}: variant engine class must be a "
                        f"non-empty string, got {cls_name!r}")
                if isinstance(bound, bool) or not isinstance(bound, int) \
                        or bound < 0:
                    raise ValueError(
                        f"EU {name!r}: variant wcet for engine "
                        f"{cls_name!r} must be >= 0, got {bound!r}")
                if cls_name == "cpu" and int(bound) != self.wcet:
                    raise ValueError(
                        f"EU {name!r}: variants['cpu'] ({bound}) "
                        f"disagrees with wcet ({self.wcet})")
                self.variants[cls_name] = int(bound)
        self.actual_variants: Dict[str, ActualTime] = dict(
            actual_variants or {})
        for cls_name in self.actual_variants:
            if cls_name != "cpu" and cls_name not in self.variants:
                raise ValueError(
                    f"EU {name!r}: actual_variants names engine "
                    f"{cls_name!r} with no matching wcet variant")
        if not isinstance(engine, str) or not engine:
            raise ValueError(
                f"EU {name!r}: engine must be a non-empty string, "
                f"got {engine!r}")
        #: Engine class the unit is currently mapped to ("cpu" unless
        #: the mapping layer assigned a variant).
        self.engine = engine
        self.node_id = node_id
        self.action = action
        self.actual_time = actual_time
        self.resources: List[Tuple[Resource, AccessMode]] = list(resources)
        validate_claims(self.resources)
        self.wait_for: List[ConditionVariable] = list(wait_for)
        #: Condition variables this unit's action may signal — declared
        #: for the benefit of off-line analysis and deadlock detection.
        self.may_signal: List[ConditionVariable] = list(may_signal)
        self.attrs = attrs if attrs is not None else EUAttributes()

    def _context(self) -> str:
        """``task 'name'/EU 'name'`` prefix for diagnostics."""
        if self.task is not None:
            return f"task {self.task.name!r}/EU {self.name!r}"
        return f"EU {self.name!r}"

    def engine_candidates(self) -> List[str]:
        """Engine classes this unit has an implementation for."""
        candidates = ["cpu"]
        candidates.extend(sorted(cls for cls in self.variants
                                 if cls != "cpu"))
        return candidates

    def wcet_on(self, engine: str) -> int:
        """The WCET of this unit's ``engine`` variant.

        Falls back to the base (CPU) WCET when no variant is declared
        for ``engine`` — single-version units are engine-agnostic.
        """
        if engine == "cpu":
            return self.wcet
        return self.variants.get(engine, self.wcet)

    def resolve_actual(self, inputs: Dict[str, Any],
                       engine: str = "cpu") -> int:
        """Actual execution time for this run on ``engine``.

        On the CPU this is ``actual_time`` (defaulting to the WCET).
        On a non-CPU engine it is ``actual_variants[engine]`` if
        declared, else deterministically the variant's WCET — the CPU
        actual-time model does not transfer across engine classes.
        Either way it must not exceed the engine variant's WCET.
        """
        bound = self.wcet_on(engine)
        if engine == "cpu":
            source = self.actual_time
        else:
            source = self.actual_variants.get(engine)
        if source is None:
            return bound
        actual = source(inputs) if callable(source) else source
        actual = int(actual)
        if actual < 0:
            raise ValueError(
                f"{self._context()}: negative actual time {actual} "
                f"on engine {engine!r}")
        if actual > bound:
            raise ValueError(
                f"{self._context()}: actual time {actual} exceeds "
                f"wcet {bound} on engine {engine!r}")
        return actual


class InvEU(EU):
    """A request to execute another task (paper §3.1).

    A synchronous invocation ends when the invoked task instance has
    finished; an asynchronous one ends immediately after issuing the
    activation request.

    ``inherit_priority`` implements §3.1.2's service idiom: "dynamic
    priority assignation can also be used to avoid priority inversions
    when defining services ... by dynamically setting the priority of
    services to the one of the actions that invoked them" — the
    invoked instance's units run at the invoking unit's priority.
    """

    def __init__(self, name: str, target: "Task", synchronous: bool = True,
                 node_id: Optional[str] = None,
                 inherit_priority: bool = False):
        super().__init__(name)
        self.target = target
        self.synchronous = synchronous
        self.node_id = node_id
        self.inherit_priority = inherit_priority


@dataclass(frozen=True)
class Precedence:
    """A precedence constraint: ``dst`` may start only after ``src`` ends.

    ``param`` optionally names a value copied from the source action's
    outputs to the destination action's inputs.
    """

    src: EU
    dst: EU
    param: Optional[str] = None


class EUPlan(NamedTuple):
    """What the dispatcher needs of one unit, compiled with its graph.

    ``node`` is the unit's processor, ``in_degree`` its number of
    incoming precedence constraints, and ``out_edges`` one
    ``(edge, edge index, remote flag)`` triple per outgoing constraint,
    in edge order; the index is :meth:`Task.edge_index`'s.
    """

    eu: EU
    node: Optional[str]
    in_degree: int
    out_edges: Tuple[Tuple[Precedence, int, bool], ...]


class _GraphCache:
    """Derived structures of one Task graph, built in one pass.

    Everything the dispatcher's per-activation and per-completion hot
    paths ask of the graph — adjacency, remoteness, ordering, and the
    per-unit :class:`EUPlan` — computed once after the last mutation
    instead of per query.
    """

    __slots__ = ("in_edges", "out_edges", "preds", "succs", "node_of",
                 "is_remote", "edge_index", "topo_order", "topo_error",
                 "sources", "sinks", "plan")

    def __init__(self, task: "Task"):
        eus = task.eus
        edges = task.edges
        self.in_edges: Dict[EU, List[Precedence]] = {eu: [] for eu in eus}
        self.out_edges: Dict[EU, List[Precedence]] = {eu: [] for eu in eus}
        self.preds: Dict[EU, List[EU]] = {eu: [] for eu in eus}
        self.succs: Dict[EU, List[EU]] = {eu: [] for eu in eus}
        self.edge_index: Dict[Precedence, int] = {}
        default_node = task.node_id
        self.node_of: Dict[EU, Optional[str]] = {
            eu: (eu.node_id if getattr(eu, "node_id", None) is not None
                 else default_node)
            for eu in eus}
        self.is_remote: Dict[Precedence, bool] = {}
        for index, edge in enumerate(edges):
            self.in_edges[edge.dst].append(edge)
            self.out_edges[edge.src].append(edge)
            self.preds[edge.dst].append(edge.src)
            self.succs[edge.src].append(edge.dst)
            if edge not in self.edge_index:
                self.edge_index[edge] = index
            self.is_remote[edge] = (self.node_of[edge.src]
                                    != self.node_of[edge.dst])
        self.sources: List[EU] = [eu for eu in eus if not self.preds[eu]]
        self.sinks: List[EU] = [eu for eu in eus if not self.succs[eu]]
        # Deterministic Kahn topological sort (insertion-order frontier,
        # matching the historical list.pop(0) behaviour).
        in_degree = {eu: len(self.preds[eu]) for eu in eus}
        frontier = [eu for eu in eus if in_degree[eu] == 0]
        order: List[EU] = []
        head = 0
        while head < len(frontier):
            eu = frontier[head]
            head += 1
            order.append(eu)
            for succ in self.succs[eu]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    frontier.append(succ)
        self.topo_error = len(order) != len(eus)
        self.topo_order = order
        self.plan: Tuple[EUPlan, ...] = tuple(
            EUPlan(eu, self.node_of[eu], len(self.in_edges[eu]),
                   tuple((edge, self.edge_index[edge], self.is_remote[edge])
                         for edge in self.out_edges[eu]))
            for eu in eus)


class Task:
    """A HEUG: elementary units + precedence constraints + timing.

    ``deadline`` is relative to the activation request (paper §3.1.2);
    ``arrival`` is the activation arrival law; ``node_id`` is the
    default processor for units that do not name one.

    Construction is chainable (see the module docstring's builder
    idiom): mutators return ``self`` or the created unit, and derived
    graph structure is cached between mutations.
    """

    def __init__(self, name: str, deadline: Optional[int] = None,
                 arrival: Optional[ArrivalLaw] = None,
                 node_id: Optional[str] = None,
                 recovery: Optional["Task"] = None):
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        self.name = name
        self.deadline = deadline
        self.arrival: ArrivalLaw = arrival if arrival is not None else Aperiodic()
        self.node_id = node_id
        #: Exception handling (§3.1's omitted constructions): a task to
        #: activate when an instance fails — an action raises, or a
        #: recovery manager reacts to a timing violation.  The failed
        #: instance is aborted first.
        self.recovery = recovery
        self.eus: List[EU] = []
        self.edges: List[Precedence] = []
        self._validated = False
        self._cache: Optional[_GraphCache] = None

    # -- construction -----------------------------------------------------

    def invalidate_cache(self) -> "Task":
        """Drop cached derived structures (topology, adjacency,
        remoteness) and the validation flag; returns self.

        Called automatically by :meth:`add`/:meth:`precede`/
        :meth:`chain`; call it yourself after out-of-band mutations the
        cache cannot observe (reassigning ``node_id`` attributes,
        editing ``edges`` in place).
        """
        self._cache = None
        self._validated = False
        return self

    def _graph(self) -> _GraphCache:
        cache = self._cache
        if cache is None:
            cache = self._cache = _GraphCache(self)
        return cache

    def add(self, eu: EU) -> EU:
        """Add an elementary unit to the graph; returns the unit."""
        if eu.task is not None and eu.task is not self:
            raise ValueError(f"{eu.name} already belongs to {eu.task.name}")
        if any(existing.name == eu.name for existing in self.eus):
            raise ValueError(f"duplicate EU name {eu.name!r} in {self.name}")
        eu.task = self
        self.eus.append(eu)
        self.invalidate_cache()
        return eu

    def code_eu(self, name: str, wcet: int, **kwargs: Any) -> CodeEU:
        """Convenience: create and add a :class:`CodeEU`; returns it."""
        try:
            eu = CodeEU(name, wcet, **kwargs)
        except ValueError as error:
            # Construction diagnostics name only the EU; large graphs
            # need the owning task too.
            raise ValueError(f"task {self.name!r}: {error}") from None
        return self.add(eu)  # type: ignore[return-value]

    def inv_eu(self, name: str, target: "Task", **kwargs: Any) -> InvEU:
        """Convenience: create and add an :class:`InvEU`; returns it."""
        return self.add(InvEU(name, target, **kwargs))  # type: ignore[return-value]

    def precede(self, src: EU, dst: EU, param: Optional[str] = None) -> Precedence:
        """Add the precedence constraint ``src`` → ``dst``; returns it."""
        if src not in self.eus or dst not in self.eus:
            raise ValueError("precedence endpoints must belong to this task")
        if src is dst:
            raise ValueError("self-precedence is a cycle")
        edge = Precedence(src, dst, param)
        self.edges.append(edge)
        self.invalidate_cache()
        return edge

    def chain(self, *eus: EU) -> "Task":
        """Add precedence constraints forming a linear chain; returns
        self (builder idiom)."""
        for src, dst in zip(eus, eus[1:]):
            self.precede(src, dst)
        return self

    # -- graph queries ---------------------------------------------------------

    def predecessors(self, eu: EU) -> List[EU]:
        """Units with an edge into the given unit."""
        return self._graph().preds[eu]

    def successors(self, eu: EU) -> List[EU]:
        """Units the given unit has an edge to."""
        return self._graph().succs[eu]

    def in_edges(self, eu: EU) -> List[Precedence]:
        """Precedence constraints ending at the unit."""
        return self._graph().in_edges[eu]

    def out_edges(self, eu: EU) -> List[Precedence]:
        """Precedence constraints leaving the unit."""
        return self._graph().out_edges[eu]

    def sources(self) -> List[EU]:
        """Units with no predecessors (entry points of the graph)."""
        return list(self._graph().sources)

    def sinks(self) -> List[EU]:
        """Units with no successors (exit points)."""
        return list(self._graph().sinks)

    def node_of(self, eu: EU) -> Optional[str]:
        """The processor an EU is statically assigned to."""
        cache = self._cache
        if cache is not None:
            node = cache.node_of.get(eu)
            if node is not None or eu in cache.node_of:
                return node
        explicit = getattr(eu, "node_id", None)
        return explicit if explicit is not None else self.node_id

    def is_remote(self, edge: Precedence) -> bool:
        """Whether a precedence constraint crosses processors (§3.1)."""
        cached = self._graph().is_remote.get(edge)
        if cached is not None:
            return cached
        return self.node_of(edge.src) != self.node_of(edge.dst)

    def edge_index(self, edge: Precedence) -> int:
        """Position of ``edge`` in :attr:`edges` (stable wire format of
        remote precedence messages)."""
        index = self._graph().edge_index.get(edge)
        if index is not None:
            return index
        return self.edges.index(edge)

    def code_eus(self) -> List[CodeEU]:
        """The Code_EUs of this task, in insertion order."""
        return [eu for eu in self.eus if isinstance(eu, CodeEU)]

    def inv_eus(self) -> List[InvEU]:
        """The Inv_EUs of this task, in insertion order."""
        return [eu for eu in self.eus if isinstance(eu, InvEU)]

    def total_wcet(self) -> int:
        """Sum of the WCETs of all Code_EUs (one-processor upper bound),
        using each unit's currently-mapped engine variant."""
        return sum(eu.wcet_on(eu.engine) for eu in self.code_eus())

    # -- validation ----------------------------------------------------------

    def topological_order(self) -> List[EU]:
        """Units in a deterministic topological order.

        Raises ``ValueError`` if the graph has a cycle — a HEUG must be
        a *directed acyclic* graph.
        """
        cache = self._graph()
        if cache.topo_error:
            raise ValueError(f"task {self.name!r} has a precedence cycle")
        return list(cache.topo_order)

    def plan(self) -> Tuple[EUPlan, ...]:
        """The validated graph's :class:`EUPlan` of every unit, in unit
        order: what one activation needs of the graph, compiled once
        after the last mutation."""
        if not self._validated or self._cache is None:
            self.validate()
        return self._cache.plan

    def validate(self) -> "Task":
        """Check HEUG structural rules; returns self for chaining.

        Rules enforced: non-empty, acyclic, every Code_EU has a node
        assignment (directly or via the task default), resources used by
        a Code_EU are local to its processor, and edge parameters do not
        collide on the destination side.

        The outcome is cached: re-validating an unmodified task is a
        flag test.  Any mutation through :meth:`add`/:meth:`precede`/
        :meth:`chain` re-arms the check.
        """
        if self._validated and self._cache is not None:
            return self
        if not self.eus:
            raise ValueError(f"task {self.name!r} has no elementary units")
        cache = self._graph()
        if cache.topo_error:
            raise ValueError(f"task {self.name!r} has a precedence cycle")
        for eu in self.code_eus():
            node = cache.node_of[eu]
            if node is None:
                raise ValueError(
                    f"{self.name}/{eu.name}: no processor assignment")
            for resource, _mode in eu.resources:
                if resource.node_id is not None and resource.node_id != node:
                    raise ValueError(
                        f"{self.name}/{eu.name}: resource {resource.name} "
                        f"is on node {resource.node_id}, EU on {node}")
        for eu in self.eus:
            params = [e.param for e in cache.in_edges[eu] if e.param]
            if len(params) != len(set(params)):
                raise ValueError(
                    f"{self.name}/{eu.name}: duplicate incoming parameter")
        self._validated = True
        return self

    def __repr__(self) -> str:
        return (f"<Task {self.name} eus={len(self.eus)} "
                f"edges={len(self.edges)} D={self.deadline}>")
