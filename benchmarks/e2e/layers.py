"""Fold a cProfile run into the simulator's named layers.

Every module of ``src/repro`` belongs to exactly one layer (longest
prefix in :data:`MODULE_LAYERS` wins).  The benchmark's own files are
two more layers: ``app`` (the workload definitions and their callbacks)
and ``harness`` (the measurement code).  A function's self time goes to
its module's layer.  Time in the standard library and builtins has no
layer of its own: it is charged to the nearest ancestor that has one,
split across callers by pstats' per-caller breakdown, so a ``heapq``
pop called from the engine counts as engine time.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

#: Layer names, in report order.
LAYERS = (
    "sim.engine", "sim.trace",
    "core.dispatcher", "core.heug",
    "kernel.cpu", "kernel.threads", "kernel.interrupts",
    "network", "scheduling", "admission", "services", "faults",
    "scenarios",
    "obs.live", "obs.analysis", "obs.metrics", "hetero",
    "app", "harness",
)

#: The layers made of the benchmark's own code, not of ``repro``.
BENCH_LAYERS = ("app", "harness")

#: Module or package prefix -> layer.  The longest matching prefix wins,
#: so a package entry covers its ``__init__`` and every module not
#: listed on its own.
MODULE_LAYERS = {
    # The facade (package exports, HadesSystem wiring, the experiment
    # CLI) assembles and drives the engine.
    "repro": "sim.engine",
    "repro.sim": "sim.engine",
    "repro.sim.trace": "sim.trace",
    "repro.core": "core.dispatcher",
    "repro.core.heug": "core.heug",
    "repro.core.attributes": "core.heug",
    "repro.core.tnetwork": "network",
    # Node wiring, clocks, devices and their timers are interrupt-driven.
    "repro.kernel": "kernel.interrupts",
    "repro.kernel.cpu": "kernel.cpu",
    "repro.kernel.priorities": "kernel.cpu",
    "repro.kernel.threads": "kernel.threads",
    "repro.kernel.sync": "kernel.threads",
    "repro.network": "network",
    "repro.scheduling": "scheduling",
    "repro.admission": "admission",
    "repro.feasibility": "admission",
    "repro.services": "services",
    "repro.faults": "faults",
    "repro.scenarios": "scenarios",
    "repro.workloads": "scenarios",
    "repro.obs": "obs.metrics",
    "repro.obs.live": "obs.live",
    "repro.obs.spans": "obs.analysis",
    "repro.obs.forensics": "obs.analysis",
    "repro.obs.timeline": "obs.analysis",
    "repro.analysis": "obs.analysis",
    "repro.hetero": "hetero",
}

HERE = os.path.dirname(os.path.abspath(__file__))

FuncKey = Tuple[str, int, str]


def module_name(path: str) -> Optional[str]:
    """Dotted ``repro`` module name of a source path, else None."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" not in parts or not path.endswith(".py"):
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    if index == 0 or parts[index - 1] != "src":
        return None
    dotted = parts[index:]
    dotted[-1] = dotted[-1][:-3]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def module_layer(module: str) -> str:
    """The layer of a dotted ``repro`` module (longest prefix wins)."""
    name = module
    while name not in MODULE_LAYERS:
        if "." not in name:
            raise KeyError(f"module {module!r} maps to no layer")
        name = name.rsplit(".", 1)[0]
    return MODULE_LAYERS[name]


def file_layer(path: str) -> Optional[str]:
    """The layer of a source file, or None for stdlib and builtins."""
    if path == "~" or path.startswith("<"):
        return None  # builtins, frozen and generated code
    module = module_name(path)
    if module is not None:
        return module_layer(module)
    if os.path.dirname(os.path.abspath(path)) == HERE:
        return ("app" if os.path.basename(path) == "workloads.py"
                else "harness")
    return None


def fold(stats: Dict[FuncKey, tuple]) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` dict."""
    layer_of = {func: file_layer(func[0]) for func in stats}
    shares: Dict[FuncKey, Dict[str, float]] = {}
    visiting = set()

    def ancestry(func: FuncKey) -> Dict[str, float]:
        """How ``func``'s invocations split over its callers' layers."""
        if layer_of.get(func) is not None:
            return {layer_of[func]: 1.0}
        if func in shares:
            return shares[func]
        visiting.add(func)
        weights: Dict[str, float] = {}
        callers = stats[func][4] if func in stats else {}
        for caller, (_cc, _nc, _tt, cumulative) in callers.items():
            if caller in visiting:
                continue  # recursion among unlayered frames
            for layer, part in ancestry(caller).items():
                weights[layer] = weights.get(layer, 0.0) + cumulative * part
        visiting.discard(func)
        total = sum(weights.values())
        shares[func] = ({layer: value / total
                         for layer, value in weights.items()}
                        if total > 0 else {"harness": 1.0})
        return shares[func]

    self_s = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, own, _ct, callers) in stats.items():
        if layer_of[func] is not None:
            self_s[layer_of[func]] += own
            continue
        charged = 0.0
        for caller, (_c, _n, part, _cum) in callers.items():
            for layer, fraction in ancestry(caller).items():
                self_s[layer] += part * fraction
            charged += part
        # Self time pstats could not split by caller (profile roots).
        if own > charged:
            self_s["harness"] += own - charged
    return self_s


def call_counts(stats: Dict[FuncKey, tuple],
                wanted: Iterable[Tuple[str, str]]) -> Dict[Tuple[str, str], int]:
    """Call counts of ``(module, function)`` pairs, summed over every
    function of that name in the module (methods of all classes)."""
    wanted = set(wanted)
    counts = {key: 0 for key in wanted}
    for (path, _line, name), (_cc, calls, *_rest) in stats.items():
        key = (module_name(path), name)
        if key in wanted:
            counts[key] += calls
    return counts
