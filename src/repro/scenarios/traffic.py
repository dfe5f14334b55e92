"""Heavy-tailed service-time models for production traffic scenarios.

Production request service times are not constants: measured
distributions are right-skewed with heavy tails (lognormal bodies,
Pareto tails), and it is exactly that tail that makes p99/p999 latency
interesting.  The HEUG model already separates the *designer-guaranteed*
WCET from what an execution really consumes (``CodeEU.actual_time``),
so a service-time model plugs in as a per-EU ``actual_time`` callable:
seeded, stateful, and clamped to ``[1, wcet]`` (the WCET contract is a
hard bound — the tail mass above it models work the designer budgeted
for; admission reasons about the WCET, the simulation burns the sample).

Determinism: each sampler owns a private :class:`random.Random` seeded
at construction, and each EU gets its own sampler, so an EU's draw
sequence does not depend on what other EUs draw.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Any, Callable, Dict

__all__ = ["ServiceTimeModel", "DeterministicService", "LogNormalService",
           "ParetoService", "derive_seed"]


def derive_seed(*parts: Any) -> int:
    """A stable 32-bit sub-seed from string-able parts.

    ``hash()`` is per-process randomized; CRC32 over the joined repr is
    not, so every process derives identical seeds.
    """
    return zlib.crc32(":".join(str(p) for p in parts).encode())


class ServiceTimeModel:
    """Interface: a factory of per-EU ``actual_time`` callables.

    ``sampler(wcet, seed)`` returns a callable suitable for
    ``CodeEU(actual_time=...)``: it ignores the action inputs, draws
    the next service time from the model's distribution, and clamps it
    into ``[1, wcet]``.
    """

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    def sampler(self, wcet: int, seed: int) -> Callable[[Dict[str, Any]], int]:
        if wcet <= 0:
            raise ValueError("wcet must be > 0")
        rng = random.Random(seed)

        def actual_time(_inputs: Dict[str, Any]) -> int:
            drawn = int(round(self.sample(rng)))
            return min(wcet, max(1, drawn))

        return actual_time

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class DeterministicService(ServiceTimeModel):
    """Constant service time (``fraction`` of the WCET is applied by the
    caller — this model just returns the configured microseconds)."""

    def __init__(self, micros: int):
        if micros <= 0:
            raise ValueError("micros must be > 0")
        self.micros = micros

    def sample(self, rng: random.Random) -> float:
        return float(self.micros)


class LogNormalService(ServiceTimeModel):
    """Lognormal service times parameterized by their median.

    ``median`` is the distribution median in microseconds (``mu =
    ln(median)``); ``sigma`` is the shape — 0.5 is a mild skew, 1.0 a
    long tail (p999/p50 ≈ 22×).
    """

    def __init__(self, median: float, sigma: float = 0.5):
        if median <= 0:
            raise ValueError("median must be > 0")
        if sigma <= 0:
            raise ValueError("sigma must be > 0")
        self.median = median
        self.sigma = sigma

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(math.log(self.median), self.sigma)


class ParetoService(ServiceTimeModel):
    """Pareto service times: scale ``xm`` (the minimum) and tail index
    ``alpha``.  ``alpha <= 2`` has infinite variance — the classic
    heavy-tail stressor for tail-latency studies."""

    def __init__(self, scale: float, alpha: float = 1.5):
        if scale <= 0:
            raise ValueError("scale must be > 0")
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.scale = scale
        self.alpha = alpha

    def sample(self, rng: random.Random) -> float:
        return self.scale * rng.paretovariate(self.alpha)
