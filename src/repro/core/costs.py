"""The HADES cost model (paper §4).

Activities induced by running the middleware fall into two categories:

1. **Dispatcher activities** recur with the same frequency as the
   application task they serve, so their cost is *carried over to the
   task's execution cost* (§4.1).  They are fully described by the
   constants of :class:`DispatcherCosts`:

   * ``c_local``   — executing a local precedence constraint (data
     copy + context switch),
   * ``c_remote``  — handing data to the communication protocol for a
     remote precedence constraint (not the transfer itself, which is
     ``T_network``'s job),
   * ``c_start_act`` / ``c_end_act`` — dispatcher+kernel work to start /
     end one action,
   * ``c_start_inv`` / ``c_end_inv`` — dispatcher+kernel work at the
     beginning / end of a task invocation.

2. **Background kernel activities** (§4.2) have their own (sporadic)
   arrival law, independent of any application task: each is a
   :class:`KernelActivity` with a WCET and a pseudo-period, running at
   the highest priority.  In the paper's minimal ChorusR3 configuration
   there are two: the clock interrupt and the ATM-card interrupt.

:func:`inflate_wcet` implements the §5.3 substitution C_i → C_i' and
:func:`inflate_blocking` the B_i → B_i' substitution, generalised from
the worked example to arbitrary HEUGs (the example's constants follow
for its specific 3-unit translation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.heug import Task


@dataclass(frozen=True)
class DispatcherCosts:
    """Worst-case execution times of the dispatcher activities (µs)."""

    c_local: int = 8
    c_remote: int = 12
    c_start_act: int = 5
    c_end_act: int = 5
    c_start_inv: int = 6
    c_end_inv: int = 6

    def __post_init__(self) -> None:
        for name in ("c_local", "c_remote", "c_start_act", "c_end_act",
                     "c_start_inv", "c_end_inv"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def zero(cls) -> "DispatcherCosts":
        """A cost-free dispatcher (for idealised comparisons)."""
        return cls(0, 0, 0, 0, 0, 0)

    def per_action(self) -> int:
        """c_start_act + c_end_act."""
        return self.c_start_act + self.c_end_act

    def per_invocation(self) -> int:
        """c_start_inv + c_end_inv."""
        return self.c_start_inv + self.c_end_inv


@dataclass(frozen=True)
class KernelActivity:
    """One background kernel activity: sporadic, highest priority (§4.2)."""

    name: str
    wcet: int
    pseudo_period: int

    def __post_init__(self) -> None:
        if self.wcet < 0:
            raise ValueError("wcet must be >= 0")
        if self.pseudo_period <= 0:
            raise ValueError("pseudo_period must be > 0")
        if self.wcet > self.pseudo_period:
            raise ValueError("activity longer than its pseudo-period")

    def demand(self, window: int) -> int:
        """Worst-case CPU demand of this activity over ``window`` µs."""
        if window <= 0:
            return 0
        return -(-window // self.pseudo_period) * self.wcet


def inflate_wcet(task: "Task", costs: DispatcherCosts) -> int:
    """C_i' for a HEUG: its WCET including dispatcher activities (§5.3).

    Every Code_EU pays ``c_start_act + c_end_act``; every local
    precedence pays ``c_local``; every remote precedence pays
    ``c_remote`` (transmission side); every Inv_EU pays
    ``c_start_inv + c_end_inv``.  For the paper's Spuri translation
    (3 Code_EUs, 2 local edges when the task uses a resource; 1 Code_EU
    otherwise) this reduces to the formulas of §5.3.
    """
    total = task.total_wcet()
    total += len(task.code_eus()) * costs.per_action()
    total += len(task.inv_eus()) * costs.per_invocation()
    for edge in task.edges:
        total += costs.c_remote if task.is_remote(edge) else costs.c_local
    return total


def inflate_blocking(blocking: int, costs: DispatcherCosts) -> int:
    """B_i' = B_i + c_start_act + c_end_act (§5.3).

    While a lower-priority unit holds a resource, the blocked task also
    waits out the dispatcher work that brackets the blocking action.
    """
    if blocking < 0:
        raise ValueError("blocking time must be >= 0")
    return blocking + costs.per_action()


@dataclass
class CostLedger:
    """Observed (as opposed to modelled) dispatcher-cost spending.

    The dispatcher credits every charged constant here so tests and the
    calibration benchmarks can reconcile modelled costs with the CPU
    accounting of the simulated kernel.
    """

    charges: dict = field(default_factory=dict)

    def charge(self, constant: str, amount: int) -> None:
        """Record one application of a modelled constant."""
        if amount <= 0:
            return
        count, total = self.charges.get(constant, (0, 0))
        self.charges[constant] = (count + 1, total + amount)

    def count(self, constant: str) -> int:
        """Current number of matching items."""
        return self.charges.get(constant, (0, 0))[0]

    def total(self, constant: str = None) -> int:
        """Sum of a metric across runs."""
        if constant is not None:
            return self.charges.get(constant, (0, 0))[1]
        return sum(total for _count, total in self.charges.values())
