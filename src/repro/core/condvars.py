"""System-wide condition variables (paper §3.1.1).

"A condition variable is a system-wide boolean variable that can be
cleared and set.  By definition a Code_EU can wait for a condition
variable to be true only before beginning its execution."

Together with task activations, condition variables are what the HEUG
model adds over bare precedence constraints: they enable
producer/consumer schemes and event-triggered task activation (§3.3).
Actions may *signal* (set/clear) a condition variable as one of their
end-of-unit effects; the waiting side re-evaluates through the
dispatcher callbacks registered here.
"""

from __future__ import annotations

from typing import Callable, List


class ConditionVariable:
    """A named, system-wide boolean flag."""

    def __init__(self, name: str, initially: bool = False):
        self.name = name
        self._value = bool(initially)
        self._watchers: List[Callable[["ConditionVariable"], None]] = []
        self.set_count = 0
        self.clear_count = 0

    @property
    def is_set(self) -> bool:
        """Whether the condition is currently true."""
        return self._value

    def set(self) -> None:
        """Make the condition true; wakes any waiting elementary units."""
        self.set_count += 1
        if self._value:
            return
        self._value = True
        for watcher in list(self._watchers):
            watcher(self)

    def clear(self) -> None:
        """Make the condition false."""
        self.clear_count += 1
        self._value = False

    def watch(self, callback: Callable[["ConditionVariable"], None]) -> None:
        """Register a callback invoked whenever the condition becomes true."""
        self._watchers.append(callback)

    def unwatch(self, callback: Callable[["ConditionVariable"], None]) -> None:
        """Remove a callback registered by :meth:`watch`; one that is
        not registered is ignored."""
        try:
            self._watchers.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:
        return f"<ConditionVariable {self.name}={'set' if self._value else 'clear'}>"
