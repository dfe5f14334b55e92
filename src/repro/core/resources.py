"""Resources with shared/exclusive access modes (paper §3.1.1).

A resource is "any hardware or software component required to execute
an action", local to one processor.  Traditional access modes control
simultaneous use: any number of SHARED holders may coexist, an
EXCLUSIVE holder excludes everyone else.

Because the HEUG model forbids synchronisation *inside* actions, a
Code_EU acquires all its resources before starting and releases them
all when it ends (all-or-nothing grant).  This is what makes worst-case
blocking times computable off-line (paper §3.3) and rules out
hold-and-wait deadlocks at the granularity of one elementary unit.

The grant decision itself lives in the dispatcher; :class:`Resource`
only keeps holder state and answers "could this request be granted
right now?".
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple


class AccessMode(enum.Enum):
    """Resource access modes (shared / exclusive)."""
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class Resource:
    """A named resource bound to one node.

    ``ceiling`` is the priority ceiling used by PCP/SRP schedulers; it
    is not interpreted by the dispatcher itself and may be recomputed by
    whoever installs those policies.
    """

    def __init__(self, name: str, node_id: Optional[str] = None,
                 ceiling: int = 0):
        self.name = name
        self.node_id = node_id
        self.ceiling = ceiling
        #: holder -> mode; holders are opaque tokens (EU instances).
        self._holders: Dict[object, AccessMode] = {}
        self.grant_count = 0
        self.contention_count = 0

    # -- state inspection ----------------------------------------------------

    @property
    def holders(self) -> List[object]:
        """Current holders of the resource (copy)."""
        return list(self._holders)

    @property
    def free(self) -> bool:
        """Whether nobody holds the resource."""
        return not self._holders

    def held_exclusively(self) -> bool:
        """Whether any holder has EXCLUSIVE access."""
        return any(mode is AccessMode.EXCLUSIVE
                   for mode in self._holders.values())

    def can_grant(self, mode: AccessMode) -> bool:
        """Whether a new request in ``mode`` is compatible with holders."""
        if not self._holders:
            return True
        if mode is AccessMode.EXCLUSIVE:
            return False
        return not self.held_exclusively()

    # -- state transitions (called by the dispatcher) --------------------------

    def grant(self, holder: object, mode: AccessMode) -> None:
        """Record a grant to the holder (dispatcher-only call)."""
        if holder in self._holders:
            raise RuntimeError(f"{holder!r} already holds {self.name}")
        if not self.can_grant(mode):
            raise RuntimeError(
                f"cannot grant {self.name} in mode {mode.value}")
        self._holders[holder] = mode
        self.grant_count += 1

    def release(self, holder: object) -> None:
        """V operation: wake a waiter or return a unit."""
        if holder not in self._holders:
            raise RuntimeError(f"{holder!r} does not hold {self.name}")
        del self._holders[holder]

    def __repr__(self) -> str:
        return (f"<Resource {self.name} node={self.node_id} "
                f"holders={len(self._holders)}>")


def validate_claims(claims: List[Tuple[Resource, AccessMode]]) -> None:
    """Reject duplicate resources in a single Code_EU's claim list."""
    seen = set()
    for resource, _mode in claims:
        if resource.name in seen:
            raise ValueError(
                f"resource {resource.name!r} claimed twice by one Code_EU")
        seen.add(resource.name)
