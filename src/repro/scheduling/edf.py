"""Earliest Deadline First via the scheduler/dispatcher protocol.

This is the policy of the paper's Figure 2: on every thread activation
(``Atv``) the scheduler reorders live threads by absolute deadline and
uses the dispatcher primitive to give the earliest deadline the highest
priority; ``Trm`` removes the finished thread from the live set (the
figure shows EDF ignoring it, because nothing needs reordering — we do
the same unless priorities must be compacted).

**Keyed order.**  The live units are kept sorted by the key
(absolute deadline, ``Atv`` order), fixed once when the unit's ``Atv``
is handled: an ``Atv`` inserts by bisection and then walks the ranks,
with no filtered copy and no sort.  That is the order a stable sort by
deadline of the units in ``Atv`` order gives — ties keep activation
order — and the key cannot go stale, because nothing writes a unit's
``deadline`` or its instance's ``abs_deadline`` after construction.
Rank r gets priority ``PRIO_MAX_APPL - r``, clamped at
``PRIO_MIN_APPL``; past that band the tail shares the lowest priority.
Each rank's priority is read from one tuple, so every unit, thread and
``set_params`` record of a rank holds the same int object.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.core.dispatcher import EUState
from repro.core.notifications import Notification, NotificationKind
from repro.core.scheduler_api import SchedulerBase
from repro.kernel.priorities import PRIO_MAX_APPL, PRIO_MIN_APPL

#: Deadline used for units whose task declares none (runs at background
#: priority under EDF).
_NO_DEADLINE = 2 ** 62

#: Rank r's priority, from PRIO_MAX_APPL down to PRIO_MIN_APPL; ranks
#: past the band take PRIO_MIN_APPL.  Counting down would make a new
#: int object for each rank above 256, kept by every unit and record.
_RANK_PRIORITIES = tuple(range(PRIO_MAX_APPL, PRIO_MIN_APPL - 1, -1))
_BAND = len(_RANK_PRIORITIES)

_DONE = EUState.DONE
_ABORTED = EUState.ABORTED
_ATV = NotificationKind.ATV
_TRM = NotificationKind.TRM


class EDFScheduler(SchedulerBase):
    """Dynamic-priority EDF for one processor (``scope`` = node id)."""

    policy_name = "edf"

    def __init__(self, scope: str, w_sched: int = 2,
                 home_node: Optional[str] = None, manage_only=None):
        super().__init__(scope=scope, home_node=home_node, w_sched=w_sched,
                         manage_only=manage_only)
        #: Live EUInstances in key order, and their keys, in step.
        self._live: List = []
        self._keys: List[Tuple[int, int]] = []
        self._atv_count = 0

    @staticmethod
    def _deadline_of(eui) -> int:
        if eui.deadline is not None:
            return eui.deadline
        if eui.instance.abs_deadline is not None:
            return eui.instance.abs_deadline
        return _NO_DEADLINE

    def handle(self, notification: Notification) -> None:
        """Reorder live units by absolute deadline (Atv) / retire (Trm)."""
        eui = notification.eu_instance
        kind = notification.kind
        if kind is _ATV:
            self._atv_count += 1
            key = (self._deadline_of(eui), self._atv_count)
            # The count is unique, so no existing key equals this one.
            index = bisect_right(self._keys, key)
            self._keys.insert(index, key)
            self._live.insert(index, eui)
            self._reassign()
        elif kind is _TRM:
            try:
                index = self._live.index(eui)
            except ValueError:
                return
            del self._live[index], self._keys[index]
        # Rac/Rre are ignored by plain EDF (Figure 2's behaviour); pair
        # with SRPProtocol for resource-sharing workloads.

    def _reassign(self) -> None:
        """Map deadline order onto the application priority band."""
        live = self._live
        for eui in live:
            state = eui.state
            if state is _DONE or state is _ABORTED:
                keep = [index for index, unit in enumerate(live)
                        if unit.state is not _DONE
                        and unit.state is not _ABORTED]
                self._live = live = [live[index] for index in keep]
                self._keys = [self._keys[index] for index in keep]
                break
        # The dispatcher primitive, bound once per re-rank.
        set_thread_params = self.dispatcher.set_thread_params
        for eui, priority in zip(live, _RANK_PRIORITIES):
            if eui.priority != priority:
                set_thread_params(eui, priority=priority)
        if len(live) > _BAND:
            # Past the band, the tail shares the lowest priority.
            for eui in live[_BAND:]:
                if eui.priority != PRIO_MIN_APPL:
                    set_thread_params(eui, priority=PRIO_MIN_APPL)
