"""Timestamped FIFO wires used between pipeline stages.

Every hop between components takes at least one cycle.  A producer pushes an
item with the cycle at which it becomes visible to the consumer; the consumer
pops only items whose ready time has arrived.

A wire may have an owner: the component that consumes it.  A push onto an
empty wire lowers the owner's `wake` to the item's ready time, so a component
asleep until its wake learns of new input without scanning its wires.  A push
onto a non-empty wire need not: the owner's wake already covers the head, or
the head is blocked and the new item waits behind it.
"""

from collections import deque

INF = float("inf")


class TimedFifo:
    __slots__ = ("_q", "owner")

    def __init__(self, owner=None):
        self._q = deque()
        self.owner = owner

    def push(self, ready, item):
        q = self._q
        if q:
            # In-order delivery: ready times must be monotone per wire.
            if ready < q[-1][0]:
                ready = q[-1][0]
        elif self.owner is not None and ready < self.owner.wake:
            self.owner.wake = ready
        q.append((ready, item))

    def pop(self, now):
        """Item at the head if it is ready by `now`, else None."""
        if self._q and self._q[0][0] <= now:
            return self._q.popleft()[1]
        return None

    def peek(self, now):
        if self._q and self._q[0][0] <= now:
            return self._q[0][1]
        return None

    def head_ready(self):
        """Cycle at which the head becomes visible; INF when empty."""
        return self._q[0][0] if self._q else INF

    def __len__(self):
        return len(self._q)

    def __bool__(self):
        return bool(self._q)

    def __iter__(self):
        return iter(self._q)
