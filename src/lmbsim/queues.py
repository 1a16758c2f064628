"""Timestamped FIFO wires used between pipeline stages.

Every hop between components takes at least one cycle.  A producer pushes an
item with the cycle at which it becomes visible to the consumer; the consumer
pops only items whose ready time has arrived.

A wire may have an owner: the component that consumes it, or the Simulator
for the wires toward the fabric.  A push onto an empty wire lowers the
owner's `wake` to the item's ready time, so a component asleep until its wake
learns of new input without scanning its wires.  A push onto a non-empty wire
need not: the owner's wake already covers the head, or the head is blocked
and the new item waits behind it.

A wire is a deque of (ready, item) pairs, so `if wire:` is a C-level test
that costs no Python call; `pop(now)` replaces the deque's own `pop` with a
ready-time-gated one.
"""

from collections import deque

INF = float("inf")


class TimedFifo(deque):
    __slots__ = ("owner",)

    def __init__(self, owner=None):
        super().__init__()
        self.owner = owner

    def push(self, ready, item):
        if self:
            # In-order delivery: ready times must be monotone per wire.
            if ready < self[-1][0]:
                ready = self[-1][0]
        elif self.owner is not None and ready < self.owner.wake:
            self.owner.wake = ready
        self.append((ready, item))

    def pop(self, now):
        """Item at the head if it is ready by `now`, else None."""
        if self and self[0][0] <= now:
            return self.popleft()[1]
        return None

    def peek(self, now):
        if self and self[0][0] <= now:
            return self[0][1]
        return None

    def head_ready(self):
        """Cycle at which the head becomes visible; INF when empty."""
        return self[0][0] if self else INF
