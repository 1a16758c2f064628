"""Timestamped FIFO wires used between pipeline stages.

Every hop between components takes at least one cycle.  A producer pushes an
item with the cycle at which it becomes visible to the consumer; the consumer
takes only items whose ready time has arrived.

A wire is a deque of (ready, item) pairs.  Hot loops read one in place,

    while wire and wire[0][0] <= now:
        item = wire.popleft()[1]

which costs no Python call per item and none for the final empty test.

A wire that crosses components is a TimedFifo and may have an owner: the
component that consumes it, or the Simulator for the wires toward the
fabric.  Its `push` lowers the owner's `wake` to the item's ready time when
the wire was empty, so a component asleep until its wake learns of new input
without scanning its wires; a push onto a non-empty wire need not, because
the owner's wake already covers the head, or the head is blocked and the new
item waits behind it.  `push` leaves ready times as given: a consumer reads
only a wire's head, so an item queued behind a later-ready head waits for it.

The stage wires inside a memory block (reductor stage 2, the lookup intake,
and the fetch, write, DMA and raw-port beat sources) are plain deques of the
same pairs, appended in place.  That is safe because there is no owner to
wake: only the block that appends to one reads it, and the block sets its
own wake from those wires at the end of each step.  A block's in_resp is
appended in place too, by the DRAM, which lowers the block's wake itself.
"""

from collections import deque

INF = float("inf")


class TimedFifo(deque):
    __slots__ = ("owner",)

    def __init__(self, owner=None):
        super().__init__()
        self.owner = owner

    def push(self, ready, item):
        if not self and self.owner is not None and ready < self.owner.wake:
            self.owner.wake = ready
        self.append((ready, item))
