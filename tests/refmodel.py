"""Reference models used only by tests, written independently of memsys.

Deliberately naive: straight-line lookups over Python lists, no shared code
with the cache under test, so the two can disagree when one of them is wrong.
"""

from collections import namedtuple

import numpy as np

from lmbsim.errors import ConfigurationError
from lmbsim.tensor import mttkrp_oracle


# The fields of the memory side's beat tuples, in order: Beat(*beat) names
# a beat's fields, and a Beat built here is a beat the simulator takes.
Beat = namedtuple("Beat", "addr useful lmb handler token")


def pop_ready(wire, now):
    """The item at a timed wire's head if it is ready by `now`, else None:
    the read the simulator makes in place (see queues.py)."""
    if wire and wire[0][0] <= now:
        return wire.popleft()[1]
    return None


def cache_read(cache, line):
    """One read of a `CacheArray` with its miss filled at once, as the lookup
    pipe and a fill do it: a hit makes its line MRU in place, a miss goes to
    `insert`.  Returns True on a hit."""
    s = cache.sets[line % cache.num_sets]
    if line in s:
        s.remove(line)
        s.append(line)
        return True
    cache.insert(line)
    return False


def off_at_origin(tensor, d, c):
    """The reference MTTKRP with its [0, 0] value one too high: patched in
    for `lmbsim.engine.mttkrp_oracle`, it makes any verified run mismatch."""
    ref = mttkrp_oracle(tensor, d, c)
    ref.values[0, 0] += 1.0
    return ref


def densify(tensor):
    """A COO tensor as a dense float64 ndarray of shape dims, refused for
    volumes over 2^24 cells."""
    volume = tensor.dims[0] * tensor.dims[1] * tensor.dims[2]
    if volume > 1 << 24:
        raise ConfigurationError(
            f"refusing to densify tensor with volume {volume}")
    dense = np.zeros(tensor.dims, dtype=np.float64)
    dense[tensor.i.astype(np.int64), tensor.j.astype(np.int64),
          tensor.k.astype(np.int64)] = tensor.vals.astype(np.float64)
    return dense


class SetAssocLruRef:
    """Set-associative LRU over line numbers, modulo-indexed."""

    def __init__(self, num_lines, assoc):
        self.assoc = assoc
        self.num_sets = num_lines // assoc
        self.contents = {s: [] for s in range(self.num_sets)}  # LRU first

    def access(self, line):
        """Access with allocate-on-miss; returns True on hit."""
        s = self.contents[line % self.num_sets]
        if line in s:
            s.remove(line)
            s.append(line)
            return True
        if len(s) == self.assoc:
            s.pop(0)
        s.append(line)
        return False

    def probe(self, line):
        return line in self.contents[line % self.num_sets]


class FullyAssocLruRef:
    """Fully associative LRU with a fixed capacity."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []

    def access(self, line):
        if line in self.order:
            self.order.remove(line)
            self.order.append(line)
            return True
        if len(self.order) == self.capacity:
            self.order.pop(0)
        self.order.append(line)
        return False
