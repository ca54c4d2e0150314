"""The machine's current speed, read from a fixed reference computation.

On a shared virtual machine the speed of one core changes by up to 1.8x
from one few-second stretch to the next, in user time as much as in wall
time (no steal is reported), so raw op times spread across runs by more than
any change worth detecting.  The benchmark therefore runs a small reference
kernel between ops, outside the timed region, and scales each op's time by
the kernel's speed around it: a "reference millisecond" (ref_ms) is a
millisecond on a machine where the kernel takes ``KERNEL_REF_MS``.

The kernel is pure Python of the same kind as the library's hot loops:
greedy selection over bit masks as in ``ideal.normalize``, and small tuples
and frozensets hashed into a dict.  It never calls the library, so a change
to the library cannot move it.  A stretch that slows the interpreter slows
the kernel with it.  Over 10 s windows of a 4-minute probe, the medians of
``beta_recursive`` (A17), ``rank_sizes`` (a G(9) graph), ``betti_gf2`` and
``cross_check`` (a G(7) graph) varied with a coefficient of variation of
0.17-0.21; their ratios to the bit-mask half of the kernel varied by
0.063-0.076 and to the hashing half by 0.049-0.079.
"""

from __future__ import annotations

import gc
import random
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

#: Nominal cost of one kernel call; scaled times are in ms at this speed.
KERNEL_REF_MS = 2.0

#: Reference samples within this many seconds of an op scale its time.
#: Speed changes from one 2 s stretch to the next; a wider window damps the
#: kernel's own sampling noise.
WINDOW_S = 2.0

_rng = random.Random("perfbench-reference-kernel")
_LETTERS = 12
_MASKS = tuple(
    sum(1 << y for y in range(_LETTERS) if y != x and _rng.random() < 0.4)
    for x in range(_LETTERS)
)
_WORDS = tuple(tuple(_rng.sample(range(_LETTERS), 9)) for _ in range(80))


def kernel():
    """Fixed work: normal forms of fixed words over a fixed commutation
    graph, counted in a dict, then small frozensets keyed in a dict.
    Returns the number of distinct forms and sets."""
    table = {}
    for word in _WORDS:
        rem = list(word)
        out = []
        while rem:
            blockers = 0
            best_i = -1
            best = None
            for i, x in enumerate(rem):
                if blockers & (1 << x) == 0 and (best is None or x < best):
                    best, best_i = x, i
                blockers |= _MASKS[x]
            out.append(best)
            del rem[best_i]
        key = tuple(out)
        table[key] = table.get(key, 0) + 1
    sets = {}
    for i in range(1500):
        t = (i, i * 7 % 13, i & 5)
        sets[frozenset(t)] = t
    return len(table) + len(sets)


class SpeedLog:
    """Timestamped kernel durations from one run, in time order."""

    def __init__(self):
        self.at = []         # midpoint of each sample, perf_counter seconds
        self.duration = []   # seconds per kernel call

    def sample(self, count=1):
        # with the collector on, a collection of the library's heap (up to
        # hundreds of MB) would land in the kernel's time now and then
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = perf_counter()
                kernel()
                end = perf_counter()
                self.at.append((start + end) / 2)
                self.duration.append(end - start)
        finally:
            if enabled:
                gc.enable()

    def kernel_s(self, start, end):
        """Median kernel duration within WINDOW_S of [start, end]; the
        nearest samples on either side when none fall inside."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if hi - lo < 2:
            lo, hi = max(min(lo, len(self.at) - 1) - 1, 0), min(hi + 1, len(self.at))
        return statistics.median(self.duration[lo:hi])

    def ref_ms(self, seconds, start, end):
        """``seconds`` spent in [start, end], in reference milliseconds."""
        return seconds / self.kernel_s(start, end) * KERNEL_REF_MS
