"""Timing at a nominal machine speed, for shared machines.

Other tenants of a shared machine slow it down by up to 2.7x, in phases that
last from a fraction of a second to minutes; process CPU time slows down the
same way, so a run that falls in a slow phase reads slow throughout, and
repeating the work inside the run does not help.  A fixed reference task is
therefore timed between operations, at most every REFRESH_S, and each
operation's CPU-side time is scaled by the task's nominal time over its
latest time: it reads as on a machine that runs the task in its nominal time.

Operations do not all slow down as much as the reference task, which scans a
heap that misses the cache, so each is scaled by that ratio to a power below
one.  Observing at 8x scale, whose time goes mostly into scans over an event
graph larger than the cache, slows down nearly alike (exponent SCAN).
Queries, snapshot saves and loads, and observing over the small graphs of
the 1x conversation and of the 1x warm-ups slow down about as the task's
time to the power 0.65 (exponent MIXED).  The exponents were fitted on a
2-vCPU shared VM.  Over twelve separate runs of 24 saves, loads and queries
each, the interquartile range of the run medians fell from 10-17% of their
median with exponent 1 to 2-6% with 0.6-0.7.  Over five query_8x runs whose
reference task ran 1.5x-2.7x slower than nominal, the 8x observe metrics
scaled with exponent 1 still read faster the slower the machine, by the
task's slowdown to the power 0.03 (observe p50) to 0.31 (its tail); 0.85
splits the difference.

Time spent waiting on a fake transport counts at the delay it asked for:
the fake model server answers in exactly its delay, and how late a busy
machine wakes a process from a sleep (10-30% of a 0.5 ms sleep here, varying
from run to run) is not the program's time.  This accounting assumes the
calls are serial, as they are in the engine today.  Callers keep the raw time
next to the scaled one.
"""

from __future__ import annotations

import gc
import random
import time

#: The reference task's time on the nominal machine.
REFERENCE_S = 0.002
#: The reference is timed again once its last timing is this old.
REFRESH_S = 0.2
#: Scaling exponents; see the module docstring.
SCAN = 0.85
MIXED = 0.65


class _Node:
    def __init__(self, i: int):
        self.id = f"e{i:06d}"
        self.text = f"word{i % 97} text {i}"


def _nodes() -> tuple[list[_Node], list[bytearray]]:
    # Each object is followed by a block of padding and the list is then
    # shuffled, so the scan misses the cache the way the engine's scans over
    # its event nodes, spread over a large heap, do.
    rng = random.Random(0)
    nodes, padding = [], []
    for i in range(4000):
        nodes.append(_Node(i))
        padding.append(bytearray(rng.randrange(500, 3500)))
    rng.shuffle(nodes)
    return nodes, padding


_NODES, _PADDING = _nodes()


def reference_task() -> int:
    """Fixed pure-Python work of the kind the engine does: scan objects for
    their highest id, count words in a dict, sort the words."""
    highest = max(int(node.id[1:]) for node in _NODES)
    counts: dict[str, int] = {}
    for node in _NODES[:800]:
        for word in node.text.split():
            counts[word] = counts.get(word, 0) + 1
    return highest + len(sorted(counts, key=lambda w: (-counts[w], w)))


class Meter:
    """Times operations, returning (scaled, raw) seconds for each."""

    def __init__(self) -> None:
        self.references: list[float] = []
        self._latest = (1.0, float("-inf"))  # (slowdown, time measured)

    def _slowdown(self) -> float:
        """The reference task's latest time over its nominal time."""
        slowdown, measured_at = self._latest
        if time.perf_counter() - measured_at < REFRESH_S:
            return slowdown
        # A collection triggered by the program's garbage would count
        # against the reference, so the collector is off while it runs; the
        # better of two timings keeps a burst of load on one from scaling
        # the operations after it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            timings = []
            for _ in range(2):
                before = time.perf_counter()
                reference_task()
                timings.append(time.perf_counter() - before)
        finally:
            if enabled:
                gc.enable()
        elapsed = min(timings)
        self.references.append(elapsed)
        self._latest = (elapsed / REFERENCE_S, time.perf_counter())
        return self._latest[0]

    def timed(self, fn, *args, transport=None, exponent=SCAN):
        """Call ``fn(*args)``; return its result and (scaled, raw) seconds.

        ``exponent`` says how strongly this kind of operation follows the
        reference task's slowdown.  ``transport`` is a fake transport; the
        time spent waiting on it is replaced by the time asked for.
        """
        scale = self._slowdown() ** -exponent
        waits = (transport.wait_s, transport.nominal_wait_s) if transport is not None else (0, 0)
        before = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - before
        if transport is None:
            return result, (raw * scale, raw)
        waited = transport.wait_s - waits[0]
        nominal = transport.nominal_wait_s - waits[1]
        return result, ((raw - waited) * scale + nominal, raw)
