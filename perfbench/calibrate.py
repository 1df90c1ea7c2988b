"""A fixed pure-Python reference workload that gauges the host's speed.

Other tenants of a shared host can slow every CPU for minutes at a
time, by up to half. ``wall_s`` alone would read that as the program
getting slower. So a run also times this reference workload, a block of
short samples before each repetition of the timed instance and one
after the last, and rescales its host times to a host on which a
sample takes ``REFERENCE_S``. The reference is measured like the
program: each sample's least-interfered time is its fastest over the
run's blocks, one chance per repetition, as each segment of the timed
instance gets one chance per repetition. The reference uses
only the standard library, never the repro package, so no change to
the program can move it; it does the simulator's kind of work (a heap
of events, attribute and dict updates over a few thousand objects).
"""

from __future__ import annotations

import heapq
import random
import time

#: Fastest reference sample, in host seconds, on the host the
#: benchmark's bounds were set on (2-vCPU VM, CPython 3.11.7).
REFERENCE_S = 0.0097

#: Samples per block; a run takes one block per repetition.
SAMPLES = 16


class _Flow:
    __slots__ = ("size", "rate", "eta", "links")


def reference_work(flows: int = 1500, links: int = 150, steps: int = 3000) -> int:
    """The same work on every call: re-rate random flows, queue their ETAs."""
    rng = random.Random(7)
    nets = [{"cap": 1.0 + rng.random(), "used": 0.0, "flows": []} for _ in range(links)]
    pool = []
    for _ in range(flows):
        flow = _Flow()
        flow.size = 1.0 + 10.0 * rng.random()
        flow.rate = flow.eta = 0.0
        flow.links = (nets[rng.randrange(links)], nets[rng.randrange(links)])
        pool.append(flow)
    heap: list = []
    for step in range(steps):
        flow = pool[rng.randrange(flows)]
        flow.rate = min(net["cap"] / (1 + len(net["flows"]) % 7) for net in flow.links)
        flow.eta = flow.size / flow.rate
        for net in flow.links:
            net["used"] += flow.rate
            net["flows"].append(step)
            if len(net["flows"]) > 16:
                del net["flows"][:8]
        heapq.heappush(heap, (flow.eta, step))
        if len(heap) > 512:
            heapq.heappop(heap)
    return len(heap)


def sample_block(samples: int = SAMPLES) -> list[float]:
    """Host seconds of each of ``samples`` back-to-back reference runs."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times
