"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same code runs up to 1.8 times slower for tens of
seconds to minutes at a time, and whole runs move together. The kernel mixes
the kinds of work torusroute does (a Python graph walk over dicts and
deques, small numpy sorts and uniques, random gathers over a few megabytes,
text splitting) and never calls the library, so a change to the library
cannot change its time.
"""

from __future__ import annotations

import gc
import time
from collections import deque

import numpy as np

# Seconds the kernel takes on the reference host; timings are reported as
# seconds on a host that runs the kernel in exactly this time.
REFERENCE_S = 0.012

_N = 400
_ADJ = [[(i * 7 + k) % _N for k in (1, 3, 11)] for i in range(_N)]
# a few megabytes, so the kernel also feels contention for the shared cache
_BIG = np.random.default_rng(0).permutation(1 << 18)
_TEXT = "\n".join(f"({i},{i + 1}) -> ({i + 2},{i}) : +X -Y | nodes: ({i})"
                  for i in range(1500))


def kernel() -> int:
    """The reference work; returns a checksum so none of it is skipped."""
    total = 0
    for s in range(0, _N, 40):
        seen = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    queue.append(v)
        total += sum(seen.values())
    a = np.arange(2000)
    for _ in range(60):
        uniq, _ = np.unique(a % 97, return_index=True)
        a = a[np.argsort(a % 13, kind="stable")]
    total += int(uniq.sum())
    big = _BIG
    for _ in range(3):
        big = big[_BIG]  # random gathers over two megabytes
    total += int(big[:8].sum())
    total += sum(len(line.partition(" : ")[2].split())
                 for line in _TEXT.splitlines())
    return total


def kernel_seconds(repeats: int = 3) -> float:
    """Fastest of a few kernel runs, with the garbage collector held off so
    that a collection owed to the library's heap does not land inside."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best
