"""Reference loops that measure how fast the machine runs Python right now.

On a shared host the same pass can run 30-45% slower a few minutes later,
because other tenants compete for the core and its caches.  The slowdown
hits a loop like this one and apnforge alike: in a four-minute trial on a
2-core VM, six-second windows of a DDT workload varied by up to 25% while
their ratio to such a loop varied by about 2%.

The ratio holds best when the loop resembles the workload's hot kernel, so
there are two loops and each workload names its own.  A pass samples its
loop between items, never inside one, and run.py scales each item's time by
the loop's nominal time over the median of the samples taken near it:
times are reported as if the loop took exactly its nominal time.  The loops
use no apnforge code, so a change to the library cannot move them, and the
collector is off while they run, so the size of the library's heap cannot
either.
"""

from __future__ import annotations

import gc
import time


def _products() -> int:
    # bit-serial GF(2^10) products counted in a dict, like the field
    # arithmetic under survey and points
    counts: dict[int, int] = {}
    acc = 0
    for a in range(1, 600):
        b = a * 2654435761 & 0x3FF
        r = 0
        x = a & 0x3FF
        while b:
            if b & 1:
                r ^= x
            b >>= 1
            x <<= 1
            if x & 0x400:
                x ^= 0x409
        counts[r] = counts.get(r, 0) + 1
        acc ^= r
    return acc + len(counts)


def _row_scan() -> int:
    # a short value table, then difference-table row scans, like the ddt
    # kernel under spectrum
    counts: dict[int, int] = {}
    table = []
    for a in range(512):
        b = a * 2654435761 & 0x3FF
        r = 0
        x = a
        for _ in range(4):
            if b & 1:
                r ^= x
            b >>= 1
            x <<= 1
            if x & 0x400:
                x ^= 0x409
        table.append(r)
    for a in (1, 2):
        for x in range(512):
            r = table[x ^ a] ^ table[x]
            counts[r] = counts.get(r, 0) + 1
    return len(counts)


# Loop name -> (loop, nominal seconds).  The nominal time is about the
# loop's median on the 2-core x86_64 VM (CPython 3.11) the baseline was
# recorded on, so scaled times read close to wall times there.
LOOPS = {
    "products": (_products, 0.0008),
    "row_scan": (_row_scan, 0.00047),
}


def sample(loop: str) -> float:
    """Seconds one run of the named reference loop takes now."""
    work = LOOPS[loop][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
