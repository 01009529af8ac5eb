"""The reference task every timing of the benchmark is divided by.

The host's own speed drifts by tens of percent over seconds to minutes
as other tenants come and go.  Timing this fixed task next to each
measurement and dividing by it cancels the host's speed at that
moment.  The module imports only the standard library, so it can run
before the engine is imported, and an engine change cannot move it.
"""

import math
import time

#: The task's time on the host the benchmark was calibrated on, a
#: 2-vCPU Xeon VM at 2.0 GHz.  Set-up times are reported at this speed.
CALIBRATED_S = 0.013


def reference_seconds() -> float:
    """Best of two runs of a fixed pure-Python task (about
    :data:`CALIBRATED_S`): dict building, sorting and indexing over a
    working set of a few MB, like the engine's own inner loops."""
    best = math.inf
    for _ in range(2):
        started = time.perf_counter()
        keys = range(40000)
        table = {i: (i * 7919) % 100003 for i in keys}
        order = sorted(keys, key=table.__getitem__)
        sum(table[k] for k in order[::7])
        best = min(best, time.perf_counter() - started)
    return best
