"""Host-speed probe: a fixed arithmetic loop timed between benchmark items.

On a shared host the speed of a vCPU drifts by up to 2x over tens of
seconds, and CPU time slows with it, so run-to-run spread of raw times is
set by the host, not by the program, and medians within one run do not
remove it.  Each pass therefore times this probe before every item and
once at its end, and each set-up process times it around its work.  A
time measured beside a set of probes is reported at reference host speed:
multiplied by REFERENCE_S over the probes' median.  On a 2-vCPU Intel Xeon
virtual machine this cut the spread of pass times between fresh
workers from about 0.2-0.34 to about 0.06-0.17 of the median.

The probe allocates nothing that the garbage collector tracks, so the heap
the workload leaves behind does not change its time; it never calls
feaslab, so no change to the program moves it.
"""

import statistics
from time import perf_counter

ITERATIONS = 20000
# The probe's median on the 2-vCPU Intel Xeon virtual machine the benchmark
# was tuned on (Python 3.11): 1.7-2.0 ms.
REFERENCE_S = 0.002


def probe() -> float:
    """Time one fixed arithmetic loop, in seconds."""
    t0 = perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
    return perf_counter() - t0


def scale(probes) -> float:
    """Factor that turns seconds measured beside `probes` into seconds at
    reference host speed."""
    return REFERENCE_S / statistics.median(probes)
