"""Calibration of timings against the machine's momentary speed.

On a shared machine the speed of one core drifts by 10-20% over tens of
seconds, so a median over a 30-second run still moves that much from run to
run. The benchmark therefore runs a fixed pure-Python reference loop before
and after every timed pass and reports each pass's seconds scaled by
``REF_SECONDS`` over the mean reference time around it: the time the pass
would take on a machine that runs the reference loop in ``REF_SECONDS``.
A change to the program moves the scaled time; a change in machine speed,
which moves the reference loop as well, mostly does not.
"""

import time

REF_ITERS = 1_000_000
REF_SECONDS = 0.1  # nominal; the loop takes about this long on a 2.1 GHz core


def reference():
    """Seconds the fixed reference loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERS):
        s += i * i % 7
    return time.perf_counter() - t0


class Speed:
    """Reference times around consecutive passes; the time after one pass
    is the time before the next."""

    def __init__(self):
        self.refs = [reference()]

    def factor(self):
        """Scale for the pass that just ended."""
        self.refs.append(reference())
        return 2 * REF_SECONDS / (self.refs[-2] + self.refs[-1])
