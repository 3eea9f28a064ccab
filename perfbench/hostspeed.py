"""Host speed, measured with a fixed pure-Python unit of work.

On a shared 2-core VM the speed of the same single-threaded code drifts by
up to 2x within a minute, with the load of other tenants, and a slow spell
can cover a whole run.  So a sample measures the host's speed while it
runs, and the benchmark reports times in reference seconds: a measured time
times REF_UNIT_S over the mean time of the unit of work around it.

- A loop of LOOP_UNITS units runs before set-up and after the timed phase.
- While set-up and the timed phase run, a `Probe` runs PROBE_UNITS units
  every PROBE_EVERY_S seconds from a timer signal, in between two bytecodes
  of the program: about 4 % extra work.
- Set-up, often shorter than PROBE_EVERY_S, is scaled by the mean of two
  unit times: the loop before it and the mean of its probes, if any.
- The timed phase is scaled by the mean of its probes, which sample the
  host's speed evenly over it.  Only a phase without probes falls back to
  the mean of the loops before and after.

On the same VM, over 14 repeated cold samples of one 11 s torus_moment
input, probing cut the spread of the timed phase (interquartile range over
median) from 0.10 to 0.03; scaling by the loops alone left 0.16.

The unit imports only the standard library, so no change to gkcurv changes
it.  Like gkcurv's scalar engine it spends its time in dict updates on
exponent-tuple keys and in Fraction arithmetic.
"""

import signal
import time
from fractions import Fraction

# Time of one unit that defines one reference second: about the unit's
# median on the 2-core VM (CPython 3.11) the benchmark was set up on.
REF_UNIT_S = 0.0015
LOOP_UNITS = 80
PROBE_UNITS = 2
PROBE_EVERY_S = 0.1


def _poly(seed, terms):
    out = {}
    a = seed
    for _ in range(terms):
        a = (a * 1103515245 + 12345) % 2147483648
        key = (a % 5, (a >> 4) % 5, (a >> 8) % 4)
        out[key] = out.get(key, 0) + Fraction(a % 97 - 48, a % 13 + 1)
    return out


def _mul(p, q):
    out = {}
    for (a, b, c), x in p.items():
        for (d, e, f), y in q.items():
            k = (a + d, b + e, c + f)
            out[k] = out.get(k, 0) + x * y
    return {k: v for k, v in out.items() if v}


def unit_s(units=1):
    """Mean seconds per unit of work over `units` units."""
    t0 = time.perf_counter()
    for _ in range(units):
        _mul(_poly(3, 30), _poly(9, 12))
    return (time.perf_counter() - t0) / units


def loop_s():
    """Mean seconds per unit over a loop of LOOP_UNITS units."""
    return unit_s(LOOP_UNITS)


class Probe:
    """Times PROBE_UNITS units every PROBE_EVERY_S seconds while active.

    `phases` holds one list of unit times per phase; `mark` starts the
    next phase.
    """

    def __init__(self):
        self.phases = [[]]

    def mark(self):
        self.phases.append([])

    def _tick(self, signum, frame):
        self.phases[-1].append(unit_s(PROBE_UNITS))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def scaled(seconds, unit_times):
    """`seconds` in reference seconds, given unit times measured with it."""
    return seconds * REF_UNIT_S * len(unit_times) / sum(unit_times)


def mean(times):
    return sum(times) / len(times)
