"""Reference loop that tracks the host's current speed.

The host this benchmark runs on is shared: its speed drifts by up to a
factor of two, within seconds and over minutes, and the drift moves every
job of a run together.  So a pass times one round of this fixed loop five
times a second, from a timer signal, and once after each job; each import
probe times it right after the import.  A time is then reported as it would
read at the reference speed, at which one round takes ``REF_S``:

    time_at_ref = measured_time * REF_S / round_time_beside_it

The loop uses only the standard library and never changes, so a change to
quadslice cannot move it.  It runs with the garbage collector off, so the
heap a job leaves behind does not slow it.  This module imports nothing
from quadslice.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# About one round's time on the 2-CPU shared host the benchmark was defined
# on, when that host was quiet.  It only sets the scale of the reported times.
REF_S = 0.004
SAMPLE_EVERY_S = 0.2  # five rounds a second cost about 2% of a pass

_A = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
_B = {(i, j): i * j + 1 for i in range(6) for j in range(6)}


def reference_s(rounds=1):
    """Seconds per round of a product of two dict-of-exponent polynomials
    with int and Fraction coefficients, the style of quadslice's kernels."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            out = {}
            for (i, j), x in _A.items():
                for (k, m), y in _B.items():
                    key = (i + k, j + m)
                    out[key] = out.get(key, 0) + x * y
        return (time.perf_counter() - start) / rounds
    finally:
        if enabled:
            gc.enable()


def at_ref(seconds, reference):
    """``seconds`` measured beside a round that took ``reference``, as it
    would read at the reference speed."""
    return seconds * REF_S / reference


class Sampler:
    """Times one reference round every ``SAMPLE_EVERY_S`` seconds from a
    SIGALRM timer while the ``with`` block runs, and on each call of ``sample``.

    A long job is so timed against the host's speed during it, not only at
    its ends.  ``timed`` leaves the sampling itself out of a job's time.
    """

    def __init__(self):
        self.samples = []  # (start, end, seconds per round), in time order
        self._busy = False
        self._handler = None

    def sample(self, *_signal_args):
        if self._busy:  # the timer fired inside a sample: one is enough
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference = reference_s()
            self.samples.append((start, time.perf_counter(), reference))
        finally:
            self._busy = False

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        return False

    def timed(self, start, end):
        """(measured seconds, seconds at the reference speed) of the interval
        from ``start`` to ``end``, less the samples taken inside it.

        Each piece between samples is scaled by the sample that closes it;
        the last piece by the first sample after ``end``, which must exist.
        """
        measured = scaled = 0.0
        piece_start = start
        for s_start, s_end, reference in self.samples:
            if s_end <= start:
                continue
            closing = min(s_start, end)
            if closing > piece_start:
                measured += closing - piece_start
                scaled += at_ref(closing - piece_start, reference)
            if s_start >= end:
                return measured, scaled
            piece_start = s_end
        raise ValueError("no reference sample after the interval")
