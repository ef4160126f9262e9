"""Calibration loops: fixed work, in the benchmark's own code, that is timed
between the items of a round to measure how fast the machine is running.

On a shared host the speed one process gets swings by a quarter or more
from one minute to the next, and every kind of work speeds up and slows
down together.  Dividing an item's time by the time of calibration loops
run around it cancels most of that swing, and it
cancels more when the loop does the same kind of arithmetic as the layer
that does the item's work.  The loops never call the program, so a change
to the program moves the item's time and not the loop's.

A *cal* is the time of one calibration chunk: the workload's loops, each
run once, 5 to 20 ms on a 2.1 GHz core.  A chunk runs before every item and
after the last, and an item's time in cals is its seconds over the mean
chunk time around it.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np

_rng = random.Random(20220822)
# a 12 x 12 matrix of 1600-bit integers, as the packed trace recurrence
# multiplies them
_BIG = [[_rng.getrandbits(1600) - (1 << 1599) for _ in range(12)] for _ in range(12)]
# two polynomials in l whose coefficients are polynomials in a with
# Fraction coefficients, as BiPoly holds them
_BI = [[[Fraction(_rng.randrange(-99, 99), _rng.randrange(1, 9)) for _ in range(5)]
        for _ in range(8)] for _ in range(2)]
# a symmetric 24 x 24 matrix for Jacobi-style rotations
_SYM = np.array([[float((i * 7 + j * 7 + i * j) % 11) for j in range(24)] for i in range(24)])


def bigint():
    """One integer matrix product, as the direct path computes it."""
    cols = list(zip(*_BIG))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in _BIG]


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def fraction():
    """One schoolbook product of two polynomials over Q[a], as BiPoly does."""
    p, q = _BI
    out = [[Fraction(0)]] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            c = _mul(a, b)
            o = out[i + j]
            out[i + j] = [x + y for x, y in zip(c, o + [0] * (len(c) - len(o)))]
    return out


def rotations():
    """One sweep of plane rotations on a small matrix, row and column at a
    time with numpy, as the Jacobi solver makes them."""
    a = _SYM.copy()
    n = a.shape[0]
    c, s = 0.8, 0.6
    for p in range(n - 1):
        for q in range(p + 1, n):
            rp = a[p, :].copy()
            rq = a[q, :].copy()
            a[p, :] = c * rp - s * rq
            a[q, :] = s * rp + c * rq
            cp = a[:, p].copy()
            cq = a[:, q].copy()
            a[:, p] = c * cp - s * cq
            a[:, q] = s * cp + c * cq
    return a


class Calibrator:
    """Runs and times chunks of the given loops, and gives the calibration
    of a stretch of time: the mean chunk time within WINDOW seconds of it.

    The host's fast and slow phases last from a fraction of a second to
    minutes.  A window of several seconds holds enough chunks for a steady
    mean, is wider than the longest item, and is still short beside the
    slow phases that differ from one run to the next.
    """

    WINDOW = 5.0

    def __init__(self, loops):
        self.loops = loops
        self.mids = []  # perf_counter midpoint of each chunk, ascending
        self.times = []  # its seconds

    def chunk(self):
        clock = time.perf_counter
        t0 = clock()
        for loop in self.loops:
            loop()
        t1 = clock()
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)

    def around(self, start, end):
        """The mean chunk time within WINDOW seconds of [start, end]."""
        lo = bisect.bisect_left(self.mids, start - self.WINDOW)
        hi = bisect.bisect_right(self.mids, end + self.WINDOW)
        return statistics.fmean(self.times[lo:hi])


def hd_median(values):
    """The Harrell-Davis estimate of the median: a weighted mean of all the
    order statistics, with Beta((n+1)/2, (n+1)/2) weights (taken at the
    midpoint of each one's share of [0, 1]).  Items of a round differ in
    cost by three orders of magnitude, with gaps between them; the plain
    median jumps across a gap when two middle items trade places, and this
    estimate moves smoothly instead."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    logs = [(a - 1) * (math.log((i + 0.5) / n) + math.log(1 - (i + 0.5) / n))
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(w - top) for w in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)
