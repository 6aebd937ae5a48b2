"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same Python work takes up to 1.7 times longer in one
stretch of tens of seconds than in the next; ten 35-second runs of one
workload spread by 15 to 27 % of their median.  Workers time this
computation between operations, and the benchmark scales each operation's
time by ``REFERENCE_S`` over the calibration taken around it.  The
computation mixes the two kinds of work bpalgebra does (exact ``Fraction``
elimination, and enumeration of tuples through generators) and imports
nothing from bpalgebra, so no change to the program changes it.
"""

from __future__ import annotations

from fractions import Fraction
import time

# Median of calibrate() on a 2-vCPU x86-64 host with Python 3.11.7.  It only
# sets the scale: reported times are seconds at that host's typical speed.
REFERENCE_S = 0.032


def _eliminate(size: int) -> int:
    rows = [
        [Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(size)]
        for i in range(size + 4)
    ]
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _multisets(parts: list, total):
    def rec(start, remaining):
        if remaining == 0:
            yield ()
            return
        for i in range(start, len(parts)):
            if parts[i] <= remaining:
                for rest in rec(i, remaining - parts[i]):
                    yield (parts[i],) + rest

    return sum(1 for _ in rec(0, total))


def calibrate() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    _eliminate(14)
    _multisets([Fraction(k, 2) for k in range(1, 10)], Fraction(19, 2))
    return time.perf_counter() - start
