"""Fixtures shared by every test module."""

import itertools

import pytest

from bpalgebra import arith

# No kernel in these tests needs more than a handful of primes.  A kernel
# that has not certified after this many fails its test with an
# ArithmeticError instead of drawing primes for hours.
KERNEL_PRIMES = 64


@pytest.fixture(autouse=True)
def _bounded_kernel_primes(monkeypatch):
    primes = arith._primes
    monkeypatch.setattr(arith, "_primes", lambda: itertools.islice(primes(), KERNEL_PRIMES))
