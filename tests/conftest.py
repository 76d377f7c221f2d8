"""Shared fixtures: the two reference models, an irrational stress model,
and a session-wide table cache (tables are immutable, so reuse is safe;
tests that need fresh query counters snapshot/reset stats themselves),
plus a wall-clock limit for regression tests of inputs that once hung.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import pytest

from quantperm import (
    ExactScalar,
    HaarSpec,
    build_haar,
    build_value_table,
    builtin_model,
)


@lru_cache(maxsize=None)
def _model(name):
    if name == "C":
        # irrational outcomes: rational coefficients at the odd level keep
        # the sqrt(2) factor alive, so every comparison goes through the
        # quadratic sign logic
        spec = HaarSpec(
            1,
            {
                (0, 0): ExactScalar(1),
                (1, 0): ExactScalar(Fraction(1, 2)),
                (1, 1): ExactScalar(Fraction(1, 3)),
            },
        )
        return build_haar(spec, strict=False)
    return builtin_model(name)


@lru_cache(maxsize=None)
def table_for(name, n):
    return build_value_table(_model(name), n)


@pytest.fixture(scope="session")
def model_a():
    return _model("A")


@pytest.fixture(scope="session")
def model_b():
    return _model("B")


@pytest.fixture(scope="session")
def model_c():
    return _model("C")


@pytest.fixture(scope="session")
def tables():
    return table_for


@contextmanager
def wall_limit(seconds):
    """Fail with TimeoutError after the given seconds of wall time.

    A plain context manager, so a Hypothesis test can bound each example
    by importing it (function-scoped fixtures are not reset per example).
    """

    def _expired(signum, frame):
        raise TimeoutError("time limit exceeded")

    old = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def time_limit():
    """Context manager: fail with TimeoutError after the given seconds."""
    return wall_limit
