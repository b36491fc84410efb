"""Shared test setup."""

import mpmath
import pytest


@pytest.fixture(autouse=True)
def working_precision():
    """Run every test at 50 digits.  The library runs at the caller's mpmath
    precision; 50 is the default of the CLI and of run_suite, and the one the
    1e-40 tolerances of the tests are written against."""
    with mpmath.workdps(50):
        yield
