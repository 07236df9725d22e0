"""Fixtures and reference helpers shared by the test modules."""

import math

import pytest

from chlab import groups, orbits


@pytest.fixture
def fresh_groups():
    """Rebuild groups and their lift checks for the test, and drop them after."""
    def clear():
        groups._closed_group.cache_clear()
        orbits._validate_class_tables.cache_clear()
    clear()
    yield
    clear()


# The floor and ceiling of a formal scalar a + b*eps, a reference for the
# orbit records, which take them from divmod(2k, cov) instead.

def formal_floor(x):
    """Floor of a + b*eps: for integer a the sign of b breaks the tie."""
    if x.a.denominator != 1:
        return math.floor(x.a)
    n = int(x.a)
    return n - 1 if x.b < 0 else n


def formal_ceil(x):
    """Ceiling of a + b*eps, the dual tie-break."""
    if x.a.denominator != 1:
        return math.ceil(x.a)
    n = int(x.a)
    return n + 1 if x.b > 0 else n
