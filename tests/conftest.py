"""Fixtures shared by the test modules."""

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
