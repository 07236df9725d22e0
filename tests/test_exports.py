"""Every name a module exports must exist, so a deletion cannot leave a
stale ``__all__`` entry behind."""

import pytest

from chlab import czengine, morse

EXPORTS = [(mod, name) for mod in (czengine, morse) for name in mod.__all__]


@pytest.mark.parametrize("module, name", EXPORTS,
                         ids=[f"{mod.__name__}.{name}" for mod, name in EXPORTS])
def test_exported_name_resolves(module, name):
    assert getattr(module, name, None) is not None
