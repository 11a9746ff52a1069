import importlib

import pytest


@pytest.mark.parametrize("module", ["mergepipe", "mergepipe.neural"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
