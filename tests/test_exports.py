"""Every name in a module's ``__all__`` resolves, so no export outlives the
object it names."""

import importlib

import pytest

MODULES = ("ptlame", "ptlame.elliptic", "ptlame.potentials", "ptlame.spectra",
           "ptlame.floquet", "ptlame.invariants", "ptlame.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
