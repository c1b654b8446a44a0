"""Every name in a module's ``__all__`` resolves, so no export outlives the
object it names; the result records are immutable."""

import importlib

import numpy as np
import pytest

from ptlame import elliptic as ell
from ptlame import floquet as flq
from ptlame import potentials as pot
from ptlame import spectra as spc

MODULES = ("ptlame", "ptlame.elliptic", "ptlame.potentials", "ptlame.spectra",
           "ptlame.floquet", "ptlame.invariants", "ptlame.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _a3():
    return pot.build(3, 0, 0.75, 0.5, ["pt"], True)


# each record as the package returns it
RECORDS = {
    "Modulus": lambda: ell.modulus(0.75),
    "JacobiValues": lambda: ell.jacobi_complex(0.5 + 0.25j, 0.75),
    "IntegratorStats": lambda: flq.monodromy(_a3(), 1.0).stats,
    "MonodromyResult": lambda: flq.monodromy(_a3(), 1.0),
    "NumericBandEdge": lambda: flq.find_band_edges(_a3(), -0.5, 40.0)[0],
    "ScanResult": lambda: flq.discriminant_scan(_a3(), 0.0, 1.0, 2),
    "_Solution": lambda: flq.solve_ivp([lambda x: 0.0], (0.0, 1.0), np.array([1.0, 0.0]),
                                       energies=[np.zeros(1)], period=1.0),
    "BandEdge": lambda: spc.pt_band_edges("lame", 1, 0, 0.75, 0.5)[0],
    "DispersionPoint": lambda: spc.dispersion_analytic(0.75, 0.5, 0.2),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in type(record).__annotations__:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    if name == "NumericBandEdge":
        assert flq.NumericBandEdge(record.energy, record.period_class, record.discriminant).multiplicity == 1
