"""The package's lazily imported name tables match the modules' public names."""

import rcreg
from rcreg import estimate, simulate


def test_lazy_name_tables_match_module_exports():
    assert sorted(rcreg._ESTIMATE) == sorted(estimate.__all__)
    assert sorted(rcreg._SIMULATE) == sorted(simulate.__all__)
