"""The package's names: eager re-exports and lazily imported name tables."""

import rcreg
from rcreg import errors, estimate, halfvec, identify, simulate


def test_lazy_name_tables_match_module_exports():
    assert sorted(rcreg._ESTIMATE) == sorted(estimate.__all__)
    assert sorted(rcreg._SIMULATE) == sorted(simulate.__all__)


def test_eager_names_are_package_attributes():
    names = [*identify.__all__, *halfvec.__all__]
    names += [name for name in vars(errors) if name.endswith("Error")]
    assert [name for name in names if not hasattr(rcreg, name)] == []
