"""The package's export list names only what the package defines."""

import resgrass


def test_every_exported_name_resolves():
    assert resgrass.__all__
    missing = [name for name in resgrass.__all__ if not hasattr(resgrass, name)]
    assert not missing, missing
