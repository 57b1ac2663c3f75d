"""The package namespace re-exports each module's public names."""

import singcov
from singcov import combinatorics, ewens, haar, linalg, toeplitz

MODULES = (linalg, combinatorics, haar, ewens, toeplitz)


def test_all_is_version_plus_module_exports():
    exported = [name for mod in MODULES for name in mod.__all__]
    assert singcov.__all__ == ["__version__", *exported]
    assert len(set(exported)) == len(exported)


def test_every_export_is_the_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(singcov, name) is getattr(mod, name), f"{mod.__name__}.{name}"
