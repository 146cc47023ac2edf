"""Every name a bicmb module lists in ``__all__`` must exist on it, so a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import bicmb

MODULES = ["bicmb"] + [f"bicmb.{m.name}"
                       for m in pkgutil.iter_modules(bicmb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_beamforming_exports_only_the_link_functions():
    from bicmb import beamforming
    assert beamforming.__all__ == ["singular_values", "predicted_gains"]
