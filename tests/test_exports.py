"""Every name a bicmb module lists in ``__all__``, and every function the
benchmark's span tracer wraps, must exist, so a deletion cannot leave a
stale export or break the traced benchmark."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_traced_benchmark_targets_resolve():
    # the benchmark's tracer wraps these by name and cannot install
    # without every one of them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(mod, attr) for mod, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"perfbench TARGETS missing {missing}"
