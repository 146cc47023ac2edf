"""Every name a bicmb module lists in ``__all__``, and every function the
benchmark's span tracer wraps, must exist, so a deletion cannot leave a
stale export or break the traced benchmark.  Each name has one home: a
module exports only what it defines, and the package re-exports
nothing."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import bicmb

SUBMODULES = {m.name for m in pkgutil.iter_modules(bicmb.__path__)}
MODULES = ["bicmb"] + [f"bicmb.{name}" for name in sorted(SUBMODULES)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name):
    module = importlib.import_module(name)
    foreign = [n for n in getattr(module, "__all__", ())
               if getattr(getattr(module, n), "__module__", None) != name]
    assert not foreign, f"{name}.__all__ re-exports {foreign}"


def test_package_binds_only_its_submodules_and_version():
    for name in MODULES:
        importlib.import_module(name)
    implicit = {"__builtins__", "__cached__", "__doc__", "__file__",
                "__loader__", "__name__", "__package__", "__path__",
                "__spec__"}
    bound = set(vars(bicmb)) - implicit - SUBMODULES
    assert bound == {"__version__"}, f"bicmb binds {sorted(bound)}"


def test_beamforming_exports_only_the_link_functions():
    from bicmb import beamforming
    assert beamforming.__all__ == ["singular_values", "predicted_gains"]


def test_channel_exports_no_linear_profile_names():
    # a profile is built from decibels alone: no linear_to_db
    from bicmb import channel
    assert channel.__all__ == [
        "ArrayGeometry", "PathSet", "FadingProfile", "ChannelRealization",
        "db_to_linear", "ula_response", "draw_paths", "subchannel_matrix",
        "draw_channel", "draw_path_sets", "draw_channels"]


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
