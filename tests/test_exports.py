"""Every name a module exports resolves, so no deleted helper lingers in an
``__all__`` list or in the package namespace."""

import importlib
import pkgutil

import pytest

import dirac_reduce

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(dirac_reduce.__path__) if name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"dirac_reduce.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dirac_reduce.{name}.__all__ names missing objects: {missing}"
    exec(f"from dirac_reduce.{name} import *", {})


def test_package_star_import():
    namespace: dict = {}
    exec("from dirac_reduce import *", namespace)
    assert {"run_scenario", "haar_average_section", "LinearDirac"} <= set(namespace)
