"""Every name a module exports resolves, so no deleted helper lingers in an
``__all__`` list or in the package namespace; the value types are frozen
records, and importing the package generates no code."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirac_reduce
from dirac_reduce.action import FiniteGroupRep, IsotropyDescriptor
from dirac_reduce.poly import Poly, parse_poly
from dirac_reduce.polyfield import BivectorSpec, FiberStack, PolyTwoForm, TwoFormSpec
from dirac_reduce.reduction import RankDims
from dirac_reduce.subspace import Subspace

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


def test_records_are_values_within_their_class_and_frozen():
    pairs = [
        (
            IsotropyDescriptor(False, [(3, 1.5), (0, 0.0)]),
            IsotropyDescriptor(False, ((0, 0.0), (3, 1.5))),
        ),
        (RankDims(*range(8)), RankDims(*range(8))),
        (parse_poly("x + 1", 2), Poly(2, {(1, 0): 1, (0, 0): 1})),
    ]
    for (a, b), field in zip(pairs, ("pairs", "vertical", "terms")):
        assert a == b and a is not b and hash(a) == hash(b) and {a: 1}[b] == 1
        value = getattr(a, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        assert getattr(a, field) is value
    assert IsotropyDescriptor(True, [(3, 1.5), (0, 0.0)]) != pairs[0][0]
    assert RankDims(*range(1, 9)) != pairs[1][0] and parse_poly("x", 2) != pairs[2][0]
    assert repr(pairs[1][0]).startswith("RankDims(vertical=0, v_annihilator=1, ")
    # one field's values, two classes: never equal
    matrix = PolyTwoForm.zero(2)
    assert BivectorSpec(matrix) == BivectorSpec(matrix) != TwoFormSpec(matrix)
    assert pairs[1][0] != tuple(range(8))
    # the types with an equality of their own keep it
    plane = Subspace(3, np.eye(3)[:2])
    assert plane == Subspace(3, np.eye(3)[[1, 0]]) and type(plane).__hash__ is None
    assert FiniteGroupRep.trivial(2) == FiniteGroupRep.trivial(2)
    stack = FiberStack(np.zeros((1, 2, 4)), (None,), 1e-9)
    assert stack == stack and stack != FiberStack(stack.bases, stack.errors, stack.tol)


def test_no_dataclasses_on_the_import_or_run_path():
    """A fresh ``from dirac_reduce import scenario`` imports no dataclasses,
    and a run needs none: the records are plain classes, so no method is
    compiled by ``exec`` at import."""
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "z2_circle_r3_two_form.json"
    imported = subprocess.run(
        [sys.executable, "-c", "import sys; from dirac_reduce import scenario; "
         "print('dataclasses' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert (imported.returncode, imported.stdout) == (0, "False\n"), imported.stderr
    run = subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['dataclasses'] = None; "
         "from dirac_reduce.cli import main; sys.exit(main(['run', sys.argv[1]]))", str(scenario)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.rstrip().splitlines()[-1].startswith("summary:")
