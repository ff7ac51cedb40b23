"""The sign-change rule that turns sampled values into root brackets, and
the refiner that turns a bracket into a root."""

import math
from pathlib import Path

import pytest
from scipy.optimize import brentq

from arcstab import branch
from arcstab.branch import refine, sign_changes


@pytest.mark.parametrize(
    "vals, brackets",
    [
        ([], []),
        ([1.0, 1.0], []),
        ([1.0, -1.0], [(0, 1)]),
        ([0.0, 1.0], [(0, 0)]),
        ([-1.0, 0.0], [(1, 1)]),
        # a zero sample is one hit, never also the end of a bracket
        ([1.0, 0.0, -1.0], [(1, 1)]),
        ([math.nan, 1.0, -1.0], [(1, 2)]),
        ([2.0, -1.0, 3.0, 0.0], [(0, 1), (1, 2), (3, 3)]),
    ],
)
def test_sign_changes(vals, brackets):
    assert list(sign_changes(vals)) == brackets


def test_refine_returns_a_zero_sample_unevaluated():
    def f(x):
        raise AssertionError("a zero sample needs no evaluation")

    assert refine(f, [0.5, 1.0, 2.0], 1, 1, 1e-15) == 1.0


@pytest.mark.parametrize("xtol", [1e-15, 1e-13])
def test_refine_is_brentq_with_4_eps_rtol(xtol):
    f = lambda x: math.cos(x) - x / 3.0
    xs = [0.0, 0.5, 1.0, 1.5, 2.0]
    (i, j), = sign_changes([f(x) for x in xs])
    root = refine(f, xs, i, j, xtol)
    assert root == brentq(f, xs[i], xs[j], xtol=xtol, rtol=4.0 * 2.0**-52)
    assert abs(f(root)) < 1e-15


def test_scipy_optimize_is_imported_only_by_branch():
    # one root refiner: a port of brentq replaces one import
    src = Path(branch.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if "scipy.optimize" in p.read_text())
    assert users == ["branch.py"]
