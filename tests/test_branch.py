"""The sign-change rule that turns sampled values into root brackets."""

import math

import pytest

from arcstab.branch import sign_changes


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
