"""Shared container for traced equilibrium branches and the root scan rule."""

import sys
from dataclasses import dataclass, field

from scipy.optimize import brentq


@dataclass
class BranchTrace:
    """One branch of a bifurcation diagram as an ordered point list.

    points holds equilibrium records in trace order.  events maps the
    name of a special configuration to a point record of the same type
    as points, refined between two trace points; both traces name the
    point where the axial force changes sign "load_sign_transition".
    complete turns False when a trace stops early, with the reason in
    diagnostic; points then holds the points computed before the stop.
    """

    label: str
    points: list
    events: dict = field(default_factory=dict)
    complete: bool = True
    diagnostic: str = ""


def sign_changes(vals):
    """Root brackets of sampled values in order: (i, i) where vals[i] is
    zero, (i, i + 1) where vals[i] * vals[i + 1] < 0.  A zero sample is
    never also a bracket end, and NaN brackets nothing."""
    for i, v in enumerate(vals):
        if v == 0.0:
            yield i, i
        elif i + 1 < len(vals) and v * vals[i + 1] < 0.0:
            yield i, i + 1


def refine(f, xs, i, j, xtol):
    """Root of f on a bracket (i, j) of sign_changes over f at xs: xs[i]
    itself when i == j, else brentq to xtol and scipy's default rtol, 4 eps."""
    eps = sys.float_info.epsilon
    return xs[i] if i == j else brentq(f, xs[i], xs[j], xtol=xtol, rtol=4.0 * eps)
