"""Shared container for traced branches, the root scan rule and linspace.

Roots are refined by _brentq, a line-by-line port of scipy's brentq.c, so
that importing the package does not load scipy.optimize.  From the
caller's samples at the bracket ends it returns scipy's root after scipy's
further calls of f, with f's own value there, which as a Sample carries
the record it was computed from.
"""

import math
import sys
from dataclasses import dataclass, field

_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100
_NAN = "The function value at x=%r is NaN; solver cannot continue."


@dataclass
class BranchTrace:
    """One branch of a bifurcation diagram as an ordered point list.

    points holds equilibrium records in trace order; an elastica point
    names its branch by its problem's half.  events maps the name of a
    special configuration to a point record of the same type as points,
    refined between two trace points; both traces name the point where
    the axial force changes sign "load_sign_transition".  complete turns
    False when a trace stops early or an event's refinement fails, with
    the reason in diagnostic; points then holds the points computed
    before the stop.
    """

    points: list
    events: dict = field(default_factory=dict)
    complete: bool = True
    diagnostic: str = ""


def sign_changes(vals):
    """Root brackets of sampled values in order: (i, i) where vals[i] is
    zero, (i, i + 1) where vals[i] * vals[i + 1] < 0.  A zero sample is
    never also a bracket end, and NaN brackets nothing."""
    # the last sample pairs with a NaN, which brackets nothing
    for i, (v, w) in enumerate(zip(vals, [*vals[1:], math.nan])):
        if v == 0.0:
            yield i, i
        elif v * w < 0.0:
            yield i, i + 1


def linspace(start, stop, num):
    """num evenly spaced floats from start to stop, numpy.linspace's values
    bit for bit: start + i * step, with the last point set to stop."""
    if num < 0:
        raise ValueError("number of samples must be nonnegative, got %d" % num)
    if num < 2:
        return [float(start)][:num]
    step = (stop - start) / (num - 1)
    return [*(i * step + start for i in range(num - 1)), float(stop)]


class Sample(float):
    """A value of f that carries the record it was computed from and, where
    f knows them, its slope there and a rounding bound of the value."""

    __slots__ = ("record", "slope", "rounding")

    def __new__(cls, value, record, slope=math.nan, rounding=0.0):
        self = super().__new__(cls, value)
        self.record, self.slope, self.rounding = record, slope, rounding
        return self


def newton(f, x, lo, hi, xtol):
    """(root, sample) of f by Newton's method from x on the slopes of its
    Samples, or None.

    An iterate is returned, unevaluated again, once its value is within its
    rounding bound or the next step would be at most xtol + 4 eps |x|,
    brentq's own tolerance.  None when a slope is zero or not finite, or a
    step does not shrink or would leave [lo, hi].
    """
    fx, last = f(x), math.inf
    while not abs(fx) <= fx.rounding:
        if not (fx.slope and math.isfinite(fx.slope)):
            return None
        step = fx / fx.slope
        if abs(step) <= xtol + _RTOL * abs(x):
            break
        if not (abs(step) < last and lo <= x - step <= hi):
            return None
        x, last = x - step, abs(step)
        fx = f(x)
    return x, fx


def refine(f, xs, fs, i, j, xtol):
    """(root, sample) of f on a bracket (i, j) of sign_changes over the
    samples fs of f at xs: (xs[i], fs[i]) when i == j, else Brent's method
    from fs[i] and fs[j] to xtol and rtol 4 eps, which evaluates no xs.

    Where the bracket end of smaller |f| is a Sample with a finite slope,
    newton steps from it inside the bracket first, and Brent's method from
    the same two ends runs only when newton returns None; plain floats and
    slope-less Samples go to Brent's method directly."""
    if i == j:
        return xs[i], fs[i]
    a = i if abs(fs[i]) <= abs(fs[j]) else j
    if math.isfinite(getattr(fs[a], "slope", math.nan)):
        lo, hi = sorted((xs[i], xs[j]))
        found = newton(lambda x: fs[a] if x == xs[a] else f(x), xs[a], lo, hi, xtol)
        if found is not None:
            return found
    return _brentq(f, xs[i], xs[j], fs[i], fs[j], xtol)


def _brentq(f, xa, xb, fa, fb, xtol):
    """scipy.optimize.brentq(f, xa, xb, xtol, rtol=4 eps), ported from its C
    code (Brent 1973, Algorithms for Minimization without Derivatives, ch. 4),
    from fa = f(xa) and fb = f(xb); returns (root, f's return value there).

    Raises ValueError when fa and fb have the same sign or a value of f is
    NaN, and RuntimeError after 100 iterations without convergence.
    """
    xpre, xcur, fpre, fcur = float(xa), float(xb), fa, fb
    xblk = fblk = spre = scur = 0.0
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if math.isnan(fx):
            raise ValueError(_NAN % x)
    if fpre == 0.0:
        return xpre, fa
    if fcur == 0.0:
        return xcur, fb
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gets an infinite or NaN step here, which always bisects
                stry = math.inf
            # min(b, a) is C's MIN(a, b) = a < b ? a : b, NaN included
            if 2.0 * abs(stry) < min(3.0 * abs(sbis) - delta, abs(spre)):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(_NAN % xcur)
    raise RuntimeError(
        "Failed to converge after %d iterations, value is %f" % (_MAXITER, xcur)
    )
