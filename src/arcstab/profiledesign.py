"""Inverse design of constraint profiles for a prescribed force response.

Prescribing the postcritical force of the one-degree-of-freedom system as
a dimensionless law beta(psi) = F l / k fixes the constraint slope, and
one quadrature recovers the profile height

    f(psi) = sqrt(1 - psi^2) - integral_0^psi arcsin(g) / (beta(g) sqrt(1 - g^2)) dg,

with f(0) = 1 and f'(0) = 0.  A constant beta admits the closed form
f = sqrt(1 - psi^2) - arcsin(psi)^2 / (2 beta) and yields a neutral
(constant-force) postcritical response.

The integrand is evaluated after the substitution g = sin(tau), which
turns it into tau / beta(sin tau) and removes the endpoint weight.

design_profile samples the integrand once, on adaptive Chebyshev panels
over [0, asin(psi_max)] (Clenshaw & Curtis, 1960; Trefethen, 2008).  From
the values at its _N + 1 Chebyshev-Lobatto points a panel takes the
Chebyshev coefficients of their interpolant, and it keeps those of the
interpolant's antiderivative; a height is then one running sum up to the
start of its panel plus one Clenshaw sum at asin(psi), with no further
evaluation of beta.  A panel's error estimate is the sum of the magnitudes
of its last _TAIL coefficients (a pair can vanish by the integrand's
parity or by accident) times the panel's length, floored at 50 eps times
its integral of |g|.  It bounds the error of the antiderivative anywhere in
the panel, so a height's estimate is the sum over the panels below it plus
its own.  The pass bisects the panel of largest estimate until the
estimates sum to at most tol / 100, absolutely, that panel's estimate is
its floor, or 200 panels are reached.
tol bounds the estimated error of a height's integral, absolute and
relative: a height is returned only when its estimate is at most
max(tol, tol |integral|), which a finished pass meets at every height, and
QuadratureError is raised otherwise.  Panels never straddle a law's breaks
(the nodes of a tabulated law, where its linear interpolation leaves beta
with a kink), so each panel sees a smooth integrand.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Callable, Optional, Sequence, Tuple

from .branch import linspace
from .errors import QuadratureError
from .onedof import OneDofSystem, ProfileShape, equilibrium_force

_SLACK = 1e-12

# Chebyshev-Lobatto panels of _N + 1 points: _COS[m] = cos(m pi / _N), so
# _ROWS[j][k] = cos(j k pi / _N) is the DCT-I that takes the samples at
# x_k = cos(k pi / _N) to the coefficients of T_j
_N = 16
_TAIL = 4
_COS = [math.cos(math.pi * m / _N) for m in range(2 * _N)]
_ROWS = [[_COS[j * k % (2 * _N)] for k in range(_N + 1)] for j in range(_N + 1)]
# the floor of an error estimate, times the panel's integral of |g|
_EPS50 = 50.0 * 2.220446049250313e-16
_PANELS = 200


@dataclass(frozen=True)
class TargetForceLaw:
    """Dimensionless postcritical force F l / k as a function of psi.

    dbeta, when given, is the analytic derivative; otherwise profile
    curvature falls back on a central difference of beta.  breaks lists
    the psi where beta or its slope may jump, such as the nodes of a
    tabulated law; the quadrature starts a panel at each.
    """

    beta: Callable[[float], float]
    psi_max: float = 0.99
    dbeta: Optional[Callable[[float], float]] = None
    breaks: Tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.psi_max <= 1.0:
            raise ValueError("design limit psi_max must lie in (0, 1], got %r" % self.psi_max)


def law_constant(beta: float = -1.0, psi_max: float = 0.99) -> TargetForceLaw:
    b = float(beta)
    if b == 0.0:
        raise ValueError("zero target force")
    return TargetForceLaw(beta=lambda psi: b, psi_max=psi_max, dbeta=lambda psi: 0.0)


def law_sinusoidal(
    base: float = -1.0,
    amplitude: float = 0.3,
    lobes: float = 3.0,
    psi_max: float = 0.99,
) -> TargetForceLaw:
    """Sinusoidal force oscillation over the rotation angle."""

    def beta(psi):
        return base + amplitude * math.sin(lobes * math.asin(psi))

    def dbeta(psi):
        return (
            amplitude
            * lobes
            * math.cos(lobes * math.asin(psi))
            / math.sqrt(1.0 - psi * psi)
        )

    return TargetForceLaw(beta=beta, psi_max=psi_max, dbeta=dbeta)


def law_circular(
    center: float = -0.5, radius: float = 1.5, psi_max: float = 0.985
) -> TargetForceLaw:
    """Force-rotation curve shaped as a circular arc below `center`."""

    def beta(psi):
        a = math.asin(psi)
        return center - math.sqrt(radius * radius - a * a)

    def dbeta(psi):
        a = math.asin(psi)
        return a / (math.sqrt(radius * radius - a * a) * math.sqrt(1.0 - psi * psi))

    # built first, so that a psi_max outside (0, 1] is refused before asin sees it
    law = TargetForceLaw(beta=beta, psi_max=psi_max, dbeta=dbeta)
    if radius * radius <= math.asin(psi_max) ** 2:
        raise ValueError("radius too small for the requested psi range")
    return law


def _dbeta(law: TargetForceLaw, psi: float) -> float:
    if law.dbeta is not None:
        return law.dbeta(psi)
    h = 1e-6
    lo = max(0.0, psi - h)
    hi = min(law.psi_max, psi + h)
    return (law.beta(hi) - law.beta(lo)) / (hi - lo)


def _pole(law: TargetForceLaw) -> float:
    # f' and f'' at psi = 1: as psi -> 1 they grow as (-1 - asin(1)/beta(1))
    # over sqrt(1 - psi^2) and its cube
    return math.copysign(math.inf, -1.0 - math.asin(1.0) / law.beta(1.0))


def _design_fp(law: TargetForceLaw, psi: float) -> float:
    if psi == 1.0:
        return _pole(law)
    s = math.sqrt(1.0 - psi * psi)
    return -psi / s - math.asin(psi) / (law.beta(psi) * s)


def _design_fpp(law: TargetForceLaw, psi: float) -> float:
    if psi == 1.0:
        return _pole(law)
    s2 = 1.0 - psi * psi
    s = math.sqrt(s2)
    a = math.asin(psi)
    b = law.beta(psi)
    return (
        -1.0 / s**3
        - 1.0 / (b * s2)
        + a * _dbeta(law, psi) / (b * b * s)
        - a * psi / (b * s**3)
    )


def _panel(g, a, b):
    """Chebyshev panel on [a, b]: (a, b, coefficients, error estimate, whether
    the estimate is its rounding floor).

    The coefficients are those of the interpolant's antiderivative from a,
    in the panel coordinate x = (2 tau - a - b) / (b - a).
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    v = [g(c + h * x) for x in _COS[: _N + 1]]
    # trapezoid rule in t, x = cos(t), for the integral of |g| over [-1, 1]
    absint = math.pi / _N * sum(abs(y) * _COS[abs(_N // 2 - k)] for k, y in enumerate(v))
    v[0] *= 0.5
    v[_N] *= 0.5
    co = [2.0 / _N * sum(map(mul, v, row)) for row in _ROWS]
    co[0] *= 0.5
    co[_N] *= 0.5
    tail, floor = 2.0 * sum(map(abs, co[-_TAIL:])), _EPS50 * absint
    co += (0.0, 0.0)
    anti = [0.0, h * (co[0] - 0.5 * co[2])]
    anti += [h * (co[k - 1] - co[k + 1]) / (2 * k) for k in range(2, _N + 2)]
    # T_k(-1) = (-1)^k: the antiderivative vanishes at a
    anti[0] = sum(anti[1::2]) - sum(anti[2::2])
    return a, b, anti, abs(h) * max(tail, floor), tail <= floor


def _clenshaw(coef, x):
    """sum_k coef[k] T_k(x)."""
    b1 = b2 = 0.0
    x2 = x + x
    for c in coef[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return coef[0] + x * b1 - b2


def _designed(law: TargetForceLaw, height: Callable[[float], float]) -> ProfileShape:
    """The profile of a law and its height f(psi), defined on [0, psi_max]
    up to a rounding slack, which is clamped."""

    def dom(psi):
        if psi < -_SLACK or psi > law.psi_max + _SLACK:
            raise ValueError(
                "psi=%r outside the design interval [0, %g]" % (psi, law.psi_max)
            )
        return min(max(psi, 0.0), law.psi_max)

    return ProfileShape(
        f=lambda psi: height(dom(psi)),
        fp=lambda psi: _design_fp(law, dom(psi)),
        fpp=lambda psi: _design_fpp(law, dom(psi)),
        domain=(0.0, law.psi_max),
        curvature_right_at_0=_design_fpp(law, 0.0),
        curvature_left_at_0=_design_fpp(law, 0.0),
    )


def design_profile(law: TargetForceLaw, tol: float = 1e-10) -> ProfileShape:
    """Profile producing the requested force law on the perfect system.

    The integrand is sampled once, on adaptive Chebyshev panels over the
    design interval, and a height costs one running sum and one Clenshaw
    sum; see the module docstring for the error estimate and tol.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    inner = sorted({float(p) for p in law.breaks if 0.0 < p < law.psi_max})
    # the design condition divides by beta: reject vanishing and non-finite
    # targets, also at breaks that may fall between the probes
    probe = sorted({*linspace(0.0, law.psi_max, 257), *inner})
    vals = [law.beta(p) for p in probe]
    if any(not 1e-9 <= abs(v) < math.inf for v in vals) or any(
        x * y < 0.0 for x, y in zip(vals, vals[1:])
    ):
        raise ValueError("target force law vanishes or is not finite inside the design interval")

    def g(tau):
        return tau / law.beta(math.sin(tau))

    cuts = [0.0, *(math.asin(p) for p in inner), math.asin(law.psi_max)]
    panels = [_panel(g, a, b) for a, b in zip(cuts, cuts[1:])]
    while len(panels) < _PANELS and sum(p[3] for p in panels) > 0.01 * tol:
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        if panels[worst][4]:
            # every estimate is at most this rounding floor, which no
            # bisection lowers
            break
        a, b = panels.pop(worst)[:2]
        m = 0.5 * (a + b)
        panels += [_panel(g, a, m), _panel(g, m, b)]
    panels.sort(key=lambda p: p[0])
    # ends[j] is where panel j starts, and the integral up to it is sums[j]
    ends = [p[0] for p in panels] + [cuts[-1]]
    sums = list(accumulate((sum(p[2]) for p in panels), initial=0.0))
    errs = list(accumulate((p[3] for p in panels), initial=0.0))

    def height(psi):
        tau = math.asin(psi)
        j = bisect_right(ends, tau) - 1
        val, err = sums[j], errs[j]
        if tau > ends[j]:
            a, b, anti, e, _ = panels[j]
            val += _clenshaw(anti, (2.0 * tau - a - b) / (b - a))
            err += e
        if err > max(tol, tol * abs(val)):
            raise QuadratureError(
                "requested tolerance %g unreachable at psi=%r (estimated error %g)"
                % (tol, psi, err)
            )
        return math.sqrt(1.0 - psi * psi) - val

    return _designed(law, height)


def neutral_profile(beta: float) -> ProfileShape:
    """Closed-form profile with constant postcritical force beta * k / l."""
    b = float(beta)
    return _designed(law_constant(b, psi_max=1.0),
                     lambda psi: math.sqrt(1.0 - psi * psi) - math.asin(psi) ** 2 / (2.0 * b))


def closed_loop_validate(
    profile: ProfileShape, law: TargetForceLaw, grid: Sequence[float]
) -> float:
    """Max relative gap between traced force and target over a phi grid, or NaN.

    The force reads only the slope f', whose closed form on a designed profile
    makes sin phi + cos phi f' = -phi/beta exact, so the gap is that identity's
    rounding; no height enters it, and QuadratureError alone checks the heights.
    """
    sys = OneDofSystem(k=1.0, l=1.0, phi0=0.0, profile=profile)
    worst = 0.0
    for phi in grid:
        phi = float(phi)
        target = law.beta(math.sin(phi))
        err = abs(equilibrium_force(phi, sys) - target) / abs(target)
        if math.isnan(err):
            return err  # max(worst, nan) would drop it
        worst = max(worst, err)
    return worst


def export_profile_csv(profile: ProfileShape, path, n: int = 601):
    """Write (psi, f) samples over the profile domain, 17 significant digits."""
    lo, hi = profile.domain
    rows = ["%.16e,%.16e\n" % (psi, profile.f(psi)) for psi in linspace(lo, hi, n)]
    with open(path, "w", newline="") as fh:
        fh.write("psi,f\n" + "".join(rows))
