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

The quadrature is the adaptive Gauss-Kronrod 7-15 pair of QUADPACK
(Piessens et al., 1983): the 15-point Kronrod sum is the panel's value,
and its gap to the embedded 7-point Gauss sum gives QUADPACK's error
estimate.  design_profile integrates once over [0, asin(psi_max)],
bisecting the panel of largest estimated error, and keeps the running
sums at the panel ends; a height is then one running sum plus the same
adaptive rule over the part of one panel below asin(psi).  tol bounds the
estimated error of that integral, absolute and relative: a height is
returned only when the error estimate is at most max(tol, tol |integral|),
and QuadratureError is raised otherwise, after at most 200 panels per
pass.  Panels never straddle a law's breaks (the
nodes of a tabulated law, where np.interp leaves beta with a kink), so
each panel sees a smooth integrand.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import QuadratureError
from .onedof import OneDofSystem, ProfileShape, equilibrium_force

_SLACK = 1e-12

# 15-point Kronrod nodes on [-1, 1], positive half, and their weights; the
# nodes of odd index and the centre are the 7-point Gauss nodes, with the
# Gauss weights _WG (QUADPACK qk15)
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
)
_WG_CENTRE = 0.417959183673469387755102040816327
_RULE = tuple(zip(_XGK, _WGK, _WG))
# QUADPACK's floor of an error estimate, times the panel's integral of |g|
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


def _design_fp(law: TargetForceLaw, psi: float) -> float:
    s = math.sqrt(1.0 - psi * psi)
    return -psi / s - math.asin(psi) / (law.beta(psi) * s)


def _design_fpp(law: TargetForceLaw, psi: float) -> float:
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


def _gk15(g, a, b):
    """Kronrod value of int_a^b g and QUADPACK's error estimate for it."""
    c = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = g(c)
    resk = _WGK_CENTRE * fc
    resg = _WG_CENTRE * fc
    pairs = []
    for x, wk, wg in _RULE:
        f1 = g(c - half * x)
        f2 = g(c + half * x)
        resk += wk * (f1 + f2)
        resg += wg * (f1 + f2)
        pairs.append((wk, f1, f2))
    mean = 0.5 * resk
    resabs = _WGK_CENTRE * abs(fc)
    resasc = _WGK_CENTRE * abs(fc - mean)
    for wk, f1, f2 in pairs:
        resabs += wk * (abs(f1) + abs(f2))
        resasc += wk * (abs(f1 - mean) + abs(f2 - mean))
    h = abs(half)
    err = abs(resk - resg) * h
    resasc *= h
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, max(err, _EPS50 * resabs * h)


def _adapt(g, panels, tol):
    """Bisect the panel of largest error estimate until the estimates sum to
    at most max(tol, tol |integral|), or _PANELS panels are reached.

    panels are (a, b, value, error) tuples; they are returned sorted by a.
    """
    while len(panels) < _PANELS:
        total = sum(p[2] for p in panels)
        if sum(p[3] for p in panels) <= max(tol, tol * abs(total)):
            break
        a, b, _, _ = panels.pop(max(range(len(panels)), key=lambda i: panels[i][3]))
        m = 0.5 * (a + b)
        panels += [(a, m, *_gk15(g, a, m)), (m, b, *_gk15(g, m, b))]
    return sorted(panels)


def design_profile(law: TargetForceLaw, tol: float = 1e-10) -> ProfileShape:
    """Profile producing the requested force law on the perfect system.

    The heights come from one adaptive Gauss-Kronrod pass over the design
    interval; see the module docstring for the meaning of tol.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    inner = sorted({float(p) for p in law.breaks if 0.0 < p < law.psi_max})
    # the design condition divides by beta: reject vanishing targets, also
    # at breaks that may fall between the probes
    probe = np.union1d(np.linspace(0.0, law.psi_max, 257), inner)
    vals = [law.beta(float(p)) for p in probe]
    if any(abs(v) < 1e-9 for v in vals) or any(
        x * y < 0.0 for x, y in zip(vals, vals[1:])
    ):
        raise ValueError("target force law vanishes inside the design interval")

    def g(tau):
        return tau / law.beta(math.sin(tau))

    cuts = [0.0, *(math.asin(p) for p in inner), math.asin(law.psi_max)]
    panels = _adapt(g, [(a, b, *_gk15(g, a, b)) for a, b in zip(cuts, cuts[1:])], tol)
    # ends[j] is where panel j starts, and the integral up to it is sums[j]
    ends = [p[0] for p in panels] + [cuts[-1]]
    sums = list(accumulate((p[2] for p in panels), initial=0.0))
    errs = list(accumulate((p[3] for p in panels), initial=0.0))

    def dom(psi):
        if psi < -_SLACK or psi > law.psi_max + _SLACK:
            raise ValueError(
                "psi=%r outside the design interval [0, %g]" % (psi, law.psi_max)
            )
        return min(max(psi, 0.0), law.psi_max)

    def f(psi):
        psi = dom(psi)
        tau = math.asin(psi)
        j = bisect_right(ends, tau) - 1
        val, err = sums[j], errs[j]
        if tau > ends[j]:
            for _, _, v, e in _adapt(g, [(ends[j], tau, *_gk15(g, ends[j], tau))], tol):
                val += v
                err += e
        if err > max(tol, tol * abs(val)):
            raise QuadratureError(
                "requested tolerance %g unreachable at psi=%r (estimated error %g)"
                % (tol, psi, err)
            )
        return math.sqrt(1.0 - psi * psi) - val

    return ProfileShape(
        f=f,
        fp=lambda psi: _design_fp(law, dom(psi)),
        fpp=lambda psi: _design_fpp(law, dom(psi)),
        domain=(0.0, law.psi_max),
        curvature_right_at_0=_design_fpp(law, 0.0),
        curvature_left_at_0=_design_fpp(law, 0.0),
    )


def neutral_profile(beta: float) -> ProfileShape:
    """Closed-form profile with constant postcritical force beta * k / l."""
    b = float(beta)
    if b == 0.0:
        raise ValueError("zero target force")

    def dom(psi):
        if psi < -_SLACK or psi > 1.0 + _SLACK:
            raise ValueError("psi=%r outside [0, 1]" % (psi,))
        return min(max(psi, 0.0), 1.0)

    def f(psi):
        psi = dom(psi)
        return math.sqrt(1.0 - psi * psi) - math.asin(psi) ** 2 / (2.0 * b)

    def fp(psi):
        psi = dom(psi)
        s2 = 1.0 - psi * psi
        num = -psi - math.asin(psi) / b
        if s2 <= 0.0:
            return math.copysign(math.inf, num)
        return num / math.sqrt(s2)

    def fpp(psi):
        psi = dom(psi)
        s2 = 1.0 - psi * psi
        if s2 <= 0.0:
            return math.copysign(math.inf, -1.0 / b)
        s = math.sqrt(s2)
        a = math.asin(psi)
        return -1.0 / s**3 - 1.0 / (b * s2) - a * psi / (b * s**3)

    return ProfileShape(
        f=f,
        fp=fp,
        fpp=fpp,
        domain=(0.0, 1.0),
        curvature_right_at_0=-1.0 - 1.0 / b,
        curvature_left_at_0=-1.0 - 1.0 / b,
    )


def closed_loop_validate(
    profile: ProfileShape, law: TargetForceLaw, grid: Sequence[float]
) -> float:
    """Max relative gap between traced force and target over a phi grid."""
    sys = OneDofSystem(k=1.0, l=1.0, phi0=0.0, profile=profile)
    worst = 0.0
    for phi in grid:
        phi = float(phi)
        target = law.beta(math.sin(phi))
        err = abs(equilibrium_force(phi, sys) - target) / abs(target)
        worst = max(worst, err)
    return worst


def export_profile_csv(profile: ProfileShape, path, n: int = 601):
    """Write (psi, f) samples over the profile domain, 17 significant digits."""
    lo, hi = profile.domain
    with open(path, "w", newline="") as fh:
        fh.write("psi,f\n")
        for psi in np.linspace(lo, hi, n):
            fh.write("%.16e,%.16e\n" % (psi, profile.f(float(psi))))
