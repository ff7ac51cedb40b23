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
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import QuadratureError
from .onedof import OneDofSystem, ProfileShape, equilibrium_force

_SLACK = 1e-12


@dataclass(frozen=True)
class TargetForceLaw:
    """Dimensionless postcritical force F l / k as a function of psi.

    dbeta, when given, is the analytic derivative; otherwise profile
    curvature falls back on a central difference of beta.
    """

    beta: Callable[[float], float]
    psi_max: float = 0.99
    dbeta: Optional[Callable[[float], float]] = None

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


def design_profile(law: TargetForceLaw, tol: float = 1e-10) -> ProfileShape:
    """Profile producing the requested force law on the perfect system."""
    # imported here, so that importing the package does not load scipy.integrate
    from scipy.integrate import quad

    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    # the design condition divides by beta: reject vanishing targets
    probe = np.linspace(0.0, law.psi_max, 257)
    vals = [law.beta(float(p)) for p in probe]
    if any(abs(v) < 1e-9 for v in vals) or any(
        x * y < 0.0 for x, y in zip(vals, vals[1:])
    ):
        raise ValueError("target force law vanishes inside the design interval")

    def dom(psi):
        if psi < -_SLACK or psi > law.psi_max + _SLACK:
            raise ValueError(
                "psi=%r outside the design interval [0, %g]" % (psi, law.psi_max)
            )
        return min(max(psi, 0.0), law.psi_max)

    def f(psi):
        psi = dom(psi)
        out = quad(
            lambda tau: tau / law.beta(math.sin(tau)),
            0.0,
            math.asin(psi),
            epsabs=tol,
            epsrel=tol,
            limit=200,
            full_output=1,
        )
        val, abserr = out[0], out[1]
        if len(out) > 3 or abserr > max(tol, 10.0 * tol * abs(val)):
            raise QuadratureError(
                "requested tolerance %g unreachable (estimated error %g)"
                % (tol, abserr)
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
