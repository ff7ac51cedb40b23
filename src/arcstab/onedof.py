"""One-degree-of-freedom rigid bar sliding on a curved constraint.

A rigid bar of length l, elastically hinged through a rotational spring
k, ends in a pin that rides on a rigid profile.  With phi the bar
rotation, the pin sits at transverse offset psi = sin(phi) (in units of
l) and the profile height along the load direction is l*f(psi), with
f'(0) = 0.  The signed profile curvature f''(0) sets the bifurcation
load -k/(l*(1 + f''(0))): curvature below -1 turns the buckling load
tensile, and an S-shaped profile with a curvature jump at psi = 0 gives
one tensile and one compressive buckling load.

Forces are positive in tension, displacements positive when the system
lengthens, angles in radians.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .branch import BranchTrace, refine, sign_changes
from .errors import DegenerateGeometryError, SingularConfigurationError

_DOMAIN_SLACK = 1e-12
_STAB_BAND = 1e-9  # times k, classifies "critical"


@dataclass(frozen=True)
class ProfileShape:
    """Constraint profile f and its first two psi derivatives."""

    f: Callable[[float], float]
    fp: Callable[[float], float]
    fpp: Callable[[float], float]
    domain: Tuple[float, float]
    curvature_right_at_0: float
    curvature_left_at_0: float


@dataclass(frozen=True)
class OneDofSystem:
    k: float
    l: float
    phi0: float
    profile: ProfileShape

    def __post_init__(self):
        if not self.k > 0.0:
            raise ValueError("spring stiffness k must be positive")
        if not self.l > 0.0:
            raise ValueError("bar length l must be positive")
        if not abs(self.phi0) < math.pi / 2:
            raise ValueError("imperfection angle must satisfy |phi0| < pi/2")


@dataclass(frozen=True)
class EquilibriumPoint:
    phi: float
    F: float
    delta: float
    stability: str


def _circle_f(chi: float, psi: float) -> float:
    s2 = max(1.0 - chi * chi * psi * psi, 0.0)
    return (1.0 - math.sqrt(s2)) / chi


def _circle_fp(chi: float, psi: float) -> float:
    s2 = 1.0 - chi * chi * psi * psi
    if s2 <= 0.0:
        # vertical tangent at the lobe edge
        return math.copysign(math.inf, chi * psi)
    return chi * psi / math.sqrt(s2)


def _circle_fpp(chi: float, psi: float) -> float:
    s2 = 1.0 - chi * chi * psi * psi
    if s2 <= 0.0:
        return math.copysign(math.inf, chi)
    return chi / s2**1.5


def _two_lobe_profile(chi_right: float, chi_left: float) -> ProfileShape:
    """Circular lobes of signed curvature chi_right at psi >= 0 and
    chi_left at psi < 0, tangent to the psi axis at the joint."""
    lim = min(1.0, 1.0 / max(abs(chi_right), abs(chi_left)))

    def side(psi):
        if abs(psi) > lim + _DOMAIN_SLACK:
            raise ValueError("psi=%r outside the constraint, |psi| <= %g" % (psi, lim))
        # right side wins at the joint
        return chi_right if psi >= 0.0 else chi_left

    return ProfileShape(
        f=lambda psi: _circle_f(side(psi), psi),
        fp=lambda psi: _circle_fp(side(psi), psi),
        fpp=lambda psi: _circle_fpp(side(psi), psi),
        domain=(-lim, lim),
        curvature_right_at_0=chi_right,
        curvature_left_at_0=chi_left,
    )


def profile_circular(chi_hat: float) -> ProfileShape:
    """Circle tangent to the psi axis at 0 with signed curvature chi_hat."""
    chi = float(chi_hat)
    if chi == 0.0:
        raise ValueError("zero curvature, use profile_straight")
    return _two_lobe_profile(chi, chi)


def profile_straight() -> ProfileShape:
    def flat(psi):
        if abs(psi) > 1.0 + _DOMAIN_SLACK:
            raise ValueError("psi=%r outside [-1, 1]" % (psi,))
        return 0.0

    return ProfileShape(
        f=flat,
        fp=flat,
        fpp=flat,
        domain=(-1.0, 1.0),
        curvature_right_at_0=0.0,
        curvature_left_at_0=0.0,
    )


def profile_s_shaped(chi_hat_magnitude: float) -> ProfileShape:
    """Two circular lobes with a curvature jump at psi = 0.

    The lobe at psi > 0 curves away from the load (curvature -magnitude,
    the tensile-buckling side), the lobe at psi < 0 curves toward it.
    f and f' are continuous at the joint; f'' jumps.
    """
    mag = float(chi_hat_magnitude)
    if mag <= 0.0:
        raise ValueError("curvature magnitude must be positive")
    return _two_lobe_profile(-mag, mag)


def equilibrium_force(phi: float, sys: OneDofSystem) -> float:
    """Axial force balancing the bar at rotation phi, positive in tension."""
    num = -sys.k * (phi - sys.phi0)
    sp = math.sin(phi)
    den = sys.l * (sp + math.cos(phi) * sys.profile.fp(sp))
    if math.isnan(den) or abs(den) < 1e-15 * sys.l:
        raise SingularConfigurationError(
            "load path tangent vertical at phi=%r" % (phi,), phi=phi
        )
    return num / den


def _critical_for(chi: float, sys: OneDofSystem) -> float:
    # bifurcation load of a lobe of curvature chi at psi = 0
    if abs(1.0 + chi) < 1e-12:
        raise DegenerateGeometryError("curvature -1, critical load at infinity")
    return -sys.k / (sys.l * (1.0 + chi))


def critical_load(sys: OneDofSystem) -> float:
    """Bifurcation load of the perfect system, set by the curvature at 0."""
    if sys.phi0 != 0.0:
        raise ValueError("critical load is defined for the perfect system only")
    chi_r = sys.profile.curvature_right_at_0
    if chi_r != sys.profile.curvature_left_at_0:
        raise ValueError("two-sided curvature, use critical_loads_s_shaped")
    return _critical_for(chi_r, sys)


def critical_loads_s_shaped(sys: OneDofSystem) -> Tuple[float, float]:
    """Buckling load pair of a two-sided profile: (psi>0 side, psi<0 side)."""
    if sys.phi0 != 0.0:
        raise ValueError("critical loads are defined for the perfect system only")
    p = sys.profile
    return _critical_for(p.curvature_right_at_0, sys), _critical_for(p.curvature_left_at_0, sys)


def stability_of(phi: float, F: float, sys: OneDofSystem) -> str:
    """Classify an equilibrium by the sign of the second energy derivative."""
    sp, cp = math.sin(phi), math.cos(phi)
    p = sys.profile
    d2 = sys.k + F * sys.l * (cp - p.fp(sp) * sp + p.fpp(sp) * cp * cp)
    if math.isnan(d2):
        raise SingularConfigurationError(
            "stability undefined at phi=%r" % (phi,), phi=phi
        )
    if abs(d2) < _STAB_BAND * sys.k:
        return "critical"
    return "stable" if d2 > 0.0 else "unstable"


def elongation(phi: float, sys: OneDofSystem) -> float:
    """End displacement at rotation phi, positive when the system lengthens."""
    p = sys.profile
    return sys.l * (
        math.cos(phi)
        - math.cos(sys.phi0)
        - p.f(math.sin(phi))
        + p.f(math.sin(sys.phi0))
    )


def _trace(point_of, grid, label):
    # points in grid order up to the first singular configuration
    pts = []
    complete, diagnostic = True, ""
    for g in grid:
        try:
            pts.append(point_of(float(g)))
        except SingularConfigurationError as exc:
            complete, diagnostic = False, str(exc)
            break
    if label is None:
        label = "tensile" if pts and pts[0].F > 0.0 else "compressive"
    return BranchTrace(label=label, points=pts, complete=complete, diagnostic=diagnostic)


def _phi_point(phi: float, sys: OneDofSystem) -> EquilibriumPoint:
    F = equilibrium_force(phi, sys)
    return EquilibriumPoint(
        phi=phi, F=F, delta=elongation(phi, sys), stability=stability_of(phi, F, sys)
    )


def trace_branch(
    sys: OneDofSystem, phi_grid: Sequence[float], label: Optional[str] = None
) -> BranchTrace:
    """Equilibrium points along an ordered grid of bar rotations.

    A singular configuration stops the trace: the points before it are
    returned with complete = False and the reason in diagnostic.
    """
    return _trace(lambda phi: _phi_point(phi, sys), phi_grid, label)


def _arc_angles(t: float, sys: OneDofSystem) -> Tuple[float, float, float]:
    """(lobe curvature, sin phi, phi) of the pin at angle t."""
    chi = (
        sys.profile.curvature_right_at_0
        if t >= 0.0
        else sys.profile.curvature_left_at_0
    )
    if chi == 0.0:
        raise ValueError("arc tracing needs a curved constraint")
    sphi = math.sin(t) / abs(chi)
    if abs(sphi) > 1.0:
        raise ValueError("pin angle %r leaves the reachable arc" % (t,))
    return chi, sphi, math.asin(sphi)


def _arc_force(t: float, sys: OneDofSystem) -> float:
    # force along the lobe by pin angle, regular through the fold of the
    # phi parameterization (vertical profile tangent)
    chi, sphi, phi = _arc_angles(t, sys)
    st, ct = math.sin(t), math.cos(t)
    sg = math.copysign(1.0, chi)
    den = sys.l * (sphi * ct + math.cos(phi) * sg * st)
    # on a unit circle den vanishes identically where sg cos t < 0, since
    # cos^2 t - (chi^2 - sin^2 t) = 1 - chi^2; rounding leaves ~1e-15 there
    if abs(den) < 1e-15 * sys.l or (abs(chi) == 1.0 and ct * sg < 0.0):
        raise SingularConfigurationError(
            "load path tangent vertical at pin angle %r" % (t,), phi=phi
        )
    return -sys.k * (phi - sys.phi0) * ct / den


def _arc_stability(t: float, phi: float, F: float, chi: float, sys: OneDofSystem) -> str:
    # second derivative of the energy in the pin angle, valid on both
    # sides of the fold where phi is no longer a coordinate
    st, ct = math.sin(t), math.cos(t)
    q = math.sqrt(chi * chi - st * st)
    if q < 1e-12:
        raise SingularConfigurationError(
            "stability undefined at pin angle %r" % (t,), phi=phi
        )
    dphi = ct / q
    ddphi = -st * (chi * chi - 1.0) / q**3
    ddf = ct / chi
    d2 = sys.k * dphi * dphi + sys.k * (phi - sys.phi0) * ddphi
    d2 -= F * sys.l * (-math.cos(phi) * dphi * dphi - math.sin(phi) * ddphi - ddf)
    if abs(d2) < _STAB_BAND * sys.k:
        return "critical"
    return "stable" if d2 > 0.0 else "unstable"


def _arc_point(t: float, sys: OneDofSystem) -> EquilibriumPoint:
    chi, _, phi = _arc_angles(t, sys)
    F = _arc_force(t, sys)
    fval = (1.0 - math.cos(t)) / chi
    f0 = sys.profile.f(math.sin(sys.phi0))
    delta = sys.l * (math.cos(phi) - math.cos(sys.phi0) - fval + f0)
    return EquilibriumPoint(
        phi=phi, F=F, delta=delta, stability=_arc_stability(t, phi, F, chi, sys)
    )


def trace_branch_arc(
    sys: OneDofSystem, t_grid: Sequence[float], label: Optional[str] = None
) -> BranchTrace:
    """Equilibrium points along one circular lobe by pin angle t.

    The pin angle runs along the constraint circle (t = 0 at the lobe
    joint, t > 0 on the psi > 0 lobe), so the trace continues through
    the vertical-tangent point where tracing by phi folds back and the
    force changes sign; the first force zero, refined in t, is
    events["load_sign_transition"].  A singular configuration stops the
    trace as in trace_branch; a pin angle off the reachable arc raises
    ValueError.
    """
    ts = [float(t) for t in t_grid]
    trace = _trace(lambda t: _arc_point(t, sys), ts, label)
    force = lambda t: _arc_force(t, sys)
    for i, j in sign_changes([p.F for p in trace.points]):
        try:
            tz = refine(force, ts, i, j, 1e-14)
            trace.events["load_sign_transition"] = _arc_point(tz, sys)
            break
        except SingularConfigurationError:
            pass  # the force changes sign through a pole, not a zero
    return trace
