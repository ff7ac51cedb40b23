"""One-degree-of-freedom rigid bar sliding on a curved constraint.

A rigid bar of length l, elastically hinged through a rotational spring
k, ends in a pin that rides on a rigid profile.  With phi the bar
rotation, the pin sits at transverse offset psi = sin(phi) (in units of
l) and the profile height along the load direction is l*f(psi), with
f'(0) = 0.  The signed profile curvature f''(0) sets the bifurcation
load -k/(l*(1 + f''(0))): curvature below -1 turns the buckling load
tensile, and an S-shaped profile with a curvature jump at psi = 0 gives
one tensile and one compressive buckling load.

Undesigned profiles are circular lobes tangent to the psi axis at 0, of
height chi psi^2 / (1 + sqrt(1 - chi^2 psi^2)) at signed curvature chi:
(1 - sqrt(1 - chi^2 psi^2)) / chi without its cancellation at small psi,
and at chi = 0 the straight constraint, an ordinary lobe.

The axial force, the energy's second derivative in phi and the end
displacement are each written once, in phi and the profile's height f,
slope f' and curvature f'' under the pin.  trace_branch takes these from
the profile graph; trace_branch_arc takes them from a circular lobe at
pin angle t, which past the vertical tangent (cos t < 0) is the lobe's
far branch, another graph of psi, so the same formulas carry the force
through zero there.  At an equilibrium the second derivative in t is the
one in phi times (dphi/dt)^2, so both traces label stability alike.

Forces are positive in tension, displacements positive when the system
lengthens, angles in radians.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .branch import BranchTrace, Sample, refine, sign_changes
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
        if not 0.0 < self.k < math.inf:
            raise ValueError("spring stiffness k must be positive and finite")
        if not 0.0 < self.l < math.inf:
            raise ValueError("bar length l must be positive and finite")
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
    return chi * psi * psi / (1.0 + math.sqrt(s2))


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
    lim = 1.0 / max(1.0, abs(chi_right), abs(chi_left))

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
    return _two_lobe_profile(chi, chi)


def profile_straight() -> ProfileShape:
    return _two_lobe_profile(0.0, 0.0)


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


def _force(phi: float, fp: float, sys: OneDofSystem) -> float:
    # virtual work of spring and load at profile slope fp under the pin
    num = -sys.k * (phi - sys.phi0)
    den = sys.l * (math.sin(phi) + math.cos(phi) * fp)
    if math.isnan(den) or abs(den) < 1e-15 * sys.l:
        raise SingularConfigurationError(
            "load path tangent vertical at phi=%r" % (phi,), phi=phi
        )
    return num / den


def equilibrium_force(phi: float, sys: OneDofSystem) -> float:
    """Axial force balancing the bar at rotation phi, positive in tension."""
    return _force(phi, sys.profile.fp(math.sin(phi)), sys)


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


def _stability(phi: float, F: float, fp: float, fpp: float, sys: OneDofSystem) -> str:
    # sign of the energy's second derivative in phi at profile slope fp
    # and curvature fpp under the pin
    sp, cp = math.sin(phi), math.cos(phi)
    d2 = sys.k + F * sys.l * (cp - fp * sp + fpp * cp * cp)
    if math.isnan(d2):
        raise SingularConfigurationError(
            "stability undefined at phi=%r" % (phi,), phi=phi
        )
    if abs(d2) < _STAB_BAND * sys.k:
        return "critical"
    return "stable" if d2 > 0.0 else "unstable"


def stability_of(phi: float, F: float, sys: OneDofSystem) -> str:
    """Classify an equilibrium by the sign of the second energy derivative."""
    sp, p = math.sin(phi), sys.profile
    return _stability(phi, F, p.fp(sp), p.fpp(sp), sys)


def _elongation(phi: float, f: float, sys: OneDofSystem) -> float:
    # end displacement with the pin at profile height f; cos phi - cos phi0
    # as a product, which keeps the digits the difference cancels at small
    # rotations
    rise = -2.0 * math.sin(0.5 * (phi + sys.phi0)) * math.sin(0.5 * (phi - sys.phi0))
    return sys.l * (rise - f + sys.profile.f(math.sin(sys.phi0)))


def elongation(phi: float, sys: OneDofSystem) -> float:
    """End displacement at rotation phi, positive when the system lengthens."""
    return _elongation(phi, sys.profile.f(math.sin(phi)), sys)


def _trace(point_of, grid):
    # points in grid order up to the first singular configuration
    pts = []
    complete, diagnostic = True, ""
    for g in grid:
        try:
            pts.append(point_of(float(g)))
        except SingularConfigurationError as exc:
            complete, diagnostic = False, str(exc)
            break
    return BranchTrace(points=pts, complete=complete, diagnostic=diagnostic)


def _phi_point(phi: float, sys: OneDofSystem) -> EquilibriumPoint:
    F = equilibrium_force(phi, sys)
    return EquilibriumPoint(
        phi=phi, F=F, delta=elongation(phi, sys), stability=stability_of(phi, F, sys)
    )


def trace_branch(sys: OneDofSystem, phi_grid: Sequence[float]) -> BranchTrace:
    """Equilibrium points along an ordered grid of bar rotations.

    A singular configuration stops the trace: the points before it are
    returned with complete = False and the reason in diagnostic.
    """
    return _trace(lambda phi: _phi_point(phi, sys), phi_grid)


def _arc_graph(t: float, sys: OneDofSystem) -> Tuple[float, float, float, float]:
    """(phi, f, f', f'') of the pin at angle t on its circular lobe; past the
    vertical tangent, f' and f'' pass through infinity and change sign."""
    p = sys.profile
    chi = p.curvature_right_at_0 if t >= 0.0 else p.curvature_left_at_0
    if chi == 0.0:
        raise ValueError("arc tracing needs a curved constraint")
    sphi = math.sin(t) / abs(chi)
    if abs(sphi) > 1.0:
        raise ValueError("pin angle %r leaves the reachable arc" % (t,))
    phi, ct, sg = math.asin(sphi), math.cos(t), math.copysign(1.0, chi)
    # sin phi + cos phi f' = sin t (cos t + sg sqrt(chi^2 - sin^2 t)) /
    # (|chi| cos t), which on a unit circle vanishes wherever sg cos t < 0;
    # rounding hides that from the force's 1e-15 l test
    if abs(chi) == 1.0 and sg * ct < 0.0:
        raise SingularConfigurationError(
            "load path tangent vertical at pin angle %r" % (t,), phi=phi
        )
    # the lobe height (1 - cos t)/chi, without its cancellation at small t
    return phi, 2.0 * math.sin(0.5 * t) ** 2 / chi, sg * math.tan(t), chi / ct**3


def _arc_point(t: float, sys: OneDofSystem) -> EquilibriumPoint:
    phi, f, fp, fpp = _arc_graph(t, sys)
    F = _force(phi, fp, sys)
    stab = _stability(phi, F, fp, fpp, sys)
    return EquilibriumPoint(phi=phi, F=F, delta=_elongation(phi, f, sys), stability=stab)


def _check_lobe(ts: Sequence[float], sys: OneDofSystem) -> None:
    """ValueError unless the profile's own slope is its lobe's at the pin
    angle t != 0 of the grid nearest the joint (largest cos t > 0): the arc
    trace reads the profile as circles of its curvatures at 0, which only
    circular lobes are."""
    t = max((t for t in ts if t != 0.0 and math.cos(t) > 0.0), key=math.cos, default=None)
    if t is None:
        return
    try:
        phi, _, fp, _ = _arc_graph(t, sys)
    except SingularConfigurationError:
        return  # the trace stops there and says why
    own = sys.profile.fp(math.sin(phi))
    # 1e-12 relative, widened by 1/cos(t)^2, the conditioning of a lobe's
    # slope next to its vertical tangent
    if not abs(own - fp) * math.cos(t) ** 2 <= 1e-12 * abs(fp):
        raise ValueError(
            "arc tracing needs circular lobes: at pin angle %r the profile's slope is %r, "
            "a circle of its curvature at 0 has %r" % (t, own, fp)
        )


def trace_branch_arc(sys: OneDofSystem, t_grid: Sequence[float]) -> BranchTrace:
    """Equilibrium points along one circular lobe by pin angle t.

    The pin angle runs along the constraint circle (t = 0 at the lobe
    joint, t > 0 on the psi > 0 lobe), so the trace continues through
    the vertical-tangent point where tracing by phi folds back and the
    force changes sign; the first force zero, refined in t, is
    events["load_sign_transition"].  A singular configuration stops the
    trace as in trace_branch; a pin angle off the reachable arc, or a
    profile whose own slope is not its lobe's, raises ValueError.
    """
    ts = [float(t) for t in t_grid]
    _check_lobe(ts, sys)
    trace = _trace(lambda t: _arc_point(t, sys), ts)

    def force(t):
        p = _arc_point(t, sys)
        return Sample(p.F, p)

    fs = [Sample(p.F, p) for p in trace.points]
    for i, j in sign_changes(fs):
        try:
            F = refine(force, ts, fs, i, j, 1e-14)[1]
        except SingularConfigurationError:
            continue
        if abs(F) <= max(abs(fs[i]), abs(fs[j])):  # through a pole |F| outgrows both ends
            trace.events["load_sign_transition"] = F.record
            break
    return trace
