"""Postcritical elastica of a rod clamped at one end, pinned to a circle.

The rod (bending stiffness B, length l) slides at s = 0 with a pin and
rotational spring k_r on a fixed circle of radius R_c; the far end s = l is
clamped to stay parallel to the load axis and free to move along it.  The
constraint reaction R acts along the pin-center line, which serves as the
local x1 axis, so theta obeys theta'' = (R/B) sin theta and the solution
comes out in Jacobi elliptic functions of modulus k, with k >= 1 legal in
the roller case.  Compatibility pins the clamp to the horizontal through
the circle center: [x1(l) - c] sin phi - x2(l) cos phi = 0 with c = +-R_c,
and the axial dead load follows as F = R cos phi, so the load changes sign
exactly where the pin tops the circle at phi = pi/2.

Sign conventions: only theta0 >= 0 is computed; the mirror branch follows
by negating x2 and phi.  half = "left" places the center between pin and
clamp (the assembly that buckles under tension when R_c < l), half =
"right" places it beyond the pin (the compressive assembly).

Accuracy note: tensile states (R > 0) push the modulus toward 1 as
theta0 -> 0 like k - 1 ~ theta0^2/8.  The rod points of one state share
one AGM, at parameter 1/k^2 for k > 1 and k^2 for k <= 1, with the
complement in closed form:
1 - 1/k^2 = sin^2(theta0/2) - (theta0 k_r/B)^2/(4R/B), and
1 - k^2 = ((theta0 k_r/B)^2 - 4 (R/B) sin^2(theta0/2))/den; the addition
theorems add the pin's Jacobi functions, also closed-form, so no integral
is taken at the pin.  The floor left is rounding: phi is pi plus an
angle next to -pi there, which puts about 3e-16 absolute in the residual,
whose slope in R falls like theta0.  A warm solve stops once the residual
is within its rounding bound, and below theta0 = 1e-3 a cold solve's seed,
Koiter's law, is already within it.  For B = l = 1 and R_c = 1/4, cold
solves return R within 6.1e-13 of a 40-digit reference at theta0 = 1e-3,
8.9e-15 at 1e-4, and 4.4e-16 at 1e-5 and 1e-6; with R_c = 0.333 and
k_r = 0.894, just below k = 1 (1 - 9e-11 at theta0 = 1e-4), to 3.9e-14.
Rod points with k in [0.1, 1)
are within 1e-13 of a 40-digit closed form.  Below, x1 and x2 stay within
1e-15 down to k = 1e-3 and 2e-13 to k = 1e-6, while theta, which doubles
an amplitude growing like 1/k, is within 1e-12 down to k = 1e-3 (B = l = 1,
|R| in [0.2, 5], 300 states per band).  Compressive states keep a large
modulus and stay clean at any theta0.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .branch import BranchTrace, Sample, _brentq, linspace, newton, refine, sign_changes
from . import elliptic
# unused here; the benchmark tracer (bench/tracing.py) wraps them under this module's name
from .elliptic import ellint_F, jacobi_am, jacobi_dn, jacobi_epsilon  # noqa: F401
from .errors import ContinuationError, DegenerateGeometryError
from .rodlinear import RodModel, critical_force, find_critical_loads

__all__ = [
    "ElasticaProblem",
    "ElasticaState",
    "MultipleRootWarning",
    "modulus_from",
    "make_state",
    "theta_at",
    "coordinates_at",
    "compatibility_residual",
    "solve_R",
    "trace_branch",
    "refine_on_trace",
    "shape_export",
]

_HALVES = ("left", "right")
# the rotation a cold solve enters the branch at, and the halvings of
# theta0 below which a step ends following the branch
_THETA_START = 1e-3
_FOLLOW_HALVINGS = 12
# warm solves: first ratio off the seed, its growth exponent, and the last ratio
_WARM_FIRST_RATIO = 1.02
_WARM_GROWTH = 1.6
_WARM_MAX_RATIO = 5.0
# continuity guard of the branch follower: the largest |R/R_prev - 1| and
# |phi - phi_prev| (rad) of an accepted step
_GUARD_R_RATIO = 0.25
_GUARD_PHI = 0.5
_EPS = math.ulp(1.0)


class MultipleRootWarning(UserWarning):
    """A reaction scan bracketed more than one root (higher modes).

    solve_R no longer emits it: a cold solve follows the bifurcating
    branch and takes one root.  The benchmark still imports and counts
    it, so it goes when the benchmark does.
    """


@dataclass(frozen=True)
class ElasticaProblem:
    """Rod on a circular constraint; half selects the branch: "left"
    buckles under tension, "right" under compression."""

    B: float
    l: float
    k_r: float = 0.0
    R_c: float = 1.0
    half: str = "left"

    def __post_init__(self):
        if not 0.0 < self.B < math.inf:
            raise ValueError("bending stiffness B must be positive and finite")
        if not 0.0 < self.l < math.inf:
            raise ValueError("length l must be positive and finite")
        if not 0.0 < self.R_c < math.inf:
            raise ValueError("constraint radius R_c must be positive and finite")
        if not 0.0 <= self.k_r < math.inf:
            # a clamped pin (k_r = inf) fixes theta0 = 0: no branch leaves it
            raise ValueError("spring stiffness k_r must be nonnegative and finite")
        if self.half not in _HALVES:
            raise ValueError("half must be 'left' or 'right'")


class ElasticaState(NamedTuple):
    """One elastica configuration at fixed (theta0, R).

    delta is the clamp displacement along the load axis, zero at the
    undeformed assembly; it is physically meaningful once R solves the
    compatibility condition.  angle_offset is the angle the rotation
    oscillates about, pi for R > 0 and 0 for R < 0, moved by the multiple
    of 2 pi that brings it within pi of theta0, so |beta0| <= pi/2.  mc is
    the complement of the Jacobi parameter m the rod points are evaluated
    at, in closed form: 1 - m with m = 1/k^2 for k > 1 and k^2 for
    k <= 1, floored at the smallest float at k = 1.  pin holds (sn, cn, dn)
    of the pin, s = 0, at parameter m, all in closed form: for k > 1 at
    F(gamma, 1/k) with sin(gamma) = k sin(beta0), which are sin(gamma),
    cos(gamma) and sqrt(1 - m sin(gamma)^2), and for k <= 1 at F(beta0, k),
    which are sin(beta0), cos(beta0) and cos(gamma).  clamp holds what the
    residual leaves for the branch tangent (_tangent, which moves the pin
    by _clamp_terms) at s = l: (x1, x2, df/dR, dphi/dR, jac), with jac the
    (w, sn, cn, dn, e) of the clamp's _rod_points point, or None where the
    slopes are NaN: where mc is not in closed form, next to k = 1, or a
    slope term divides by an m or mc that underflowed to zero.
    """

    theta0: float
    R: float
    modulus: float
    alpha_tilde: float
    beta0: float
    phi: float
    F: float
    delta: float
    problem: ElasticaProblem
    angle_offset: float
    mc: float
    pin: tuple[float, float, float]
    clamp: tuple | None


def _rotation_denominator(theta0, R, k_r, B):
    """(den, spring, half_trig, at2) of the half-angle modulus identity."""
    if R == 0.0:
        raise DegenerateGeometryError("zero reaction leaves the modulus undefined")
    at2 = abs(R) / B
    half_trig = math.cos(theta0 / 2.0) if R > 0.0 else math.sin(theta0 / 2.0)
    spring = theta0 * k_r / B
    den = spring * spring + 4.0 * at2 * half_trig * half_trig
    # once 4|R|/B overflows, den is inf or nan and the modulus would be 0 or nan
    if not 0.0 < den < math.inf:
        raise DegenerateGeometryError(
            "degenerate rotation field: modulus denominator vanishes or overflows"
        )
    return den, spring, half_trig, at2


def modulus_from(theta0, R, k_r=0.0, B=1.0):
    """Elliptic modulus of the rotation field.

    Evaluated through half-angle identities,
    den = (theta0 k_r/B)^2 + 4 (|R|/B) cos^2(theta0/2)   for R > 0,
    with sin^2 in place of cos^2 for R < 0, which equals the raw form
    (theta0 k_r/B)^2 + 2 (|R|/B) (sgn(R) cos theta0 + 1) but avoids the
    catastrophic cancellation that otherwise corrupts small theta0.
    """
    den, _, _, at2 = _rotation_denominator(theta0, R, k_r, B)
    return 2.0 * math.sqrt(at2) / math.sqrt(den)


def _jacobi(ss, k, at, m, mc, agm):
    """(w, (sn, cn, dn, am, eps, (1 - m/2) w - eps)) at parameter m and
    w = s alpha for k > 1, s alpha/k for k <= 1, for each arclength of ss:
    one Jacobi evaluation each, on the AGM agm = elliptic._agm(m, mc)."""
    offsets = []
    for s in ss:
        w = s * at if k > 1.0 else s * at / k
        offsets.append((w, elliptic._ellipj_reduced(w, m, mc, agm)))
    return offsets


def _rod_points(offsets, k, at, R, offset, m, base):
    """[(theta, x1, x2, w, e, sn, cn, dn, am)] at Jacobi offsets u (_jacobi)
    from a base point (sn, cn, dn, am) at W, no Jacobi evaluation.

    sn, cn and dn are the Jacobi functions at W + u, and am is am(W + u)
    on its 2 pi branch (k <= 1 only), so the last four entries of a point
    are a base of further offsets.  The residual's base is the pin,
    (*pin, beta0), as am(w0) = beta0 for k <= 1.  x1, x2, w and e are
    differences to the base: w = u, and e is the difference x1 is built
    from, eps(W + u) - eps(W) for k > 1 and (1 - m/2) u less that
    difference for k <= 1.  The Jacobi functions at u, with the base's,
    give those at W + u by the addition theorems (DLMF 22.8.1-3):
    D sn = S, D cn = C and D dn = Delta with D = 1 - m sn(u)^2 sn(W)^2 > 0,
    and eps(W + u) - eps(W) = eps(u) - m sn(u) sn(W) sn(W + u)
    (DLMF 22.16.27).  k > 1: u = s alpha and m = 1/k^2, and theta/2 is the
    arcsine of sn(W + u)/k on the signed-dn branch.  k <= 1: u = s alpha/k
    and m = k^2, and theta/2 = am(W + u) is the angle of (cn, sn)(W + u)
    on the 2 pi branch nearest am(u) + am(W).
    """
    snb, cnb, dnb, amb = base
    pref = math.copysign(2.0, R) / at
    points = []
    for u, (sn, cn, dn, am, eps, drift) in offsets:
        # 1 - m sn^2 snb^2 without cancellation, as snb^2 = 1 - cnb^2
        D = dn * dn + m * sn * sn * cnb * cnb
        S = sn * cnb * dnb + snb * cn * dn
        C = cn * cnb - sn * snb * dn * dnb
        Delta = dn * dnb - m * sn * snb * cn * cnb
        snU = S / D
        if k > 1.0:
            # x1 = pref ((1 - k^2/2) m u + mc u + eps(W) - eps(W + u)), and
            # (1 - k^2/2) m + mc = 1/2
            points.append((
                2.0 * math.atan2(S / k, Delta) + offset,
                pref * (0.5 * u - eps + m * sn * snb * S / D),
                pref / k * (C / D - cnb),
                u, eps - m * sn * snb * snU, snU, C / D, Delta / D, amb,
            ))
            continue
        half = math.atan2(S, C)
        half += 2.0 * math.pi * round((am + amb - half) / (2.0 * math.pi))
        # x1 = pref/k ((1 - m/2) u - eps(u) + m sn snb S/D), with the first
        # difference taken from the AGM's sums as tau u - Z(u), and
        # x2 = pref/k (Delta/D - dnb), with Delta - dnb D written out as m sn
        # times terms of order one through 1 - dn = m sn^2/(1 + dn), so small
        # moduli keep the digits that either difference would cancel
        points.append((
            2.0 * half + offset,
            pref / k * (drift + m * sn * snb * S / D),
            pref / k * m * sn * (dnb * sn * (dn / (1.0 + dn) - cnb * cnb) - snb * cn * cnb) / D,
            u, drift + m * sn * snb * snU, snU, C / D, Delta / D, half,
        ))
    return points


def _clamp_terms(k, at, R, mc, pin, den, q, sb, cb, x2, jac, dq, dbeta):
    """d(theta, x1, x2) at the clamp, at fixed R, for a move (dq, dbeta) of
    the pin's q = theta'(0) and beta0, with sb and cb the sine and cosine
    of beta0: q d/dq is the move (q, 0), and d/dtheta0 is (k_r/B, 1/2).

    The move takes den = q^2 + 4 alpha^2 sb^2 by dden = 2 q dq + 8 alpha^2
    sb cb dbeta; with Y = sb dq - q cb dbeta, for k > 1 the Jacobi
    parameter m = den/(4 alpha^2) moves by dden/(4 alpha^2) and the pin's
    angle gamma, sin(gamma) = k sb, by -2 alpha Y/den; for k <= 1 m =
    4 alpha^2/den moves by -m dden/den, dn0 = q/sqrt(den) by m sb
    Y/sqrt(den), dn0 d beta0 is q dbeta/sqrt(den), and P = (d beta0 -
    sn0 cn0 dm/(2 mc))/dn0 = (q dbeta + m cb Y)/(sqrt(den) mc).  None of
    these divides by cos(gamma), dn0 or q, so a roller pin divides by
    nothing, nor by a power of den that could underflow.

    At fixed argument, d am/dm = [sn cn - dn (eps - mc u)/m]/(2 mc) and
    d eps/dm = (eps - u)/(2 m) + dn d am/dm (Byrd & Friedman 1971, §710),
    and the pin's argument F(gamma, m) (k > 1) or F(beta0, m) (k <= 1)
    moves by the same form, so eps(w0) and w0 enter only through the
    differences w and e of jac, which the addition theorems give, and no
    integral is taken; for k <= 1 w = s alpha/k moves with m too.  The
    terms lose digits like eps/mc as the modulus nears one.
    """
    w, sn, cn, dn, e = jac
    sn0, cn0, dn0 = pin
    pref = math.copysign(2.0, R) / at
    at2 = at * at
    # factored by 2, as 4 alpha^2 is finite wherever den is and 8 alpha^2 need not be
    dden = 2.0 * (q * dq + 4.0 * at2 * sb * cb * dbeta)
    Y = sb * dq - q * cb * dbeta
    if k > 1.0:
        m = k**-2
        dm, dgamma = dden / (4.0 * at2), -2.0 * at * Y / den
        amd = (dm * (sn * cn - dn * (e - mc * w) / m - dn * sn0 * cn0 / dn0) / (2.0 * mc)
               + dn * dgamma / dn0)
        return (
            2.0 * (0.5 * dm * k * sn + cn * amd / k) / dn,
            -pref * (dm * (e - w) / (2.0 * m) + dn * amd - dn0 * dgamma),
            dm * x2 / (2.0 * m) - pref / k * (sn * amd - sn0 * dgamma),
        )
    m, rden = k * k, math.sqrt(den)
    dm = -m * dden / den
    P = (q * dbeta + m * cb * Y) / rden / mc
    amd = dm * (sn * cn - dn * ((1.0 - 0.5 * m) * w - e) / m) / (2.0 * mc) + dn * P
    # d e/dm with the 1/m terms of (1 - m/2) dw/dm and d eps/dm cancelled
    de = (dm * (w * (cn * cn - 0.5 * dn * dn) - e * cn * cn - dn * sn * cn) / (2.0 * mc)
          - dn * dn * P + q * dbeta / rden)
    return (
        2.0 * amd,
        pref / k * (de - dm * e / (2.0 * m)),
        -dm * x2 / (2.0 * m) - pref / k * (m * sb * Y / rden
                                          + (dm * sn * sn + 2.0 * m * sn * cn * amd) / (2.0 * dn)),
    )


def _state_and_defect(theta0, R, problem):
    """(fields, defect, slope, rounding): the fields of the rod's
    ElasticaState at a trial reaction R, as a plain tuple in field order;
    its closure defect f = [x1(l) - c] sin phi - x2(l) cos phi, c = +-R_c;
    df/dR; and a rounding bound of f.  A residual builds no state.

    The slope comes from the rod's scaling: theta(s) at (l^2 R, l q) is
    theta(l s) at (R, q), q = theta'(0), so 2 R df/dR + q df/dq = S with
    S = -(f + c sin phi) + l kappa [(x1 - c) cos phi + x2 sin phi] and
    kappa = theta'(l); _clamp_terms gives q df/dq.  The same scaling gives
    2 R dphi/dR + q dphi/dq = l kappa, and the fields' clamp keeps both
    slopes for the branch tangent.  The slope is NaN where the complement
    mc is not in closed form, next to k = 1, and where its terms divide by
    zero at extreme R or theta0.  The rounding bound is eps times the
    magnitudes of the terms of f, with phi's error that of its two terms,
    phi - angle_offset and angle_offset."""
    # pure-Python arithmetic on numpy scalars is several times slower
    theta0, R = float(theta0), float(R)
    if theta0 < 0.0:
        raise ValueError("theta0 must be nonnegative; mirror states negate x2 and phi")
    den, spring, half_trig, at2 = _rotation_denominator(theta0, R, problem.k_r, problem.B)
    at = math.sqrt(at2)
    k = 2.0 * at / math.sqrt(den)
    # beta0 is measured from the angle the rotation oscillates about: pi
    # for R > 0 and 0 for R < 0, moved by the multiple of 2 pi that brings
    # it within pi of theta0, so |beta0| <= pi/2
    base = math.pi if R > 0.0 else 0.0
    offset = base + 2.0 * math.pi * math.floor((theta0 - base) / (2.0 * math.pi) + 0.5)
    beta0 = (theta0 - offset) / 2.0
    # sin(beta0) = +-half_trig and cos(beta0) = |other_trig|, and the pin's
    # angle gamma, sin(gamma) = k sin(beta0), has cos^2(gamma) =
    # 1 - k^2 sin^2(beta0) = (theta0 k_r/B)^2/den; squaring an arcsin here
    # would cost sqrt(eps) of phase.  mc is in closed form too, where 1 - m
    # would cancel next to k = 1
    c2 = spring * spring / den
    closed = True
    other_trig = math.sin(theta0 / 2.0) if R > 0.0 else math.cos(theta0 / 2.0)
    if k > 1.0:
        m1 = den / (4.0 * at2)
        mc = other_trig * other_trig - spring * spring / (4.0 * at2)
        if not mc > 0.0:  # rounding next to k = 1 with a spring
            mc, closed = (k - 1.0) * (k + 1.0) * m1, False
        sg = math.copysign(2.0 * at * half_trig / math.sqrt(den), beta0)
        pin = (sg, math.sqrt(c2), math.sqrt(mc + m1 * c2))
    else:
        mc = (spring * spring - 4.0 * at2 * other_trig * other_trig) / den
        if not mc > 0.0:  # rounding next to k = 1; the AGM needs mc > 0
            mc, closed = max((1.0 - k) * (1.0 + k), math.ulp(0.0)), False
        pin = (math.copysign(half_trig, beta0), abs(other_trig), math.sqrt(c2))
    l = problem.l
    m = k**-2 if k > 1.0 else k * k
    w = l * at if k > 1.0 else l * at / k
    [(phi, x1, x2, w, e, sn, cn, dn, _)] = _rod_points(
        ((w, elliptic._ellipj_reduced(w, m, mc, elliptic._agm(m, mc))),), k, at, R, offset, m,
        (pin[0], pin[1], pin[2], beta0))
    jac = (w, sn, cn, dn, e)
    c = problem.R_c if problem.half == "left" else -problem.R_c
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    if abs(cos_phi) >= abs(sin_phi):
        lam = (x1 - c) / cos_phi
    else:
        lam = x2 / sin_phi
    defect = (x1 - c) * sin_phi - x2 * cos_phi
    # next to the underflow threshold of R with a spring, pref/k =
    # sqrt(den) B/|R| overflows x1 and x2
    if not math.isfinite(defect):
        raise DegenerateGeometryError(
            "degenerate rotation field: closure defect %r at R=%r, theta0=%r" % (defect, R, theta0)
        )
    kappa = 2.0 * at / k * (cn if k > 1.0 else dn)
    df_dphi = (x1 - c) * cos_phi + x2 * sin_phi
    rounding = _EPS * (abs(x1 * sin_phi) + abs(c * sin_phi) + abs(x2 * cos_phi)
                       + abs(df_dphi) * (abs(phi - offset) + abs(offset)))
    slope, clamp = math.nan, None
    if closed:
        S, phi_l = -(defect + c * sin_phi) + l * kappa * df_dphi, l * kappa
        try:
            if spring:
                sb, cb = math.copysign(half_trig, beta0), abs(other_trig)
                q_phi, q_x1, q_x2 = _clamp_terms(k, at, R, mc, pin, den, spring, sb, cb, x2, jac,
                                                 spring, 0.0)
                S -= q_x1 * sin_phi - q_x2 * cos_phi + df_dphi * q_phi
                phi_l -= q_phi
        except ZeroDivisionError:
            # m = 1/k^2 underflows to zero at extreme R or theta0, where the
            # rod itself is still finite: no slopes there
            pass
        else:
            slope = S / (2.0 * R)
            clamp = (x1, x2, slope, phi_l / (2.0 * R), jac)
    fields = (theta0, R, k, at, beta0, phi, R * cos_phi, lam + c - l, problem, offset, mc, pin,
              clamp)
    return fields, defect, slope, rounding


def _theta0_partials(state):
    """(df/dtheta0, dphi/dtheta0) at fixed R of the closure defect f and
    the clamp angle phi of a state, from the Jacobi values at the clamp
    that its residual kept (_clamp_terms): only a state with a finite
    df/dR keeps them, and _tangent asks for no other.  NaN where the terms
    divide by zero at extreme scales."""
    theta0, R, problem = state.theta0, state.R, state.problem
    x1, x2, _, _, jac = state.clamp
    k_r = problem.k_r / problem.B
    den, spring, half_trig, _ = _rotation_denominator(theta0, R, problem.k_r, problem.B)
    other_trig = math.sin(theta0 / 2.0) if R > 0.0 else math.cos(theta0 / 2.0)
    sb, cb = math.copysign(half_trig, state.beta0), abs(other_trig)
    try:
        phi_t, x1_t, x2_t = _clamp_terms(state.modulus, state.alpha_tilde, R, state.mc,
                                         state.pin, den, spring, sb, cb, x2, jac, k_r, 0.5)
    except ZeroDivisionError:
        # a divisor such as m underflows to zero at extreme scales
        return math.nan, math.nan
    c = problem.R_c if problem.half == "left" else -problem.R_c
    sin_phi, cos_phi = math.sin(state.phi), math.cos(state.phi)
    df_dphi = (x1 - c) * cos_phi + x2 * sin_phi
    return x1_t * sin_phi - x2_t * cos_phi + df_dphi * phi_t, phi_t


def _tangent(state):
    """(dR/dtheta0, dphi/dtheta0) along the branch through a solved state:
    dR/dtheta0 = -f_theta0/f_R and dphi/dtheta0 = phi_theta0 + phi_R
    dR/dtheta0, with phi_R from the rod's scaling, 2 R phi_R + q phi_q =
    l theta'(l), as f_R is.  NaN where df/dR is, next to k = 1."""
    if state.clamp is None:
        return math.nan, math.nan
    f_t, phi_t = _theta0_partials(state)
    _, _, f_R, phi_R, _ = state.clamp
    dR = -f_t / f_R if f_R else math.nan
    return dR, phi_t + phi_R * dR


def make_state(theta0, R, problem):
    """Build the elliptic representation of the rod at a trial reaction R."""
    return ElasticaState(*_state_and_defect(theta0, R, problem)[0])


def _state_points(ss, state):
    """(theta, x1, x2) of _rod_points of a state at arclengths ss in [0, l],
    each off the pin."""
    # pure-Python arithmetic on numpy scalars is several times slower
    ss, l = [float(s) for s in ss], state.problem.l
    if any(s < -1e-9 * l or s > l * (1.0 + 1e-9) for s in ss):
        raise ValueError("arclength s must lie in [0, l]")
    k, at = state.modulus, state.alpha_tilde
    m = k**-2 if k > 1.0 else k * k
    offsets = _jacobi(ss, k, at, m, state.mc, elliptic._agm(m, state.mc))
    points = _rod_points(offsets, k, at, state.R, state.angle_offset, m, (*state.pin, state.beta0))
    return [p[:3] for p in points]


def theta_at(s, state):
    """Rod rotation theta(s) = 2 am(s alpha/k + w0, k) + angle offset, with
    the pin's argument w0 known by its Jacobi functions, state.pin."""
    return _state_points((s,), state)[0][0]


def coordinates_at(s, state):
    """Rod centerline point (x1, x2); the pin sits at the origin."""
    if s == 0.0:
        return 0.0, 0.0
    return _state_points((s,), state)[0][1:]


def compatibility_residual(R, theta0, problem):
    """Closure defect [x1(l) - c] sin phi - x2(l) cos phi, c = +-R_c.

    The cos phi regularization keeps the same roots as the tan phi form
    while staying finite where branches legitimately cross phi = pi/2.
    The defect is a branch.Sample whose record is the state's fields, as
    _state_and_defect gives them, so a solve keeps the state at its root.
    It also carries the defect's exact slope in R, in closed form from the
    quantities the defect is built from (no further Jacobi evaluation),
    and a rounding bound of the defect; a Newton solve steps on the one and
    stops on the other.
    """
    fields, defect, slope, rounding = _state_and_defect(theta0, R, problem)
    return Sample(defect, fields, slope, rounding)


def _default_seed(problem):
    # linearized critical load of the matching sliding-rod model
    left = problem.half == "left"
    chi_hat = (-problem.l if left else problem.l) / problem.R_c
    model = RodModel(B=problem.B, l=problem.l, k=problem.k_r, chi_hat=chi_hat)
    load_sign = "tension" if left else "compression"
    modes = find_critical_loads(model, load_sign, max_modes=1)
    if not modes:
        raise ValueError(
            "no linearized critical load exists for this geometry; pass a seed reaction"
        )
    return critical_force(modes[0], model)


def _nearest_root(f, seed, xtol):
    """Root of f nearest to seed in ratio with f's value there, or None
    past seed*[1/5, 5]: a warm solve's fallback, and the order its Newton
    root keeps where each side of seed*[1/1.02, 1.02] holds at most one
    root.

    Samples seed, then seed/r and seed*r for r = 1.02, 1.02**1.6, ...,
    capped at 5, and refines the first bracket that appears (branch.refine:
    Newton on the residual's slope inside the bracket from its end of
    smaller |f|, brentq from both ends where Newton fails).  The smaller
    magnitude side comes first: seed*r is sampled only when seed/r
    brackets nothing, so when both would bracket at the same r, seed/r
    wins.
    """
    xs, fs, r = [seed], [f(seed)], 1.0
    while True:
        for i, j in sign_changes(fs):
            return refine(f, xs, fs, i, j, xtol)
        if len(xs) % 2:
            if r >= _WARM_MAX_RATIO:
                return None
            r = _WARM_FIRST_RATIO if r == 1.0 else min(r**_WARM_GROWTH, _WARM_MAX_RATIO)
            xs.insert(0, seed / r)
            fs.insert(0, f(xs[0]))
        else:
            xs.append(seed * r)
            fs.append(f(xs[-1]))


def _warm_state(theta0, problem, seed):
    """ElasticaState at the reaction root nearest seed, or
    ContinuationError naming the window seed*[0.2, 5]; a seed that is zero
    or not finite is a ValueError.

    Newton's method runs from the seed, which a follower step predicts on
    the branch tangent (_advance), on the residual's exact slope, inside
    the first window seed*[1/r, r], r = 1.02 (branch.newton).  When
    each side of the window holds at most one root, its root is the one
    _nearest_root's order takes: when it lies above the seed in ratio,
    seed/r is sampled, and a sign change against the seed there hands the
    solve to _nearest_root, as does a Newton step that leaves the window
    or does not shrink.  A side that holds two or more roots may change
    sign nowhere on the samples, and Newton keeps a root in the window
    that _nearest_root would pass over.  Each reaction tried is
    evaluated once, the fallback reusing Newton's samples, and the root is
    one of them: its residual holds the state's fields, and those hold the
    quantities its branch tangent is taken from."""
    if seed == 0.0 or not math.isfinite(seed):
        raise ValueError("seed reaction must be finite and nonzero")
    xtol = 1e-15 * problem.B / problem.l**2
    samples = {}

    def f(R):
        if R not in samples:
            samples[R] = compatibility_residual(R, theta0, problem)
        return samples[R]

    low = seed / _WARM_FIRST_RATIO
    found = newton(f, seed, *sorted((low, seed * _WARM_FIRST_RATIO)), xtol)
    if found is not None and found[0] / seed > 1.0 and f(low) * f(seed) <= 0.0:
        found = None
    if found is None:
        found = _nearest_root(f, seed, xtol)
    if found is None:
        lo, hi = sorted((0.2 * seed, 5.0 * seed))
        raise ContinuationError(
            "no sign change of the compatibility residual in the reaction window "
            f"[{lo:.6g}, {hi:.6g}] at theta0={theta0:.6g}"
        )
    return ElasticaState(*found[1].record)


def _point(st):
    """(theta0, R, phi, dR/dtheta0, dphi/dtheta0): an accepted state as
    the follower keeps it."""
    return (st.theta0, st.R, st.phi, *_tangent(st))


def _hermite(h, d, dy, s1, s2):
    """p(t2 + d) - p(t2) of the cubic p with slopes s1 and s2 at t2 - h
    and t2 and p(t2) - p(t2 - h) = dy, in Newton form about t2."""
    D = dy / h
    return d * (s2 + d * ((s2 - D) / h + (d + h) * (s2 - 2.0 * D + s1) / (h * h)))


# d value/dtheta0 along the branch of each field refine_on_trace takes,
# from (R, phi, dR/dtheta0, dphi/dtheta0) of a _point
_FIELD_SLOPES = {
    "theta0": lambda R, phi, dR, dphi: 1.0,
    "R": lambda R, phi, dR, dphi: dR,
    "phi": lambda R, phi, dR, dphi: dphi,
    "F": lambda R, phi, dR, dphi: dR * math.cos(phi) - R * math.sin(phi) * dphi,
}


def _advance(problem, pts, theta0, step=math.inf):
    """(state at theta0, pts, step): the branch continued to theta0 from
    its last one or two accepted points pts (_point), oldest first.

    The first step is step, and any step goes the whole way when it would
    leave less than theta0/2**_FOLLOW_HALVINGS.  pts predict the end of a
    step: one point predicts itself; two, where both have finite tangents
    (_tangent), give ln|R| and phi by the cubic Hermite through them.
    Where a tangent is missing (the bifurcation (0, R_cr, phi = 0), or NaN
    next to k = 1), R comes from the secant in theta0^2 through the two
    (Koiter's law when the older is the bifurcation) and phi from the
    secant in theta0.  A step solved from the predicted R is accepted
    within the bounds of _guard_rejection and doubled; the distance it
    took is halved when its solve fails or breaks the bounds, or, without
    a solve, when the prediction breaks them.  The step returned is the
    doubled last one.  Once a step falls below theta0/2**_FOLLOW_HALVINGS,
    a ContinuationError names the theta0 it stopped at, the last accepted
    theta0 and the rejected (R, phi) or the solve failure.
    """
    step = min(step, theta0 - pts[-1][0])
    min_step = theta0 / 2**_FOLLOW_HALVINGS
    while True:
        t2, r2, phi2, dr2, dphi2 = pts[-1]
        th = t2 + step
        if theta0 - th < min_step:
            th = theta0
        if len(pts) == 1:
            seed, phi, why = r2, phi2, ""
        else:
            t1, r1, phi1, dr1, dphi1 = pts[-2]
            h, d = t2 - t1, th - t2
            if math.isfinite(dr1 + dphi1 + dr2 + dphi2):
                seed = r2 * math.exp(_hermite(h, d, math.log(r2 / r1), dr1 / r1, dr2 / r2))
                phi = phi2 + _hermite(h, d, phi2 - phi1, dphi1, dphi2)
            else:
                seed = r2 + (r2 - r1) * (th * th - t2 * t2) / (t2 * t2 - t1 * t1)
                phi = phi2 + (phi2 - phi1) * d / h
            why = _guard_rejection(seed, phi, r2, phi2)
        if why:
            why = "predicted " + why
        else:
            try:
                st = _warm_state(th, problem, seed)
            except (ContinuationError, DegenerateGeometryError) as exc:
                why = str(exc)
            else:
                why = _guard_rejection(st.R, st.phi, r2, phi2)
                if not why:
                    pts = [pts[-1], _point(st)]
                    step *= 2.0
                    if th == theta0:
                        return st, pts, step
                    continue
        step = (th - t2) / 2.0
        if step < min_step:
            raise ContinuationError(
                f"stopped at theta0={th:.6g} after step halvings below "
                f"theta0/2**{_FOLLOW_HALVINGS} past the last accepted theta0={t2:.6g}: {why}"
            )


def _follow_branch(theta0, problem, seed=None):
    """(state at theta0, pts, step), as _advance returns them: the start
    of every solve and trace.  With a seed, the warm solve from it, one
    point and an unbounded step.  Without, the branch that bifurcates at
    the linearized load R_cr, entered by a warm solve at _THETA_START
    seeded with R_cr, which fixes Koiter's coefficient R2 in
    R = R_cr + R2 theta0^2.  Below _THETA_START that law seeds the one
    solve at theta0; above it, _advance goes on from the bifurcation
    (0, R_cr, phi = 0) and the entry point.
    """
    if seed is not None:
        st = _warm_state(theta0, problem, seed)
        return st, [_point(st)], math.inf
    R_cr = _default_seed(problem)
    st = _warm_state(_THETA_START, problem, R_cr)
    if theta0 < _THETA_START:
        R2 = (st.R - R_cr) / _THETA_START**2
        st = _warm_state(theta0, problem, R_cr + R2 * theta0 * theta0)
    pts = [(0.0, R_cr, 0.0, math.nan, math.nan), _point(st)]
    if theta0 <= _THETA_START:
        return st, pts, math.inf
    return _advance(problem, pts, theta0)


def solve_R(theta0, problem, seed=None):
    """Solve the compatibility condition for the constraint reaction on
    problem's half.

    With a seed (a warm start), Newton's method runs from it on the
    residual's exact slope within seed*[1/1.02, 1.02], and keeps the root
    the bracket search takes when each side of that window holds at most
    one root: residuals at seed/r and seed*r for r = 1.02, then r**1.6,
    up to 5, with Newton, or brentq where Newton fails, inside the first
    sign change between neighbouring samples, so the root nearest the seed
    wins.  That search also solves where Newton leaves the window or stops
    contracting, and a ContinuationError names the window seed*[0.2, 5]
    when it holds no sign change (_warm_state).  Without a seed (a cold
    start), the root is followed along the branch that bifurcates at the
    linearized critical load R_cr of the matching sliding-rod model:
    entered at theta0 = 1e-3 and continued in warm steps, predicted by the
    cubic Hermite through the last two accepted states and their branch
    tangents, that keep the continuity bounds (_advance), as every solve on
    a traced branch is.  Either way the state is trace_branch's at theta0
    as its whole schedule, and its ContinuationError is the text such a
    trace stops with.  A solve evaluates the residual once per reaction it
    tries.
    """
    if not 0.0 < theta0 < math.inf:
        raise ValueError("theta0 must be positive and finite")
    return _follow_branch(theta0, problem, seed)[0]


def _guard_rejection(R, phi, R_prev, phi_prev):
    """Why the state (R, phi) breaks the continuity bounds against the
    accepted state (R_prev, phi_prev), or "" when it keeps them."""
    dR, dphi = abs(R / R_prev - 1.0), abs(phi - phi_prev)
    if dR <= _GUARD_R_RATIO and dphi <= _GUARD_PHI:
        return ""
    return (
        f"rejected R={R:.6g}, phi={phi:.6g} with |R/R_prev - 1|={dR:.3g} "
        f"and |phi - phi_prev|={dphi:.3g} (bounds {_GUARD_R_RATIO:g} and {_GUARD_PHI:g} rad)"
    )


def trace_branch(problem, theta0_schedule, seed=None):
    """Continue the postcritical branch of problem's half over an
    increasing theta0 schedule.

    The first point is solve_R's at schedule[0], with or without a seed
    (_follow_branch); the trace walks the branch follower on through the
    schedule, carrying its accepted points and step from one schedule
    point to the next, and points accepted between them only predict.
    When the first solve fails, or a step falls below theta0/2**12, the
    trace stops with complete = False and the text of that error as its
    diagnostic.  Each point is the ElasticaState solved there, and so is
    the load-sign transition, where the pin tops the circle at
    phi = pi/2, recorded in events after refinement with refine_on_trace,
    whose trials step the same follower from the trace points; a failed
    refinement keeps the points, sets complete = False and adds its error
    to the diagnostic.
    """
    schedule = [float(t) for t in theta0_schedule]
    # 0 < schedule[0] < ... < schedule[-1] < inf, which no NaN keeps
    if not schedule or not all(a < b for a, b in zip([0.0, *schedule], [*schedule, math.inf])):
        raise ValueError("theta0_schedule must be strictly increasing finite positives")

    trace = BranchTrace(points=[])
    try:
        for th0 in schedule:
            if trace.points:
                st, pts, step = _advance(problem, pts, th0, step)
            else:
                st, pts, step = _follow_branch(th0, problem, seed)
            trace.points.append(st)
    except (ContinuationError, DegenerateGeometryError) as exc:
        trace.complete = False
        trace.diagnostic = str(exc)

    try:
        ev = refine_on_trace(trace, "phi", math.pi / 2.0)
    except (ContinuationError, DegenerateGeometryError) as exc:
        trace.complete = False
        why = "load-sign refinement at phi = pi/2 failed: %s" % exc
        trace.diagnostic = "; ".join(filter(None, (trace.diagnostic, why)))
    else:
        if ev is not None:
            trace.events["load_sign_transition"] = ev
    return trace


def refine_on_trace(trace, value, target):
    """Solved state where the field value of the state, one of "theta0",
    "R", "phi" and "F", equals target on a traced branch.

    The first sign change of value - target over the trace points is
    refined in theta0 by Newton's method on the branch tangent (_tangent):
    each Sample carries d value/dtheta0 along the branch, with dF =
    dR cos phi - R sin phi dphi.  Newton starts at the root of the cubic
    Hermite through the bracket ends' values and slopes and stops once a
    step is at most 4 eps theta0 (branch.newton); where it leaves the
    bracket or stalls, branch.refine takes the same two ends.  Each trial
    is a follower step (_advance) on their problem from the bracket's left
    point and the one before it, and its first step is their spacing, so
    their predictor never reaches far past them; it raises where the
    follower stops.  The state returned is a trace point, itself when on
    target, or a trial: no theta0 is solved twice.  None when nothing
    brackets target.
    """
    slope = _FIELD_SLOPES.get(value)
    if slope is None:
        raise ValueError("value must be one of %s, got %r" % (", ".join(_FIELD_SLOPES), value))
    pts = trace.points
    for i, j in sign_changes([getattr(p, value) - target for p in pts]):
        if i == j:
            return pts[i]
        known = [_point(p) for p in pts[max(i - 1, 0):i + 1]]
        step = known[-1][0] - known[0][0] or math.inf
        samples = {}

        def sample(st, pt):
            # pt is the state's _point, whose tangent gives the slope
            samples[st.theta0] = Sample(getattr(st, value) - target, st, slope(*pt[1:]))
            return samples[st.theta0]

        def trial(th0):
            if th0 not in samples:
                st, ahead, _ = _advance(pts[i].problem, known, th0, step)
                sample(st, ahead[-1])
            return samples[th0]

        xs = [pts[i].theta0, pts[j].theta0]
        fs = [sample(pts[i], known[-1]), sample(pts[j], _point(pts[j]))]
        found = None
        if math.isfinite(fs[0].slope + fs[1].slope):
            (t1, t2), (y1, y2) = xs, fs
            h = t2 - t1
            d, _ = _brentq(lambda d: y2 + _hermite(h, d, y2 - y1, y1.slope, y2.slope),
                           -h, 0.0, y1, y2, 0.0)
            found = newton(trial, t2 + d, t1, t2, 0.0)
        return (found or refine(trial, xs, fs, 0, 1, 1e-13))[1].record
    return None


def shape_export(state, n):
    """Deformed centerline sampled uniformly in s, as a list of n float
    tuples (s, x1, x2, theta); the first is the pin, (0, 0, 0, theta0).

    The samples share one AGM and make at most 2 c - 1 Jacobi
    evaluations, c = ceil(sqrt(n - 1)).  Every c-th sample, counting back
    from s = l, is a grid point taken off the pin as the residual takes
    the clamp, so the last row is the clamp of the residual: theta = phi.
    Each other sample is the offset -f ds, f < c, from the grid point
    above it (_rod_points), and the c - 1 offsets' Jacobi values are
    evaluated once, at f ds; sn, am and eps are odd in the argument.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    l = state.problem.l
    ss = linspace(0.0, l, n)
    k, at, mc = state.modulus, state.alpha_tilde, state.mc
    m = k**-2 if k > 1.0 else k * k
    agm = elliptic._agm(m, mc)
    c = 1 + math.isqrt(n - 2)
    grid = range(n - 1, 0, -c)
    back = [(-u, (-sn, cn, dn, -am, -eps, -drift)) for u, (sn, cn, dn, am, eps, drift)
            in _jacobi([f * (l / (n - 1)) for f in range(1, c)], k, at, m, mc, agm)]
    rod = (k, at, state.R, state.angle_offset, m)
    tops = _rod_points(_jacobi([ss[g] for g in grid], k, at, m, mc, agm), *rod,
                       (*state.pin, state.beta0))
    rows = [(0.0, 0.0, 0.0, state.theta0)] * n
    for g, (theta, x1, x2, *_, sn, cn, dn, am) in zip(grid, tops):
        rows[g] = (ss[g], x1, x2, theta)
        for i, (th, dx1, dx2, *_) in zip(range(g - 1, 0, -1),
                                          _rod_points(back[:g - 1], *rod, (sn, cn, dn, am))):
            rows[i] = (ss[i], x1 + dx1, x2 + dx2, th)
    return rows
