"""The incomplete elliptic integral F and the Jacobi elliptic functions,
valid for modulus below and above one.

Conventions: the modulus k multiplies sin(t) in the integrand (parameter
m = k^2). For k > 1 everything is mapped back to modulus 1/k through the
reciprocal-modulus identities, so only real arithmetic is involved; the
amplitude is then restricted to |k sin(beta)| <= 1 for ellint_F, while
jacobi_am / jacobi_dn continue smoothly through the turning points of the
underlying pendulum (signed delta-amplitude).

One scalar kernel in plain `math` does all the work: the descending
Landen / AGM scheme (DLMF 22.20.1; Abramowitz & Stegun 16.4, 17.6).  One
AGM sequence gives the quarter period K and the complete integral E.  Its
Landen angles, run forward from an amplitude, give F alone (_F_landen);
run backward from an argument, they give the amplitude, sn, cn, dn and
the Jacobi epsilon (_ellipj_reduced).  The integral of the second kind
needs no pass of its own: E(beta, k) = jacobi_epsilon(ellint_F(beta, k), k)
on the admissible range.  Both passes take the complementary parameter
1 - m as an argument, so callers that know it in closed form keep the
digits that 1 - m would cancel near m = 1.

All angles are radians.
"""

import math

__all__ = ["ellint_F", "jacobi_am", "jacobi_dn", "jacobi_epsilon"]

# how far past |k sin beta| = 1 is still treated as roundoff on the endpoint
_UNIT_SLACK = 1e-12
# the AGM stops once c_n <= 2^-27 a_n: the truncated level then moves the
# amplitude by about (c_n/a_n)^2 pi/8 < 3e-17
_AGM_TOL = 2.0**-27


def _check(beta, k):
    if not (math.isfinite(beta) and math.isfinite(k)):
        raise ValueError("non-finite argument (beta=%r, k=%r)" % (beta, k))
    if k < 0:
        raise ValueError("negative modulus k=%r" % (k,))


def _unit_clamped(s):
    if abs(s) <= 1.0:
        return s
    if abs(s) <= 1.0 + _UNIT_SLACK:
        return 1.0 if s > 0 else -1.0
    raise ValueError("k*sin(beta) = %r lies outside [-1, 1]" % (s,))


def _agm(m, mc):
    """The descending AGM a_n, b_n, c_n from (1, sqrt(mc), sqrt(m)), with
    c_(n+1) = c_n^2 / (4 a_(n+1)) so that no c_n is a difference of nearly
    equal numbers: (a_N, 2^N, e_sum, levels), where
    e_sum = m/2 + sum 2^(n-1) c_n^2, so that K = pi / (2 a_N) and
    E = K (1 - e_sum), and levels lists (c_n, c_n / a_n, b_n / a_n) for
    n = 1..N."""
    sqrt = math.sqrt
    a, b, c = 1.0, sqrt(mc), sqrt(m)
    levels = []
    two_n = 1.0
    e_sum = 0.5 * m
    while c > _AGM_TOL * a:
        a, b = 0.5 * (a + b), sqrt(a * b)
        c = 0.25 * c * c / a
        levels.append((c, c / a, b / a))
        e_sum += two_n * c * c
        two_n *= 2.0
    return a, two_n, e_sum, levels


def _F_landen(beta_r, n, m, mc):
    """F at amplitude beta_r + n pi, |beta_r| <= pi/2, parameter m in [0, 1)
    and complement mc = 1 - m > 0.

    The forward Landen angles phi_0 = beta_r, phi_n = 2 phi_(n-1) -
    atan2(2 c_n sin cos, a_(n-1) cos^2 + b_(n-1) sin^2) at phi_(n-1)
    (A&S 17.6.8) give F = phi_N / (2^N a_N) + 2 n K.  The atan2 term is
    taken over a_(n-1) = a_n + c_n, which leaves no difference to cancel.
    """
    sin, cos = math.sin, math.cos
    a, two_n, _, levels = _agm(m, mc)
    phi, rho = beta_r, math.sqrt(mc)
    for _, kappa, rho_n in levels:
        s, co = sin(phi), cos(phi)
        phi = 2.0 * phi - math.atan2(2.0 * kappa * s * co, (1.0 + kappa) * (co * co + rho * s * s))
        rho = rho_n
    return phi / (two_n * a) + math.pi * n / a


def ellint_F(beta, k):
    """Incomplete elliptic integral of the first kind F(beta, k).

    For k > 1 computed through F(beta, k) = F(gamma, 1/k)/k with
    sin(gamma) = k sin(beta); requires |k sin(beta)| <= 1. The endpoint
    k sin(beta) = 1 is an integrable square-root singularity and evaluates
    to the finite limit.  At k = 1, F = gd^-1(beta) within a quarter turn
    and infinite past it.  The integral of the second kind is
    E(beta, k) = jacobi_epsilon(ellint_F(beta, k), k) on the same range.
    """
    beta, k = float(beta), float(k)
    _check(beta, k)
    if k > 1.0:
        # sin(gamma) = k sin(beta), gamma in [-pi/2, pi/2]; cos(gamma)^2 is
        # formed from cos(beta), as 1 - sin(gamma)^2 would cancel next to
        # the turning point, and (k - 1)(k + 1) alone would overflow
        sb, cb = math.sin(beta), math.cos(beta)
        s = _unit_clamped(k * sb)
        c2 = max(cb * cb - ((k - 1.0) * sb) * ((k + 1.0) * sb), 0.0)
        gamma = math.atan2(s, math.sqrt(c2))
        return _F_landen(gamma, 0, k**-2, (1.0 - 1.0 / k) * (1.0 + 1.0 / k)) / k
    n = math.floor(beta / math.pi + 0.5)
    br = beta - math.pi * n
    if k == 1.0:
        # no AGM ends at K = inf
        return math.copysign(math.inf, n) if n else math.asinh(math.tan(br))
    return _F_landen(br, n, k * k, (1.0 - k) * (1.0 + k))


def _ellipj_reduced(w, m, mc, agm):
    """sn, cn, dn, continued amplitude, Jacobi epsilon and
    (1 - m/2) w - eps(w) at argument w, parameter m in [0, 1) with
    complement mc = 1 - m > 0, and agm = _agm(m, mc), which callers that
    evaluate many arguments at one parameter form once.

    The AGM gives K and E.  The argument is reduced to r in
    [-K, K), and the Landen angles phi_N = 2^N a_N r,
    phi_(n-1) = (phi_n + arcsin(c_n sin(phi_n) / a_n)) / 2 end at
    phi_0 = am(r); near m = 1 the arcsin is taken through atan2 with its
    cosine formed without cancellation.  The Jacobi zeta function is
    sum c_n sin(phi_n) over the same angles, so eps(r) = r E/K + Z(r).  The
    monotone amplitude and epsilon are reassembled from the exact
    quasi-periodicities am(w + 2K) = am(w) + pi and eps(w + 2K) =
    eps(w) + 2E.  dn is sqrt(1 - m sn^2), formed as sqrt(cn^2 + mc sn^2)
    where m sn^2 > 1/2, which keeps it to a few ulp at m -> 1.  With
    tau = sum_(n>=1) 2^(n-1) c_n^2, so that E/K = 1 - m/2 - tau,
    (1 - m/2) w - eps(w) is tau w - Z(w), which does not cancel at small m
    as the difference would.
    """
    sqrt, sin, cos = math.sqrt, math.sin, math.cos
    a, two_n, e_sum, levels = agm
    K = 0.5 * math.pi / a
    E = K * (1.0 - e_sum)
    n = math.floor((w + K) / (2.0 * K))
    r = w - 2.0 * K * n
    phi = two_n * a * r
    zeta = 0.0
    for c, kappa, rho in reversed(levels):
        s = sin(phi)
        zeta += c * s
        x = kappa * s
        if -0.5 <= x <= 0.5:
            phi = 0.5 * (phi + math.asin(x))
        else:
            # arcsin(x) loses digits as |x| -> 1; its cosine
            # sqrt(1 - x^2) = sqrt(cos^2 + (b_n/a_n)^2 sin^2), since
            # a_n^2 = b_n^2 + c_n^2, has no cancellation
            co = cos(phi)
            phi = 0.5 * (phi + math.atan2(x, sqrt(co * co + (rho * s) ** 2)))
    sn, cn = sin(phi), cos(phi)
    msn2 = m * sn * sn
    dn = sqrt(1.0 - msn2) if msn2 <= 0.5 else sqrt(cn * cn + mc * sn * sn)
    sgn = -1.0 if n % 2 else 1.0
    return (sgn * sn, sgn * cn, dn, phi + math.pi * n, r * (E / K) + zeta + 2.0 * E * n,
            (e_sum - 0.5 * m) * w - zeta)


def _jacobi(u, k):
    """(am, dn, eps) at argument u and modulus k from one reduced evaluation.

    Dispatches on k once: k > 1 through the reciprocal modulus (signed dn,
    see jacobi_dn), k = 1 in closed form, k < 1 through _ellipj_reduced
    (am = u exactly at k = 0).
    """
    u = float(u)
    k = float(k)
    _check(u, k)
    if k > 1.0:
        # with v = k u and m1 = 1/k^2, eps = (eps(v, 1/k) - (1 - m1) v)/(k m1)
        # is u/2 - k drift, drift = (1 - m1/2) v - eps(v, 1/k): no cancelling
        # pair and no division by m1, which underflows at large k
        v, m1, mc = k * u, k**-2, (1.0 - 1.0 / k) * (1.0 + 1.0 / k)
        agm = _agm(m1, mc)
        sn, cn, dn, _, _, drift = _ellipj_reduced(v, m1, mc, agm)
        am = math.atan2(sn / k, dn)
        if k >= 1.0 / _AGM_TOL:
            # no AGM level runs, so drift is the level left out,
            # -(m1/4) sin(2 v), written without m1, which goes subnormal
            return am, cn, (0.5 * v + 0.25 * math.sin(2.0 * v)) / k
        # drift = tau v - Z, less the first level the AGM leaves out of Z,
        # c_(N+1) sin(phi_(N+1)) with c_(N+1) = c_N^2/(4 a_N) and
        # phi_(N+1) = 2 phi_N = 2^(N+1) a_N v (mod 2 pi): below the rounding
        # of eps at k <= 1, but k multiplies it here
        a, two_n, _, levels = agm
        c = levels[-1][0]
        drift -= 0.25 * c * c / a * math.sin(2.0 * two_n * a * v)
        return am, cn, 0.5 * u - k * drift
    if k == 1.0:
        # gd(u) = 2 atan(tanh(u/2)) and sech(u) in exp(-|u|), which neither
        # overflows nor loses digits at large |u| as asin(tanh u) would
        e = math.exp(-abs(u))
        return 2.0 * math.atan(math.tanh(0.5 * u)), 2.0 * e / (1.0 + e * e), math.tanh(u)
    if k == 0.0:
        return u, 1.0, u
    m, mc = k * k, (1.0 - k) * (1.0 + k)
    _, _, dn, am, eps, _ = _ellipj_reduced(u, m, mc, _agm(m, mc))
    return am, dn, eps


def jacobi_am(u, k):
    """Jacobi amplitude am(u, k), the inverse of ellint_F in beta.

    k < 1: descending Landen angles on the argument reduced to [-K, K),
    plus pi per half period; monotone and defined for every real u.
    k = 1: closed form am = arcsin(tanh u) (gudermannian).
    k > 1: reflective continuation arcsin(sn(k u, 1/k)/k), which equals the
    inverse of ellint_F on |u| <= F(arcsin(1/k), k) and extends it smoothly
    through the turning points (|k sin am| <= 1 holds for every u).
    """
    return _jacobi(u, k)[0]


def jacobi_dn(u, k):
    """Delta-amplitude dn(u, k) = d am/du.

    For k > 1 this is the signed branch cn(k u, 1/k): it touches zero where
    k sin(am) = 1 and goes negative past the turning point, which keeps
    d(dn)/du = -k^2 sn cn and the coordinate quadratures exact through
    inflexion points. The identity dn^2 + k^2 sin^2(am) = 1 holds for all u.
    """
    return _jacobi(u, k)[1]


def jacobi_epsilon(u, k):
    """Jacobi epsilon: integral of dn(w, k)^2 for w from 0 to u.

    Coincides with E(am(u, k), k) on the admissible range and continues it
    additively past quarter periods. For k > 1 it follows the signed-dn
    branch through eps(u, k) = (eps(k u, 1/k) - (1 - 1/k^2) k u) k, which
    is evaluated as u/2 - k ((1 - m1/2) k u - eps(k u, 1/k)), m1 = 1/k^2,
    without the k^2 cancellation of the difference (see _jacobi).
    """
    return _jacobi(u, k)[2]
