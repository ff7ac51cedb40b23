"""Incomplete elliptic integrals and Jacobi elliptic functions, valid for
modulus below and above one.

Conventions: the modulus k multiplies sin(t) in the integrand (parameter
m = k^2). For k > 1 everything is mapped back to modulus 1/k through the
reciprocal-modulus identities, so only real arithmetic is involved; the
amplitude is then restricted to |k sin(beta)| <= 1 for the integrals, while
jacobi_am / jacobi_dn continue smoothly through the turning points of the
underlying pendulum (signed delta-amplitude).

Two scalar kernels in plain `math` do all the work:

- _rf_rd: Carlson's symmetric integrals R_F and R_D from one duplication
  loop (Carlson 1995, Numer. Algorithms 10:13; DLMF 19.36.1).  The Legendre
  forms F and E come from them, and stay conditioned at the turning points
  as long as the complement 1 - k^2 sin^2(beta) is formed without
  cancellation.
- _ellipj_reduced: the descending Landen / AGM scheme (DLMF 22.20.1;
  Abramowitz & Stegun 16.4, 17.6).  One AGM sequence gives the quarter
  period K, the complete integral E, the amplitude, sn, cn, dn and the
  Jacobi epsilon (through the Jacobi zeta sum).  It takes the
  complementary parameter 1 - m as an argument, so callers that know it
  in closed form keep the digits that 1 - m would cancel near m = 1.

All angles are radians.
"""

import math

__all__ = ["ellint_F", "ellint_E", "jacobi_am", "jacobi_dn", "jacobi_epsilon"]

# how far past |k sin beta| = 1 is still treated as roundoff on the endpoint
_UNIT_SLACK = 1e-12
# duplication stops once every argument is within this relative distance
# of their mean; the fifth-order series then truncates at about
# (1.5 _DUP_TOL)^6 = 1e-16, below the rounding of the loop (Carlson 1995)
_DUP_TOL = 1.5e-3
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


def _rf_rd(x, y, z):
    """(R_F(x, y, z), R_D(x, y, z)) for x, y >= 0, z > 0, at most one of
    x, y zero, from one duplication loop.

    The duplication step is the same for both integrals; R_D also sums the
    terms 4^-n / (sqrt(z_n) (z_n + lambda_n)) along the way.  Each
    integral then takes its own fifth-order series at the last point.
    """
    sqrt = math.sqrt
    rd_sum = 0.0
    scale = 1.0
    # each step scales the deviations from the mean by exactly 1/4, so the
    # stopping test needs only the first one
    mu = (x + y + z) / 3.0
    dev = max(abs(mu - x), abs(mu - y), abs(mu - z)) / _DUP_TOL
    while dev * scale > mu:
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        rd_sum += scale / (sz * (z + lam))
        scale *= 0.25
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        mu = 0.25 * (mu + lam)
    dx, dy = (mu - x) / mu, (mu - y) / mu
    dz = -dx - dy
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(mu)
    mu = (x + y + 3.0 * z) / 5.0
    dx, dy = (mu - x) / mu, (mu - y) / mu
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2 = xy - 6.0 * zz
    e3 = (3.0 * xy - 8.0 * zz) * dz
    e4 = 3.0 * (xy - zz) * zz
    e5 = xy * zz * dz
    rd = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
          - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, 3.0 * rd_sum + scale * rd / (mu * sqrt(mu))


def _FE_sym(s, c2, w, m):
    """(F, E) on |beta| <= pi/2 in Carlson form from one duplication loop;
    arguments are sin(beta), cos(beta)^2, the complement
    w = 1 - m sin(beta)^2 and the parameter m."""
    rf, rd = _rf_rd(c2, w, 1.0)
    f = s * rf
    return f, f - (m / 3.0) * s * s * s * rd


def _comp_KE(m):
    """Complete integrals (K, E) at parameter m in [0, 1]."""
    if m == 1.0:
        return math.inf, 1.0  # R_F(0, 0, 1) diverges, and E's Carlson form is inf - inf
    return _FE_sym(1.0, 0.0, 1.0 - m, m)


def _half_reduce(beta):
    """beta = beta_r + n pi with beta_r in [-pi/2, pi/2]."""
    n = math.floor(beta / math.pi + 0.5)
    return beta - math.pi * n, n


def _FE_reduced(beta, m):
    """(F, E) at amplitude beta and parameter m in [0, 1] from one
    duplication loop.

    beta = beta_r + n pi with |beta_r| <= pi/2; n != 0 adds 2 n K and
    2 n E from a second loop.  The complement 1 - m sin(beta)^2 is formed
    as cos^2 + (1 - m) sin^2, which has no cancellation.
    """
    br, n = _half_reduce(beta)
    s = math.sin(br)
    c = math.cos(br)
    c2 = c * c
    f, e = _FE_sym(s, c2, c2 + (1.0 - m) * s * s, m)
    if n == 0:
        return f, e
    K, E = _comp_KE(m)
    return f + 2.0 * n * K, e + 2.0 * n * E


def _reciprocal_args(beta, k):
    """(s, c2, w, m) of F and E at (beta, k > 1) under the reciprocal
    modulus: the angle gamma with s = sin(gamma) = k sin(beta), c2 its
    cos^2, m = 1/k^2 and w = 1 - m s^2."""
    s = _unit_clamped(k * math.sin(beta))
    m = k ** -2
    c2 = (1.0 - s) * (1.0 + s)
    return s, c2, c2 + (1.0 - m) * s * s, m


def ellint_F(beta, k):
    """Incomplete elliptic integral of the first kind F(beta, k).

    For k > 1 computed through F(beta, k) = F(gamma, 1/k)/k with
    sin(gamma) = k sin(beta); requires |k sin(beta)| <= 1. The endpoint
    k sin(beta) = 1 is an integrable square-root singularity and evaluates
    to the finite limit.
    """
    beta, k = float(beta), float(k)
    _check(beta, k)
    if k <= 1.0:
        return _FE_reduced(beta, k * k)[0]
    return _FE_sym(*_reciprocal_args(beta, k))[0] / k


def ellint_E(beta, k):
    """Incomplete elliptic integral of the second kind E(beta, k).

    Reciprocal-modulus transform for k > 1:
    E(beta, k) = k E(gamma, 1/k) - (k - 1/k) F(gamma, 1/k).
    """
    beta, k = float(beta), float(k)
    _check(beta, k)
    if k <= 1.0:
        return _FE_reduced(beta, k * k)[1]
    f, e = _FE_sym(*_reciprocal_args(beta, k))
    return k * e - (k - 1.0 / k) * f


def _ellipj_reduced(w, m, mc):
    """sn, cn, dn, continued amplitude, Jacobi epsilon and
    (1 - m/2) w - eps(w) at argument w, parameter m in [0, 1) with
    complement mc = 1 - m > 0.

    One descending AGM sequence a_n, b_n, c_n from (1, sqrt(mc), sqrt(m)),
    with c_{n+1} = c_n^2 / (4 a_{n+1}) so that no c_n is a difference of
    nearly equal numbers, gives K = pi / (2 a_N) and
    E = K (1 - sum 2^(n-1) c_n^2).  The argument is reduced to r in
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
    a, b, c = 1.0, sqrt(mc), sqrt(m)
    levels = []  # (c_n, c_n / a_n, b_n / a_n) for n = 1..N
    two_n = 1.0
    e_sum = 0.5 * m
    while c > _AGM_TOL * a:
        a, b = 0.5 * (a + b), sqrt(a * b)
        c = 0.25 * c * c / a
        levels.append((c, c / a, b / a))
        e_sum += two_n * c * c
        two_n *= 2.0
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
        m1 = k ** -2
        mc = (k - 1.0) * (k + 1.0) * m1
        sn, cn, dn, _, eps1, _ = _ellipj_reduced(k * u, m1, mc)
        return math.atan2(sn / k, dn), cn, (eps1 - mc * k * u) / (k * m1)
    if k == 1.0:
        # gd(u) = 2 atan(tanh(u/2)) and sech(u) in exp(-|u|), which neither
        # overflows nor loses digits at large |u| as asin(tanh u) would
        e = math.exp(-abs(u))
        return 2.0 * math.atan(math.tanh(0.5 * u)), 2.0 * e / (1.0 + e * e), math.tanh(u)
    if k == 0.0:
        return u, 1.0, u
    _, _, dn, am, eps, _ = _ellipj_reduced(u, k * k, (1.0 - k) * (1.0 + k))
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
    branch through eps(u, k) = (eps(k u, 1/k) - (1 - 1/k^2) k u) k, writing
    1/k^2 = m1, i.e. (eps1 - (1 - m1) k u) / (k m1).
    """
    return _jacobi(u, k)[2]
