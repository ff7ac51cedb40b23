"""Incomplete elliptic integrals and Jacobi elliptic functions, valid for
modulus below and above one.

Conventions: the modulus k multiplies sin(t) in the integrand (parameter
m = k^2). For k > 1 everything is mapped back to modulus 1/k through the
reciprocal-modulus identities, so only real arithmetic is involved; the
amplitude is then restricted to |k sin(beta)| <= 1 for the integrals, while
jacobi_am / jacobi_dn continue smoothly through the turning points of the
underlying pendulum (signed delta-amplitude).

The Legendre forms are evaluated through the Carlson symmetric integrals
R_F and R_D, which stay conditioned at the turning points as long as the
complement 1 - k^2 sin^2(beta) is formed without cancellation; the internal
_F_sym / _E_sym entry points take that complement directly, for callers
that know it in closed form.

All angles are radians.
"""

import numpy as np
from scipy import special

__all__ = ["ellint_F", "ellint_E", "jacobi_am", "jacobi_dn", "jacobi_epsilon"]

# how far past |k sin beta| = 1 is still treated as roundoff on the endpoint
_UNIT_SLACK = 1e-12


def _check(beta, k):
    if not (np.isfinite(beta) and np.isfinite(k)):
        raise ValueError("non-finite argument (beta=%r, k=%r)" % (beta, k))
    if k < 0:
        raise ValueError("negative modulus k=%r" % (k,))


def _unit_clamped(s):
    if abs(s) <= 1.0:
        return s
    if abs(s) <= 1.0 + _UNIT_SLACK:
        return 1.0 if s > 0 else -1.0
    raise ValueError("k*sin(beta) = %r lies outside [-1, 1]" % (s,))


def _F_sym(s, c2, w):
    """F on |beta| <= pi/2 in Carlson form; arguments are sin(beta),
    cos(beta)^2 and the complement w = 1 - m sin(beta)^2."""
    return float(s * special.elliprf(c2, w, 1.0))


def _E_sym(s, c2, w, m):
    """E on |beta| <= pi/2 in Carlson form, same argument convention."""
    rf = special.elliprf(c2, w, 1.0)
    rd = special.elliprd(c2, w, 1.0)
    return float(s * rf - (m / 3.0) * s ** 3 * rd)


def _comp_K(m):
    return float(special.elliprf(0.0, 1.0 - m, 1.0))


def _comp_E(m):
    if m == 1.0:
        return 1.0  # the Carlson form is inf - inf here
    mc = 1.0 - m
    return float(special.elliprf(0.0, mc, 1.0)
                 - (m / 3.0) * special.elliprd(0.0, mc, 1.0))


def _half_reduce(beta):
    """beta = beta_r + n pi with beta_r in [-pi/2, pi/2]."""
    n = int(np.floor(beta / np.pi + 0.5))
    return beta - np.pi * n, n


def _carlson_args(beta, k):
    """(s, c2, w, m, n): the Carlson arguments of F and E at (beta, k).

    k <= 1: beta = beta_r + n pi with |beta_r| <= pi/2, s = sin(beta_r)
    and m = k^2.  k > 1: the reciprocal-modulus angle gamma with
    s = sin(gamma) = k sin(beta), m = 1/k^2 and n = 0.  c2 is cos^2 of
    that angle and w = 1 - m s^2 the complement.
    """
    beta = float(beta)
    _check(beta, k)
    if k <= 1.0:
        m = k * k
        br, n = _half_reduce(beta)
        s = np.sin(br)
        c = np.cos(br)
        c2 = c * c
    else:
        s = _unit_clamped(k * np.sin(beta))
        m = k ** -2
        c2 = (1.0 - s) * (1.0 + s)
        n = 0
    return s, c2, c2 + (1.0 - m) * s * s, m, n


def ellint_F(beta, k):
    """Incomplete elliptic integral of the first kind F(beta, k).

    For k > 1 computed through F(beta, k) = F(gamma, 1/k)/k with
    sin(gamma) = k sin(beta); requires |k sin(beta)| <= 1. The endpoint
    k sin(beta) = 1 is an integrable square-root singularity and evaluates
    to the finite limit.
    """
    k = float(k)
    s, c2, w, m, n = _carlson_args(beta, k)
    f = _F_sym(s, c2, w)
    if k > 1.0:
        return f / k
    return f if n == 0 else f + 2.0 * n * _comp_K(m)


def ellint_E(beta, k):
    """Incomplete elliptic integral of the second kind E(beta, k).

    Reciprocal-modulus transform for k > 1:
    E(beta, k) = k E(gamma, 1/k) - (k - 1/k) F(gamma, 1/k).
    """
    k = float(k)
    s, c2, w, m, n = _carlson_args(beta, k)
    if k > 1.0:
        return float(k * _E_sym(s, c2, w, m) - (k - 1.0 / k) * _F_sym(s, c2, w))
    e = _E_sym(s, c2, w, m)
    return e if n == 0 else e + 2.0 * n * _comp_E(m)


def _ellipj_reduced(w, m):
    """sn, cn, dn, continued amplitude and Jacobi epsilon at argument w,
    parameter m in [0, 1).

    Arguments are reduced to [-K, K) before calling scipy, and the monotone
    amplitude / epsilon are reassembled from the exact quasi-periodicities
    am(w + 2K) = am(w) + pi and eps(w + 2K) = eps(w) + 2E. On the reduced
    window the amplitude is atan2(sn, cn), which stays conditioned at the
    quarter periods, and epsilon uses dn^2 = 1 - m sn^2 as the exact
    complement in the Carlson form.
    """
    K = _comp_K(m)
    n = int(np.floor((w + K) / (2.0 * K)))
    r = w - 2.0 * K * n
    sn, cn, dn, _ = special.ellipj(r, m)
    sn = float(sn)
    cn = float(cn)
    dn = float(dn)
    sgn = -1.0 if n % 2 else 1.0
    am = float(np.arctan2(sn, cn)) + np.pi * n
    eps = _E_sym(sn, cn * cn, dn * dn, m)
    if n:
        eps += 2.0 * _comp_E(m) * n
    return sgn * sn, sgn * cn, dn, am, eps


def _jacobi(u, k):
    """(am, dn, eps) at argument u and modulus k from one reduced evaluation.

    Dispatches on k once: k > 1 through the reciprocal modulus (signed dn,
    see jacobi_dn), k = 1 in closed form, k < 1 through the reduction of
    _ellipj_reduced (am = u exactly at k = 0).
    """
    u = float(u)
    k = float(k)
    _check(u, k)
    if k > 1.0:
        m1 = k ** -2
        sn, cn, _, _, eps1 = _ellipj_reduced(k * u, m1)
        return (float(np.arcsin(sn / k)), float(cn),
                float((eps1 - (1.0 - m1) * k * u) / (k * m1)))
    if k == 1.0:
        return float(np.arcsin(np.tanh(u))), float(1.0 / np.cosh(u)), float(np.tanh(u))
    _, _, dn, am, eps = _ellipj_reduced(u, k * k)
    return (u if k == 0.0 else am), dn, eps


def jacobi_am(u, k):
    """Jacobi amplitude am(u, k), the inverse of ellint_F in beta.

    k < 1: reduced Jacobi functions with the amplitude reassembled through
    atan2; monotone and defined for every real u.
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


def _am_agm(u, k):
    """Descending-Landen (AGM) amplitude for k < 1.

    Independent of the reduction route in jacobi_am; kept as the reference
    that the tests check jacobi_am against.
    """
    if k == 0.0:
        return u
    a, b, c = 1.0, float(np.sqrt(1.0 - k * k)), k
    aa, cc = [a], [c]
    while abs(cc[-1]) > 1e-17 * aa[-1] and len(aa) < 64:
        a, b, c = 0.5 * (a + b), float(np.sqrt(a * b)), 0.5 * (a - b)
        aa.append(a)
        cc.append(c)
    n = len(aa) - 1
    phi = (2.0 ** n) * aa[n] * u
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(cc[i] / aa[i] * np.sin(phi),
                                             -1.0, 1.0)))
    return float(phi)
