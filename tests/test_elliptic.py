"""Oracle and property tests for the elliptic layer.

Reference routes are kept independent of the production code: adaptive
quadrature of the defining integrals (with a substitution that removes the
square-root endpoint singularity for modulus > 1), 40-digit mpmath values
of the incomplete integrals and the Jacobi functions, and a few values
frozen from 40-digit arithmetic.
"""

import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from arcstab import elliptic
from arcstab.elliptic import (
    ellint_F,
    jacobi_am,
    jacobi_dn,
    jacobi_epsilon,
)

EPS = 2.0**-52


def E_of(beta, k):
    # the incomplete integral of the second kind on the admissible range
    return jacobi_epsilon(ellint_F(beta, k), k)


def oracle_F(beta, k):
    if k <= 1.0:
        val, _ = quad(lambda t: 1.0 / np.sqrt(1.0 - (k * np.sin(t)) ** 2),
                      0.0, beta, epsabs=1e-13, epsrel=1e-13, limit=200)
        return val
    # substitution k sin t = sin w turns the integrand into 1/sqrt(k^2 - sin^2 w)
    gamma = np.arcsin(min(1.0, k * np.sin(beta)))
    val, _ = quad(lambda w: 1.0 / np.sqrt(k * k - np.sin(w) ** 2),
                  0.0, gamma, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def oracle_E(beta, k):
    if k <= 1.0:
        val, _ = quad(lambda t: np.sqrt(1.0 - (k * np.sin(t)) ** 2),
                      0.0, beta, epsabs=1e-13, epsrel=1e-13, limit=200)
        return val
    gamma = np.arcsin(min(1.0, k * np.sin(beta)))
    val, _ = quad(lambda w: np.cos(w) ** 2 / np.sqrt(k * k - np.sin(w) ** 2),
                  0.0, gamma, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def invert_F(u, k):
    # independent amplitude route: bracketed root solve on ellint_F itself
    if k > 1.0:
        bstar = np.arcsin(1.0 / k)
        return brentq(lambda b: ellint_F(b, k) - u, -bstar, bstar, xtol=1e-15)
    lo, hi = -np.pi / 2, np.pi / 2
    while ellint_F(hi, k) < u:
        lo, hi = hi, hi + np.pi / 2
    while ellint_F(lo, k) > u:
        lo, hi = lo - np.pi / 2, lo
    return brentq(lambda b: ellint_F(b, k) - u, lo, hi, xtol=1e-15)


# values frozen from 40-digit quadrature / AGM
FROZEN = {
    ("F", 0.6, 0.8): 0.6237371053144732,
    ("E", 0.6, 0.8): 0.5778373803467058,
    ("F", 0.3, 1.2): 0.3067561592192468,
    ("E", 0.3, 1.2): 0.29350916558612672,
    ("F", 0.5, 1.2): 0.5339646696472860,
    ("E", 0.5, 1.2): 0.4698209120982309,
}
BETA_STAR_12 = 0.9851107833377457          # arcsin(1/1.2)
F_END_12 = 1.7227124428738920              # F(beta*, 1.2)
E_END_12 = 0.7359696337964300
SN_1234_06 = 0.9131581289845373            # sn(1.234, m=0.36)
DN_05_06 = 0.9588523450594626              # dn(0.5, k=0.6)
EPS_11_06 = 0.9810043879852557             # int_0^1.1 dn(w, k=0.6)^2 dw


def _mp_am_eps(v, m):
    # continued amplitude atan2(sn, cn) + 2 pi j, with j from am ~ pi v / (2 K)
    sn, cn = mpmath.ellipfun("sn", v, m=m), mpmath.ellipfun("cn", v, m=m)
    a0 = mpmath.atan2(sn, cn)
    am = a0 + 2 * mpmath.pi * mpmath.nint((v * mpmath.pi / (2 * mpmath.ellipk(m)) - a0) / (2 * mpmath.pi))
    return am, mpmath.ellipe(am, m)


def mp_jacobi(u, k):
    """40-digit (am, dn, eps) in the conventions of jacobi_*: for k > 1 the
    reflective amplitude arcsin(sn(u, k)), the signed dn(u, k) = cn(k u, 1/k)
    and the epsilon continued through the formula of jacobi_epsilon."""
    with mpmath.workdps(40):
        u, k = mpmath.mpf(u), mpmath.mpf(k)
        if k == 0:
            return u, mpmath.mpf(1), u
        if k == 1:
            return mpmath.asin(mpmath.tanh(u)), mpmath.sech(u), mpmath.tanh(u)
        if k < 1:
            am, eps = _mp_am_eps(u, k * k)
            return am, mpmath.ellipfun("dn", u, m=k * k), eps
        m1 = 1 / (k * k)
        _, eps1 = _mp_am_eps(k * u, m1)
        return (mpmath.asin(mpmath.ellipfun("sn", u, m=k * k)), mpmath.ellipfun("dn", u, m=k * k),
                (eps1 - (1 - m1) * k * u) / (k * m1))


def admissible_betas(k, n=200):
    if k <= 1.0:
        return np.linspace(-1.5, 1.5, n)
    bstar = np.arcsin(1.0 / k)
    return np.linspace(-bstar, bstar, n)


def test_trivial_values():
    assert ellint_F(0.0, 0.7) == 0.0
    assert abs(ellint_F(np.pi / 2, 0.0) - np.pi / 2) < 1e-15
    assert E_of(0.0, 0.3) == 0.0
    assert abs(E_of(1.1, 0.0) - 1.1) < 1e-15
    assert jacobi_am(0.0, 0.5) == 0.0
    assert abs(jacobi_am(0.9, 0.0) - 0.9) < 1e-14
    assert jacobi_dn(0.0, 0.8) == 1.0
    assert abs(jacobi_dn(2.3, 0.0) - 1.0) < 1e-14


def test_frozen_values():
    for (kind, beta, k), want in FROZEN.items():
        fn = ellint_F if kind == "F" else E_of
        assert abs(fn(beta, k) - want) < 1e-13, (kind, beta, k)
    assert abs(ellint_F(BETA_STAR_12, 1.2) - F_END_12) < 1e-12
    assert abs(E_of(BETA_STAR_12, 1.2) - E_END_12) < 1e-13


def test_oracle_equivalence_500_random():
    rng = np.random.default_rng(20260823)
    for _ in range(500):
        k = rng.uniform(0.0, 1.5)
        if k <= 1.0:
            beta = rng.uniform(-1.5, 1.5)
        else:
            beta = rng.uniform(-1.0, 1.0) * np.arcsin(1.0 / k)
        assert abs(ellint_F(beta, k) - oracle_F(beta, k)) < 1e-9
        assert abs(E_of(beta, k) - oracle_E(beta, k)) < 1e-9


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 1.2])
def test_roundtrip_am_of_F(k):
    for beta in admissible_betas(k):
        u = ellint_F(beta, k)
        assert abs(jacobi_am(u, k) - beta) < 1e-10


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 1.2])
def test_dn_identity(k):
    for beta in admissible_betas(k):
        u = ellint_F(beta, k)
        dn = jacobi_dn(u, k)
        s = k * np.sin(jacobi_am(u, k))
        assert abs(dn * dn + s * s - 1.0) < 1e-10


@pytest.mark.parametrize("k", [0.0, 0.3, 0.8, 1.2])
def test_F_strictly_increasing(k):
    betas = admissible_betas(k, n=400)
    vals = [ellint_F(b, k) for b in betas]
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("k", [1.05, 1.2, 2.0])
def test_integrable_endpoint(k):
    bstar = np.arcsin(1.0 / k)
    # k*sin(beta) = 1 exactly: square-root singularity, still convergent
    val = ellint_F(bstar, k)
    assert np.isfinite(val)
    assert abs(val - oracle_F(bstar, k)) < 1e-7


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.99])
def test_am_agrees_with_mpmath(k):
    for u in np.linspace(-8.0, 8.0, 41):
        assert abs(jacobi_am(u, k) - float(mp_jacobi(u, k)[0])) <= 4 * EPS * max(1.0, abs(u))


def test_am_k_gt_1_agrees_with_direct_inversion():
    k = 1.2
    ustar = ellint_F(np.arcsin(1.0 / k), k)
    for u in np.linspace(-ustar, ustar, 101):
        assert abs(jacobi_am(u, k) - invert_F(u, k)) < 1e-10


def test_am_periodicity_and_monotonicity():
    k = 0.6
    K = ellint_F(np.pi / 2, k)
    us = np.linspace(-7.0, 7.0, 301)
    ams = np.array([jacobi_am(u, k) for u in us])
    assert np.all(np.diff(ams) > 0)
    for u in np.linspace(-2.0, 2.0, 21):
        assert abs(jacobi_am(u + 2 * K, k) - jacobi_am(u, k) - np.pi) < 1e-12


def test_am_against_frozen_sn():
    assert abs(np.sin(jacobi_am(1.234, 0.6)) - SN_1234_06) < 1e-12
    assert abs(jacobi_dn(0.5, 0.6) - DN_05_06) < 1e-12


def test_dn_signed_branch_above_1():
    # for k >= 1 dn touches zero where k sin(am) = 1 and changes sign beyond
    k = 1.2
    ustar = ellint_F(np.arcsin(1.0 / k), k)
    assert abs(jacobi_dn(ustar, k)) < 1e-7
    assert jacobi_dn(0.5 * ustar, k) > 0
    assert jacobi_dn(1.5 * ustar, k) < 0


def test_epsilon_frozen_and_derivative():
    assert abs(jacobi_epsilon(1.1, 0.6) - EPS_11_06) < 1e-12
    for k in (0.4, 0.9, 1.2):
        for u in np.linspace(-2.0, 2.5, 19):
            h = 1e-6
            d = (jacobi_epsilon(u + h, k) - jacobi_epsilon(u - h, k)) / (2 * h)
            assert abs(d - jacobi_dn(u, k) ** 2) < 1e-8


@pytest.mark.parametrize("k", [0.7, 1.2])
def test_epsilon_matches_E_quadrature_on_admissible_range(k):
    for beta in admissible_betas(k, n=101):
        u = ellint_F(beta, k)
        assert abs(jacobi_epsilon(u, k) - oracle_E(beta, k)) < 1e-10


def test_epsilon_quadrature_oracle():
    for k in (0.3, 0.8, 1.15):
        for u in (-1.7, 0.6, 2.9):
            ref, _ = quad(lambda w: jacobi_dn(w, k) ** 2, 0.0, u,
                          epsabs=1e-12, epsrel=1e-12, limit=200)
            assert abs(jacobi_epsilon(u, k) - ref) < 1e-9


def test_domain_errors():
    with pytest.raises(ValueError):
        ellint_F(1.4, 1.2)          # k sin(beta) > 1
    with pytest.raises(ValueError):
        E_of(1.4, 1.2)
    with pytest.raises(ValueError):
        E_of(3.0, 1.0)              # F is infinite past a quarter turn at k = 1
    with pytest.raises(ValueError):
        ellint_F(np.nan, 0.5)
    with pytest.raises(ValueError):
        ellint_F(0.3, -0.1)
    with pytest.raises(ValueError):
        jacobi_am(np.inf, 0.5)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(beta=st.floats(-1.5, 1.5), k=st.floats(0.0, 0.95))
def test_property_roundtrip_and_identity(beta, k):
    u = ellint_F(beta, k)
    am = jacobi_am(u, k)
    assert abs(am - beta) < 1e-10
    dn = jacobi_dn(u, k)
    assert abs(dn * dn + (k * np.sin(am)) ** 2 - 1.0) < 1e-10


def _FE_draws(rng, n):
    # (beta, k) over the bands the integrals serve: k log-uniform down to
    # 1e-12, uniform in [0, 1), from 0.1 to within 1e-15 of 1 on either
    # side, and above 1 up to 5 on its admissible range |k sin(beta)| <= 1
    for i in range(n):
        band = i % 5
        if band < 3:
            if band == 0:
                k = 10.0 ** rng.uniform(-12.0, 0.0)
            elif band == 1:
                k = rng.uniform(0.0, 1.0)
            else:
                k = 1.0 - 10.0 ** rng.uniform(-15.6, -1.0)
            beta = rng.uniform(-20.0, 20.0) if i % 2 else rng.uniform(-1.6, 1.6)
        else:
            k = 1.0 + 10.0 ** rng.uniform(-15.0, math.log10(4.0))
            beta = rng.uniform(-1.0, 1.0) * math.asin(1.0 / k)
        yield beta, k


def _large_k_draws(rng, n):
    # k log-uniform in [5, 50], [50, 1e4], [1e4, 1e8] and [1e8, 1e300] in
    # turn, on the admissible range
    for i in range(n):
        lo, hi = ((5.0, 50.0), (50.0, 1e4), (1e4, 1e8), (1e8, 1e300))[i % 4]
        k = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
        yield rng.uniform(-1.0, 1.0) * math.asin(1.0 / k), k


def test_FE_match_mpmath_within_backward_error():
    # within 32 eps (|F| + |beta|/Delta), Delta = sqrt(1 - k^2 sin^2 beta):
    # what a relative perturbation of beta of a few ulp moves F by; E,
    # taken as jacobi_epsilon(ellint_F(beta, k), k), likewise with |E|
    # (worst 6.4 units).  A kernel that forms 1 - k^2 from a rounded k*k
    # misses this by up to 1e5 times next to k = 1.  At large k,
    # E = k E(gamma, 1/k) - (k - 1/k) F(gamma, 1/k) cancels like k^2
    # (worst 52, 3.1e3 and 6e7 units up to 1e8, with |E| floored at 1), and
    # so does an epsilon whose Z stops at the AGM's last level (2.8e6 and
    # 7e5 units at k ~ 6.7e3 and 1.4e4, where the level left out is about
    # 1/(64 k^4)).  Past k = 6.7e153, 1/k^2 is subnormal, and past 1.3e154
    # (k - 1)(k + 1) overflows: F and E, both about 1/k there, were off by
    # up to 1.8e17 units
    rng = random.Random(20261019)
    for beta, k in [*_FE_draws(rng, 600), *_large_k_draws(rng, 400)]:
        with mpmath.workdps(40):
            b, m = mpmath.mpf(beta), mpmath.mpf(k) ** 2
            want_f = float(mpmath.re(mpmath.ellipf(b, m)))
            want_e = float(mpmath.re(mpmath.ellipe(b, m)))
            delta = float(mpmath.sqrt(mpmath.cos(b) ** 2 + (1 - m) * mpmath.sin(b) ** 2))
        slack = abs(beta) / delta
        assert abs(ellint_F(beta, k) - want_f) <= 32 * EPS * (abs(want_f) + slack), (beta, k)
        assert abs(E_of(beta, k) - want_e) <= 32 * EPS * (abs(want_e) + slack), (beta, k)


@pytest.mark.parametrize(
    "k", [0.0, 2.6e-129, 1e-20, 3e-5, 0.3, 0.6, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-10]
)
def test_ellipj_kernel_matches_mpmath(k):
    # sn, cn, dn, continued amplitude and epsilon of the AGM kernel, with
    # the complement 1 - k^2 formed without cancellation; near m = 1 the
    # functions follow mc, not the rounded k*k, so the reference runs at 1 - mc
    m, mc = k * k, (1.0 - k) * (1.0 + k)
    for w in np.linspace(-9.3, 9.3, 31):
        got = elliptic._ellipj_reduced(w, m, mc, elliptic._agm(m, mc))
        with mpmath.workdps(40):
            m_ref = 1 - mpmath.mpf(mc)
            am, eps = _mp_am_eps(mpmath.mpf(w), m_ref)
            want = [mpmath.ellipfun(f, w, m=m_ref) for f in ("sn", "cn", "dn")] + [am, eps]
        for name, g, x in zip(("sn", "cn", "dn", "am", "eps"), got, want):
            assert abs(g - x) <= 4 * EPS * max(1.0, abs(w)), (name, w)


def kernel(w, k):
    # the AGM kernel at modulus k < 1, with the complement in closed form
    m, mc = k * k, (1.0 - k) * (1.0 + k)
    return elliptic._ellipj_reduced(w, m, mc, elliptic._agm(m, mc))


@pytest.mark.parametrize("k", [2.6e-129, 1e-12, 3e-5])
def test_kernel_keeps_dn_at_most_one_at_small_modulus(k):
    # m < 1e-9: one AGM level or none; dn = sqrt(1 - m sn^2) <= 1 to the ulp,
    # and am(w) = w - m (w - sin w cos w) / 4 + O(m^2)
    for w in (-7.0, 0.3, 1.6, 40.0):
        _, _, dn, am, _, _ = kernel(w, k)
        assert 1.0 - k * k - EPS <= dn <= 1.0, w
        assert abs(am - w) <= k * k * (abs(w) + 1.0) / 4.0 + 4 * EPS * abs(w), w


@pytest.mark.parametrize("k", [0.5, 0.9, 1.0 - 1e-10])
def test_kernel_dn_at_reduced_argument_plus_minus_K(k):
    # w = K, -K and 3K reduce to the end r = -K of [-K, K), or to r = K by
    # rounding; cn vanishes there and dn is the complementary modulus
    K = float(mpmath.ellipk(k * k))
    kc = math.sqrt((1.0 - k) * (1.0 + k))
    for w in (K, -K, 3.0 * K):
        assert abs(kernel(w, k)[2] - kc) <= 8 * EPS * kc + 4 * EPS * abs(w) * kc * k, w


def test_kernel_dn_near_unit_parameter_against_mpmath():
    # m = k^2 within 2e-8 of 1, where dn ~ sech(w): given 1 - k^2 without
    # cancellation, the kernel stays within 2 ulp of 1
    for k in (1.0 - 1e-10, 1.0 - 1e-9, 1.0 - 1e-8):
        for w in (0.5, 2.0, 5.0, 8.0, 11.0, 14.0):
            with mpmath.workdps(40):
                want = mpmath.ellipfun("dn", w, m=mpmath.mpf(k) ** 2)
            assert abs(kernel(w, k)[2] - want) <= 2 * EPS, (k, w)


def test_kernel_am_periodicity_and_monotonicity():
    # the continued amplitude adds pi per half period 2K and increases
    # everywhere, also where the argument is reduced by many half periods;
    # there it is held to the rounding of w, as in the mpmath test above
    k = 0.6
    m, mc = k * k, (1.0 - k) * (1.0 + k)
    K = 0.5 * math.pi / elliptic._agm(m, mc)[0]
    ams = np.array([kernel(w, k)[3] for w in np.linspace(-7.0, 7.0, 301)])
    assert np.all(np.diff(ams) > 0)
    for w in np.linspace(-2.0, 2.0, 21):
        assert abs(kernel(w + 2 * K, k)[3] - kernel(w, k)[3] - np.pi) < 1e-12, w
    for w0 in (1e3, -2.5e4, 1e6):
        ws = w0 + np.linspace(-3.0, 3.0, 13)
        ams = np.array([kernel(w, k)[3] for w in ws])
        assert np.all(np.diff(ams) > 0), w0
        for w, am in zip(ws, ams):
            with mpmath.workdps(40):
                want, _ = _mp_am_eps(mpmath.mpf(w), 1 - mpmath.mpf(mc))
            assert abs(am - want) <= 4 * EPS * abs(w), w


def assert_jacobi_matches_mpmath(u, k):
    for name, fn, want in zip(("am", "dn", "eps"), (jacobi_am, jacobi_dn, jacobi_epsilon),
                              mp_jacobi(u, k)):
        assert abs(fn(u, k) - want) <= 16 * EPS * max(1.0, k * abs(u)), (name, k, u)


@pytest.mark.parametrize("k", [0.0, 0.4, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.3, 2.5, 5.0])
def test_jacobi_matches_mpmath(k):
    for u in np.linspace(-6.1, 6.1, 25):
        assert_jacobi_matches_mpmath(u, k)


def test_jacobi_matches_mpmath_on_random_moduli():
    rng = random.Random(11)
    for _ in range(60):
        assert_jacobi_matches_mpmath(rng.uniform(-10.0, 10.0), rng.uniform(0.0, 5.0))


def mp_jacobi_large_k(u, k):
    """(am, dn, eps) for k > 1 from sn and cn at v = k u and m1 = 1/k^2,
    with eps = (E(am(v, 1/k), 1/k) - (1 - m1) v)/(k m1), the integral of
    cn(., m1)^2 over [0, v] divided by k, at 40 digits past the 2 log10(k)
    that the difference cancels."""
    with mpmath.workdps(40 + 2 * int(math.log10(k))):
        u, k = mpmath.mpf(u), mpmath.mpf(k)
        v, m1 = k * u, 1 / (k * k)
        _, e1 = _mp_am_eps(v, m1)
        sn, cn = mpmath.ellipfun("sn", v, m=m1), mpmath.ellipfun("cn", v, m=m1)
        return mpmath.asin(sn / k), cn, (e1 - (1 - m1) * v) / (k * m1)


def test_jacobi_matches_mpmath_at_large_modulus():
    # k log-uniform in [5, 50], [50, 1e4], [1e4, 1e8] and [1e8, 1e300] in
    # turn, |k u| <= 40.  am and dn are held to the rounding of v = k u,
    # which moves am by eps |v|/k and dn by eps |v|; eps to 4 units
    # relative.  The reciprocal-modulus epsilon (eps1 - (1 - m1) k u)/(k m1)
    # cancelled like k^2: at u = 0.5/k it gave 0.0 at k = 1e100, and from
    # k = 1e200 every function divided by m1 = 0.  With that fixed but the
    # AGM's first level left out, eps was off by 3.4e-10 at k ~ 1.3e4
    rng = random.Random(27)
    bands = ((5.0, 50.0), (50.0, 1e4), (1e4, 1e8), (1e8, 1e300))
    for i in range(100):
        lo, hi = bands[i % 4]
        k = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
        v = rng.uniform(-40.0, 40.0)
        u = v / k
        am, dn, eps = (float(x) for x in mp_jacobi_large_k(u, k))
        scale = 4 * EPS * max(1.0, abs(v))
        assert abs(jacobi_am(u, k) - am) <= scale / k, (k, u)
        assert abs(jacobi_dn(u, k) - dn) <= scale, (k, u)
        assert abs(jacobi_epsilon(u, k) - eps) <= 4 * EPS * abs(eps), (k, u)
    for k in (1e100, 1e200, 1e300):
        assert jacobi_epsilon(0.5 / k, k) == pytest.approx((0.25 + 0.25 * math.sin(1.0)) / k,
                                                           rel=4 * EPS)


@pytest.mark.parametrize("k", [2.6e-129, 1e-12, 3e-5])
def test_small_modulus_keeps_dn_at_most_one(k):
    # m < 1e-9: one AGM level or none; dn = sqrt(1 - m sn^2) <= 1 to the ulp,
    # and am(u) = u - m (u - sin u cos u) / 4 + O(m^2)
    for u in (-7.0, 0.3, 1.6, 40.0):
        dn = jacobi_dn(u, k)
        assert 1.0 - k * k - EPS <= dn <= 1.0
        assert abs(jacobi_am(u, k) - u) <= k * k * (abs(u) + 1.0) / 4.0 + 4 * EPS * abs(u)


@pytest.mark.parametrize("k", [0.5, 0.9, 1.0 - 1e-10])
def test_dn_at_reduced_argument_plus_minus_K(k):
    # u = K, -K and 3K reduce to the end r = -K of [-K, K), or to r = K
    # by rounding; cn vanishes there and dn is the complementary modulus
    K = float(mpmath.ellipk(k * k))
    kc = math.sqrt((1.0 - k) * (1.0 + k))
    for u in (K, -K, 3.0 * K):
        assert abs(jacobi_dn(u, k) - kc) <= 8 * EPS * kc + 4 * EPS * abs(u) * kc * k


@pytest.mark.parametrize("k", [1.0 + 1e-10, 1.2, 3.0])
def test_signed_dn_vanishes_at_turning_point(k):
    ustar = float(mpmath.ellipk(1 / mpmath.mpf(k) ** 2)) / k
    assert abs(jacobi_dn(ustar, k)) <= 8 * EPS
    assert abs(jacobi_am(ustar, k) - math.asin(1.0 / k)) <= 4 * EPS


def test_dn_near_unit_parameter_against_mpmath():
    # m = k^2 within 2e-8 of 1, where dn ~ sech(u): at these points scipy's
    # ellipj is off the 40-digit value by up to 1.7e-12 (k = 1 - 1e-8,
    # u = 14), while the AGM kernel, given 1 - k^2 without cancellation,
    # stays within 2 ulp of 1
    for k in (1.0 - 1e-10, 1.0 - 1e-9, 1.0 - 1e-8):
        for u in (0.5, 2.0, 5.0, 8.0, 11.0, 14.0):
            assert abs(jacobi_dn(u, k) - mp_jacobi(u, k)[1]) <= 2 * EPS, (k, u)


def test_unit_modulus_far_out_without_overflow():
    # cosh and sinh overflow past |u| = 710; gd(u) and sech(u) do not need them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (800.0, -800.0):
            assert jacobi_am(u, 1.0) == math.copysign(math.pi / 2, u)
            assert 0.0 <= jacobi_dn(u, 1.0) < 1e-300
            assert jacobi_epsilon(u, 1.0) == math.copysign(1.0, u)
