"""Oracle and property tests for the elliptic layer.

Reference routes are kept independent of the production code: adaptive
quadrature of the defining integrals (with a substitution that removes the
square-root endpoint singularity for modulus > 1) and a few values frozen
from 40-digit arithmetic.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from arcstab.elliptic import (
    ellint_F,
    ellint_E,
    jacobi_am,
    jacobi_dn,
    jacobi_epsilon,
    _am_agm,
)


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


def admissible_betas(k, n=200):
    if k <= 1.0:
        return np.linspace(-1.5, 1.5, n)
    bstar = np.arcsin(1.0 / k)
    return np.linspace(-bstar, bstar, n)


def test_trivial_values():
    assert ellint_F(0.0, 0.7) == 0.0
    assert abs(ellint_F(np.pi / 2, 0.0) - np.pi / 2) < 1e-15
    assert ellint_E(0.0, 0.3) == 0.0
    assert abs(ellint_E(1.1, 0.0) - 1.1) < 1e-15
    assert jacobi_am(0.0, 0.5) == 0.0
    assert abs(jacobi_am(0.9, 0.0) - 0.9) < 1e-14
    assert jacobi_dn(0.0, 0.8) == 1.0
    assert abs(jacobi_dn(2.3, 0.0) - 1.0) < 1e-14


def test_frozen_values():
    for (kind, beta, k), want in FROZEN.items():
        fn = ellint_F if kind == "F" else ellint_E
        assert abs(fn(beta, k) - want) < 1e-13, (kind, beta, k)
    assert abs(ellint_F(BETA_STAR_12, 1.2) - F_END_12) < 1e-12
    assert abs(ellint_E(BETA_STAR_12, 1.2) - E_END_12) < 1e-13


@pytest.mark.parametrize("beta", [3.0, -5.0, 10.0])
def test_E_at_unit_modulus_past_quarter_turn(beta):
    # E(1) = 1 closes the half-period reduction; its Carlson form is inf - inf
    mpmath = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ellint_E(beta, 1.0)
    assert abs(got - float(mpmath.ellipe(beta, 1))) < 1e-14 * abs(got)


def test_oracle_equivalence_500_random():
    rng = np.random.default_rng(20260823)
    for _ in range(500):
        k = rng.uniform(0.0, 1.5)
        if k <= 1.0:
            beta = rng.uniform(-1.5, 1.5)
        else:
            beta = rng.uniform(-1.0, 1.0) * np.arcsin(1.0 / k)
        assert abs(ellint_F(beta, k) - oracle_F(beta, k)) < 1e-9
        assert abs(ellint_E(beta, k) - oracle_E(beta, k)) < 1e-9


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
def test_am_agrees_with_agm_route(k):
    for u in np.linspace(-8.0, 8.0, 161):
        assert abs(jacobi_am(u, k) - _am_agm(u, k)) < 1e-10


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
def test_epsilon_matches_ellint_E_on_admissible_range(k):
    for beta in admissible_betas(k, n=101):
        u = ellint_F(beta, k)
        assert abs(jacobi_epsilon(u, k) - ellint_E(beta, k)) < 1e-10


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
        ellint_E(1.4, 1.2)
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
