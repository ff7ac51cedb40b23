"""Linearized rod on a sliding circular constraint: characteristic roots and modes."""

import cmath
import math
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from arcstab import cli, rodlinear
from arcstab.branch import sign_changes
from arcstab.rodlinear import (
    BucklingMode,
    RodModel,
    characteristic,
    critical_force,
    effective_length_factor,
    find_critical_loads,
    mode_shape,
)

# mpmath (40 digits) roots of the characteristic equation, B = l = 1
ROLLER_TENSION = {
    -5.0: 0.8880147293598380,
    -4.0: 1.0340217518025642,
    -1.25: 4.9995456085761628,
}
ROLLER_COMPRESSION = {
    -5.0: (4.4378332998513216, 7.6929019594367446, 10.881198607379905),
    -4.0: (4.4193714220760204,),
    -1.25: (3.7902223782925294,),
    4.0: (0.7593076890306316, 4.5378885822465575, 7.7511351016826295),
    0.5: (1.3241944495755027,),
    2.0: (0.9674026381746997,),
}
SPRING_TENSION_M4 = {0.1: 0.9694012373957108, 0.3: 0.8353623612974103}
SPRING_COMPRESSION_M4_K1 = (
    4.7024059746520740,
    7.7906609225902562,
    10.9764884625688690,
    14.1070461528630726,
)
CLAMPED_TENSION_M15 = 2.5756789099203311
CLAMPED_COMPRESSION_M15 = (2.0 * math.pi, 8.7652510531946400, 4.0 * math.pi)
STRAIGHT_COMPRESSION_K1 = 2.0287578381104342
# roots below the first scan step pi/50, next to curvatures where a
# compression load passes through zero
SMALL_SPRING_M29159_K21881 = 0.047492013042825283
SMALL_CLAMPED_M20005702 = 0.058473000919645724
# clamped compression roots just below 2 pi and 4 pi, tan(x/2) = (1 + chi) x/chi
CLAMPED_PAIRS = {
    -0.9991: (6.2718858632432047385, 12.543772446485363039),
    -0.995: (6.2206862000130219059, 12.441493019716946446),
}


def characteristic_complex(x, sgn_f, chi, k, B=1.0, l=1.0):
    # complex-arithmetic transcription of the printed condition; sqrt(sgn F) kept
    # symbolic through cmath so the i factors cancel on their own
    r = cmath.sqrt(sgn_f)
    a = 1.0 / abs(chi) + math.copysign(1.0, chi)
    s = math.copysign(1.0, chi)
    kappa = k * l / (B * x)
    val = (
        a * x * sgn_f * cmath.cosh(r * x)
        - s * r * cmath.sinh(r * x)
        + kappa * (a * x * r * cmath.sinh(r * x) + s * (1.0 - cmath.cosh(r * x)))
    )
    return val


def local_scale(x, sgn_f, chi, k, B=1.0, l=1.0):
    # magnitude yardstick for residual checks: max |term| of the characteristic
    a = 1.0 / abs(chi) + math.copysign(1.0, chi) if chi != 0.0 else 1.0
    s = math.copysign(1.0, chi) if chi != 0.0 else 0.0
    kappa = k * l / (B * x)
    if sgn_f > 0:
        terms = (a * x * math.cosh(x), s * math.sinh(x),
                 kappa * a * x * math.sinh(x), kappa * s * (1.0 - math.cosh(x)))
    else:
        terms = (a * x * math.cos(x), s * math.sin(x),
                 kappa * a * x * math.sin(x), kappa * s * (1.0 - math.cos(x)))
    return max(1.0, max(abs(t) for t in terms))


def bc_matrix(x, sgn_f, model):
    # 5x5 homogeneous system in (C1..C4, phi): clamped-end rows, shear and
    # moment balance at the sliding end, kinematic compatibility phi = chi v(l)/l;
    # the shear condition sgn F/alpha^2 v'''(l) = phi + v'(l) reduces through
    # the first integral of the field equation to C3 = -phi.  An array x gives
    # a stack of matrices, shape x.shape + (5, 5)
    B, l, k, chi = model.B, model.l, model.k, model.chi_hat
    x = np.asarray(x, dtype=float)
    alpha = x / l
    one, zero = np.ones_like(x), np.zeros_like(x)
    if sgn_f > 0:
        b1, b2 = np.cosh(x), np.sinh(x)
        d1, d2 = alpha * np.sinh(x), alpha * np.cosh(x)   # v' coefficients
        w1, w2 = B * alpha**2 * np.cosh(x), B * alpha**2 * np.sinh(x)
    else:
        b1, b2 = np.cos(x), np.sin(x)
        d1, d2 = -alpha * np.sin(x), alpha * np.cos(x)
        w1, w2 = -B * alpha**2 * np.cos(x), -B * alpha**2 * np.sin(x)
    rows = [
        [one, zero, zero, one, zero],
        [zero, alpha, one, zero, zero],
        [zero, zero, -one, zero, -one],
    ]
    if model.k == math.inf:
        rows.append([d1, d2, one, zero, one])
    else:
        rows.append([-w1 - k * d1, -w2 - k * d2, -k * one, zero, -k * one])
    rows.append([-(chi / l) * b1, -(chi / l) * b2, -chi * one, -chi / l * one, one])
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def test_characteristic_matches_complex_form_in_compression():
    # characteristic is the printed condition times |chi|, regular at chi = 0
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(0.1, 12.0)
        chi = rng.uniform(-5.0, 5.0)
        k = rng.choice([0.0, rng.uniform(0.0, 2.0)])
        model = RodModel(B=1.0, l=1.0, k=float(k), chi_hat=float(chi))
        got = characteristic(x, "compression", model)
        ref = abs(chi) * characteristic_complex(x, -1.0, chi, float(k))
        scale = abs(chi) * local_scale(x, -1.0, chi, float(k))
        assert abs(ref.imag) < 1e-12 * scale
        assert np.isclose(got, ref.real, rtol=1e-12, atol=1e-12 * scale)


def test_characteristic_matches_complex_form_in_tension():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(0.1, 8.0)
        chi = rng.uniform(1.0 / 5.0, 5.0) * rng.choice([-1.0, 1.0])
        k = rng.uniform(0.0, 2.0)
        model = RodModel(B=1.0, l=1.0, k=float(k), chi_hat=float(chi))
        got = characteristic(x, "tension", model)
        ref = abs(chi) * characteristic_complex(x, 1.0, chi, float(k))
        scale = abs(chi) * local_scale(x, 1.0, chi, float(k))
        assert np.isclose(got, ref.real, rtol=1e-12, atol=1e-12 * scale)


def test_characteristic_continuous_at_straight_limit():
    # the |chi| scaling leaves no 1/|chi| factor to diverge as chi -> 0
    for k in (0.0, 1.5, math.inf):
        straight = RodModel(B=1.0, l=1.0, k=k, chi_hat=0.0)
        for chi in (1e-9, -1e-9):
            model = RodModel(B=1.0, l=1.0, k=k, chi_hat=chi)
            for sign in ("tension", "compression"):
                for x in (0.7, 2.3, 5.1):
                    ref = characteristic(x, sign, straight)
                    got = characteristic(x, sign, model)
                    assert abs(got - ref) <= 1e-8 * abs(ref), (k, chi, sign, x)


def test_characteristic_domain_errors():
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-2.0)
    with pytest.raises(ValueError):
        characteristic(0.0, "compression", model)
    with pytest.raises(ValueError):
        characteristic(-1.0, "tension", model)
    with pytest.raises(ValueError):
        characteristic(1.0, "shear", model)


def test_characteristic_of_numpy_scalar_is_float():
    # alpha_l is coerced like the elastica residual's arguments, and the
    # value is the scan's at that x; at k = inf (clamped), the scanned
    # factor g times 2 sigma S(x/2)
    for k in (0.4, math.inf):
        model = RodModel(B=1.3, l=0.7, k=k, chi_hat=-2.5)
        for sgn, sign, S in ((1.0, "tension", math.sinh), (-1.0, "compression", math.sin)):
            got = characteristic(np.float64(2.0), sign, model)
            assert type(got) is float
            scan = rodlinear._characteristic_in_x(model, sgn)(2.0)
            want = 2.0 * sgn * S(1.0) * scan if k == math.inf else scan
            assert got == characteristic(2.0, sign, model) == want


def test_model_validation():
    with pytest.raises(ValueError):
        RodModel(B=0.0, l=1.0, k=0.0, chi_hat=1.0)
    with pytest.raises(ValueError):
        RodModel(B=1.0, l=-1.0, k=0.0, chi_hat=1.0)
    with pytest.raises(ValueError):
        RodModel(B=1.0, l=1.0, k=-0.1, chi_hat=1.0)


def test_model_rejects_nan_spring():
    # every comparison with NaN is false, so a k < 0 check let it through
    with pytest.raises(ValueError, match="spring stiffness"):
        RodModel(B=1.0, l=1.0, k=math.nan, chi_hat=1.0)


@pytest.mark.parametrize("chi", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_curvature(chi):
    # NaN made every characteristic value NaN and the tables silently empty
    with pytest.raises(ValueError, match="chi_hat"):
        RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)


@pytest.mark.parametrize("field", ["B", "l"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_model_rejects_non_finite_stiffness_and_length(field, value):
    # B = inf returned a tension mode; k = inf stays the clamped end
    params = dict(B=1.0, l=1.0, k=math.inf, chi_hat=-2.0)
    RodModel(**params)
    params[field] = value
    with pytest.raises(ValueError, match="%s must be positive and finite" % field):
        RodModel(**params)


def test_straight_limit_pinned_scan_oracle():
    # chi -> 0, k = 0: reduced equation is -x cos x = 0, roots pi/2 + n pi;
    # cross-check the module against a dense sign-change scan of that oracle
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=0.0)
    f = lambda x: -x * math.cos(x)
    grid = np.arange(1e-3, 4.0 * math.pi, 1e-3)
    vals = np.array([f(x) for x in grid])
    oracle = [brentq(f, grid[i], grid[i + 1], xtol=1e-14)
              for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]]
    found = find_critical_loads(model, "compression", alpha_l_max=4.0 * math.pi)
    assert len(found) == len(oracle)
    assert_allclose([m.alpha_l for m in found], oracle, atol=1e-12)
    assert abs(found[0].alpha_l - math.pi / 2.0) < 1e-12
    assert abs(found[0].xi - 2.0) < 1e-12
    # finite spring shifts the first root up
    spring = RodModel(B=1.0, l=1.0, k=1.0, chi_hat=0.0)
    got = find_critical_loads(spring, "compression", alpha_l_max=math.pi)
    assert abs(got[0].alpha_l - STRAIGHT_COMPRESSION_K1) < 1e-12
    assert find_critical_loads(model, "tension", alpha_l_max=20.0) == []


def test_straight_limit_clamped_roots():
    model = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=0.0)
    found = find_critical_loads(model, "compression", alpha_l_max=4.0 * math.pi)
    assert_allclose([m.alpha_l for m in found],
                    [math.pi, 2.0 * math.pi, 3.0 * math.pi, 4.0 * math.pi],
                    atol=1e-12)
    assert abs(found[0].xi - 1.0) < 1e-12
    assert find_critical_loads(model, "tension", alpha_l_max=6.0 * math.pi) == []


def test_frozen_roller_tension_roots():
    for chi, root in ROLLER_TENSION.items():
        model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
        found = find_critical_loads(model, "tension", alpha_l_max=6.0 * math.pi)
        assert len(found) == 1
        assert abs(found[0].alpha_l - root) < 1e-12
        assert found[0].load_sign == "tension"
        assert found[0].mode_index == 1
        assert abs(found[0].F_cr_normalized - root**2 / math.pi**2) < 1e-12


def test_frozen_roller_compression_roots():
    for chi, roots in ROLLER_COMPRESSION.items():
        model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
        found = find_critical_loads(model, "compression", alpha_l_max=6.0 * math.pi)
        assert len(found) >= len(roots)
        for got, ref in zip(found, roots):
            assert abs(got.alpha_l - ref) < 1e-12
        assert found[0].F_cr_normalized < 0.0


def test_tension_absent_for_shallow_or_positive_curvature():
    for chi in (0.5, 1.0, -0.8):
        model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
        assert find_critical_loads(model, "tension", alpha_l_max=20.0) == []


def test_tension_ordering_against_first_compressive():
    # deep curvature: tensile bifurcation far below the compressive one;
    # near the threshold the ordering flips
    for chi, flips in ((-5.0, False), (-1.25, True)):
        model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
        t = find_critical_loads(model, "tension", alpha_l_max=6.0 * math.pi)
        c = find_critical_loads(model, "compression", alpha_l_max=6.0 * math.pi)
        ft = abs(t[0].F_cr_normalized)
        fc = abs(c[0].F_cr_normalized)
        assert (ft > fc) == flips


def test_finite_spring_tension_roots_frozen():
    for k, root in SPRING_TENSION_M4.items():
        model = RodModel(B=1.0, l=1.0, k=k, chi_hat=-4.0)
        found = find_critical_loads(model, "tension", alpha_l_max=6.0 * math.pi)
        assert len(found) == 1
        assert abs(found[0].alpha_l - root) < 1e-12
    # a stiff enough spring suppresses the tensile root entirely
    stiff = RodModel(B=1.0, l=1.0, k=1.0, chi_hat=-4.0)
    assert find_critical_loads(stiff, "tension", alpha_l_max=6.0 * math.pi) == []


def test_finite_spring_compression_roots_frozen():
    model = RodModel(B=1.0, l=1.0, k=1.0, chi_hat=-4.0)
    found = find_critical_loads(model, "compression", alpha_l_max=5.0 * math.pi)
    assert len(found) == 4
    assert_allclose([m.alpha_l for m in found], SPRING_COMPRESSION_M4_K1, atol=1e-12)


def test_clamped_frozen_roots():
    model = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-1.5)
    t = find_critical_loads(model, "tension", alpha_l_max=6.0 * math.pi)
    assert len(t) == 1
    assert abs(t[0].alpha_l - CLAMPED_TENSION_M15) < 1e-12
    c = find_critical_loads(model, "compression", alpha_l_max=13.0)
    assert_allclose([m.alpha_l for m in c], CLAMPED_COMPRESSION_M15, atol=1e-12)


def test_clamped_curvature_minus_one_double_roots():
    # chi = -1 clamped: the equation degenerates to -(1 - cos x), touching zero
    # at x = 2 pi n without a sign change; these are genuine critical loads
    model = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-1.0)
    found = find_critical_loads(model, "compression", alpha_l_max=6.0 * math.pi)
    assert_allclose([m.alpha_l for m in found],
                    [2.0 * math.pi, 4.0 * math.pi, 6.0 * math.pi], rtol=1e-15)
    for m in found:
        assert abs(characteristic(m.alpha_l, "compression", model)) < 1e-24
    # no crossing nearby: the function stays nonpositive
    assert characteristic(2.0 * math.pi - 0.3, "compression", model) < 0.0
    assert characteristic(2.0 * math.pi + 0.3, "compression", model) < 0.0
    assert find_critical_loads(model, "tension", alpha_l_max=6.0 * math.pi) == []


def test_clamped_close_pairs_next_to_two_pi_n():
    # just above chi = -1 the clamped bracket has a root a little below each
    # 2 pi n, closer to it than the scan step; both roots of a pair are listed
    for chi, near in CLAMPED_PAIRS.items():
        model = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=chi)
        found = [m.alpha_l for m in find_critical_loads(model, "compression")]
        assert_allclose(found[:4], [near[0], 2.0 * math.pi, near[1], 4.0 * math.pi],
                        rtol=0.0, atol=1e-14)


def test_clamped_tables_match_determinant_scan_near_minus_one():
    # pi/2000 sign scan of the boundary-value determinant, on a grid offset
    # by half a step so that no sample lands on a root 2 pi n; at chi = -1
    # the determinant only touches zero there, and the roots are 2 pi n
    x_max = 6.0 * math.pi
    step = math.pi / 2000.0
    xs = step * (np.arange(int(x_max / step) + 1) + 0.5)
    for i in range(-20, 21):
        chi = -1.0 + i / 1000.0
        model = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=chi)
        for sign, sgn_f in (("tension", 1.0), ("compression", -1.0)):
            found = [m.alpha_l for m in find_critical_loads(model, sign, alpha_l_max=x_max)]
            if chi == -1.0:
                n = 3 if sign == "compression" else 0
                assert found == [2.0 * math.pi * (j + 1) for j in range(n)]
                continue
            det = np.linalg.det(bc_matrix(xs, sgn_f, model))
            cells = [(xs[a], xs[b]) for a, b in sign_changes(list(det))]
            assert len(found) == len(cells), (chi, sign, found)
            for x, (lo, hi) in zip(found, cells):
                assert lo <= x <= hi, (chi, sign, x, lo, hi)


# k = inf (clamped) roots up to 6 pi, bit for bit, by (chi_hat, load sign);
# evaluated as a spring, k = inf made brentq bisect on +-inf values, which
# moved roots by a few ulps, or raised (chi_hat = -3 in compression)
CLAMPED_ROOTS = {
    (-3.0, "compression"): [1.6894616869165642, 6.283185307179586, 9.097974200700047,
                            12.566370614359172, 15.515203621016036, 18.84955592153876],
    (-1.5, "tension"): [2.5756789099203314],
    (-1.5, "compression"): [6.283185307179586, 8.76525105319464, 12.566370614359172,
                            15.32124290408871, 18.84955592153876],
    (-0.5, "compression"): [3.6731944063042516, 6.283185307179586, 9.63168463569187,
                            12.566370614359172, 15.834105369332415, 18.84955592153876],
    (0.0, "compression"): [3.1415926535897936, 6.283185307179586, 9.42477796076938,
                           12.566370614359172, 15.707963267948967, 18.84955592153876],
    (0.5, "compression"): [2.913785547090091, 6.283185307179586, 9.353533800863767,
                           12.566370614359172, 15.665413092259195, 18.84955592153876],
    (2.0, "compression"): [2.6483888991510054, 6.283185307179586, 9.281367261551107,
                           12.566370614359172, 15.622668950261742, 18.84955592153876],
}
INFINITE_SPRING_CHI = sorted({chi for chi, _ in CLAMPED_ROOTS})


@pytest.mark.parametrize("chi", INFINITE_SPRING_CHI)
def test_infinite_spring_roots_are_the_clamped_roots(chi):
    model = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=chi)
    for sign in ("tension", "compression"):
        found = [m.alpha_l for m in find_critical_loads(model, sign)]
        assert found == CLAMPED_ROOTS.get((chi, sign), []), (chi, sign)


def test_infinite_spring_characteristic_is_the_clamped_factorization():
    # 2 sigma S(x/2) g(x), the bracket's factorization; as a spring it was +-inf
    for chi in INFINITE_SPRING_CHI:
        model = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=chi)
        for sgn, sign, C, S in ((1.0, "tension", math.cosh, math.sinh),
                                (-1.0, "compression", math.cos, math.sin)):
            for x in (0.3, 2.0, 7.7):
                g = (1.0 + chi) * x * C(0.5 * x) - chi * S(0.5 * x)
                assert characteristic(x, sign, model) == 2.0 * sgn * S(0.5 * x) * g, (chi, x)


def test_infinite_spring_mode_shapes_are_finite():
    # as a spring the shapes were NaN; the clamped end keeps phi + v'(l) = 0
    for (chi, sign), roots in CLAMPED_ROOTS.items():
        model = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=chi)
        sgn = 1.0 if sign == "tension" else -1.0
        for i, x in enumerate(roots, start=1):
            mode = BucklingMode(sign, x, sgn * x**2 / math.pi**2, math.pi / x, i)
            z, v, phi = mode_shape(mode, model, n_samples=1001)
            assert all(map(math.isfinite, [*v, phi])), (chi, mode)
            h = z[1] - z[0]
            vpl = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
            assert abs(phi + vpl) < 1e-8, (chi, mode, phi, vpl)


@pytest.mark.parametrize("B, l, k", [(1.0, 10.0, 1e308), (1e-10, 1.0, 1e300)],
                         ids=["kl-overflows", "kl-over-B-overflows"])
@pytest.mark.parametrize("chi", INFINITE_SPRING_CHI)
def test_spring_whose_kl_over_B_overflows_is_the_clamped_end(B, l, k, chi):
    # k l/B = inf made every sample of the spring formula +-inf or NaN, and
    # the compression scan at chi_hat = -3 raised on a NaN value
    spring = RodModel(B=B, l=l, k=k, chi_hat=chi)
    clamped = RodModel(B=B, l=l, k=math.inf, chi_hat=chi)
    for sign in ("tension", "compression"):
        modes = find_critical_loads(spring, sign)
        assert [m.alpha_l for m in modes] == CLAMPED_ROOTS.get((chi, sign), []), sign
        assert modes == find_critical_loads(clamped, sign)
        for x in (0.3, 2.0, 7.7):
            assert characteristic(x, sign, spring) == characteristic(x, sign, clamped)
        for mode in modes:
            assert mode_shape(mode, spring) == mode_shape(mode, clamped)


def test_every_frozen_root_to_a_few_ulps():
    cl = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-1.5)
    cases = [
        *((RodModel(B=1.0, l=1.0, chi_hat=c), "tension", 6.0 * math.pi, (r,))
          for c, r in ROLLER_TENSION.items()),
        *((RodModel(B=1.0, l=1.0, chi_hat=c), "compression", 6.0 * math.pi, rs)
          for c, rs in ROLLER_COMPRESSION.items()),
        *((RodModel(B=1.0, l=1.0, k=k, chi_hat=-4.0), "tension", 6.0 * math.pi, (r,))
          for k, r in SPRING_TENSION_M4.items()),
        (RodModel(B=1.0, l=1.0, k=1.0, chi_hat=-4.0), "compression", 5.0 * math.pi,
         SPRING_COMPRESSION_M4_K1),
        (cl, "tension", 6.0 * math.pi, (CLAMPED_TENSION_M15,)),
        (cl, "compression", 13.0, CLAMPED_COMPRESSION_M15),
        (RodModel(B=1.0, l=1.0, k=1.0, chi_hat=0.0), "compression", math.pi,
         (STRAIGHT_COMPRESSION_K1,)),
    ]
    for model, sign, x_max, refs in cases:
        found = find_critical_loads(model, sign, alpha_l_max=x_max)
        for got, ref in zip(found, refs):
            assert abs(got.alpha_l - ref) < 5e-15, (model, sign, ref)


ROD_SWEEP_ROOTS = Path(__file__).parent / "data" / "rod_sweep_roots.txt"


def rod_sweep(draws=200, seed=2013, chi_max=6.0):
    """Seeded (model, load sign) pairs of the frozen-root sweep: per draw
    one curvature in [-chi_max, chi_max], stiffness and length in [1/e, e],
    the ends free, spring (k in [0, 5] and in [0, 5000]) and k = inf
    (clamped), both signs."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        chi, B, l, k_small, k_large = rng.uniform(
            [-chi_max, -1.0, -1.0, 0.0, 0.0], [chi_max, 1.0, 1.0, 5.0, 5000.0]).tolist()
        B, l = math.exp(B), math.exp(l)
        for k in (0.0, k_small, k_large, math.inf):
            for sign in ("tension", "compression"):
                yield RodModel(B=B, l=l, k=k, chi_hat=chi), sign


def rod_sweep_line(model, sign):
    """The repr of every root of one table (alpha_l_max = 6 pi), space separated."""
    return " ".join(repr(float(m.alpha_l)) for m in find_critical_loads(model, sign))


def test_rod_sweep_roots_frozen_bit_for_bit():
    # one line per rod_sweep table, written by rod_sweep_line when the scan
    # still ran over numpy samples with a per-call characteristic
    want = ROD_SWEEP_ROOTS.read_text().split("\n")[:-1]
    cases = list(rod_sweep())
    assert len(want) == len(cases) == 1600
    for (model, sign), line in zip(cases, want):
        assert rod_sweep_line(model, sign) == line, (model, sign)


def test_roots_below_first_scan_step():
    # the first sample at step/1000 keeps a root in (0, step); the
    # characteristic cancels to O(x^3) there, so the root is good to ~1e-12
    spring = RodModel(B=1.0, l=1.0, k=2.1881, chi_hat=-2.9159)
    found = find_critical_loads(spring, "compression")
    assert abs(found[0].alpha_l - SMALL_SPRING_M29159_K21881) < 1e-11
    assert found[1].alpha_l > math.pi / 50.0
    clamped = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-2.0005702060644834)
    found = find_critical_loads(clamped, "compression")
    assert abs(found[0].alpha_l - SMALL_CLAMPED_M20005702) < 1e-11
    assert abs(found[1].alpha_l - 2.0 * math.pi) < 1e-12


def test_scan_step_halving_identical():
    models = [
        RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0),
        RodModel(B=1.0, l=1.0, k=0.0, chi_hat=4.0),
        RodModel(B=1.0, l=1.0, k=1.0, chi_hat=-4.0),
        RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-1.5),
        RodModel(B=1.0, l=1.0, k=0.0, chi_hat=0.0),
    ]
    for model in models:
        for sign in ("tension", "compression"):
            coarse = find_critical_loads(model, sign, alpha_l_max=6.0 * math.pi)
            fine = find_critical_loads(model, sign, alpha_l_max=6.0 * math.pi,
                                       step=math.pi / 100.0)
            assert len(coarse) == len(fine)
            for a, b in zip(coarse, fine):
                assert abs(a.alpha_l - b.alpha_l) < 1e-12


def test_scaling_law():
    base = RodModel(B=1.0, l=1.0, k=0.3, chi_hat=-4.0)
    quad = RodModel(B=4.0, l=1.0, k=1.2, chi_hat=-4.0)
    for sign in ("tension", "compression"):
        a = find_critical_loads(base, sign, alpha_l_max=4.0 * math.pi)
        b = find_critical_loads(quad, sign, alpha_l_max=4.0 * math.pi)
        assert len(a) == len(b)
        for ma, mb in zip(a, b):
            assert abs(ma.alpha_l - mb.alpha_l) < 1e-12
            assert np.isclose(critical_force(mb, quad),
                              4.0 * critical_force(ma, base), rtol=1e-12)
            # normalized loads are scale free
            assert np.isclose(ma.F_cr_normalized, mb.F_cr_normalized, rtol=1e-12)


def test_clamped_limit_coherence():
    # k = 1e9 B/l reproduces the analytic clamped equation to 1e-4
    for chi in (-5.0, -1.5, -0.8, 0.5, 0.0):
        stiff = RodModel(B=1.0, l=1.0, k=1e9, chi_hat=chi)
        limit = RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=chi)
        for sign in ("tension", "compression"):
            a = find_critical_loads(stiff, sign, alpha_l_max=4.0 * math.pi)
            b = find_critical_loads(limit, sign, alpha_l_max=4.0 * math.pi)
            assert len(a) == len(b)
            for ma, mb in zip(a, b):
                assert np.isclose(ma.alpha_l, mb.alpha_l, rtol=1e-4)


def test_effective_length_factor():
    model = RodModel(B=2.0, l=1.5, k=0.0, chi_hat=-1.0)
    assert np.isclose(
        effective_length_factor(math.pi**2 * model.B / model.l**2, model), 1.0,
        rtol=1e-14)
    assert np.isclose(
        effective_length_factor(-math.pi**2 * model.B / (4.0 * model.l**2), model),
        2.0, rtol=1e-14)
    with pytest.raises(ValueError):
        effective_length_factor(0.0, model)
    # identity roundtrip on the first compressive mode, k=0, chi = -1
    unit = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-1.0)
    mode = find_critical_loads(unit, "compression", alpha_l_max=2.0 * math.pi)[0]
    F = critical_force(mode, unit)
    assert np.isclose(effective_length_factor(F, unit), mode.xi, rtol=1e-12)
    assert np.isclose(abs(F), math.pi**2 * unit.B / (mode.xi * unit.l) ** 2,
                      rtol=1e-12)


def test_mode_ordering_and_gaps():
    # Sturm-like structure: strictly increasing roots, gaps above the scan step
    models = [
        RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0),
        RodModel(B=1.0, l=1.0, k=0.0, chi_hat=4.0),
        RodModel(B=1.0, l=1.0, k=1.0, chi_hat=-4.0),
        RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-1.5),
        RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-4.0),
    ]
    for model in models:
        found = find_critical_loads(model, "compression", alpha_l_max=6.0 * math.pi)
        assert len(found) >= 3
        roots = [m.alpha_l for m in found]
        assert all(b - a > math.pi / 50.0 for a, b in zip(roots, roots[1:]))
        assert [m.mode_index for m in found] == list(range(1, len(found) + 1))


def test_root_residuals_below_local_scale():
    for chi, roots in ROLLER_COMPRESSION.items():
        model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
        for m in find_critical_loads(model, "compression", alpha_l_max=6.0 * math.pi):
            res = abs(characteristic(m.alpha_l, "compression", model))
            assert res < 1e-10 * local_scale(m.alpha_l, -1.0, chi, 0.0)


def test_max_modes_truncates():
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0)
    found = find_critical_loads(model, "compression", alpha_l_max=6.0 * math.pi,
                                max_modes=2)
    assert len(found) == 2
    assert [m.mode_index for m in found] == [1, 2]


@pytest.mark.parametrize("alpha_l_max", [math.inf, -math.inf, math.nan, 0.0])
def test_alpha_l_max_must_be_positive_and_finite(alpha_l_max):
    # inf used to overflow in the grid size, int(alpha_l_max / step)
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0)
    with pytest.raises(ValueError, match="alpha_l_max"):
        find_critical_loads(model, "compression", alpha_l_max=alpha_l_max)


@pytest.mark.parametrize("alpha_l_max", [700.0 * (1.0 + 2.0**-52), 800.0, 1e12, 1e300])
def test_alpha_l_max_past_scan_limit_raises_before_the_grid(alpha_l_max):
    # math.cosh overflows in the tension scan past about 710, and 1e12
    # would ask for a grid of 1.6e13 samples
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="alpha_l_max=.* exceeds the scan limit 700"):
            find_critical_loads(model, "tension", alpha_l_max=alpha_l_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_alpha_l_max_at_scan_limit():
    # the scan stays finite up to the limit; the 6 pi tables are its prefix
    for k in (1.0, math.inf):
        model = RodModel(B=1.0, l=1.0, k=k, chi_hat=-4.0)
        for sign in ("tension", "compression"):
            assert math.isfinite(characteristic(700.0, sign, model))
            short = find_critical_loads(model, sign)
            full = find_critical_loads(model, sign, alpha_l_max=700.0)
            assert full[:len(short)] == short
            if sign == "compression":
                assert len(full) > 200


def test_max_modes_is_the_table_prefix():
    # the scan stops at the last kept root; the k = inf 2 pi n join the
    # scanned roots before they count, and at chi_hat = -1 (A = 0) every
    # root of g is a 2 pi n, kept once
    cases = list(rod_sweep(draws=50, seed=7))
    cases += [(RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=chi), "compression")
              for chi in (-1.0, -1.5, *CLAMPED_PAIRS)]
    for model, sign in cases:
        full = find_critical_loads(model, sign)
        for max_modes in (1, 2, 3):
            assert find_critical_loads(model, sign, max_modes=max_modes) == full[:max_modes]


@pytest.fixture
def sampled(monkeypatch):
    """Every alpha_l at which a root scan samples its function, in order."""
    xs = []
    in_x = rodlinear._characteristic_in_x

    def recording(*args, **kwargs):
        f = in_x(*args, **kwargs)
        return lambda x: xs.append(x) or f(x)

    monkeypatch.setattr(rodlinear, "_characteristic_in_x", recording)
    return xs


@pytest.mark.parametrize("chi, clamped, last_root", [
    (-5.0, False, ROLLER_COMPRESSION[-5.0]),
    (-1.5, True, CLAMPED_COMPRESSION_M15),
    (-1.0, True, (2.0 * math.pi, 4.0 * math.pi, 6.0 * math.pi)),
])
def test_max_modes_stops_the_scan(sampled, chi, clamped, last_root):
    # the largest alpha_l sampled lies within a step of the last mode kept
    model = RodModel(B=1.0, l=1.0, k=math.inf if clamped else 0.0, chi_hat=chi)
    for max_modes, root in enumerate(last_root, start=1):
        sampled.clear()
        found = find_critical_loads(model, "compression", max_modes=max_modes)
        assert found[-1].alpha_l == pytest.approx(root, abs=1e-12)
        assert root <= max(sampled) < root + math.pi / 50.0


def test_scan_evaluates_no_alpha_l_twice(sampled):
    # brentq starts from the two scan samples of a bracket, which it used
    # to evaluate again, twice per root
    roots = 0
    for model, sign in rod_sweep(draws=5, seed=11):
        sampled.clear()
        roots += len(find_critical_loads(model, sign))
        assert len(sampled) == len(set(sampled)), (model, sign)
    assert roots > 50

def test_roots_in_the_last_partial_cell():
    # an alpha_l_max that is not a multiple of the step is itself sampled;
    # the grid used to end at step * count and drop the roots in
    # (step * count, alpha_l_max]
    roller = RodModel(B=1.0, l=1.0, chi_hat=-5.0)
    found = find_critical_loads(roller, "compression", alpha_l_max=7.7106)
    assert_allclose([m.alpha_l for m in found], ROLLER_COMPRESSION[-5.0][:2], rtol=0.0, atol=1e-12)
    spring = RodModel(B=1.0, l=1.0, k=2.1881, chi_hat=-2.9159)
    found = find_critical_loads(spring, "compression", alpha_l_max=0.05)
    assert len(found) == 1
    assert abs(found[0].alpha_l - SMALL_SPRING_M29159_K21881) < 1e-11
    # a table cut just above one of its roots keeps that root and those
    # before it, which keep their bits: only the last bracket is cut
    cuts = 0
    for model, sign in rod_sweep(draws=20, seed=43):
        full = [m.alpha_l for m in find_critical_loads(model, sign)]
        for i, root in enumerate(full):
            cut = [m.alpha_l for m in find_critical_loads(model, sign, alpha_l_max=root + 1e-6)]
            assert cut[:i] == full[:i], (model, sign, root)
            assert len(cut) == i + 1 and abs(cut[i] - root) < 1e-12, (model, sign, root, cut)
            cuts += 1
    assert cuts > 200


def tension_bound(model):
    """X past which the tension characteristic has the sign of
    A = 1 + chi_hat: (p + sqrt(p^2 + 4 |A| q))/(2 |A|) with kappa = k l/B
    (0 at k = inf, clamped), p = max(0, chi_hat - kappa A) and
    q = max(0, kappa chi_hat) for A > 0, p = max(0, kappa A - chi_hat) and
    q = max(0, -kappa chi_hat) for A < 0; 0 at A = 0, where there is no
    tension root."""
    chi, a = model.chi_hat, 1.0 + model.chi_hat
    if a == 0.0:
        return 0.0
    kappa = 0.0 if model.k == math.inf else model.k * model.l / model.B
    if a > 0.0:
        p, q = max(0.0, chi - kappa * a), max(0.0, kappa * chi)
    else:
        p, q = max(0.0, kappa * a - chi), max(0.0, -kappa * chi)
    return (p + math.sqrt(p * p + 4.0 * abs(a) * q)) / (2.0 * abs(a))


def bound_models(draws, seed):
    """Seeded rods for the tension bound: the rod_sweep models with
    curvatures in [-8, 8]; then unit rods at chi_hat = -1 and within 1e-12
    of it (A near 0), at 0 and on either side of -1, with k = 0, 1 and inf
    (clamped)."""
    for model, sign in rod_sweep(draws, seed, chi_max=8.0):
        if sign == "tension":
            yield model
    for chi in (-1.0, -1.0 + 1e-12, -1.0 - 1e-12, -1.0 + 1e-13, -1.0 - 1e-13,
                0.0, -0.5, -3.0, 2.0):
        for k in (0.0, 1.0, math.inf):
            yield RodModel(B=1.0, l=1.0, k=k, chi_hat=chi)


def full_grid(model, sgn, alpha_l_max, step):
    """The scanned function of a load sign, the full scan grid
    step * (1e-3, 1, ..., count), closed by alpha_l_max where it ends short
    of it, and the function's values there."""
    f = rodlinear._characteristic_in_x(model, sgn)
    count = int(alpha_l_max / step + 1e-9)
    xs = [step * 1e-3, *(step * j for j in range(1, count + 1))]
    if xs[-1] < alpha_l_max:
        xs.append(alpha_l_max)
    return f, xs, [f(x) for x in xs]


def full_scan(model, sign, alpha_l_max, step=math.pi / 50.0, max_modes=None):
    """Roots of the scan with no bound and no skip: sign changes on every
    sample of full_grid, each refined by scipy's brentq; in compression
    at k = inf (clamped), the 2 pi n up to alpha_l_max join them and a root
    within 1e-14 (1 + root) of one is dropped.  With max_modes, the first
    max_modes, refining no bracket past the sample where the scan holds
    that many."""
    sgn, turn, rtol = (1.0 if sign == "tension" else -1.0), 2.0 * math.pi, 4.0 * np.finfo(float).eps
    f, xs, fs = full_grid(model, sgn, alpha_l_max, step)
    exact = []
    if model.k == math.inf and sgn < 0.0:
        exact = [turn * n for n in range(1, int(alpha_l_max * (1.0 + 1e-15) / turn) + 1)]
    roots = []
    for i, j in sign_changes(fs):
        before = xs[max(j - 1, 0)]
        if max_modes is not None and len(roots) + sum(e <= before for e in exact) >= max_modes:
            break
        root = xs[i] if i == j else brentq(f, xs[i], xs[j], xtol=1e-14, rtol=rtol)
        if not exact or abs(root - turn * round(root / turn)) > 1e-14 * (1.0 + root):
            roots.append(root)
    return sorted(exact + roots)[:max_modes]


def test_tension_characteristic_keeps_the_sign_of_A_past_the_bound():
    # on a grid that crowds toward X, from just past X to the scan limit
    # 700 below which cosh stays finite; the scanned function is the
    # characteristic, or at k = inf (clamped) its factor g, whose sign the
    # characteristic 2 sinh(x/2) g shares.  At A = 0 it is positive
    t = np.linspace(0.0, 1.0, 2001) ** 3
    checked = 0
    for model in bound_models(draws=150, seed=31):
        X = tension_bound(model)
        assert rodlinear._tension_bound(model) == pytest.approx(X, rel=1e-15, abs=0.0), model
        if not X < 700.0:
            continue
        f = rodlinear._characteristic_in_x(model, 1.0)
        sgn = -1.0 if model.chi_hat < -1.0 else 1.0
        x0 = X * (1.0 + 1e-12)
        for x in (x0 + (700.0 - x0) * t).tolist():
            if x > 0.0:
                assert sgn * f(x) > 0.0, (model, X, x, f(x))
        checked += 1
    assert checked > 400


@pytest.mark.parametrize("alpha_l_max", [6.0 * math.pi, 30.0, 700.0], ids=["6pi", "30", "700"])
def test_tension_tables_equal_the_unbounded_scan(alpha_l_max):
    draws = 30 if alpha_l_max > 100.0 else 150
    roots = 0
    for model in bound_models(draws=draws, seed=53):
        found = [m.alpha_l for m in find_critical_loads(model, "tension", alpha_l_max=alpha_l_max)]
        assert found == full_scan(model, "tension", alpha_l_max), model
        roots += len(found)
    assert roots > draws / 2


def test_tension_scan_stops_within_a_step_of_the_bound(sampled):
    # the scan samples nothing more than a step past X, so a rod with no
    # tension root (chi_hat in (-1, 0], where X = 0) samples at most
    # twice, where it used to sample its whole grid
    step = math.pi / 50.0
    models = list(bound_models(draws=100, seed=59))
    models += [RodModel(B=B, l=1.0, k=k, chi_hat=chi)
               for chi in (-0.999, -0.5, -1e-9, 0.0) for k in (0.0, 5.0, 5000.0, math.inf)
               for B in (1.0 / math.e, math.e)]
    rootless = 0
    for model in models:
        sampled.clear()
        find_critical_loads(model, "tension", alpha_l_max=700.0)
        assert max(sampled) <= tension_bound(model) * (1.0 + 1e-9) + step, model
        if -1.0 < model.chi_hat <= 0.0:
            assert len(sampled) <= 2, (model, len(sampled))
            rootless += 1
    assert rootless > 30


@pytest.fixture
def visited(monkeypatch, sampled):
    """Every alpha_l at which a root scan samples its grid, in order: the
    sampled alpha_l without those of its refinements."""
    refine = rodlinear.refine

    def refining(*args):
        n = len(sampled)
        try:
            return refine(*args)
        finally:
            del sampled[n:]

    monkeypatch.setattr(rodlinear, "refine", refining)
    return sampled


def skip_draws(draws, seed):
    """Seeded (model, max_modes) pairs for the compression scan: per draw
    one curvature, in [-8, 8] or within 1e-3 of -1 or -2, stiffness and
    length in [1/e, e], max_modes None, 1 or 3, and the ends free, spring
    (k in [0, 5] and in [0, 5000]) and k = inf (clamped)."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        near, chi, B, l, k_small, k_large = rng.uniform(
            [-1e-3, -8.0, -1.0, -1.0, 0.0, 0.0], [1e-3, 8.0, 1.0, 1.0, 5.0, 5000.0]).tolist()
        chi = (chi, -1.0 + near, -2.0 + near)[rng.choice(3, p=[0.6, 0.2, 0.2])]
        max_modes = (None, 1, 3)[rng.integers(3)]
        B, l = math.exp(B), math.exp(l)
        for k in (0.0, k_small, k_large, math.inf):
            yield RodModel(B=B, l=l, k=k, chi_hat=chi), max_modes


@pytest.mark.parametrize("alpha_l_max, step, draws", [
    (6.0 * math.pi, math.pi / 50.0, 60),
    (6.0 * math.pi, math.pi / 100.0, 20),
    (30.0, math.pi / 50.0, 40),
    (700.0, math.pi / 50.0, 4),
], ids=["6pi", "6pi-fine", "30", "700"])
def test_compression_tables_equal_the_full_scan(visited, alpha_l_max, step, draws):
    # the skipping scan visits grid samples only, both ends of every bracket
    # up to where it stops, and under a fifth of the grid it spans, and
    # returns the full scan's roots bit for bit
    roots, visits, cells = 0, 0, 0
    for model, max_modes in skip_draws(draws, seed=61):
        visited.clear()
        got = [m.alpha_l for m in find_critical_loads(
            model, "compression", alpha_l_max=alpha_l_max, max_modes=max_modes, step=step)]
        seen = set(visited)
        want = full_scan(model, "compression", alpha_l_max, step, max_modes)
        assert got == want, (model, max_modes)
        _, xs, fs = full_grid(model, -1.0, alpha_l_max, step)
        assert seen <= set(xs), model
        reach = max(seen)
        for i, j in sign_changes(fs):
            if xs[j] <= reach:
                assert xs[i] in seen and xs[j] in seen, (model, xs[i], xs[j])
        roots += len(got)
        visits += len(seen)
        cells += sum(x <= reach for x in xs)
    assert roots > draws
    assert visits < cells / 5


def test_compression_table_at_a_fine_step_equals_the_full_scan(visited):
    # 1e6 cells up to 6 pi: the rod of the spurious root below the first
    # step (FOUND line 89 in CHANGES.md) and a k = inf rod near chi_hat = -2
    step = 6.0 * math.pi / 1e6
    for model in (RodModel(B=1.0, l=1.0, k=2.1881, chi_hat=-2.9159),
                  RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-2.0005702060644834)):
        visited.clear()
        got = [m.alpha_l for m in find_critical_loads(model, "compression", step=step)]
        assert len(visited) < 5000, (model, len(visited))
        assert got == full_scan(model, "compression", 6.0 * math.pi, step), model


@pytest.mark.parametrize("k", [1e100, 1e160, 1e300])
def test_compression_table_of_a_huge_spring_equals_the_full_scan(k):
    # the skip's quadratic overflows past k l/B of about 1e150, where it
    # gave a NaN distance; the table is still the clamped limit's
    for chi in (-3.0, 0.5):
        model = RodModel(B=1.0, l=1.0, k=k, chi_hat=chi)
        found = [m.alpha_l for m in find_critical_loads(model, "compression")]
        assert found == full_scan(model, "compression", 6.0 * math.pi), model
        assert len(found) == 5


def compression_models(draws, seed):
    """Seeded rods with a finite end: curvature in [-8, 8], stiffness and
    length in [1/e, e]; per draw a free, a spring (k in [0, 50]) and a
    k = inf (clamped) end."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        chi, B, l, k = rng.uniform([-8.0, -1.0, -1.0, 0.0], [8.0, 1.0, 1.0, 50.0]).tolist()
        for k in (0.0, k, math.inf):
            yield RodModel(B=math.exp(B), l=math.exp(l), k=k, chi_hat=chi)


def mp_function(model):
    """The compression function of the scan, in mpmath arithmetic."""
    chi, a = mpmath.mpf(model.chi_hat), 1 + mpmath.mpf(model.chi_hat)
    if model.k == math.inf:
        return lambda x: a * x * mpmath.cos(x / 2) - chi * mpmath.sin(x / 2)
    kappa = mpmath.mpf(model.k) * model.l / model.B
    return lambda x: (-(a * x * mpmath.cos(x) - chi * mpmath.sin(x))
                      + kappa / x * (-a * x * mpmath.sin(x) + chi * (1 - mpmath.cos(x))))


def test_compression_slope_and_rounding_match_mpmath():
    # f' of the bounds against mpmath's derivative, and f and f' within
    # the rounding bound rho of their 40-digit values
    rng = np.random.default_rng(67)
    checked = 0
    with mpmath.workdps(40):
        for model in compression_models(draws=20, seed=67):
            f = rodlinear._characteristic_in_x(model, -1.0)
            slope = rodlinear._compression_bounds(model)[0]
            ref = mp_function(model)
            for x in rng.uniform(0.0, 60.0, 8).tolist() + [1e-3, 0.05]:
                d, rho = slope(x)
                assert abs(d - mpmath.diff(ref, x)) <= rho, (model, x)
                assert abs(f(x) - ref(x)) <= rho, (model, x)
                checked += 1
    assert checked == 600


def test_compression_curvature_bound_holds():
    # a central difference of f' stays within m0 + m1 x on (0, 60]
    xs = np.geomspace(1e-3, 60.0, 3000).tolist()
    tight = 0.0
    for model in compression_models(draws=15, seed=71):
        slope, m0, m1 = rodlinear._compression_bounds(model)
        for x in xs:
            h = min(1e-4, 0.1 * x)
            second = (slope(x + h)[0] - slope(x - h)[0]) / (2.0 * h)
            assert abs(second) <= (m0 + m1 * x) * (1.0 + 1e-6), (model, x, second)
            tight = max(tight, abs(second) / (m0 + m1 * x))
    assert tight > 0.9


def test_compression_sign_is_kept_across_each_jump():
    # dense samples over the distance of _sign_kept from a random x keep
    # the sign of f(x), and are nonzero
    rng = np.random.default_rng(73)
    jumps = 0
    for model in compression_models(draws=40, seed=73):
        f = rodlinear._characteristic_in_x(model, -1.0)
        bounds = rodlinear._compression_bounds(model)
        for x in rng.uniform(0.0, 60.0, 10).tolist():
            fx = f(x)
            t = rodlinear._sign_kept(x, fx, *bounds)
            for y in np.linspace(x, x + t, 400).tolist():
                assert f(y) * fx > 0.0, (model, x, t, y)
            jumps += t > 0.2
    assert jumps > 600


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND line 38 in CHANGES.md, ROADMAP item 7: "
                   "both roots of each close pair fall inside one scan step")
def test_stiff_spring_keeps_its_close_root_pairs():
    model = RodModel(B=1.0, l=1.0, k=5000.0, chi_hat=-0.999)
    f = lambda x: characteristic(x, "compression", model)
    xs = np.linspace(1e-6, 6.0 * math.pi, 60001)
    vals = [f(x) for x in xs.tolist()]
    dense = [brentq(f, xs[i], xs[j], xtol=1e-14) for i, j in sign_changes(vals)]
    assert len(dense) == 6
    found = [m.alpha_l for m in find_critical_loads(model, "compression")]
    assert_allclose(found, dense, rtol=0.0, atol=1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND line 89 in CHANGES.md, ROADMAP item 7: the characteristic's "
                   "rounding changes sign between the first two samples")
def test_fine_step_lists_no_root_below_the_first():
    model = RodModel(B=1.0, l=1.0, k=2.1881, chi_hat=-2.9159)
    found = find_critical_loads(model, "compression", step=6.0 * math.pi / 1e6)
    assert abs(found[0].alpha_l - SMALL_SPRING_M29159_K21881) < 1e-11


@pytest.mark.parametrize("step", [0.0, -0.0, -0.1, math.nan, math.inf, 1e-13, 5e-324])
def test_bad_step_raises_before_the_grid(step):
    # 0 divided by zero, a negative step returned an empty table (this
    # model has a root at 1.034) and 1e-13 asked for 1.9e14 samples
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-4.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="step"):
            find_critical_loads(model, "tension", step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_step_at_sample_cap():
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0)
    step = 6.0 * math.pi / 1e6
    found = find_critical_loads(model, "tension", max_modes=1, step=step)
    assert abs(found[0].alpha_l - ROLLER_TENSION[-5.0]) < 1e-12
    with pytest.raises(ValueError, match="samples"):
        find_critical_loads(model, "tension", step=step * (1.0 - 1e-15))


@pytest.mark.parametrize("max_modes", [0, -1])
def test_max_modes_below_one_raises(max_modes):
    # a negative count used to slice off the last root: roots[:-1]
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0)
    with pytest.raises(ValueError, match="max_modes"):
        find_critical_loads(model, "compression", max_modes=max_modes)


def test_mode_shape_end_conditions():
    cases = [
        (RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0), "tension"),
        (RodModel(B=1.0, l=1.0, k=0.0, chi_hat=4.0), "compression"),
        (RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-1.5), "compression"),
        (RodModel(B=1.0, l=2.0, k=0.5, chi_hat=-4.0), "compression"),
    ]
    for model, sign in cases:
        mode = find_critical_loads(model, sign, alpha_l_max=6.0 * math.pi)[0]
        z, v, phi = mode_shape(mode, model, n_samples=1001)
        h = z[1] - z[0]
        assert abs(v[0]) < 1e-12
        # one sided 4th order difference for v'(0)
        vp0 = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
        assert abs(vp0) < 1e-9
        assert abs(phi - model.chi_hat * v[-1] / model.l) < 1e-8
        assert np.isclose(np.max(np.abs(v)), 1.0, rtol=1e-12)
        assert v[np.argmax(np.abs(v))] > 0.0


def test_mode_shape_matches_null_space_reconstruction():
    cases = [
        (RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0), "tension", 1.0),
        (RodModel(B=1.0, l=1.0, k=0.0, chi_hat=4.0), "compression", -1.0),
        (RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-1.5),
         "compression", -1.0),
    ]
    for model, sign, sgn_f in cases:
        mode = find_critical_loads(model, sign, alpha_l_max=2.0 * math.pi)[0]
        M = bc_matrix(mode.alpha_l, sgn_f, model)
        _, sv, vt = np.linalg.svd(M)
        coeffs = vt[-1]
        assert np.linalg.norm(M @ coeffs) < 1e-10 * np.linalg.norm(M)
        alpha = mode.alpha_l / model.l
        z = np.linspace(0.0, model.l, 501)
        if sgn_f > 0:
            basis = np.stack([np.cosh(alpha * z), np.sinh(alpha * z), z,
                              np.ones_like(z)])
        else:
            basis = np.stack([np.cos(alpha * z), np.sin(alpha * z), z,
                              np.ones_like(z)])
        vref = coeffs[:4] @ basis
        vref = vref / vref[np.argmax(np.abs(vref))]
        zs, v, _ = mode_shape(mode, model, n_samples=501)
        assert_allclose(zs, z, atol=1e-14)
        assert_allclose(v, vref, atol=1e-9)


def test_mode_shape_rejects_non_critical():
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0)
    mode = find_critical_loads(model, "compression", alpha_l_max=2.0 * math.pi)[0]
    off = BucklingMode(load_sign="compression", alpha_l=mode.alpha_l + 0.1,
                       F_cr_normalized=mode.F_cr_normalized, xi=mode.xi,
                       mode_index=1)
    with pytest.raises(ValueError):
        mode_shape(off, model)


@pytest.mark.parametrize("n_samples", [0, 1])
def test_mode_shape_rejects_fewer_than_two_samples(n_samples):
    # one sample is v(0) = 0, which v was divided by (ZeroDivisionError),
    # and none left max() an empty sequence
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0)
    mode = find_critical_loads(model, "compression", max_modes=1)[0]
    with pytest.raises(ValueError, match="n_samples must be at least 2, got %d" % n_samples):
        mode_shape(mode, model, n_samples=n_samples)
    assert len(mode_shape(mode, model, n_samples=2)[0]) == 2


def test_bc_determinant_vanishes_at_roots():
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0)
    found = find_critical_loads(model, "compression", alpha_l_max=4.0 * math.pi)
    roots = [m.alpha_l for m in found]
    mids = [0.5 * (a + b) for a, b in zip(roots, roots[1:])]
    for root, mid in zip(roots, mids):
        d_root = abs(np.linalg.det(bc_matrix(root, -1.0, model)))
        d_mid = abs(np.linalg.det(bc_matrix(mid, -1.0, model)))
        assert d_root < 1e-8 * d_mid


def test_compression_always_bifurcates():
    models = [
        RodModel(B=1.0, l=1.0, k=0.0, chi_hat=-5.0),
        RodModel(B=1.0, l=1.0, k=0.0, chi_hat=0.0),
        RodModel(B=1.0, l=1.0, k=0.0, chi_hat=4.0),
        RodModel(B=1.0, l=1.0, k=1.0, chi_hat=-4.0),
        RodModel(B=1.0, l=1.0, k=math.inf, chi_hat=-1.0),
    ]
    for model in models:
        start = time.perf_counter()
        found = find_critical_loads(model, "compression", alpha_l_max=6.0 * math.pi)
        assert len(found) >= 3
        assert time.perf_counter() - start < 1.0


def test_table_csv_format(tmp_path):
    args = ["critical-rod", "--chi-hat-grid=-5,-1.25,2",
            "--alpha-l-max", repr(6.0 * math.pi), "--max-modes", "2"]
    assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
    path = tmp_path / "a" / "critical_rod_k0.csv"
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "chi_hat,sign,mode_index,alpha_l,Fcr_normalized,xi"
    row = lines[1].split(",")
    assert row[0] == "%.16e" % -5.0
    assert row[1] == "tension"
    assert row[2] == "1"
    assert abs(float(row[3]) - ROLLER_TENSION[-5.0]) < 1e-12
    mant = row[3].split("e")[0]
    assert len(mant.split(".")[1]) == 16
    # deterministic bytes on rerun
    assert cli.main([*args, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "critical_rod_k0.csv").read_bytes() == path.read_bytes()
