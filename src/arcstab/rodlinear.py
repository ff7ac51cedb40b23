"""Linearized buckling of a rod clamped at one end and sliding on a circle.

The straight prestressed state has transverse perturbation v(z) obeying
B v'''' - F v'' = 0 with alpha^2 = |F|/B.  The sliding end follows a circular
profile of signed dimensionless curvature chi_hat = +-l/R_c and carries a
rotational spring k; chi_hat = 0 is the straight-constraint limit and k = inf
(clamped) the clamped limit.  Critical loads are roots in x = alpha*l of a
transcendental characteristic function, one real form for both load signs with
(C, S) = (cosh, sinh) in tension and (cos, sin) in compression.  The root
scan skips the grid samples that a closed-form bound proves keep their sign.
"""

import math
from dataclasses import dataclass

from .branch import linspace, refine

__all__ = [
    "RodModel",
    "BucklingMode",
    "characteristic",
    "find_critical_loads",
    "critical_force",
    "effective_length_factor",
    "mode_shape",
]

_SIGNS = {"tension": 1.0, "compression": -1.0}
_DEFAULT_STEP = math.pi / 50.0
_XTOL = 1e-14
# largest alpha_l_max of a root scan: cosh(700) = 5e303
_ALPHA_L_LIMIT = 700.0
# most samples of a root scan, alpha_l_max / step
_MAX_SAMPLES = 10**6
# rounding bound of a compression sample and slope, per unit of their terms
_ROUNDING = 16.0 * 2.0**-52


@dataclass(frozen=True)
class RodModel:
    """Rod of bending stiffness B and length l on a curved sliding support; its
    end spring k runs from free (k = 0) to clamped (k = inf, or k l/B = inf)."""

    B: float
    l: float
    k: float = 0.0
    chi_hat: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.B < math.inf:
            raise ValueError("bending stiffness B must be positive and finite")
        if not 0.0 < self.l < math.inf:
            raise ValueError("length l must be positive and finite")
        if not self.k >= 0.0:
            raise ValueError("spring stiffness k must be nonnegative")
        if not math.isfinite(self.chi_hat):
            raise ValueError("curvature chi_hat must be finite")


@dataclass(frozen=True)
class BucklingMode:
    load_sign: str
    alpha_l: float
    F_cr_normalized: float
    xi: float
    mode_index: int


def _clamped(model):
    """k = inf, or a k l/B that overflows to inf, which the spring terms cannot carry."""
    return model.k * model.l / model.B == math.inf


def _load_sign(load_sign):
    try:
        return _SIGNS[load_sign]
    except KeyError:
        raise ValueError("load_sign must be 'tension' or 'compression'") from None


def _cs(sgn):
    """(C, S) of a load sign: (cosh, sinh) in tension, (cos, sin) in compression."""
    return (math.cosh, math.sinh) if sgn > 0.0 else (math.cos, math.sin)


def _characteristic_in_x(model, sgn):
    """The function of x = alpha_l alone that the root scan samples: the
    characteristic of a load sign, or at k = inf (clamped) its factor g.
    The model constants, the sign and (C, S) are bound once."""
    chi, a = model.chi_hat, 1.0 + model.chi_hat
    C, S = _cs(sgn)
    if _clamped(model):
        return lambda x: a * x * C(0.5 * x) - chi * S(0.5 * x)
    # kl / (B x) as written; (kl / B) / x rounds differently
    kl, B = model.k * model.l, model.B

    def f(x):
        c, s = C(x), S(x)
        return sgn * (a * x * c - chi * s) + kl / (B * x) * (sgn * a * x * s + chi * (1.0 - c))

    return f


def _compression_bounds(model):
    """(slope, m0, m1): slope(x) = (f'(x), rho) and |f''(x)| <= m0 + m1 x
    for the compression function f of the scan.

    With A = 1 + chi_hat and kappa = k l/B, free and spring ends give
    f' = -(1 + kappa A) cos x + A x sin x + kappa chi_hat p(x) and
    f'' = (1 + A + kappa A) sin x + A x cos x + kappa chi_hat p'(x), where
    p(x) = (x sin x - 1 + cos x)/x^2 = int_0^1 u cos(x u) du and
    |p'| = |int_0^1 u^2 sin(x u) du| <= 1/3: m0 = |1 + A + kappa A|
    + kappa |chi_hat|/3 and m1 = |A|.  The factor at k = inf (clamped)
    g = A x cos(x/2) - chi_hat sin(x/2) gives
    g' = (A - chi_hat/2) cos(x/2) - (A/2) x sin(x/2) and
    g'' = -(A - chi_hat/4) sin(x/2) - (A x/4) cos(x/2): m0 = |A - chi_hat/4|
    and m1 = |A|/4.  rho, 16 eps per unit of magnitude of the terms of f
    and f' (|cos|, |sin| <= 1 where they change), bounds the rounding of f
    at x and at any x + t, and of f' at x, by rho (2 + t).
    """
    chi, a = model.chi_hat, 1.0 + model.chi_hat
    if _clamped(model):
        kappa, w, alpha, beta = 0.0, 0.5, a - 0.5 * chi, -0.5 * a
        m0, m1 = abs(a - 0.25 * chi), 0.25 * abs(a)
    else:
        kappa = model.k * model.l / model.B
        w, alpha, beta = 1.0, -(1.0 + kappa * a), a
        m0, m1 = abs(1.0 + a + kappa * a) + kappa * abs(chi) / 3.0, abs(a)
    gamma = kappa * chi
    e0 = _ROUNDING * (abs(chi) + (kappa + 1.0) * abs(a) + abs(alpha))
    e1, e2 = _ROUNDING * (abs(a) + abs(beta)), _ROUNDING * abs(gamma)

    def slope(x):
        c, s = math.cos(w * x), math.sin(w * x)
        return (alpha * c + beta * x * s + gamma * (x * s - 1.0 + c) / (x * x),
                e0 + e1 * x + e2 * (3.0 * x + 2.0) / (x * x))

    return slope, m0, m1


def _sign_kept(x, fx, slope, m0, m1):
    """A distance t >= 0 over which the computed f keeps the sign of fx = f(x).

    sgn(fx) f(x + t) >= |f(x)| - q t - m t^2/2 with q = -sgn(fx) f'(x), the
    rate at which f approaches zero, and m = m0 + m1 (x + t); with the
    rounding, the computed f keeps its sign while r - b t - m t^2/2 > 0,
    r = |fx| - 2 rho and b = q + rho.  t is that quadratic's root with m
    at x, then with m at x plus that larger root.
    """
    d, rho = slope(x)
    r = abs(fx) - 2.0 * rho
    if not r > 0.0:
        return 0.0
    b = rho - (d if fx > 0.0 else -d)
    m = m0 + m1 * x
    for _ in (0, 1):
        root = math.sqrt(b * b + 2.0 * m * r)
        t = (root - b) / m if b < 0.0 else 2.0 * r / (b + root)
        m = m0 + m1 * (x + t)
    # b^2 or m r past overflow (k l/B above about 1e150) skips nothing
    return t if t < math.inf else 0.0


def _tension_bound(model):
    """X such that the tension characteristic, or at k = inf (clamped) its
    factor g, has the sign of A = 1 + chi_hat at every x > X, so that no
    tension root lies past X.

    With kappa = k l/B, the free and spring ends give
    f/cosh x = A x + (kappa A - chi_hat) tanh x - kappa chi_hat (1 - sech x)/x.
    As 0 < tanh x < 1 and 0 <= 1 - sech x < 1, sgn(A) f/cosh x is at least
    |A| x - p - q/x, with p = max(0, sgn(A) (chi_hat - kappa A)) and
    q = max(0, sgn(A) kappa chi_hat), which is positive past the root
    X = (p + sqrt(p^2 + 4 |A| q))/(2 |A|) of |A| x^2 - p x - q.  At k = inf
    (clamped) the factor g gives g/cosh(x/2) = A x - chi_hat tanh(x/2), the
    same bound with kappa = 0: X = max(0, sgn(A) chi_hat)/|A|.  At A = 0
    (chi_hat = -1) f/cosh x = tanh x + kappa (1 - sech x)/x and
    g/cosh(x/2) = tanh(x/2) are positive, so there is no tension root and
    X = 0.
    """
    chi, a = model.chi_hat, 1.0 + model.chi_hat
    if a == 0.0:
        return 0.0
    sgn = math.copysign(1.0, a)
    kappa = 0.0 if _clamped(model) else model.k * model.l / model.B
    p = max(0.0, sgn * (chi - kappa * a))
    q = max(0.0, sgn * kappa * chi)
    return (p + math.sqrt(p * p + 4.0 * abs(a) * q)) / (2.0 * abs(a))


def characteristic(alpha_l, load_sign, model):
    """Characteristic function whose positive roots are the critical loads.

    With sigma = +-1 the load sign, A = 1 + chi_hat and x = alpha_l,
    first = sigma (A x C(x) - chi_hat S(x)) and
    bracket = sigma A x S(x) + chi_hat (1 - C(x)); the function is
    first + (k l/(B x)) bracket, and bracket at k = inf (clamped).  This is
    the printed condition (compression through cosh(ix) = cos x,
    sinh(ix) = i sin x) times |chi_hat|, which keeps every root and sign and
    stays regular at the straight-constraint limit chi_hat = 0.  At k = inf
    the bracket is evaluated as its exact factorization 2 sigma S(x/2) g(x),
    g(x) = A x C(x/2) - chi_hat S(x/2), whose factor g the root scan samples.
    """
    sgn = _load_sign(load_sign)
    # pure-Python arithmetic on numpy scalars is several times slower
    x = float(alpha_l)
    if not x > 0.0:
        raise ValueError("alpha_l must be positive")
    f = _characteristic_in_x(model, sgn)
    if _clamped(model):
        return 2.0 * sgn * _cs(sgn)[1](0.5 * x) * f(x)
    return f(x)


def find_critical_loads(model, load_sign, alpha_l_max=6.0 * math.pi,
                        max_modes=None, step=_DEFAULT_STEP):
    """All characteristic roots in (0, alpha_l_max], sorted, as BucklingMode,
    or the first max_modes of them.

    Sign changes on the grid step * (1e-3, 1, 2, ...), closed by a sample at
    alpha_l_max where the grid ends short of it, refined by brentq as the
    scan finds them; with max_modes the scan stops once it holds that many
    roots.  A tension scan stops at its first sample past the bound X of
    _tension_bound, beyond which the function keeps one sign.  A compression
    scan goes on from a sample to the last grid sample within the distance
    of _sign_kept, over which f' and |f''| <= m0 + m1 x prove that f keeps
    its sign, and never past the next exact root 2 pi n; near zero, where f
    cancels below its rounding bound, it skips nothing.  Both scans never
    pass a sign change, so every bracket has the full scan's two ends and
    every root keeps its bits.  alpha_l_max is capped at 700, where
    cosh in the tension characteristic is still a factor 3e4 below overflow,
    and the grid at 1e6 samples: step must be positive and at least
    alpha_l_max / 1e6.
    Near zero the function is a power of x times a constant, e.g.
    -x (1 + (k l/B)(1 + chi_hat/2)) in compression, so the first sample
    keeps a root below step.  At k = inf (clamped) the bracket factors
    exactly as 2 sigma S(x/2) g(x), g(x) = A x C(x/2) - chi_hat S(x/2): the
    roots x = 2 pi n of S(x/2) in compression are emitted analytically, and
    only g is scanned.  Its roots solve tan(x/2) = A x/chi_hat, one per
    branch of tan, so they never pair up within a step as the bracket's do
    next to 2 pi n for chi_hat just above -1.  A root of g within the refinement
    tolerance of a 2 pi n (at A = 0) is emitted once, and a root counts
    toward max_modes only after that merge.
    """
    sgn = _load_sign(load_sign)
    if not 0.0 < alpha_l_max < math.inf:
        raise ValueError("alpha_l_max must be positive and finite")
    if alpha_l_max > _ALPHA_L_LIMIT:
        raise ValueError(
            "alpha_l_max=%.17g exceeds the scan limit %g, past which cosh in the "
            "tension characteristic overflows" % (alpha_l_max, _ALPHA_L_LIMIT)
        )
    if not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if alpha_l_max / step > _MAX_SAMPLES:
        raise ValueError(
            "step=%.17g asks for more than %d samples up to alpha_l_max=%.17g"
            % (step, _MAX_SAMPLES, alpha_l_max)
        )
    if max_modes is not None and max_modes < 1:
        raise ValueError("max_modes must be at least 1")
    f = _characteristic_in_x(model, sgn)
    count = int(alpha_l_max / step + 1e-9)
    turn = 2.0 * math.pi
    exact = []
    if _clamped(model) and sgn < 0.0:
        exact = [turn * n for n in range(1, int(alpha_l_max * (1.0 + 1e-15) / turn) + 1)]
    # 1e-12 relative covers the rounding of X
    stop = _tension_bound(model) * (1.0 + 1e-12) if sgn > 0.0 else math.inf
    slope, m0, m1 = _compression_bounds(model) if sgn < 0.0 else (None, 0.0, 0.0)
    # below: the exact roots up to the sample; last: the grid's last index
    last = count + (step * max(count, 1e-3) < alpha_l_max)
    roots, below, prev, x_prev, j = [], 0, math.nan, math.nan, 0
    while j <= last:
        x = step * j if 0 < j <= count else (alpha_l_max if j else step * 1e-3)
        fx = f(x)
        if fx == 0.0 or prev * fx < 0.0:
            root = refine(f, (x_prev, x), (prev, fx), 1 if fx == 0.0 else 0, 1, _XTOL)[0]
            if not exact or abs(root - turn * round(root / turn)) > _XTOL * (1.0 + root):
                roots.append(root)
        prev, x_prev = fx, x
        if x > stop:
            break
        while below < len(exact) and exact[below] <= x:
            below += 1
        if max_modes is not None and len(roots) + below >= max_modes:
            break
        j += 1
        if slope is not None:
            # on to the last grid sample that keeps the sign of fx
            t = _sign_kept(x, fx, slope, m0, m1)
            if below < len(exact) and exact[below] - x < t:
                t = exact[below] - x
            land = min(int((x + t) / step), count)
            while land >= j and step * land - x > t:
                land -= 1
            if land > j:
                j = land
    return [
        BucklingMode(load_sign=load_sign, alpha_l=x,
                     F_cr_normalized=sgn * x**2 / math.pi**2, xi=math.pi / x,
                     mode_index=i)
        for i, x in enumerate(sorted(exact + roots)[:max_modes], start=1)
    ]


def critical_force(mode, model):
    """Signed dimensional critical load of a mode, F = sgn * B (alpha_l/l)^2."""
    return _SIGNS[mode.load_sign] * model.B * (mode.alpha_l / model.l) ** 2


def effective_length_factor(F_cr, model):
    """xi = pi sqrt(B/|F_cr|)/l, so that |F_cr| = pi^2 B/(xi l)^2."""
    if F_cr == 0.0:
        raise ValueError("effective length factor undefined at zero load")
    return math.pi * math.sqrt(model.B / abs(F_cr)) / model.l


def mode_shape(mode, model, n_samples=201):
    """Sampled buckling shape (z, v, phi): lists of n_samples z in [0, l]
    and of v(z), and the end rotation phi.

    v(0) = v'(0) = 0 and the shear balance, whose first integral gives
    C3 = -phi, leave v = C1 (C(alpha z) - 1) + phi (S(alpha z)/alpha - z).
    The moment balance -B v''(l) = k (phi + v'(l)) (k = inf, clamped:
    phi + v'(l) = 0) and compatibility phi = chi_hat v(l)/l are two rows in
    (C1, phi), singular at a critical load; (C1, phi) is the null vector of
    the row of larger norm.  v is scaled so that its sample of largest
    magnitude is +1, and phi with it.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2, got %r" % (n_samples,))
    sgn = _load_sign(mode.load_sign)
    B, l, k, chi, x = model.B, model.l, model.k, model.chi_hat, mode.alpha_l
    alpha = x / l
    C, S = _cs(sgn)
    c, s = C(x), S(x)
    if _clamped(model):
        a, b = sgn * alpha * s, c
    else:
        a, b = -sgn * alpha * (B * alpha * c + k * s), -sgn * B * alpha * s - k * c
    p, q = chi / l * (1.0 - c), 1.0 + chi - chi * s / x
    if abs(a * q - b * p) > 1e-6 * math.hypot(a, b) * math.hypot(p, q):
        raise ValueError("alpha_l is not a critical load of this model")
    c1, phi = max((b, -a), (q, -p), key=lambda row: math.hypot(*row))
    z = linspace(0.0, l, n_samples)
    v = [c1 * (C(alpha * t) - 1.0) + phi * (S(alpha * t) / alpha - t) for t in z]
    peak = max(v, key=abs)
    return z, [w / peak for w in v], phi / peak
