"""Linearized buckling of a rod clamped at one end and sliding on a circle.

The straight prestressed state has transverse perturbation v(z) obeying
B v'''' - F v'' = 0 with alpha^2 = |F|/B.  The sliding end follows a circular
profile of signed dimensionless curvature chi_hat = +-l/R_c and carries a
rotational spring k; chi_hat = 0 is the straight-constraint limit and k -> inf
the clamped limit.  Critical loads are roots in x = alpha*l of a transcendental
characteristic function, one real form for both load signs with
(C, S) = (cosh, sinh) in tension and (cos, sin) in compression.
"""

import math
from dataclasses import dataclass

import numpy as np

from .branch import refine

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


@dataclass(frozen=True)
class RodModel:
    """Rod of bending stiffness B and length l on a curved sliding support."""

    B: float
    l: float
    k: float = 0.0
    chi_hat: float = 0.0
    clamped: bool = False

    def __post_init__(self):
        if not self.B > 0.0:
            raise ValueError("bending stiffness B must be positive")
        if not self.l > 0.0:
            raise ValueError("length l must be positive")
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


def _load_sign(load_sign):
    try:
        return _SIGNS[load_sign]
    except KeyError:
        raise ValueError("load_sign must be 'tension' or 'compression'") from None


def _cs(sgn, lib=math):
    """(C, S) of a load sign: (cosh, sinh) in tension, (cos, sin) in compression."""
    return (lib.cosh, lib.sinh) if sgn > 0.0 else (lib.cos, lib.sin)


def _characteristic_in_x(model, sgn, factored=False):
    """The characteristic of a load sign as a function of x = alpha_l
    alone; for a clamped end the bracket, or with factored its factor g.
    The model constants, the sign and (C, S) are bound once."""
    chi, a = model.chi_hat, 1.0 + model.chi_hat
    C, S = _cs(sgn)
    if model.clamped:
        if factored:
            return lambda x: a * x * C(0.5 * x) - chi * S(0.5 * x)
        return lambda x: sgn * a * x * S(x) + chi * (1.0 - C(x))
    # kl / (B x) as written; (kl / B) / x rounds differently
    kl, B = model.k * model.l, model.B

    def f(x):
        c, s = C(x), S(x)
        return sgn * (a * x * c - chi * s) + kl / (B * x) * (sgn * a * x * s + chi * (1.0 - c))

    return f


def characteristic(alpha_l, load_sign, model):
    """Characteristic function whose positive roots are the critical loads.

    With sigma = +-1 the load sign, A = 1 + chi_hat and x = alpha_l,
    first = sigma (A x C(x) - chi_hat S(x)) and
    bracket = sigma A x S(x) + chi_hat (1 - C(x)); the function is bracket
    for a clamped end, else first + (k l/(B x)) bracket.  This is the
    printed condition (compression through cosh(ix) = cos x,
    sinh(ix) = i sin x) times |chi_hat|, which keeps every root and sign and
    stays regular at the straight-constraint limit chi_hat = 0.
    """
    sgn = _load_sign(load_sign)
    # pure-Python arithmetic on numpy scalars is several times slower
    x = float(alpha_l)
    if not x > 0.0:
        raise ValueError("alpha_l must be positive")
    return _characteristic_in_x(model, sgn)(x)


def find_critical_loads(model, load_sign, alpha_l_max=6.0 * math.pi,
                        max_modes=None, step=_DEFAULT_STEP):
    """All characteristic roots in (0, alpha_l_max], sorted, as BucklingMode,
    or the first max_modes of them.

    Sign changes on the grid step * (1e-3, 1, 2, ...), refined by brentq
    as the scan finds them; with max_modes the scan stops once it holds
    that many roots.  alpha_l_max is capped at 700, where cosh in the
    tension characteristic is still a factor 3e4 below overflow, and the
    grid at 1e6 samples: step must be positive and at least
    alpha_l_max / 1e6.
    Near zero the function is a power of x times a constant, e.g.
    -x (1 + (k l/B)(1 + chi_hat/2)) in compression, so the first sample
    keeps a root below step.  The clamped bracket factors exactly as
    2 sigma S(x/2) g(x), g(x) = A x C(x/2) - chi_hat S(x/2): the roots
    x = 2 pi n of S(x/2) in compression are emitted analytically, and only g
    is scanned.  Its roots solve tan(x/2) = A x/chi_hat, one per branch of
    tan, so they never pair up within a step as the bracket's do next to
    2 pi n for chi_hat just above -1.  A root of g within the refinement
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
    f = _characteristic_in_x(model, sgn, factored=True)
    count = int(alpha_l_max / step + 1e-9)
    xs = (step * np.concatenate(([1e-3], np.arange(1, count + 1)))).tolist()
    turn = 2.0 * math.pi
    exact = []
    if model.clamped and sgn < 0.0:
        exact = [turn * n for n in range(1, int(alpha_l_max * (1.0 + 1e-15) / turn) + 1)]
    roots, below, prev = [], 0, math.nan  # below: the exact roots up to the sample
    for j, x in enumerate(xs):
        fx = f(x)
        if fx == 0.0 or prev * fx < 0.0:
            root = refine(f, xs, j if fx == 0.0 else j - 1, j, _XTOL)
            if not exact or abs(root - turn * round(root / turn)) > _XTOL * (1.0 + root):
                roots.append(root)
        prev = fx
        if max_modes is not None:
            while below < len(exact) and exact[below] <= x:
                below += 1
            if len(roots) + below >= max_modes:
                break
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


def _bc_system(x, sgn, model):
    # homogeneous system in (C1..C4, phi) of v = C1 C + C2 S + C3 z + C4:
    # v(0) = v'(0) = 0, shear balance sgn F/alpha^2 v'''(l) = phi + v'(l) (via
    # the first integral of the ODE it collapses to C3 = -phi, i.e. transverse
    # end reaction = -F phi), moment balance -B v''(l) = k (phi + v'(l))
    # (clamped: phi + v'(l) = 0), compatibility phi = chi v(l)/l
    B, l, k, chi = model.B, model.l, model.k, model.chi_hat
    alpha = x / l
    C, S = _cs(sgn)
    c, s = C(x), S(x)
    d1, d2 = sgn * alpha * s, alpha * c
    w1, w2 = sgn * B * alpha**2 * c, sgn * B * alpha**2 * s
    rows = [
        [1.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, alpha, 1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, -1.0],
    ]
    if model.clamped:
        rows.append([d1, d2, 1.0, 0.0, 1.0])
    else:
        rows.append([-w1 - k * d1, -w2 - k * d2, -k, 0.0, -k])
    rows.append([-(chi / l) * c, -(chi / l) * s, -chi, -chi / l, 1.0])
    return np.array(rows)


def mode_shape(mode, model, n_samples=201):
    """Sampled buckling shape (z, v, phi), null vector of the BC system.

    Normalized so that the sample of largest magnitude equals +1; phi is the
    end rotation carried by the same null vector, scaled identically.
    """
    sgn = _load_sign(mode.load_sign)
    M = _bc_system(mode.alpha_l, sgn, model)
    _, sv, vt = np.linalg.svd(M)
    if sv[-1] > 1e-6 * sv[0]:
        raise ValueError("alpha_l is not a critical load of this model")
    coeffs = vt[-1]
    alpha = mode.alpha_l / model.l
    z = np.linspace(0.0, model.l, n_samples)
    C, S = _cs(sgn, np)
    basis = np.stack([C(alpha * z), S(alpha * z), z, np.ones_like(z)])
    v = coeffs[:4] @ basis
    peak = v[np.argmax(np.abs(v))]
    return z, v / peak, coeffs[4] / peak
