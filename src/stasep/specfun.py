"""Airy function, Gaussian tail integral, and quadrature primitives.

airy_ai is a self-contained float64 evaluator on [-40, 200]:

    x in (-4.3, 3.95)  Maclaurin series (entire-function Taylor at 0)
    x in [3.95, 7.6)   Chebyshev fit of the exponentially scaled function
    x in [7.6, 107.47) Chebyshev series in 1/zeta, zeta = (2/3) x^(3/2), of the
                       scaled function Ai(x) 2 sqrt(pi) x^(1/4) e^zeta
    x >= 107.47        exactly 0 (Ai(x) < 2^-1075 there, so float64 underflows)
    x in (-7.6, -4.3]  Chebyshev fit of Ai itself
    x <= -7.6          oscillatory asymptotic expansion

The plain series/asymptotic pair cannot reach 1e-10 in double precision near
|x| ~ 5-7 (Taylor cancellation on one side, divergent-tail floor on the
other), hence the two mid-range Chebyshev tables.  For x >= 7.6 the scaled
function is smooth in 1/zeta on [0, 1/zeta(7.6)] (it tends to 1 as zeta ->
inf), so a 12-term Chebyshev series replaces the decaying asymptotic sum.
All coefficients were fitted offline against a 40-digit reference (mpmath
airyai at Chebyshev points); fit residual < 2e-15, < 2e-16 for the 1/zeta
series, whose float64 error is set by the rounding of exp(-zeta).  Tests pin
the branch joints and the accuracy over the whole supported range.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, ParameterError

AIRY_MIN, AIRY_MAX = -40.0, 200.0

_AI0 = 0.35502805388781723926    # Ai(0)  = 3^(-2/3)/Gamma(2/3)
_DAI0 = -0.25881940379280679840  # Ai'(0) = -3^(-1/3)/Gamma(1/3)

# branch joints
_XA, _XB, _XC, _XD = -7.6, -4.3, 3.95, 7.6

_CHEB_NEG_LO, _CHEB_NEG_HI = -7.8, -4.2
_CHEB_POS_LO, _CHEB_POS_HI = 3.9, 7.8
_INV_ZETA_HI = 0.0725  # the 1/zeta series lives on [0, 0.0725]; 1/zeta(7.6) = 0.0716
_X_UNDERFLOW = 107.47  # Ai(107.4655...) = 2^-1075

_CHEB_NEG = np.array([
    0.12519204386446764, 0.015997939655579725, 0.1710928749358428,
    -0.07819563086687169, -0.23016996167708192, 0.05232771670212115,
    0.04888382174942337, -0.013488073133793245, -0.004084969874913341,
    0.0016429117226174615, 0.00011210855073862298, -0.0001093290102763668,
    5.851001230714189e-06, 4.151854742793491e-06, -6.408262390525717e-07,
    -7.726745674725003e-08, 2.6830457522259865e-08, -4.141661145458698e-10,
    -6.28505204051432e-10, 6.607554494700295e-11, 7.310227515970575e-12,
    -1.909630627097326e-12, 3.056545263085953e-14, 2.9436445188696136e-14,
    -2.644323459873827e-15, -1.5606432830235168e-16, 8.731294034140053e-18,
    7.626123664638303e-18, -5.642675022867263e-17, -2.5621286266658832e-17,
    -1.255139818426024e-16, -1.2407337688404463e-16, -4.423780559389715e-17,
    7.189315827066086e-17, 7.696145131812585e-17, 7.289855856347785e-18,
    3.208307813639336e-17,
])

_CHEB_POS_SCALED = np.array([
    0.9922946638149774, 0.003716183443188489, -0.0007456382668013077,
    0.0001390350408496828, -2.490541502522625e-05, 4.349518088555783e-06,
    -7.465225889117566e-07, 1.2654148940765586e-07, -2.1253615673316313e-08,
    3.5452431467381744e-09, -5.883159740054825e-10, 9.724912723764608e-11,
    -1.6028986229035366e-11, 2.63636956950817e-12, -4.329919592923593e-13,
    7.101039372125617e-14, -1.1688490057634262e-14, 1.890641784316544e-15,
    -3.332440156739631e-16, 3.2666607286566684e-17, -1.3925576600355214e-17,
    8.22763745198798e-18, -4.772528676253503e-18,
])

_CHEB_INV_ZETA = np.array([
    0.9975516942650827, -0.002425941301934889, 2.1985508946302295e-05,
    -3.696799292821198e-07, 8.953094709454646e-09, -2.7988926874842725e-10,
    1.0626227272695298e-11, -4.713548668250646e-13, 2.3786211957979692e-14,
    -1.3393435017357967e-15, 8.289316675499715e-17, -5.511199548250229e-18,
])


def _u_coeffs(n: int) -> np.ndarray:
    u = np.empty(n)
    u[0] = 1.0
    for k in range(1, n):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k)
    return u


_U = _u_coeffs(40)


def _maclaurin(x: np.ndarray) -> np.ndarray:
    """Ai on |x| < 4.3 from the two power series, summed until no later term
    can change a bit.  From k = 3 on each term is at most 4.3^3/132 < 0.61 of
    the one before, so once adding +-|t| leaves every partial sum unchanged,
    so does every later term, and the result equals the 40-term sum bit for
    bit.  The check starts where the largest |x| could first pass it.  The f
    and g series advance as the two rows of one array, with the operations
    of two separate sums."""
    x3 = x * x * x
    sums = np.stack([np.ones_like(x), x])
    terms = sums.copy()
    denom = np.empty((2, 1))
    first_check = _first_check(float(np.max(np.abs(x)))) if x.size else 2
    for k in range(40):
        denom[0, 0] = (3 * k + 2.0) * (3 * k + 3.0)
        denom[1, 0] = (3 * k + 3.0) * (3 * k + 4.0)
        terms *= x3
        terms /= denom
        sums += terms
        if k >= first_check and _absorbed(sums, terms):
            break
    return _AI0 * sums[0] + _DAI0 * sums[1]


def _first_check(xmax: float) -> int:
    """First k >= 2 at which the k-th term of the f series at |x| = xmax
    falls below 2^-53, the earliest an O(1) partial sum absorbs it."""
    c = xmax**3
    t = 1.0
    for k in range(40):
        t *= c / ((3 * k + 2.0) * (3 * k + 3.0))
        if k >= 2 and t < 2.0**-53:
            return k
    return 40


def _absorbed(total: np.ndarray, term: np.ndarray) -> bool:
    """True when total +- |term| rounds to total in every element, so that
    rounding, being monotone, absorbs any smaller term of either sign."""
    mag = np.abs(term)
    return bool(np.all(total + mag == total) and np.all(total - mag == total))


def _cheb_inv_zeta(x: np.ndarray) -> np.ndarray:
    zeta = (2.0 / 3.0) * x**1.5
    s = _chebval_on(_CHEB_INV_ZETA, 0.0, _INV_ZETA_HI, 1.0 / zeta)
    return s * np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * x**0.25)


def _asym_neg(x: np.ndarray) -> np.ndarray:
    z = -x
    zeta = (2.0 / 3.0) * z**1.5
    se = np.zeros_like(z)
    so = np.zeros_like(z)
    live = np.ones_like(z, dtype=bool)
    for k in range(10):
        te = (-1.0) ** k * _U[2 * k] / zeta ** (2 * k)
        to = (-1.0) ** k * _U[2 * k + 1] / zeta ** (2 * k + 1)
        se = np.where(live, se + te, se)
        so = np.where(live, so + to, so)
        live &= _U[2 * k + 2] / zeta ** (2 * k + 2) < np.abs(te)
    ang = zeta - 0.25 * np.pi
    return (np.cos(ang) * se + np.sin(ang) * so) / (np.sqrt(np.pi) * z**0.25)


def _chebval_on(c: np.ndarray, lo: float, hi: float, x: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(t) at t = (2x - lo - hi)/(hi - lo): numpy's chebval
    Clenshaw recurrence, the same operations in the same order, run in place
    on three buffers."""
    t = (2.0 * x - (lo + hi)) / (hi - lo)
    t2 = 2.0 * t
    c0 = np.full_like(t, c[-2])
    c1 = np.full_like(t, c[-1])
    tmp = np.empty_like(t)
    for i in range(3, len(c) + 1):
        # (c0, c1) <- (c[-i] - c1, c0 + c1 t2)
        np.multiply(c1, t2, out=tmp)
        tmp += c0
        np.subtract(c[-i], c1, out=c0)
        c1, tmp = tmp, c1
    np.multiply(c1, t, out=tmp)
    tmp += c0
    return tmp


def airy_ai(x):
    """Ai(x) for x in [-40, 200], relative accuracy ~1e-11 or better away
    from zeros (absolute ~1e-13 near them)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    # NaN fails both comparisons, so it is rejected with the out-of-range values
    if arr.size and not (np.min(arr) >= AIRY_MIN and np.max(arr) <= AIRY_MAX):
        raise DomainError(
            f"airy_ai argument NaN or outside supported range [{AIRY_MIN}, {AIRY_MAX}]"
        )
    out = np.empty_like(arr)
    m = arr < _XA
    if m.any():
        out[m] = _asym_neg(arr[m])
    m = (arr >= _XA) & (arr <= _XB)
    if m.any():
        out[m] = _chebval_on(_CHEB_NEG, _CHEB_NEG_LO, _CHEB_NEG_HI, arr[m])
    m = (arr > _XB) & (arr < _XC)
    if m.any():
        out[m] = _maclaurin(arr[m])
    m = (arr >= _XC) & (arr < _XD)
    if m.any():
        xs = arr[m]
        zeta = (2.0 / 3.0) * xs**1.5
        s = _chebval_on(_CHEB_POS_SCALED, _CHEB_POS_LO, _CHEB_POS_HI, xs)
        out[m] = s * np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * xs**0.25)
    m = (arr >= _XD) & (arr < _X_UNDERFLOW)
    if m.any():
        out[m] = _cheb_inv_zeta(arr[m])
    out[arr >= _X_UNDERFLOW] = 0.0
    return float(out[0]) if scalar else out


def gaussian_tail_integral(u: float, v: float):
    """integral_{-inf}^{u} exp(-y^2/(4v)) dy = sqrt(pi v) erfc(-u/(2 sqrt(v)));
    u may be an array.  erfc is math.erfc elementwise: the limit law asks
    for at most one value per quadrature node."""
    if not v > 0:
        raise ParameterError(f"variance parameter v must be positive, got {v}")
    z = -np.asarray(u, dtype=float) / (2.0 * np.sqrt(v))
    erfc = np.array([math.erfc(x) for x in z.ravel().tolist()]).reshape(z.shape)
    out = np.sqrt(np.pi * v) * erfc
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    interval: Tuple[float, float]

    def integrate(self, f: Callable) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def legendre_rule(n: int, lo: float, hi: float) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes on [lo, hi]."""
    if n < 1:
        raise ParameterError("need at least one node")
    if not hi > lo:
        raise ParameterError(f"empty interval [{lo}, {hi}]")
    t, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return QuadratureRule(nodes=half * t + mid, weights=half * w, interval=(lo, hi))


def composite_rule(lo: float, hi: float, n_panels: int, nodes_per_panel: int) -> QuadratureRule:
    """Composite Gauss-Legendre: n_panels equal panels on [lo, hi], every
    panel mapped in one step by the same operations as legendre_rule."""
    if n_panels < 1 or nodes_per_panel < 1:
        raise ParameterError("need at least one panel and one node per panel")
    if not hi > lo:
        raise ParameterError(f"empty interval [{lo}, {hi}]")
    edges = np.linspace(lo, hi, n_panels + 1)
    t, w = _leggauss(nodes_per_panel)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return QuadratureRule(
        nodes=(half * t + mid).ravel(), weights=(half * w).ravel(), interval=(lo, hi)
    )
