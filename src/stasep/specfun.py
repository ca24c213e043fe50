"""Airy function, Gaussian tail integral, and quadrature primitives.

airy_ai is a self-contained float64 evaluator on [-40, 200], in three
pieces joined at -4.3 and 3.95:

    x in [-40, -4.3]   Ai(-z) = M(z) cos theta(z) (DLMF 9.8.3), with
                       m = sqrt(pi) z^(1/4) M and p = zeta (theta - pi/4 + zeta)
                       each a Chebyshev series in w = 1/zeta, zeta = (2/3) z^(3/2)
    x in (-4.3, 3.95)  Maclaurin series (entire-function Taylor at 0)
    x in [3.95, 107.47) Chebyshev series in w = 1/zeta, zeta = (2/3) x^(3/2),
                       of the scaled function Ai(x) 2 sqrt(pi) x^(1/4) e^zeta
    x >= 107.47        exactly 0 (Ai(x) < 2^-1075 there, so float64 underflows)

Each function the outer series hold is smooth in w and tends to a constant
as w -> 0 (1, 1 and 5/72), so one series covers each side out to the end
of the range: 16, 16 and 18 coefficients, interpolating a 40-digit mpmath
reference at 48 Chebyshev points and cut at the first below 1e-17.
tests/airy_fit.py refits them (`python tests/airy_fit.py` prints the
tables) and a test checks that the refit equals these floats bit for bit.
The float64 error comes from rounding zeta: through exp(-zeta) on the
positive side, through the phase on the negative side.
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

# Maclaurin on (_X_NEG, _X_POS); the outer series live on [0, hi] in w = 1/zeta,
# with 1/zeta(3.95) = 0.1911 and 1/zeta(4.3) = 0.1682
_X_NEG, _X_POS = -4.3, 3.95
_POS_W_HI, _NEG_W_HI = 0.192, 0.169
_X_UNDERFLOW = 107.47  # Ai(107.4655...) = 2^-1075

_CHEB_POS = np.array([
    0.9937787872775237, -0.006082700173723332, 0.0001330003522471352,
    -5.206242677556396e-06, 2.84639522946973e-07, -1.9555118955917693e-08,
    1.5932516868923173e-09, -1.484788429127406e-10, 1.5443525753346678e-11,
    -1.7614708807844939e-12, 2.174283571187699e-13, -2.874947821686669e-14,
    4.039172660222042e-15, -5.9902635026372e-16, 9.326804927990367e-17,
    -1.517677401265809e-17,
])

_CHEB_NEG_M = np.array([
    0.9996391948702169, -0.0004782414568852588, -0.00011538493002953576,
    2.2787157803917387e-06, 2.077571365235322e-07, -1.9875724996479645e-08,
    -1.0217541721607841e-10, 1.9429048318168129e-10, -1.877978670325043e-11,
    -6.188230345371814e-13, 4.2200656328755866e-13, -5.3667479726887935e-14,
    -6.442696671568638e-16, 1.5573935664814863e-15, -3.040891209655233e-16,
    1.708332203182493e-17,
])

_CHEB_NEG_P = np.array([
    0.069085270939881, -0.00047355114861024705, -0.00011056388816039131,
    4.183399096389896e-06, 3.2003551415113024e-07, -4.931687821208257e-08,
    8.968111863832111e-10, 5.297917450022924e-10, -7.718089786732963e-11,
    8.43577276996484e-13, 1.5315259832828742e-12, -2.8687064921114156e-13,
    1.2431803662110347e-14, 6.206290902269693e-15, -1.800213914756045e-15,
    2.0177209100867645e-16, 1.9976484700442814e-17, -1.3849218190456828e-17,
])


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


def _positive(x: np.ndarray) -> np.ndarray:
    """Ai on [3.95, 107.47): the scaled function's series in 1/zeta times
    e^-zeta / (2 sqrt(pi) x^(1/4))."""
    zeta = (2.0 / 3.0) * x**1.5
    s = _chebval_on(_CHEB_POS, 0.0, _POS_W_HI, 1.0 / zeta)
    return s * np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * x**0.25)


def _negative(x: np.ndarray) -> np.ndarray:
    """Ai(-z) on z in [4.3, 40]: m cos(pi/4 - zeta + p / zeta) / (sqrt(pi)
    z^(1/4)), with m and p from their series in w = 1/zeta."""
    z = -x
    zeta = (2.0 / 3.0) * z**1.5
    w = 1.0 / zeta
    m = _chebval_on(_CHEB_NEG_M, 0.0, _NEG_W_HI, w)
    p = _chebval_on(_CHEB_NEG_P, 0.0, _NEG_W_HI, w)
    return m * np.cos(0.25 * np.pi - zeta + p * w) / (np.sqrt(np.pi) * z**0.25)


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
    """Ai(x) for x in [-40, 200]: absolute error below 2e-14 for x < 3.95,
    relative error below 2e-13 from there on while Ai is a normal float."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    # NaN fails both comparisons, so it is rejected with the out-of-range values
    if arr.size and not (np.min(arr) >= AIRY_MIN and np.max(arr) <= AIRY_MAX):
        raise DomainError(
            f"airy_ai argument NaN or outside supported range [{AIRY_MIN}, {AIRY_MAX}]"
        )
    out = np.empty_like(arr)
    m = arr <= _X_NEG
    if m.any():
        out[m] = _negative(arr[m])
    m = (arr > _X_NEG) & (arr < _X_POS)
    if m.any():
        out[m] = _maclaurin(arr[m])
    m = (arr >= _X_POS) & (arr < _X_UNDERFLOW)
    if m.any():
        out[m] = _positive(arr[m])
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
