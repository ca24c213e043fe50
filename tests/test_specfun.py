import math

import mpmath as mp
import numpy as np
import pytest

from stasep import specfun
from stasep.errors import DomainError, ParameterError
from stasep.specfun import (
    QuadratureRule,
    airy_ai,
    composite_rule,
    gaussian_tail_integral,
    legendre_rule,
)

mp.mp.dps = 30

# analytic values, frozen from 30-digit evaluation
AI_ZERO = 0.35502805388781723926  # 3^(-2/3)/Gamma(2/3)
FIRST_AIRY_ZERO = -2.33810741045976704


def test_airy_at_zero():
    assert airy_ai(0.0) == pytest.approx(AI_ZERO, rel=1e-12)
    assert airy_ai(0.0) == pytest.approx(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), rel=1e-14)


def test_airy_against_reference_grid():
    # mixed absolute/relative accuracy over the supported range
    xs = np.linspace(-40.0, 200.0, 961)
    vals = airy_ai(xs)
    for x, v in zip(xs, vals):
        ref = float(mp.airyai(mp.mpf(float(x))))
        scale = max(abs(ref), 1e-8)  # relative away from zeros
        assert abs(v - ref) <= 1e-10 * scale, (x, v, ref)


def test_airy_decaying_branch_against_mpmath():
    # x >= 7.6: the Chebyshev series in 1/zeta, relative to a 30-digit
    # reference wherever Ai(x) is a normal float (x < 104.2); the subnormal
    # values up to the underflow point keep an absolute accuracy of 1e-320
    xs = np.linspace(7.6, 107.5, 800)
    vals = airy_ai(xs)
    for x, v in zip(xs, vals):
        ref = mp.airyai(mp.mpf(float(x)))
        if ref > mp.mpf("2.3e-308"):
            assert abs(v - ref) <= 1e-12 * ref, (x, v, ref)
        else:
            assert abs(v - ref) <= 1e-320, (x, v, ref)
    # both sides of the 7.6 joint
    for x in (7.6 - 1e-12, 7.6, 7.6 + 1e-12):
        ref = mp.airyai(mp.mpf(x))
        assert abs(airy_ai(x) - ref) <= 1e-12 * ref, x
    # Ai(x) < 2^-1075 from x = 107.4655..., which float64 rounds to 0
    assert airy_ai(107.46) > 0.0
    assert np.all(airy_ai(np.array([107.47, 107.5, 150.0, 200.0])) == 0.0)


def test_airy_positive_decay():
    xs = np.linspace(0.0, 30.0, 301)
    vals = airy_ai(xs)
    assert np.all(np.diff(vals) < 0.0)
    assert abs(airy_ai(10.0)) < 1.2e-10 * 10  # envelope sanity
    assert airy_ai(10.0) == pytest.approx(float(mp.airyai(10)), rel=1e-11)


def test_airy_first_zero_bracketed():
    lo, hi = FIRST_AIRY_ZERO - 1e-7, FIRST_AIRY_ZERO + 1e-7
    assert airy_ai(lo) * airy_ai(hi) < 0.0


def test_airy_branch_joints_continuous():
    for j in (-7.6, -4.3, 3.95, 7.6):
        gap = abs(airy_ai(j - 1e-12) - airy_ai(j + 1e-12))
        assert gap < 1e-11


def test_airy_domain_guard():
    with pytest.raises(DomainError):
        airy_ai(-41.0)
    with pytest.raises(DomainError):
        airy_ai(np.array([0.0, 201.0]))
    # NaN is rejected too, not left as an unwritten output slot
    with pytest.raises(DomainError):
        airy_ai(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(DomainError):
        airy_ai(float("nan"))


def test_airy_ode_residual():
    # |Ai''(x) - x Ai(x)| <= 1e-8 with 5-point finite differences
    h = 1e-3
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    for x in range(-10, 11):
        pts = x + h * np.arange(-2.0, 3.0)
        ai2 = float(stencil @ airy_ai(pts))
        assert abs(ai2 - x * airy_ai(float(x))) < 1e-8


def test_gaussian_tail_values():
    v = 2.7
    assert gaussian_tail_integral(0.0, v) == pytest.approx(math.sqrt(4 * math.pi * v) / 2, rel=1e-13)
    assert gaussian_tail_integral(60.0, v) == pytest.approx(math.sqrt(4 * math.pi * v), rel=1e-13)
    # u=1, v=1: 2 sqrt(pi) N(1/sqrt 2), frozen from quadrature oracle
    assert gaussian_tail_integral(1.0, 1.0) == pytest.approx(2.6950158637311006, abs=1e-12)
    with pytest.raises(ParameterError):
        gaussian_tail_integral(0.0, 0.0)


def test_gaussian_tail_against_quadrature_oracle():
    from scipy.integrate import quad

    for u, v in ((1.0, 1.0), (-2.0, 0.5), (3.0, 4.0)):
        ref, _ = quad(lambda t: math.exp(-t * t / (4 * v)), -60.0 * math.sqrt(v), u)
        assert gaussian_tail_integral(u, v) == pytest.approx(ref, abs=1e-10)


def test_gaussian_tail_integral_matches_mpmath_erfc():
    # u / (2 sqrt(v)) over [-30, 30]; 2 sqrt(v) is a power of two, so the
    # erfc argument is z exactly.  Values below 1e-300 (z > 26) may lose
    # digits to underflow
    z = np.linspace(-30.0, 30.0, 601)
    for v in (0.25, 1.0, 4.0):
        got = gaussian_tail_integral(-2.0 * math.sqrt(v) * z, v)
        with mp.workdps(30):
            ref = [float(mp.sqrt(mp.pi * v) * mp.erfc(zk)) for zk in z]
        for zk, g, r in zip(z, got, ref):
            assert abs(g - r) <= 1e-14 * r + 1e-300, (zk, v, g, r)


def test_legendre_rule_properties():
    r = legendre_rule(12, -1.5, 4.0)
    assert isinstance(r, QuadratureRule)
    # weights sum to the interval length
    assert np.sum(r.weights) == pytest.approx(5.5, rel=1e-13)
    # exact on polynomials of degree 2n-1
    exact = (4.0**24 - (-1.5) ** 24) / 24.0
    assert r.integrate(lambda x: x**23) == pytest.approx(exact, rel=1e-12)
    with pytest.raises(ParameterError):
        legendre_rule(0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        legendre_rule(4, 1.0, 1.0)


def test_quadrature_convergence_order():
    # error drops by >= 1e3 when doubling nodes on an analytic integrand
    f = lambda x: np.exp(np.sin(3.0 * x))
    exact = composite_rule(0.0, 2.0, 16, 40).integrate(f)
    e1 = abs(legendre_rule(8, 0.0, 2.0).integrate(f) - exact)
    e2 = abs(legendre_rule(16, 0.0, 2.0).integrate(f) - exact)
    assert e1 / max(e2, 1e-16) >= 1e3


def _maclaurin_40_terms(x):
    """The Maclaurin branch as it summed before its early stop: always 40 terms."""
    x3 = x * x * x
    f = np.ones_like(x)
    g = x.copy()
    tf = np.ones_like(x)
    tg = x.copy()
    for k in range(40):
        tf = tf * x3 / ((3 * k + 2.0) * (3 * k + 3.0))
        tg = tg * x3 / ((3 * k + 3.0) * (3 * k + 4.0))
        f += tf
        g += tg
    return specfun._AI0 * f + specfun._DAI0 * g


def test_maclaurin_early_stop_is_bitwise():
    dense = np.linspace(-4.3, 3.95, 200_001)[1:-1]
    assert np.array_equal(specfun._maclaurin(dense), _maclaurin_40_terms(dense))
    # the branch joints, tiny |x|, and the zeros of the f and g series, where
    # a partial sum is smallest and absorbs its terms last
    zeros = np.array([-3.825339191160454, -1.9863527074304728, -2.6663526904069377])
    joints = np.concatenate([
        np.nextafter(-4.3, 0.0) + 1e-9 * np.arange(64),
        np.nextafter(3.95, 0.0) - 1e-9 * np.arange(64),
        [0.0, -0.0, 1e-300, -1e-300, 0.5, -1.0],
        (zeros[:, None] + 1e-15 * np.arange(-8, 9)).ravel(),
    ])
    assert np.array_equal(specfun._maclaurin(joints), _maclaurin_40_terms(joints))
    for x in joints:  # 1-element arrays start checking at their own |x|
        one = np.array([x])
        assert specfun._maclaurin(one)[0] == _maclaurin_40_terms(one)[0], x
    rng = np.random.default_rng(3)
    for scale in (0.05, 0.5, 1.0, 2.0, 4.2):
        x = rng.uniform(-scale, min(scale, 3.9), 257)
        assert np.array_equal(specfun._maclaurin(x), _maclaurin_40_terms(x)), scale
    assert specfun._maclaurin(np.empty(0)).size == 0


def test_airy_is_elementwise_bitwise():
    # limitlaw.NystromSystem evaluates many argument sets in one call and splits
    # the result; that is exact only if each value is independent of the rest
    # of the array, bit for bit
    joints = np.array([-7.6, -4.3, 3.95, 7.6, 107.47])
    edges = np.concatenate([np.nextafter(joints, -np.inf), joints, np.nextafter(joints, np.inf)])
    rng = np.random.default_rng(17)
    every_branch = np.concatenate([
        edges,
        rng.uniform(-40.0, -7.6, 50),   # oscillatory asymptotic
        rng.uniform(-7.6, -4.3, 50),    # negative Chebyshev fit
        rng.uniform(-4.3, 3.95, 50),    # Maclaurin
        rng.uniform(3.95, 7.6, 50),     # positive Chebyshev fit
        rng.uniform(7.6, 107.47, 50),   # Chebyshev in 1/zeta
        rng.uniform(107.47, 200.0, 10), # underflow to 0
        [0.0, -0.0, 1e-300],
    ])
    rng.shuffle(every_branch)
    pairs = [
        (every_branch[:137], every_branch[137:]),
        (every_branch[:1], every_branch[1:]),
        (every_branch, every_branch[::-1]),
        # Maclaurin arguments of different max |x|, so _first_check differs
        # between the halves and the whole
        (rng.uniform(-0.05, 0.05, 33), rng.uniform(-4.29, 3.9, 65)),
        (np.array([0.5, -1.0, 1e-9]), np.linspace(-4.25, 3.9, 40)),
    ]
    for a, b in pairs:
        whole = airy_ai(np.concatenate([a, b]))
        assert np.array_equal(whole, np.concatenate([airy_ai(a), airy_ai(b)]))
    # a scalar argument against its place in the whole array
    for x, v in zip(every_branch, airy_ai(every_branch)):
        assert airy_ai(float(x)) == v, x


def test_chebval_on_matches_numpy_chebval_bitwise():
    from numpy.polynomial.chebyshev import chebval

    tables = [
        (specfun._CHEB_NEG, specfun._CHEB_NEG_LO, specfun._CHEB_NEG_HI, specfun._XA, specfun._XB),
        (specfun._CHEB_POS_SCALED, specfun._CHEB_POS_LO, specfun._CHEB_POS_HI, specfun._XC, specfun._XD),
        # the 1/zeta series at 1/zeta(x) for x over its branch [7.6, 107.47)
        (specfun._CHEB_INV_ZETA, 0.0, specfun._INV_ZETA_HI, 1.0 / ((2.0 / 3.0) * 107.47**1.5), 1.0 / ((2.0 / 3.0) * 7.6**1.5)),
    ]
    for c, lo, hi, a, b in tables:
        x = np.linspace(a, b, 20_001)
        ref = chebval((2.0 * x - (lo + hi)) / (hi - lo), c)
        assert np.array_equal(specfun._chebval_on(c, lo, hi, x), ref)
        assert np.array_equal(specfun._chebval_on(c, lo, hi, x[:1]), ref[:1])


def test_composite_rule_matches_per_panel_rules():
    rng = np.random.default_rng(5)
    cases = [(0.0, 20.0, 14, 24), (-3.3, 0.0, 7, 16), (1.234, 57.89, 39, 24), (5.0, 5.5, 1, 8)]
    for _ in range(300):
        lo = float(rng.uniform(-10.0, 10.0))
        cases.append((lo, lo + float(rng.uniform(0.1, 50.0)), int(rng.integers(1, 40)), 8))
    for lo, hi, panels, nodes in cases:
        rule = composite_rule(lo, hi, panels, nodes)
        edges = np.linspace(lo, hi, panels + 1)
        parts = [legendre_rule(nodes, a, b) for a, b in zip(edges[:-1], edges[1:])]
        assert np.array_equal(rule.nodes, np.concatenate([p.nodes for p in parts]))
        assert np.array_equal(rule.weights, np.concatenate([p.weights for p in parts]))
        assert rule.interval == (lo, hi)
    for args in ((0.0, 1.0, 0, 8), (0.0, 1.0, 2, 0), (1.0, 1.0, 2, 8)):
        with pytest.raises(ParameterError):
            composite_rule(*args)
