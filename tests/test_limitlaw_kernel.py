"""Kernel entries, the dual representation, and Definition-1.1 ingredients.

Frozen expected values were computed with independent scipy.integrate.quad /
scipy.special.airy oracles (see the repr'd constants)."""

import math

import numpy as np
import pytest

from stasep.errors import ParameterError
from stasep.limitlaw import (
    MultiPointSpec,
    QuadratureConfig,
    airy_convolution_identity,
    def11_terms,
    khat,
    khat_dual_check,
    phi_function,
    psi_function,
    NystromSystem,
    _airy_log_envelope,
    _b_table,
    _r_value,
    _tail_integrals,
)
from stasep.specfun import airy_ai, composite_rule

DAI_ZERO_SQ = 0.06698748377966399


def test_spec_validation():
    with pytest.raises(ParameterError):
        MultiPointSpec((0.0, 0.0), (1.0, 1.0))  # equal taus rejected
    with pytest.raises(ParameterError):
        MultiPointSpec((1.0, 0.0), (0.0, 0.0))  # must increase
    with pytest.raises(ParameterError):
        MultiPointSpec(tuple(np.arange(9.0)), tuple(np.zeros(9)))  # m cap
    with pytest.raises(ParameterError):
        MultiPointSpec((np.inf,), (0.0,))
    s = MultiPointSpec((0.0, 1.0), (1.0, 2.0))
    assert s.m == 2


def test_quadrature_config_validation():
    with pytest.raises(ParameterError):
        QuadratureConfig(n=8)
    with pytest.raises(ParameterError):
        QuadratureConfig(big_lambda=4.0)
    r = QuadratureConfig().refined()
    assert r.n == 128 and r.big_lambda == 16.0


def test_khat_stationary_diagonal():
    spec = MultiPointSpec((0.0,), (0.0,))
    assert khat(spec, 1, 1, 0.0, 0.0) == pytest.approx(DAI_ZERO_SQ, abs=1e-11)


def test_khat_shift_covariance_entrywise():
    # khat_tau(x, y) = khat_0(x + tau^2, y + tau^2) for m=1
    tau = 1.3
    spec_t = MultiPointSpec((tau,), (0.0,))
    spec_0 = MultiPointSpec((0.0,), (0.0,))
    for x, y in ((0.0, 0.0), (-1.0, 2.0), (1.5, 0.5)):
        a = khat(spec_t, 1, 1, x, y)
        b = khat(spec_0, 1, 1, x + tau**2, y + tau**2)
        assert a == pytest.approx(b, abs=1e-12)


def test_khat_index_validation():
    spec = MultiPointSpec((0.0, 1.0), (0.0, 0.0))
    with pytest.raises(ParameterError):
        khat(spec, 0, 1, 0.0, 0.0)
    with pytest.raises(ParameterError):
        khat_dual_check(spec, 1, 2, 0.0, 0.0)  # needs tau_i > tau_j


@pytest.mark.parametrize("taus", [(0.0,), (-1.0, 1.0), (-1.0, 0.5, 2.0)])
def test_nystrom_matrix_matches_khat(taus):
    # the bulk assembly and the scalar route evaluate one kernel: an entry
    # of the balanced matrix over sqrt(w_p w_q) is khat at the two nodes
    spec = MultiPointSpec(taus, tuple(np.linspace(-2.0, 1.0, len(taus)).tolist()))
    sysm = NystromSystem(spec, QuadratureConfig())
    n = sysm.quad.n
    for i in range(spec.m):
        for j in range(spec.m):
            for p, q in ((0, 0), (9, 47), (31, 20), (63, 63)):
                entry = sysm.matrix[i * n + p, j * n + q] / math.sqrt(
                    sysm.weights[i][p] * sysm.weights[j][q]
                )
                ref = khat(spec, i + 1, j + 1, sysm.nodes[i][p], sysm.nodes[j][q])
                assert abs(entry - ref) <= 1e-12, (i, j, p, q)


def test_dual_representation_acceptance_grid():
    # |direct negative-axis branch - (positive branch - Gaussian)| <= 1e-8
    worst = 0.0
    for tj, ti in ((0.0, 1.0), (-1.0, 2.0), (-0.5, 0.5)):
        spec = MultiPointSpec((tj, ti), (0.0, 0.0))
        for x in (-1.0, 0.0, 1.0):
            for y in (-1.0, 0.0, 1.0):
                lhs, rhs, gap = khat_dual_check(spec, 2, 1, x, y)
                worst = max(worst, gap)
    assert worst <= 1e-8


def test_airy_convolution_identity():
    lhs, rhs, gap = airy_convolution_identity(1.0, 0.0, 0.0, 0.0)
    assert gap <= 1e-8
    lhs, rhs, gap = airy_convolution_identity(2.0, -1.0, 0.5, -0.5)
    assert gap <= 1e-8
    with pytest.raises(ParameterError):
        airy_convolution_identity(0.0, 0.0, 1.0, 1.0)  # b1 = b2 divergent


def test_r_value_cases():
    # tau1 = 0: R - s1 -> 0 superexponentially as s1 grows
    spec = MultiPointSpec((0.0,), (9.0,))
    assert _r_value(spec) - 9.0 == pytest.approx(0.0, abs=1e-9)
    # frozen oracle value at tau=(-0.5, .), s1=0
    spec = MultiPointSpec((-0.5, 0.5), (0.0, 0.0))
    assert _r_value(spec) == pytest.approx(0.4289402586484563, abs=1e-9)


def test_def11_tables_match_oracles():
    # frozen scipy.quad oracle values at taus=(-0.5, 0.5), esses=(0, 0)
    spec = MultiPointSpec((-0.5, 0.5), (0.0, 0.0))
    psi_ref = {
        (1, -1.0): 0.3509912035793332,
        (1, 0.0): 0.5310920932901826,
        (1, 2.0): 0.3200772177024401,
        (2, -1.0): 0.21469760481011857,
        (2, 0.0): 0.9038536710306545,
        (2, 2.0): 2.943842377012519,
    }
    phi_ref = {
        (1, -1.0): -0.3301555577978004,
        (1, 0.0): -0.13132579934970273,
        (1, 2.0): -0.007362682964277241,
        (2, -1.0): 0.1864997008109346,
        (2, 0.0): 0.15328543224132635,
        (2, 2.0): 0.01301413832458288,
    }
    for (j, y), ref in psi_ref.items():
        assert psi_function(spec, j, y)[0] == pytest.approx(ref, abs=1e-9)
    for (i, x), ref in phi_ref.items():
        assert phi_function(spec, i, x)[0] == pytest.approx(ref, abs=1e-8)


def test_def11_node_tables_consistent_with_functions():
    # def11_terms evaluates every ingredient in one airy_ai call; each oracle
    # surface makes its own call, and the values agree bit for bit
    for spec, n in (
        (MultiPointSpec((-0.5, 0.5), (-1.0, 0.5)), 24),
        (MultiPointSpec((0.0,), (0.0,)), 64),
        (MultiPointSpec((-2.0,), (-3.0,)), 64),
        (MultiPointSpec((-0.7, 0.2, 1.1), (-0.5, 0.3, 1.0)), 64),
    ):
        sysm = NystromSystem(spec, QuadratureConfig(n=n))
        terms = def11_terms(sysm)
        for k in range(spec.m):
            assert np.array_equal(terms.psi[k], psi_function(spec, k + 1, sysm.nodes[k]))
            assert np.array_equal(terms.phi[k], phi_function(spec, k + 1, sysm.nodes[k]))
            assert np.array_equal(terms.ai_shift[k], airy_ai(sysm.nodes[k] + spec.taus[k] ** 2))
        assert terms.b_zero == _b_table(spec, np.zeros(1))[0]
        assert terms.r_value == _r_value(spec)


def test_tail_integrals_match_2d_quadrature():
    # e^{a v} T(v) = int_0^inf e^{-a x} Ai(x + v + b) dx, computed the way the
    # Psi and Phi tables were built before: one composite rule in x and a
    # (points x rule) Airy table.  Points are unsorted and repeat.
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.uniform(-4.5, 14.0, 37), [0.0, 0.0, 2.5, 2.5, 2.5]])
    rng.shuffle(pts)
    rule = composite_rule(0.0, 40.0, 27, 24)
    for tau in (-1.0, 0.0, 1.0, 2.0):
        for a in (tau, -tau):
            got = np.exp(a * pts) * _tail_integrals(a, tau**2, pts, 42.0)
            table = airy_ai(pts[:, None] + tau**2 + rule.nodes[None, :])
            ref = table @ (rule.weights * np.exp(-a * rule.nodes))
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0)), (tau, a)
            assert np.array_equal(got[pts == 2.5], np.full(3, got[pts == 2.5][0]))


# Uniform-shift identities behind the closed-form derivative in limit_cdf:
# every threshold and every evaluation point moves by the same delta.
SHIFT_SPEC = MultiPointSpec((-0.7, 0.2, 1.1), (-0.5, 0.3, 1.0))
SHIFT_POINTS = np.array([-2.0, -0.4, 0.0, 0.9, 2.5])


def _shift_derivative(fn, h=2e-3):
    """Richardson-extrapolated central difference of fn(delta) at 0."""
    d_h = (fn(h) - fn(-h)) / (2.0 * h)
    d_h2 = (fn(0.5 * h) - fn(-0.5 * h)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _shifted(delta):
    return MultiPointSpec(SHIFT_SPEC.taus, tuple(np.array(SHIFT_SPEC.esses) + delta))


def test_kernel_shift_identity():
    # (d_x + d_y) Khat_ij = -Ai(x + tau_i^2) Ai(y + tau_j^2) + (tau_j - tau_i) Khat_ij,
    # Gaussian branch (tau_i > tau_j) included
    taus = SHIFT_SPEC.taus
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for x, y in ((-1.0, 0.5), (0.3, 0.3), (1.5, -0.8)):
                fd = _shift_derivative(lambda d: khat(_shifted(d), i, j, x + d, y + d))
                exact = -airy_ai(x + taus[i - 1] ** 2) * airy_ai(y + taus[j - 1] ** 2) + (
                    taus[j - 1] - taus[i - 1]
                ) * khat(SHIFT_SPEC, i, j, x, y)
                assert abs(fd - exact) <= 1e-9, (i, j, x, y, fd, exact)


def test_psi_shift_identity():
    # Psi_j' = tau_j Psi_j + Ai(y + tau_j^2)
    for j, tau in enumerate(SHIFT_SPEC.taus, start=1):
        fd = _shift_derivative(lambda d: psi_function(_shifted(d), j, SHIFT_POINTS + d))
        exact = tau * psi_function(SHIFT_SPEC, j, SHIFT_POINTS) + airy_ai(SHIFT_POINTS + tau**2)
        assert np.max(np.abs(fd - exact)) <= 1e-9, j


def test_phi_and_r_shift_identities():
    # Phi_i' = -tau_i Phi_i + (1 - c B(0)) Ai(x + tau_i^2) and R' = 1 - c B(0),
    # c = e^{-2/3 tau_1^3}; Phi and R depend on s_1, which moves too
    t1 = SHIFT_SPEC.taus[0]
    b_zero = float(_b_table(SHIFT_SPEC, np.zeros(1))[0])
    dr = 1.0 - math.exp(-(2.0 / 3.0) * t1**3) * b_zero
    for i, tau in enumerate(SHIFT_SPEC.taus, start=1):
        fd = _shift_derivative(lambda d: phi_function(_shifted(d), i, SHIFT_POINTS + d))
        exact = -tau * phi_function(SHIFT_SPEC, i, SHIFT_POINTS) + dr * airy_ai(SHIFT_POINTS + tau**2)
        assert np.max(np.abs(fd - exact)) <= 1e-9, i
    assert abs(_shift_derivative(lambda d: _r_value(_shifted(d))) - dr) <= 1e-9
    # def11_terms carries the same B(0)
    quad = QuadratureConfig(n=24)
    terms = def11_terms(NystromSystem(SHIFT_SPEC, quad))
    assert terms.b_zero == b_zero


def test_airy_log_envelope_bounds_ai():
    # every truncation certificate rests on |Ai(t)| <= exp(envelope(t))
    t = np.linspace(-40.0, 100.0, 140_001)
    env = np.array([_airy_log_envelope(float(v)) for v in t])
    assert np.all(np.abs(airy_ai(t)) <= np.exp(env))
    # it is tight where the maximum of |Ai| sits and where Ai decays
    assert airy_ai(-1.0188) / np.exp(_airy_log_envelope(-1.0188)) > 0.9998
    assert airy_ai(30.0) / np.exp(_airy_log_envelope(30.0)) > 0.999
