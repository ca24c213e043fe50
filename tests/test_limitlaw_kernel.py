"""Kernel entries, the dual representation, and Definition-1.1 ingredients.

Frozen expected values and the Psi/Phi oracles come from independent
scipy.integrate.quad / scipy.special.airy computations."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airy

from stasep.errors import ParameterError
from stasep.limitlaw import (
    MultiPointSpec,
    QuadratureConfig,
    def11_terms,
    khat,
    khat_dual_check,
    NystromSystem,
    TAIL_EXPONENT,
    _airy_log_envelope,
    _tail_plan,
)
from stasep.specfun import airy_ai, composite_rule, gaussian_tail_integral

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
    assert r.n == 2 * QuadratureConfig().n and r.big_lambda == 16.0


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
    n = sysm.nodes[0].size
    for i in range(spec.m):
        for j in range(spec.m):
            for p, q in ((0, 0), (n // 7, 3 * n // 4), (n // 2, n // 3), (n - 1, n - 1)):
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
    # the dual check's gap is the whole-line identity
    #   int_R e^{-l(tau_j - tau_i)} Ai(x + l + tau_i^2) Ai(y + l + tau_j^2) dl
    #     = the Gaussian of the tau_i > tau_j rewrite
    for taus, x, y in (((0.0, 1.0), 0.0, 0.0), ((-1.0, 2.0), 0.5, -0.5)):
        lhs, rhs, gap = khat_dual_check(MultiPointSpec(taus, (0.0, 0.0)), 2, 1, x, y)
        assert gap <= 1e-8
    with pytest.raises(ParameterError):
        # tau_i = tau_j: the integral over the whole line diverges
        khat_dual_check(MultiPointSpec((0.0, 1.0), (0.0, 0.0)), 1, 1, 1.0, 1.0)


def _r_value(spec):
    return def11_terms(NystromSystem(spec, QuadratureConfig())).r_value


def test_r_value_cases():
    # tau1 = 0: R - s1 -> 0 superexponentially as s1 grows
    spec = MultiPointSpec((0.0,), (9.0,))
    assert _r_value(spec) - 9.0 == pytest.approx(0.0, abs=1e-9)
    # frozen oracle value at tau=(-0.5, .), s1=0
    spec = MultiPointSpec((-0.5, 0.5), (0.0, 0.0))
    assert _r_value(spec) == pytest.approx(0.4289402586484563, abs=1e-9)


def _ai(t):
    return airy(t)[0]


def _psi_oracle(tau, y):
    """Psi(y) = e^{2/3 tau^3 + tau y} - int_0^inf Ai(x + y + tau^2) e^{-tau x} dx."""
    tail = quad(lambda x: _ai(x + y + tau**2) * math.exp(-tau * x), 0.0, 40.0, epsabs=1e-14, limit=200)[0]
    return math.exp((2.0 / 3.0) * tau**3 + tau * y) - tail


def _phi_oracle(taus, s1, i, x):
    """Phi_i(x), i 0-based, with B(l) a nested quad."""
    t1, ti = taus[0], taus[i]

    def b(lam):
        return quad(lambda y: math.exp(-t1 * y) * _ai(y + t1**2 + lam), s1, 40.0, epsabs=1e-14, limit=200)[0]

    pair = quad(lambda lam: _ai(x + ti**2 + lam) * math.exp(-lam * (t1 - ti)) * b(lam), 0.0, 40.0,
                epsabs=1e-13, limit=200)[0]
    gauss_term = 0.0
    if i >= 1:
        delta = ti - t1
        gauss = quad(lambda y: math.exp(-y * y / (4.0 * delta)), -np.inf, s1 - x, epsabs=1e-14)[0]
        gauss_term = math.exp(-(2.0 / 3.0) * ti**3 - ti * x) / math.sqrt(4.0 * math.pi * delta) * gauss
    tail = quad(lambda y: _ai(x + ti**2 + y) * math.exp(ti * y), 0.0, 40.0, epsabs=1e-14, limit=200)[0]
    return math.exp(-(2.0 / 3.0) * t1**3) * pair + gauss_term - tail


def test_def11_tables_match_oracles():
    # the Psi and Phi node tables against quad at nodes on either side of 0,
    # Phi_2 with its Gaussian term; the shift column is Ai(x + tau^2) itself
    spec = MultiPointSpec((-0.5, 0.5), (-1.0, 0.5))
    sysm = NystromSystem(spec, QuadratureConfig())
    terms = def11_terms(sysm)
    for k, tau in enumerate(spec.taus):
        for p in (0, 7, 15):
            x = float(sysm.nodes[k][p])
            assert terms.psi[k][p] == pytest.approx(_psi_oracle(tau, x), abs=1e-9), (k, p)
            assert terms.phi[k][p] == pytest.approx(_phi_oracle(spec.taus, -1.0, k, x), abs=1e-8), (k, p)
        assert np.array_equal(terms.ai_shift[k], airy_ai(sysm.nodes[k] + tau**2))


def test_tail_integrals_match_2d_quadrature():
    # e^{a v} T(v) = int_0^inf e^{-a x} Ai(x + v + b) dx, computed the way the
    # Psi and Phi tables were built before: one composite rule in x and a
    # (points x rule) Airy table.  Points are unsorted and repeat; the rates
    # tau and -tau share one plan, as Psi and Phi do.
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.uniform(-4.5, 14.0, 37), [0.0, 0.0, 2.5, 2.5, 2.5]])
    rng.shuffle(pts)
    rule = composite_rule(0.0, 40.0, 27, 24)
    for tau in (-1.0, 0.0, 1.0, 2.0):
        args, finish = _tail_plan((tau, -tau), tau**2, pts, 42.0)
        for a, t in zip((tau, -tau), finish(airy_ai(args))):
            got = np.exp(a * pts) * t
            table = airy_ai(pts[:, None] + tau**2 + rule.nodes[None, :])
            ref = table @ (rule.weights * np.exp(-a * rule.nodes))
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0)), (tau, a)
            assert np.array_equal(got[pts == 2.5], np.full(3, got[pts == 2.5][0]))


def _single_rate_tail(a, b, v, target=TAIL_EXPONENT):
    """T_a on v from a plan with the one rate a, on an airy_ai call of its own."""
    args, finish = _tail_plan((a,), b, v, target)
    [tail] = finish(airy_ai(args))
    return tail


@pytest.mark.parametrize(
    "taus, esses",
    [
        ((-1.0,), (-6.0,)),
        ((-1.0, 1.0), (-6.0, -3.0)),
        ((-1.5, -1.0, -0.5), (-7.0, -6.5, -6.0)),
    ],
    ids=["m1", "m2-unequal-lengths", "m3"],
)
def test_shared_airy_call_and_plans_change_no_bit(taus, esses):
    # the system's one Airy call, the tail plan Psi_j and Phi_j share, and
    # B(0) read off R's rule give exactly (==) what separate single-rate
    # plans and a direct table give, each on an airy_ai call of its own.  In
    # every case Psi_1's certified tail is longer than Phi_1's (at tau_1 < 0
    # only Psi_1's rate e^{-tau_1 u} grows), so each rate's own tail is used
    spec = MultiPointSpec(taus, esses)
    sysm = NystromSystem(spec, QuadratureConfig())
    terms = def11_terms(sysm)
    if spec.m == 2:
        assert sysm.lengths[0] != sysm.lengths[1]
    np_taus = np.array(taus)
    for i in range(spec.m):
        table = airy_ai(sysm.nodes[i][:, None] + np_taus[i] ** 2 + sysm.lam[None, :])
        assert np.array_equal(sysm.ai_tables[i], table), i
    t1, s1 = taus[0], esses[0]
    c = math.exp(-(2.0 / 3.0) * t1**3)
    target = TAIL_EXPONENT + max(-t1 * s1, 0.0)
    assert terms.b_zero == _single_rate_tail(t1, t1**2, s1 + np.zeros(1), target)[0]
    b_table = np.exp(t1 * sysm.lam) * _single_rate_tail(t1, t1**2, s1 + sysm.lam, target)
    for i, (t, x) in enumerate(zip(taus, sysm.nodes)):
        psi = np.exp((2.0 / 3.0) * t**3 + t * x) - np.exp(t * x) * _single_rate_tail(t, t**2, x)
        term1 = c * (sysm.ai_tables[i] @ (sysm.lam_w * np.exp(-sysm.lam * (t1 - t)) * b_table))
        term2 = 0.0
        if i >= 1:
            gauss = gaussian_tail_integral(s1 - x, t - t1)
            term2 = np.exp(-(2.0 / 3.0) * t**3 - t * x) / math.sqrt(4.0 * math.pi * (t - t1)) * gauss
        phi = term1 + term2 - np.exp(-t * x) * _single_rate_tail(-t, t**2, x)
        assert np.array_equal(terms.psi[i], psi), i
        assert np.array_equal(terms.phi[i], phi), i


# Uniform-shift identities behind the closed-form derivative in limit_cdf:
# every threshold and every evaluation point (node) moves by the same delta.
SHIFT_SPEC = MultiPointSpec((-0.7, 0.2, 1.1), (-0.5, 0.3, 1.0))


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


def _shifted_terms(delta):
    """def11_terms with every threshold moved by delta (the nodes move too)."""
    return def11_terms(NystromSystem(_shifted(delta), QuadratureConfig(n=24)))


def test_psi_shift_identity():
    # Psi_j' = tau_j Psi_j + Ai(y + tau_j^2); Psi_3 grows like e^{1.1 y} to
    # about 1e9 on the far nodes, so the bound is relative beyond |.| = 1
    terms = _shifted_terms(0.0)
    fd = _shift_derivative(lambda d: _shifted_terms(d).psi)
    exact = np.array(SHIFT_SPEC.taus)[:, None] * terms.psi + terms.ai_shift
    assert np.all(np.abs(fd - exact) <= 1e-9 * np.maximum(np.abs(exact), 1.0))


def test_phi_and_r_shift_identities():
    # Phi_i' = -tau_i Phi_i + (1 - c B(0)) Ai(x + tau_i^2) and R' = 1 - c B(0),
    # c = e^{-2/3 tau_1^3}; Phi and R depend on s_1, which moves too
    terms = _shifted_terms(0.0)
    dr = 1.0 - math.exp(-(2.0 / 3.0) * SHIFT_SPEC.taus[0] ** 3) * terms.b_zero
    fd = _shift_derivative(lambda d: _shifted_terms(d).phi)
    exact = -np.array(SHIFT_SPEC.taus)[:, None] * terms.phi + dr * terms.ai_shift
    assert np.max(np.abs(fd - exact)) <= 1e-9
    assert abs(_shift_derivative(lambda d: _shifted_terms(d).r_value) - dr) <= 1e-9


def test_airy_log_envelope_bounds_ai():
    # every truncation certificate rests on |Ai(t)| <= exp(envelope(t))
    t = np.linspace(-40.0, 100.0, 140_001)
    env = np.array([_airy_log_envelope(float(v)) for v in t])
    assert np.all(np.abs(airy_ai(t)) <= np.exp(env))
    # it is tight where the maximum of |Ai| sits and where Ai decays
    assert airy_ai(-1.0188) / np.exp(_airy_log_envelope(-1.0188)) > 0.9998
    assert airy_ai(30.0) / np.exp(_airy_log_envelope(30.0)) > 0.999
