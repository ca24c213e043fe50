"""Fast variants of the validation harnesses (the full-size runs live in
test_acceptance)."""

import numpy as np
import pytest

from stasep.errors import ParameterError, RefusalError
from stasep.experiments import (
    _batched_g,
    EmpiricalCDF,
    empirical_cdf_joint,
    burke_validate,
    gaussian_coefficients,
    gaussian_critical_control,
    gaussian_offchar_validate,
    limit_cdf_table,
    mc_vs_limit,
    offchar_gammas,
    point_variance,
    shift_argument_validate,
    shift_coupling_validate,
    slow_decorrelation_validate,
    tandem_queue_sim,
)
from stasep.rng import SeedSpec
from stasep.scaling import ScalingFrame, characteristic_ratio
from stasep.weights import ModelParams


def test_empirical_cdf_basics():
    with pytest.raises(RefusalError):
        EmpiricalCDF(np.zeros((0, 1)))
    samples = np.array([[0.0], [1.0], [2.0], [3.0]])
    p, se = empirical_cdf_joint(samples, [1.5])
    assert p == 0.5
    assert se == pytest.approx(np.sqrt(0.25 / 4))
    p, _ = empirical_cdf_joint(samples, [10.0])
    assert p == 1.0
    p, _ = empirical_cdf_joint(samples, [-1.0])
    assert p == 0.0
    joint = np.array([[0.0, 5.0], [2.0, 1.0], [0.5, 0.5]])
    p, _ = empirical_cdf_joint(joint, [1.0, 1.0])
    assert p == pytest.approx(1.0 / 3.0)


def test_ecdf_marginal():
    e = EmpiricalCDF(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert e.marginal_cdf(0, [2.5])[0] == 0.5


def test_mc_vs_limit_preconditions():
    frame = ScalingFrame(T=100.0, rho=0.5)
    with pytest.raises(RefusalError):
        mc_vs_limit(frame, [0.0], 10**4, 1, [[0.0]])
    frame = ScalingFrame(T=300.0, rho=0.5)
    with pytest.raises(RefusalError):
        mc_vs_limit(frame, [0.0], 100, 1, [[0.0]])


def test_mc_vs_limit_small_run():
    frame = ScalingFrame(T=256.0, rho=0.5)
    svecs = [[-1.0], [0.0], [1.0]]
    table = limit_cdf_table([0.0], svecs)
    rep = mc_vs_limit(frame, [0.0], 10**4, 7, svecs, limit_values=table, threshold=0.08)
    assert rep.passed
    # the rescaled samples have mean ~0: they are centred on the exact
    # stationary mean x/(1-rho) + y/rho of the simulated point
    assert abs(rep.extras["mean_s"][0]) < 0.08


def test_mc_vs_limit_centres_on_lattice_mean():
    # T=250 floors (62.5, 62.5) to (62, 62): x + y = 124 < T/2, so centring on
    # the continuum ell(0, 0) = 250 would shift every sample by -2 in G,
    # -2 chi^(1/3) T^(-1/3) = -0.2 in s (twenty standard errors at 1e4 samples)
    frame = ScalingFrame(T=250.0, rho=0.5)
    svecs = [[0.0]]
    table = limit_cdf_table([0.0], svecs)
    rep = mc_vs_limit(frame, [0.0], 10**4, 7, svecs, limit_values=table)
    assert abs(rep.extras["mean_s"][0]) < 0.05


def test_shift_argument_small():
    rep = shift_argument_validate(
        0.25, 0.25, [(2, 2)], np.arange(2.0, 11.0, 2.0), 50000, 3, threshold=0.03
    )
    assert rep.passed, rep.extras
    with pytest.raises(ParameterError):
        shift_argument_validate(0.25, -0.25, [(2, 2)], [1.0], 1000, 1)


def test_shift_coupling_tolerance():
    rep = shift_coupling_validate(0.3, 0.1, (4, 3), 100, 11)
    assert rep.statistic <= 1e-12  # identity exact up to float re-association


def test_slow_decorrelation_shapes():
    frame = ScalingFrame(T=500.0, rho=0.5, nu=0.5)
    rep = slow_decorrelation_validate(frame, 0.25, 0.25, 0.1, 0.25, 400, 5, threshold=0.5)
    assert 0.0 <= rep.statistic <= 1.0
    assert rep.config["offset"][0] >= 1
    with pytest.raises(RefusalError):
        slow_decorrelation_validate(frame, 0.25, 0.25, 1e-9, 0.25, 10, 5)


def test_batched_g_same_bits_with_a_pool():
    # two worker processes split the samples by index: the result equals
    # the serial one bit for bit
    params = ModelParams.two_sided(0.5)
    pts = [(30, 20), (12, 25)]
    serial = _batched_g(params, 5, 300, pts, batch=64, threads=1)
    pooled = _batched_g(params, 5, 300, pts, batch=64, threads=2)
    assert serial.shape == (300, 2)
    assert np.array_equal(serial, pooled)


def test_tandem_queue_sim_counts():
    lengths, deps = tandem_queue_sim(0.5, 2, 400.0, SeedSpec(9, 0))
    n = len(deps[1])
    assert abs(n - 200.0) <= 4.0 * np.sqrt(200.0)
    assert all(l >= 0 for l in lengths)
    gaps = np.diff(np.array(deps[1]))
    assert np.all(gaps > 0)


def test_burke_small():
    rep = burke_validate(0.5, 2000, 21, n_replicas=2000)
    assert rep.passed, rep.extras
    assert abs(rep.extras["p_len0"] - 0.5) < 0.04


def test_burke_off_half():
    # the M/M/1 stationary law (1-rho) rho^k at rho = 0.3: P(L=0) = 0.7; the
    # default p-threshold 0.01 and the 4-sigma band are fixed in advance
    rep = burke_validate(0.3, 2000, 21, n_replicas=2000)
    assert rep.passed, rep.extras
    assert abs(rep.extras["p_len0"] - 0.7) < 0.04


def test_gaussian_coefficients_values():
    # rho=0.5, gamma=4: mean coefficient 0.8*(2 + 0.5) = 2
    c1, v = gaussian_coefficients(0.5, 4.0)
    assert c1 == pytest.approx(2.0)
    assert v == pytest.approx(0.8 * (4.0 - 1.0 / (4.0 * 0.25)))
    # gamma=1/4: b1 = 0.2*(2+8) = 2
    b1, bv = gaussian_coefficients(0.5, 0.25)
    assert b1 == pytest.approx(2.0)
    assert bv == pytest.approx(0.2 * (16.0 - 4.0))
    with pytest.raises(RefusalError):
        gaussian_coefficients(0.5, 1.0)
    # rho=0.3, gamma_c = 49/9: above it (gamma=10) x/(1-rho)^2 dominates,
    # 10/11 * (100/49 - 10/9) = 4100/4851; below it (gamma=1) y/rho^2 does,
    # 1/2 * (100/9 - 100/49) = 2000/441.  Means 10/11 * (10/7 + 1/3) = 370/231
    # and 1/2 * (10/7 + 10/3) = 50/21.
    a1, av = gaussian_coefficients(0.3, 10.0)
    assert a1 == pytest.approx(370.0 / 231.0)
    assert av == pytest.approx(4100.0 / 4851.0)
    b1, bv = gaussian_coefficients(0.3, 1.0)
    assert b1 == pytest.approx(50.0 / 21.0)
    assert bv == pytest.approx(2000.0 / 441.0)
    with pytest.raises(RefusalError):
        gaussian_coefficients(0.3, 1.0 / characteristic_ratio(0.3))


@pytest.mark.parametrize("side", [0, 1], ids=["above", "below"])
@pytest.mark.parametrize("rho", [0.5, 0.3])
def test_gaussian_offchar_small(rho, side):
    # the points 4 gamma_c and gamma_c/4 on either side of the characteristic
    rep = gaussian_offchar_validate(rho, offchar_gammas(rho)[side], 600, 800, 3, threshold=0.08)
    assert rep.passed, rep.extras
    with pytest.raises(RefusalError):
        gaussian_offchar_validate(rho, 1.0 / characteristic_ratio(rho), 500, 100, 1)


def test_point_variance():
    # |x/(1-rho)^2 - y/rho^2| / (x + y), on and off the axes; bit for bit the
    # ray coefficient where x/y is exactly the ray's gamma
    assert point_variance(0.5, 1600, 400) == gaussian_coefficients(0.5, 4.0)[1]
    assert point_variance(0.3, 1912, 88) == pytest.approx(
        abs(1912 / 0.49 - 88 / 0.09) / 2000, rel=1e-12
    )
    assert point_variance(0.3, 0, 50) == pytest.approx(1 / 0.09, rel=1e-12)
    with pytest.raises(RefusalError):
        point_variance(0.5, 300, 300)


@pytest.mark.parametrize("rho, side, point", [(0.02, 0, [2000, 0]), (0.98, 1, [0, 2000])])
def test_gaussian_offchar_axis_point(rho, side, point):
    # near rho = 0 or 1 the Gaussian point rounds onto an axis, where G is a
    # sum of N iid exponentials: its variance per unit N is 1/(1-rho)^2 on
    # the x-axis and 1/rho^2 on the y-axis (1.041 here), while the ray's
    # coefficient is 0.781.  Bounds fixed in advance: 1e-12 relative on the
    # coefficient, 15% on the sample variance (about 3 sd at 1000 samples).
    rep = gaussian_offchar_validate(rho, offchar_gammas(rho)[side], 2000, 1000, 7)
    assert rep.extras["point"] == point
    assert rep.extras["var_coeff"] == pytest.approx(1.0 / 0.98**2, rel=1e-12)
    assert abs(rep.extras["sample_var"] / rep.extras["var_coeff"] - 1.0) < 0.15


@pytest.mark.parametrize("rho", [0.5, 0.3])
def test_gaussian_critical_control_small(rho):
    # The control sits a relative 1e-9 off the characteristic, where the
    # variance coefficient vanishes (about 2e-9).  Standardizing by it blows
    # the sample up, so KS reads about 0.5 whatever the law of G: this checks
    # only that the coefficient vanishes there, not that G is non-Gaussian.
    rep = gaussian_critical_control(rho, 600, 800, 3)
    assert rep.name == "gaussian-critical-control"
    assert rep.extras["var_coeff"] < 1e-8
    assert rep.passed, rep.extras


def test_reports_reproducible():
    frame = ScalingFrame(T=500.0, rho=0.5, nu=0.5)
    a = slow_decorrelation_validate(frame, 0.25, 0.25, 0.2, 0.25, 300, 42)
    b = slow_decorrelation_validate(frame, 0.25, 0.25, 0.2, 0.25, 300, 42)
    assert a.statistic == b.statistic
    assert a.extras == b.extras
