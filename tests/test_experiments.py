"""Fast variants of the validation harnesses (the full-size runs live in
test_acceptance)."""

import concurrent.futures
import os
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from stasep import experiments
from stasep.errors import RefusalError
from stasep.experiments import (
    _batched_g,
    EmpiricalCDF,
    burke_increments_validate,
    gaussian_coefficients,
    gaussian_offchar_validate,
    limit_cdf_table,
    mc_vs_limit,
    offchar_gammas,
    point_variance,
    slow_decorrelation_validate,
)
from stasep.scaling import ScalingFrame, characteristic_ratio
from stasep.weights import ModelParams


def test_empirical_cdf_basics():
    with pytest.raises(RefusalError):
        EmpiricalCDF(np.zeros((0, 1)))
    ecdf = EmpiricalCDF(np.array([[0.0], [1.0], [2.0], [3.0]]))
    p, se = ecdf.joint_prob([1.5])
    assert p == 0.5
    assert se == pytest.approx(np.sqrt(0.25 / 4))
    p, _ = ecdf.joint_prob([10.0])
    assert p == 1.0
    p, _ = ecdf.joint_prob([-1.0])
    assert p == 0.0
    joint = np.array([[0.0, 5.0], [2.0, 1.0], [0.5, 0.5]])
    p, _ = EmpiricalCDF(joint).joint_prob([1.0, 1.0])
    assert p == pytest.approx(1.0 / 3.0)


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


def test_slow_decorrelation_shapes():
    frame = ScalingFrame(T=500.0, rho=0.5, nu=0.5)
    rep = slow_decorrelation_validate(frame, 0.25, 0.25, 0.1, 0.25, 400, 5, threshold=0.5)
    assert 0.0 <= rep.statistic <= 1.0
    assert rep.config["offset"][0] >= 1
    with pytest.raises(RefusalError):
        slow_decorrelation_validate(frame, 0.25, 0.25, 1e-9, 0.25, 10, 5)


def _chunk_reference(params, seed, n, pts, batch):
    # the serial reference: one chunk over the whole index range
    return experiments._chunk_g(params, seed, 0, n, pts, batch)


@pytest.fixture
def inline_pool(monkeypatch):
    """A fake ProcessPoolExecutor that runs the tasks in-process, on what
    reads as a Linux host; returns the (worker count, start method) of each
    pool it stood in for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            sizes.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sys, "platform", "linux")
    return sizes


@pytest.mark.parametrize(
    "params, n, pts",
    [
        # 1e6 samples x 16 cells and 200 x 16 cells: both sweep fewer
        # cells than a pool pays for
        (ModelParams.shifted_zero(0.25, 0.25), 10**6, [(3, 3)]),
        (ModelParams.shifted_plus(0.25, 0.25), 200, [(3, 3)]),
    ],
    ids=["1e6x16-cells", "200x16-cells"],
)
def test_small_sweep_starts_no_pool(inline_pool, params, n, pts):
    assert np.array_equal(_batched_g(params, 5, n, pts), _chunk_reference(params, 5, n, pts, 512))
    assert inline_pool == []


def test_large_sweep_starts_a_pool_within_cpu_count(inline_pool):
    # (99, 99) sweeps 10^4 cells a sample: just enough samples to reach
    # the constant
    params = ModelParams.two_sided(0.5)
    pts = [(99, 99)]
    n = -(-experiments.POOL_MIN_CELLS // 10**4)
    assert np.array_equal(_batched_g(params, 5, n, pts), _chunk_reference(params, 5, n, pts, 512))
    assert len(inline_pool) == (1 if os.cpu_count() > 1 else 0)
    assert all(1 <= w <= os.cpu_count() and how == "fork" for w, how in inline_pool)


def test_one_cpu_starts_no_pool(inline_pool, monkeypatch):
    monkeypatch.setattr(experiments, "POOL_MIN_CELLS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    params = ModelParams.two_sided(0.5)
    pts = [(30, 20), (12, 25)]
    assert np.array_equal(
        _batched_g(params, 5, 300, pts, batch=64), _chunk_reference(params, 5, 300, pts, 64)
    )
    assert inline_pool == []


def test_pool_capped_at_sample_count(inline_pool, monkeypatch):
    # never more workers than samples, each with one contiguous range
    monkeypatch.setattr(experiments, "POOL_MIN_CELLS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    params = ModelParams.two_sided(0.5)
    pts = [(30, 20), (12, 25)]
    assert np.array_equal(_batched_g(params, 5, 3, pts), _chunk_reference(params, 5, 3, pts, 512))
    assert inline_pool == [(3, "fork")]


@pytest.mark.parametrize("platform", ["darwin", "win32"])
def test_no_pool_off_linux(inline_pool, monkeypatch, platform):
    # POOL_MIN_CELLS was measured with fork-started workers; where fork is
    # unsafe or absent, a spawned pool costs more than it saves
    monkeypatch.setattr(experiments, "POOL_MIN_CELLS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sys, "platform", platform)
    params = ModelParams.two_sided(0.5)
    pts = [(30, 20), (12, 25)]
    assert np.array_equal(_batched_g(params, 5, 40, pts), _chunk_reference(params, 5, 40, pts, 512))
    assert inline_pool == []


def test_batched_g_same_bits_on_two_processes(monkeypatch):
    # with the constant lowered, two real worker processes split the
    # samples by index: the result equals the serial one bit for bit
    monkeypatch.setattr(experiments, "POOL_MIN_CELLS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    params = ModelParams.two_sided(0.5)
    pts = [(30, 20), (12, 25)]
    pooled = _batched_g(params, 5, 300, pts, batch=64)
    assert pooled.shape == (300, 2)
    assert np.array_equal(pooled, _chunk_reference(params, 5, 300, pts, 64))


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.8])
def test_burke_increments(rho):
    # the exact increment law holds at every size and every rho
    rep = burke_increments_validate(rho, 4000, 21)
    assert rep.name == "burke-equilibrium"
    assert rep.passed, rep.extras


def test_burke_increments_fail_on_swapped_border_means(monkeypatch):
    # mutation: the model at 1 - rho swaps the two border means (at rho =
    # 1/2 that swap is the identity), so both marginal tests must fail
    real = experiments.ModelParams.two_sided
    monkeypatch.setattr(experiments.ModelParams, "two_sided", lambda rho: real(1.0 - rho))
    rep = burke_increments_validate(0.3, 4000, 21)
    assert not rep.passed
    assert 3.0 * rep.extras["ks_horizontal_pvalue"] <= rep.threshold
    assert 3.0 * rep.extras["ks_vertical_pvalue"] <= rep.threshold


@pytest.mark.parametrize("rho", [0.3, 0.8])
def test_burke_increments_fail_on_up_right_path(monkeypatch, rho):
    # mutation: along an up-right path each increment keeps its exact
    # marginal law but neighbours across a corner are dependent, so only the
    # Gamma(15, 1) test of their sum can catch it
    monkeypatch.setattr(experiments, "BURKE_PATH", ((40, 75), "RRRRRUUUUURRRRR"))
    rep = burke_increments_validate(rho, 4000, 21)
    assert not rep.passed
    assert 3.0 * rep.extras["ks_horizontal_pvalue"] > rep.threshold
    assert 3.0 * rep.extras["ks_vertical_pvalue"] > rep.threshold
    assert 3.0 * rep.extras["gamma_sum_pvalue"] <= rep.threshold


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
    # a relative 1e-9 off the characteristic the variance coefficient
    # vanishes (about 2e-9): the fluctuations there are not O(sqrt N)
    for rho in (0.5, 0.3):
        assert gaussian_coefficients(rho, (1.0 + 1e-9) / characteristic_ratio(rho))[1] < 1e-8


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


def test_reports_reproducible():
    frame = ScalingFrame(T=500.0, rho=0.5, nu=0.5)
    a = slow_decorrelation_validate(frame, 0.25, 0.25, 0.2, 0.25, 300, 42)
    b = slow_decorrelation_validate(frame, 0.25, 0.25, 0.2, 0.25, 300, 42)
    assert a.statistic == b.statistic
    assert a.extras == b.extras
