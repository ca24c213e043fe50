import math

import mpmath as mp
import numpy as np
import pytest

from stasep.errors import FrameError, ParameterError
from stasep.scaling import (
    ScalingFrame,
    characteristic_ratio,
    rescale_at_point,
    rescale_sample,
    scale_dpp,
    scale_height,
    scale_particle,
)

mp.mp.dps = 50


def test_characteristic_ratio():
    assert characteristic_ratio(0.5) == pytest.approx(1.0)
    assert characteristic_ratio(1.0 / 3.0) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ParameterError):
        characteristic_ratio(1.0)


def test_scale_dpp_symmetric_point():
    frame = ScalingFrame(T=100.0, rho=0.5)
    assert scale_dpp(frame, 0.0, 0.0) == (25, 25, 100.0)


def test_scale_dpp_tau_one():
    # x = floor(25 + 4^(-1/3) * 100^(2/3)) = 38, y = 11, ell = 100
    frame = ScalingFrame(T=100.0, rho=0.5)
    x, y, ell = scale_dpp(frame, 1.0, 0.0)
    assert (x, y) == (38, 11)
    assert ell == pytest.approx(100.0)


def test_line_constraint():
    # |x + y - (1-2chi) T| <= 2 for all inputs
    for rho in (0.3, 0.5, 0.62):
        for T in (250.0, 997.0):
            frame = ScalingFrame(T=T, rho=rho)
            for tau in (-2.0, -0.3, 0.0, 1.7):
                try:
                    x, y, _ = scale_dpp(frame, tau, 0.0)
                except FrameError:
                    continue  # legitimately too small for this displacement
                assert abs(x + y - (1 - 2 * frame.chi) * T) <= 2.0


def test_rescale_round_trip():
    frame = ScalingFrame(T=640.0, rho=0.42)
    for tau in (-1.5, 0.0, 2.2):
        for s in (-3.0, 0.0, 4.5):
            _, _, ell = scale_dpp(frame, tau, s)
            assert rescale_sample(frame, tau, ell) == pytest.approx(s, abs=1e-12)
    assert rescale_sample(ScalingFrame(T=100.0, rho=0.5), 0.0, 100.0) == 0.0


def test_rescale_at_point_exact_mean_maps_to_zero():
    # T=1000, tau=1: scale_dpp floors to (312, 187), whose exact stationary
    # mean is 312/(1/2) + 187/(1/2) = 998, two below ell(1, 0) = 1000
    frame = ScalingFrame(T=1000.0, rho=0.5)
    x, y, _ = scale_dpp(frame, 1.0, 0.0)
    assert (x, y) == (312, 187)
    assert rescale_at_point(frame, x, y, 998.0) == 0.0


def test_rescale_at_point_matches_rescale_sample_without_floor_loss():
    frame = ScalingFrame(T=256.0, rho=0.5)
    x, y, _ = scale_dpp(frame, 0.0, 0.0)
    assert (x, y) == (64, 64)
    for g in (200.0, 256.0, 311.7):
        assert rescale_at_point(frame, x, y, g) == pytest.approx(
            rescale_sample(frame, 0.0, g), abs=1e-12
        )


def test_rescale_at_point_removes_floor_loss():
    # the two centrings differ by exactly the mean mass the floors drop:
    # delta = (x - x_cont)/(1-rho) + (y - y_cont)/rho
    frame = ScalingFrame(T=640.0, rho=0.42)
    rho, chi = frame.rho, frame.chi
    coeff = 2.0 * chi ** (4.0 / 3.0) / (1.0 - 2.0 * chi) * 640.0 ** (2.0 / 3.0)
    for tau in (-1.5, 2.2):
        x, y, _ = scale_dpp(frame, tau, 0.0)
        x_cont = (1.0 - rho) ** 2 * 640.0 + tau * coeff
        y_cont = rho**2 * 640.0 - tau * coeff
        delta = (x - x_cont) / (1.0 - rho) + (y - y_cont) / rho
        assert delta < 0.0
        for g in (400.0, 640.0, 733.3):
            assert rescale_at_point(frame, x, y, g) == pytest.approx(
                rescale_sample(frame, tau, g - delta), abs=1e-12
            )


def test_scale_dpp_generic_value_against_high_precision():
    rho, T, tau, s = 0.4, 1000.0, -1.0, 1.0
    x, y, ell = scale_dpp(ScalingFrame(T=T, rho=rho), tau, s)
    mr = mp.mpf(rho)
    mT = mp.mpf(T)
    chi = mr * (1 - mr)
    coeff = 2 * chi ** (mp.mpf(4) / 3) / (1 - 2 * chi)
    x_ref = mp.floor((1 - mr) ** 2 * mT + mp.mpf(tau) * coeff * mT ** (mp.mpf(2) / 3))
    y_ref = mp.floor(mr**2 * mT - mp.mpf(tau) * coeff * mT ** (mp.mpf(2) / 3))
    ell_ref = (
        mT
        - mp.mpf(tau) * 2 * (1 - 2 * mr) * chi ** (mp.mpf(1) / 3) / (1 - 2 * chi) * mT ** (mp.mpf(2) / 3)
        + mp.mpf(s) * mT ** (mp.mpf(1) / 3) / chi ** (mp.mpf(1) / 3)
    )
    assert x == int(x_ref)
    assert y == int(y_ref)
    assert ell == pytest.approx(float(ell_ref), rel=1e-13)


def test_frame_too_small():
    frame = ScalingFrame(T=30.0, rho=0.5)
    with pytest.raises(FrameError):
        scale_dpp(frame, -40.0, 0.0)


def test_scale_particle_consistency_with_section5():
    # q + n must reproduce the passage-time point
    # p(tau) = (1-rho)^2 T + 2 tau (1-rho) chi^(1/3) T^(2/3) - (1-rho) s T^(1/3)/chi^(1/3)
    for rho in (0.4, 0.5, 0.6):
        for T in (400.0, 1500.0):
            frame = ScalingFrame(T=T, rho=rho)
            chi = frame.chi
            for tau in (-1.0, 0.0, 0.9):
                for s in (-1.0, 0.0, 2.0):
                    n, q = scale_particle(frame, tau, s)
                    p_ref = (
                        (1 - rho) ** 2 * T
                        + 2 * tau * (1 - rho) * chi ** (1 / 3) * T ** (2 / 3)
                        - (1 - rho) * s * T ** (1 / 3) / chi ** (1 / 3)
                    )
                    assert abs((q + n) - p_ref) <= 2.0


def test_scale_particle_symmetric():
    # at rho = 1/2 the particle label is rho^2 T and the site threshold
    # (1-2 rho) T = 0 (the paper's displayed (1-rho)^2 leading term for q is
    # inconsistent with its own p = q + n identity, which this pins down)
    frame = ScalingFrame(T=400.0, rho=0.5)
    n, q = scale_particle(frame, 0.0, 0.0)
    assert n == 100
    assert q == 0


def test_scale_height_values():
    frame = ScalingFrame(T=1000.0, rho=0.5)
    j, h = scale_height(frame, 0.0, 0.0)
    assert (j, h) == (0, 500)
    # H independent of tau at rho = 1/2
    _, h2 = scale_height(frame, 1.7, 0.0)
    assert h2 == 500
    j3, _ = scale_height(frame, 1.0, 0.0)
    assert j3 == math.floor(2.0 * 0.25 ** (1 / 3) * 1000.0 ** (2 / 3))


def test_height_matches_particle_frame():
    # J(tau) = x - y and H(tau) = x + y for the section-5 x, y block
    for rho in (0.35, 0.5):
        frame = ScalingFrame(T=800.0, rho=rho)
        chi = frame.chi
        for tau in (-0.5, 0.0, 1.2):
            for s in (-1.0, 0.5):
                J, H = scale_height(frame, tau, s)
                x = (1 - rho) ** 2 * 800 + 2 * tau * (1 - rho) * chi ** (1 / 3) * 800 ** (2 / 3) - s * chi ** (2 / 3) * 800 ** (1 / 3)
                y = rho**2 * 800 - 2 * tau * rho * chi ** (1 / 3) * 800 ** (2 / 3) - s * chi ** (2 / 3) * 800 ** (1 / 3)
                assert abs(J - (x - y)) <= 2.0
                assert abs(H - (x + y)) <= 2.0


def test_section5_change_of_variables():
    # X(tau) = x(tau^s), Y(tau) = y(tau^s), T = ell(tau^s, s) + r(tau, s)
    # in real arithmetic (no floors), validating the particle-frame algebra
    rho, T = 0.45, 1200.0
    chi = rho * (1 - rho)
    t23, t13 = T ** (2 / 3), T ** (1 / 3)
    for tau in (-0.8, 0.6):
        for s in (-1.5, 2.0):
            p = (1 - rho) ** 2 * T + 2 * tau * (1 - rho) * chi ** (1 / 3) * t23 - (1 - rho) * s * t13 / chi ** (1 / 3)
            n = rho**2 * T - 2 * tau * rho * chi ** (1 / 3) * t23
            r = tau * 2 * (1 - 2 * rho) * chi ** (1 / 3) * t23 / (1 - 2 * chi) - s * (1 - rho) / (1 - 2 * chi) * (T / chi) ** (1 / 3)
            tau_s = tau - s * rho / (2 * chi ** (2 / 3)) * T ** (-1 / 3)
            x_ts = (1 - rho) ** 2 * T + tau_s * 2 * chi ** (4 / 3) / (1 - 2 * chi) * t23
            y_ts = rho**2 * T - tau_s * 2 * chi ** (4 / 3) / (1 - 2 * chi) * t23
            ell_ts = T - tau_s * 2 * (1 - 2 * rho) * chi ** (1 / 3) / (1 - 2 * chi) * t23 + s * t13 / chi ** (1 / 3)
            assert p - r * (1 - rho) ** 2 == pytest.approx(x_ts, rel=1e-10)
            assert n - r * rho**2 == pytest.approx(y_ts, rel=1e-10)
            assert ell_ts + r == pytest.approx(T, rel=1e-10)
