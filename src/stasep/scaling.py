"""Deterministic coordinate maps between lattice/time coordinates and the
(tau, s) fluctuation frame.

tau measures displacement from the critical direction on the T^(2/3) scale,
s measures passage-time fluctuations on the T^(1/3) scale; the frame's nu
sets the T^nu scale of slow decorrelation's offset along the critical
direction.  Floors are applied exactly where the lattice requires integers
(x, y, n, q, J, H); thresholds (ell) stay real-valued.
"""

import math
from dataclasses import dataclass

from .errors import FrameError, ParameterError


def characteristic_ratio(rho: float) -> float:
    """Critical lattice direction y/x = rho^2/(1-rho)^2 (the LPP image of the
    TASEP characteristic line)."""
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"rho must be in (0,1), got {rho}")
    return rho * rho / ((1.0 - rho) * (1.0 - rho))


@dataclass(frozen=True)
class ScalingFrame:
    T: float
    rho: float
    nu: float = 0.5

    def __post_init__(self):
        if not self.T > 0:
            raise ParameterError("T must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ParameterError(f"rho must be in (0,1), got {self.rho}")
        if not 0.0 < self.nu < 1.0:
            raise ParameterError(f"nu must be in (0,1), got {self.nu}")

    @property
    def chi(self) -> float:
        return self.rho * (1.0 - self.rho)


def _tau_coeff(frame: ScalingFrame) -> float:
    # coefficient of tau*T^(2/3) in x(tau)
    chi = frame.chi
    return 2.0 * chi ** (4.0 / 3.0) / (1.0 - 2.0 * chi)


def _ell_tau_coeff(frame: ScalingFrame) -> float:
    chi = frame.chi
    return 2.0 * (1.0 - 2.0 * frame.rho) * chi ** (1.0 / 3.0) / (1.0 - 2.0 * chi)


def scale_dpp(frame: ScalingFrame, tau: float, s: float):
    """(x, y, ell): lattice point at displacement tau and threshold ell(tau,s)."""
    T = frame.T
    rho = frame.rho
    chi = frame.chi
    t23 = T ** (2.0 / 3.0)
    x = math.floor((1.0 - rho) ** 2 * T + tau * _tau_coeff(frame) * t23)
    y = math.floor(rho**2 * T - tau * _tau_coeff(frame) * t23)
    ell = T - tau * _ell_tau_coeff(frame) * t23 + s * T ** (1.0 / 3.0) / chi ** (1.0 / 3.0)
    if x < 0 or y < 0:
        raise FrameError(f"frame T={T} too small: tau={tau} maps to ({x}, {y})")
    return x, y, ell


def rescale_sample(frame: ScalingFrame, tau: float, g_value: float) -> float:
    """Exact inverse of scale_dpp's ell: the s-coordinate of a raw passage time."""
    T = frame.T
    chi = frame.chi
    return (
        (g_value - T + tau * _ell_tau_coeff(frame) * T ** (2.0 / 3.0))
        * chi ** (1.0 / 3.0)
        / T ** (1.0 / 3.0)
    )


def rescale_at_point(frame: ScalingFrame, x: int, y: int, g_value: float) -> float:
    """s-coordinate of a stationary two-sided passage time G(x, y), centred
    on its exact mean E G(x, y) = x/(1-rho) + y/rho (Burke's theorem).

    ell(tau, 0) is this mean at the unfloored point of scale_dpp, so the
    two centrings differ only by what the floors drop; rescale_sample keeps
    that O(1) offset, this map removes it at every lattice point."""
    rho = frame.rho
    return (
        (g_value - x / (1.0 - rho) - y / rho)
        * frame.chi ** (1.0 / 3.0)
        / frame.T ** (1.0 / 3.0)
    )


def scale_particle(frame: ScalingFrame, tau: float, s: float):
    """(n, q): particle label n(tau) and site threshold q(tau, s) for the
    particle-position representation.

    q's leading term is (1-2rho)T, forced by q = p - n with
    p(tau) = (1-rho)^2 T + 2 tau (1-rho) chi^(1/3) T^(2/3) - (1-rho) s T^(1/3)/chi^(1/3)
    (the passage-time point actually queried is (q+n, n) and sits at
    (1-rho)^2 T to leading order).
    """
    T = frame.T
    rho = frame.rho
    chi = frame.chi
    t23 = T ** (2.0 / 3.0)
    c13 = chi ** (1.0 / 3.0)
    n = math.floor(rho**2 * T - 2.0 * tau * rho * c13 * t23)
    q = math.floor(
        (1.0 - 2.0 * rho) * T
        + 2.0 * tau * c13 * t23
        - (1.0 - rho) * s * T ** (1.0 / 3.0) / c13
    )
    if n < 0:
        raise FrameError(f"negative particle label n={n}; enlarge the frame")
    return n, q


def scale_height(frame: ScalingFrame, tau: float, s: float):
    """(J, H): height-function site J(tau) and level threshold H(tau, s)."""
    T = frame.T
    rho = frame.rho
    chi = frame.chi
    t23 = T ** (2.0 / 3.0)
    c13 = chi ** (1.0 / 3.0)
    J = math.floor((1.0 - 2.0 * rho) * T + 2.0 * tau * c13 * t23)
    H = math.floor(
        (1.0 - 2.0 * chi) * T
        + 2.0 * tau * (1.0 - 2.0 * rho) * c13 * t23
        - 2.0 * s * chi ** (2.0 / 3.0) * T ** (1.0 / 3.0)
    )
    return J, H
