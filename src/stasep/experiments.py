"""Validation harnesses: Monte Carlo confronting the simulators with the
limit law and with the model's exactly-known side results (Burke's
increment law among them), plus the exact identities (pathwise bridge,
kernel dual representation).  Each criterion of `stasep validate` is one
function here returning a ValidationReport; the acceptance tests call the
same functions.

Everything here is deterministic given (parameters, master_seed): sampling
is counter-based, aggregation is order-independent, and the statistical
routine (KS) is scipy's.  Every Monte Carlo sweep but the Burke check's
short one goes through _batched_g, which spreads a large one over the
host's CPUs; the results do not depend on the worker count.  The MC routes
deliberately consume no special-function code; their only contact point
with the limit-law stack is its public evaluator.
"""

import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError, RefusalError
from .limitlaw import MultiPointSpec, khat_dual_check, limit_cdf
from .lpp import _check_points, _row_reach, last_passage_batch
from .scaling import ScalingFrame, characteristic_ratio, rescale_at_point, scale_dpp
from .tasep import lpp_bridge_check
from .weights import ModelParams


@dataclass
class ValidationReport:
    name: str
    statistic: float
    threshold: float
    passed: bool
    runtime_s: float
    master_seed: int
    config: Dict = field(default_factory=dict)
    extras: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {**asdict(self), "passed": bool(self.passed), "runtime_s": round(self.runtime_s, 3)}


class EmpiricalCDF:
    """Joint empirical CDF of samples of shape (n, m)."""

    def __init__(self, samples):
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.size == 0:
            raise RefusalError("no samples")
        self.samples = samples
        self.n = samples.shape[0]

    def joint_prob(self, thresholds) -> Tuple[float, float]:
        """(estimate, binomial standard error) of P(all coords <= thresholds)."""
        thr = np.asarray(thresholds, dtype=float)
        p = float(np.mean(np.all(self.samples <= thr[None, :], axis=1)))
        se = math.sqrt(max(p * (1.0 - p), 1.0 / self.n) / self.n)
        return p, se


def _chunk_g(params, master_seed, lo, hi, points, batch):
    out = []
    for a in range(lo, hi, batch):
        b = min(a + batch, hi)
        out.append(last_passage_batch(params, master_seed, range(a, b), points))
    return np.concatenate(out, axis=0)


# A sweep of fewer cells runs serially: a forked pool's start-up cost more
# than it saved below 2e7 cells and paid above 1.3e8 on a 2-vCPU host.  Off
# Linux, where fork is unsafe or absent, every sweep runs serially: a spawned
# pool took 1.5-1.7 s to start on that host, against 0.03 s for a forked one.
POOL_MIN_CELLS = 5 * 10**7


def _batched_g(params, master_seed, n_samples, points, batch=512):
    """G at `points` for samples 0 .. n_samples - 1 in batches of `batch`
    lanes.  On Linux a sweep of at least POOL_MIN_CELLS cells is split into
    contiguous index ranges, one per forked process, on up to one process per
    CPU; samples are indexed, so the split changes no bit."""
    cells = n_samples * sum(r + 1 for r in _row_reach(_check_points(points)))
    workers = min(os.cpu_count() or 1, n_samples)
    if workers <= 1 or cells < POOL_MIN_CELLS or sys.platform != "linux":
        return _chunk_g(params, master_seed, 0, n_samples, points, batch)
    # deferred: a run that starts no pool loads neither module
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    edges = np.linspace(0, n_samples, workers + 1).astype(int)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as ex:
        futures = [
            ex.submit(_chunk_g, params, master_seed, int(a), int(b), points, batch)
            for a, b in zip(edges[:-1], edges[1:])
        ]
        return np.concatenate([f.result() for f in futures], axis=0)


# ---------------------------------------------------------------------------
# exact identities


def pathwise_bridge_validate(rho: float, n_instances: int, master_seed: int) -> ValidationReport:
    """lpp_bridge_check on n_instances points (x, y) uniform in {1..20}^2,
    each on 50 times spanning the mean x/(1-rho) + y/rho plus six
    fluctuation widths; statistic: the number of instances that fail."""
    t0 = time.time()
    rng = np.random.default_rng(master_seed)
    fails = 0
    for k in range(n_instances):
        x, y = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        e_g = x / (1 - rho) + y / rho
        sd = 2.2 * (x + y) ** (1.0 / 3.0)
        rep = lpp_bridge_check(master_seed, k, x, y, np.linspace(0.0, e_g + 6 * sd, 50), rho=rho)
        fails += 0 if rep.ok else 1
    return ValidationReport(
        name="pathwise-bridge", statistic=float(fails), threshold=0.0, passed=fails == 0,
        runtime_s=time.time() - t0, master_seed=master_seed, config={"instances": n_instances},
    )


def kernel_dual_validate(master_seed: int) -> ValidationReport:
    """Largest gap of khat_dual_check over three tau-pairs x 9 points and at
    tau = (-0.5, 1.5), x = 1, y = -1, against 1e-8.  Deterministic:
    master_seed is only recorded in the report."""
    t0 = time.time()
    worst = 0.0
    for taus in ((0.0, 1.0), (-1.0, 2.0), (-0.5, 0.5)):
        spec = MultiPointSpec(taus, (0.0, 0.0))
        for x in (-1.0, 0.0, 1.0):
            for y in (-1.0, 0.0, 1.0):
                worst = max(worst, khat_dual_check(spec, 2, 1, x, y)[2])
    worst = max(worst, khat_dual_check(MultiPointSpec((-0.5, 1.5), (0.0, 0.0)), 2, 1, 1.0, -1.0)[2])
    return ValidationReport(
        name="kernel-dual", statistic=worst, threshold=1e-8, passed=worst <= 1e-8,
        runtime_s=time.time() - t0, master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# limit-law vs simulation


def limit_cdf_table(spec_taus: Sequence[float], s_vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """F(tau, s) evaluated at each s-vector at the default quadrature (the
    expensive half of mc_vs_limit, reusable across T's and seeds)."""
    return np.array(
        [limit_cdf(MultiPointSpec(tuple(spec_taus), tuple(sv))).f_value for sv in s_vectors]
    )


def mc_vs_limit(
    frame: ScalingFrame,
    taus: Sequence[float],
    n_samples: int,
    master_seed: int,
    s_vectors: Sequence[Sequence[float]],
    limit_values: Optional[np.ndarray] = None,
    threshold: float = 0.05,
    bias_allowance: float = 0.0,
) -> ValidationReport:
    """Simulate the stationary model at the scaled points, rescale, and
    compare the joint empirical CDF against the limit law on a grid of
    s-vectors.  Each sample is centred on the exact lattice mean
    x/(1-rho) + y/rho of its simulated (floored) point (rescale_at_point),
    so the floors in scale_dpp add no O(1) shift in s at any T.
    With bias_allowance = 0 the statistic is the plain sup distance
    max_k |emp_k - F_k|, passed when at most `threshold`; with
    bias_allowance > 0 it is the excess max_k (|emp_k - F_k| - 3 se_k -
    bias_allowance), passed when at most 0."""
    if frame.T < 250:
        raise RefusalError("frame too small: need T >= 250")
    if n_samples < 10**4:
        raise RefusalError("need at least 1e4 samples")
    if limit_values is not None and len(limit_values) != len(s_vectors):
        raise ParameterError(
            f"limit_values has {len(limit_values)} entries for {len(s_vectors)} s-vectors"
        )
    t0 = time.time()
    taus = tuple(float(t) for t in taus)
    pts = [scale_dpp(frame, tau, 0.0)[:2] for tau in taus]
    g = _batched_g(ModelParams.two_sided(frame.rho), master_seed, n_samples, pts)
    s_samples = np.column_stack(
        [rescale_at_point(frame, x, y, g[:, k]) for k, (x, y) in enumerate(pts)]
    )
    ecdf = EmpiricalCDF(s_samples)
    if limit_values is None:
        limit_values = limit_cdf_table(taus, s_vectors)
    gaps, excesses = [], []
    for sv, fv in zip(s_vectors, limit_values):
        p, se = ecdf.joint_prob(sv)
        gaps.append(abs(p - fv))
        excesses.append(abs(p - fv) - 3.0 * se - bias_allowance)
    if bias_allowance > 0:
        statistic = float(max(excesses))
        passed = statistic <= 0.0
        threshold = 0.0
    else:
        statistic = float(max(gaps))
        passed = statistic <= threshold
    return ValidationReport(
        name="mc-vs-limit",
        statistic=statistic,
        threshold=threshold,
        passed=passed,
        runtime_s=time.time() - t0,
        master_seed=master_seed,
        config={
            "T": frame.T,
            "rho": frame.rho,
            "taus": list(taus),
            "n_samples": n_samples,
        },
        extras={
            "sup_gap": float(max(gaps)),
            "mean_s": [float(v) for v in s_samples.mean(axis=0)],
            "var_s": [float(v) for v in s_samples.var(axis=0)],
        },
    )


# ---------------------------------------------------------------------------
# slow decorrelation


def slow_decorrelation_validate(
    frame: ScalingFrame,
    c1: float,
    c2: float,
    theta: float,
    beta: float,
    n_samples: int,
    master_seed: int,
    threshold: float = 0.95,
) -> ValidationReport:
    """Sample G(B) - G(A) - r on shared fields for B = A + r*(critical
    direction), r = theta*T^nu, and report the fraction within T^beta."""
    rho = frame.rho
    T = frame.T
    ax, ay = int(round(c1 * T)), int(round(c2 * T))
    r = theta * T**frame.nu
    dx = int(round(r * (1.0 - rho) ** 2))
    dy = int(round(r * rho**2))
    if dx == 0 and dy == 0:
        raise RefusalError("offset rounds to zero; increase theta or T")
    r_eff = dx / (1.0 - rho) + dy / rho  # exact mean of the increment
    t0 = time.time()
    pts = [(ax, ay), (ax + dx, ay + dy)]
    g = _batched_g(ModelParams.two_sided(rho), master_seed, n_samples, pts)
    dev = g[:, 1] - g[:, 0] - r_eff
    tol = T**beta
    frac = float(np.mean(np.abs(dev) <= tol))
    return ValidationReport(
        name="slow-decorrelation",
        statistic=frac,
        threshold=threshold,
        passed=frac >= threshold,
        runtime_s=time.time() - t0,
        master_seed=master_seed,
        config={
            "T": T,
            "rho": rho,
            "nu": frame.nu,
            "theta": theta,
            "beta": beta,
            "A": [ax, ay],
            "offset": [dx, dy],
            "n_samples": n_samples,
        },
        extras={"r_eff": r_eff, "tolerance": tol, "dev_sd": float(dev.std())},
    )


def slow_decorrelation_negative_control(
    frame: ScalingFrame, c1: float, c2: float, theta: float, beta: float,
    n_samples: int, master_seed: int,
) -> ValidationReport:
    """Negative control: with a window T^beta too narrow for the increment's
    fluctuations the fraction must DROP below 0.9 to pass."""
    rep = slow_decorrelation_validate(frame, c1, c2, theta, beta, n_samples, master_seed, 0.9)
    return replace(rep, name="slow-decorrelation-negative-control", passed=rep.statistic < 0.9)


# ---------------------------------------------------------------------------
# Burke's property


# Start and steps (R right, D down, U up) of the lattice path along which
# burke_increments_validate tests the increments of G: 15 steps, two corners.
BURKE_PATH = ((40, 80), "RRRRRDDDDDRRRRR")
_STEPS = {"R": (1, 0), "D": (0, -1), "U": (0, 1)}


def burke_increments_validate(rho: float, n_samples: int, master_seed: int) -> ValidationReport:
    """Burke's property of the stationary LPP (Balazs-Cator-Seppalainen,
    EJP 11 (2006)): along any down-right path the increments of G are
    independent, with mean 1/(1-rho) across a horizontal edge and 1/rho
    across a vertical one, exactly and at every size.  G comes from one
    last_passage_batch call at the points of BURKE_PATH; each increment,
    taken towards the larger G and scaled by its rate, is Exp(1).  Three
    KS tests: the pooled horizontal and the pooled vertical increments
    against Exp(1), and the sum along the path against Gamma(15, 1), which
    only independent increments follow.  Statistic: the Bonferroni p-value,
    3 times the smallest of the three, passed above 0.01, so that the check
    fails on a correct engine with probability at most 0.01."""
    from scipy import stats  # deferred: it nearly doubles the import time and memory of stasep

    t0 = time.time()
    start, steps = BURKE_PATH
    moves = np.array([_STEPS[c] for c in steps])
    pts = [start] + [tuple(start + p) for p in np.cumsum(moves, axis=0)]
    g = last_passage_batch(ModelParams.two_sided(rho), master_seed, range(n_samples), pts)
    horiz = moves[:, 0] != 0
    # a step down lowers G: flip its sign
    scaled = np.diff(g, axis=1) * moves.sum(axis=1) * np.where(horiz, 1.0 - rho, rho)
    p_h = stats.kstest(scaled[:, horiz].ravel(), "expon").pvalue
    p_v = stats.kstest(scaled[:, ~horiz].ravel(), "expon").pvalue
    p_sum = stats.kstest(scaled.sum(axis=1), "gamma", args=(len(steps),)).pvalue
    corr = np.corrcoef(scaled, rowvar=False) - np.eye(len(steps))
    statistic = float(min(1.0, 3.0 * min(p_h, p_v, p_sum)))
    return ValidationReport(
        name="burke-equilibrium",
        statistic=statistic,
        threshold=0.01,
        passed=statistic > 0.01,
        runtime_s=time.time() - t0,
        master_seed=master_seed,
        config={"rho": rho, "n_samples": n_samples, "start": list(start), "steps": steps},
        extras={
            "ks_horizontal_pvalue": float(p_h),
            "ks_vertical_pvalue": float(p_v),
            "gamma_sum_pvalue": float(p_sum),
            "max_abs_corr": float(np.max(np.abs(corr))),
        },
    )


# ---------------------------------------------------------------------------
# Gaussian fluctuations off the characteristic direction


def offchar_gammas(rho: float) -> Tuple[float, float]:
    """gamma = x/y of the two Gaussian points, 4 gamma_c and gamma_c/4, where
    gamma_c = (1-rho)^2/rho^2 is x/y on the characteristic direction."""
    gc = 1.0 / characteristic_ratio(rho)
    return 4.0 * gc, gc / 4.0


def gaussian_coefficients(rho: float, gamma: float):
    """(mean, variance) per unit N for G(x, y) with x = gamma N/(1+gamma),
    y = N/(1+gamma) off the characteristic direction.

    The mean is the exact stationary law-of-large-numbers value
    x/(1-rho) + y/rho.  The variance is |x/(1-rho)^2 - y/rho^2|
    (Balazs-Cator-Seppalainen, EJP 11 (2006); Gaussian regime:
    Ferrari-Fontes, Ann. Probab. 22 (1994)); it vanishes on the
    characteristic direction x/y = gamma_c, where the fluctuations are KPZ.
    """
    if gamma == 1.0 / characteristic_ratio(rho):
        raise RefusalError("gamma equals the critical ratio; that regime is KPZ")
    pref = gamma / (1.0 + gamma)
    mean = pref * (1.0 / (1.0 - rho) + 1.0 / (gamma * rho))
    var = pref * abs(1.0 / (1.0 - rho) ** 2 - 1.0 / (gamma * rho**2))
    if not var > 0:
        raise ParameterError(f"non-positive variance coefficient {var}")
    return mean, var


def point_variance(rho: float, x: int, y: int) -> float:
    """Var G(x, y) per unit N = x + y by the law |x/(1-rho)^2 - y/rho^2|, at
    the lattice point itself: gaussian_coefficients(rho, x/y) off the axes
    (refused on the characteristic), the one surviving term on an axis."""
    if x == 0 or y == 0:
        return (x / (1.0 - rho) ** 2 + y / rho**2) / (x + y)
    return gaussian_coefficients(rho, x / y)[1]


def gaussian_offchar_validate(
    rho: float,
    gamma: float,
    n_scale: int,
    n_samples: int,
    master_seed: int,
    threshold: float = 0.05,
) -> ValidationReport:
    """KS test of G(x, y) at the lattice point nearest the gamma ray of scale
    N = n_scale, centred on its exact mean and standardized by the point's
    own variance (point_variance), against N(0,1) away from the
    characteristic direction.  Near rho = 0 or 1 the point can round onto an
    axis, where the ray's coefficient would misstate the variance by a
    quarter."""
    from scipy import stats  # deferred, as in burke_increments_validate

    gaussian_coefficients(rho, gamma)  # refuses the characteristic ray
    t0 = time.time()
    N = int(n_scale)
    y = int(round(N / (1.0 + gamma)))
    x = N - y
    var = point_variance(rho, x, y)
    mu = x / (1.0 - rho) + y / rho  # exact lattice mean
    g = _batched_g(ModelParams.two_sided(rho), master_seed, n_samples, [(x, y)])[:, 0]
    centered = (g - mu) / math.sqrt(N)
    z = centered / math.sqrt(var)
    ks = stats.kstest(z, "norm")
    return ValidationReport(
        name="gaussian-off-characteristic",
        statistic=float(ks.statistic),
        threshold=threshold,
        passed=bool(ks.statistic <= threshold),
        runtime_s=time.time() - t0,
        master_seed=master_seed,
        config={"rho": rho, "gamma": gamma, "N": N, "n_samples": n_samples},
        extras={
            "var_coeff": var,
            "sample_var": float(centered.var()),
            "ks_pvalue": float(ks.pvalue),
            "point": [x, y],
        },
    )

