"""Validation harnesses: Monte Carlo confronting the simulators with the
limit law and with the model's exactly-known side results, plus the exact
identities (pathwise bridge, kernel dual representation, invertibility
guard).  Each criterion of `stasep validate` is one function here returning
a ValidationReport; the acceptance tests call the same functions.

Everything here is deterministic given (parameters, master_seed): sampling
is counter-based, aggregation is order-independent, and the statistical
routines (KS, chi-square) are scipy's.  The MC routes deliberately consume
no special-function code; their only contact point with the limit-law stack
is its public evaluator.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from .errors import ParameterError, RefusalError
from .limitlaw import (
    MultiPointSpec, airy_convolution_identity, invertibility_guard, khat_dual_check, limit_cdf,
)
from .lpp import last_passage_batch
from .rng import TAG_QUEUE_ARR, TAG_QUEUE_LEN, TAG_QUEUE_SRV, CounterStream, SeedSpec, sample_geom
from .scaling import ScalingFrame, characteristic_ratio, rescale_at_point, scale_dpp
from .tasep import lpp_bridge_check
from .weights import BatchWeights, ModelParams


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
        self.sorted_cols = [np.sort(samples[:, k]) for k in range(samples.shape[1])]

    def joint_prob(self, thresholds) -> Tuple[float, float]:
        """(estimate, binomial standard error) of P(all coords <= thresholds)."""
        thr = np.asarray(thresholds, dtype=float)
        p = float(np.mean(np.all(self.samples <= thr[None, :], axis=1)))
        se = math.sqrt(max(p * (1.0 - p), 1.0 / self.n) / self.n)
        return p, se

    def marginal_cdf(self, k: int, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.searchsorted(self.sorted_cols[k], s, side="right") / self.n


def empirical_cdf_joint(samples, thresholds) -> Tuple[float, float]:
    return EmpiricalCDF(samples).joint_prob(thresholds)


def _chunk_g(params, master_seed, lo, hi, points, batch):
    out = []
    for a in range(lo, hi, batch):
        b = min(a + batch, hi)
        out.append(last_passage_batch(params, master_seed, range(a, b), points))
    return np.concatenate(out, axis=0)


def _batched_g(params, master_seed, n_samples, points, batch=512, sample_offset=0, threads=1):
    lo, hi = sample_offset, sample_offset + n_samples
    if threads <= 1:
        return _chunk_g(params, master_seed, lo, hi, points, batch)
    # deterministic: samples are indexed, so the split is order-independent
    edges = np.linspace(lo, hi, threads + 1).astype(int)
    parts = run_parallel(
        _chunk_g,
        [(params, master_seed, int(a), int(b), points, batch) for a, b in zip(edges[:-1], edges[1:]) if b > a],
        threads,
    )
    return np.concatenate(parts, axis=0)


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
    """Largest gap of khat_dual_check over three tau-pairs x 9 points and of
    airy_convolution_identity at two points, against 1e-8.  Deterministic:
    master_seed is only recorded in the report."""
    t0 = time.time()
    worst = 0.0
    for taus in ((0.0, 1.0), (-1.0, 2.0), (-0.5, 0.5)):
        spec = MultiPointSpec(taus, (0.0, 0.0))
        for x in (-1.0, 0.0, 1.0):
            for y in (-1.0, 0.0, 1.0):
                worst = max(worst, khat_dual_check(spec, 2, 1, x, y)[2])
    worst = max(
        worst,
        airy_convolution_identity(1.0, 0.0, 0.0, 0.0)[2],
        airy_convolution_identity(1.5, -0.5, 1.0, -1.0)[2],
    )
    return ValidationReport(
        name="kernel-dual", statistic=worst, threshold=1e-8, passed=worst <= 1e-8,
        runtime_s=time.time() - t0, master_seed=master_seed,
    )


def invertibility_validate(specs: Sequence[MultiPointSpec], master_seed: int) -> ValidationReport:
    """invertibility_guard (det(1-D) > 0) on each spec at the default
    quadrature; statistic: the smallest determinant.  Deterministic:
    master_seed is only recorded in the report."""
    t0 = time.time()
    guards = [invertibility_guard(spec) for spec in specs]
    dets = [diag["det"] for _, diag in guards]
    return ValidationReport(
        name="invertibility-guard", statistic=float(min(dets)), threshold=0.0,
        passed=all(ok for ok, _ in guards), runtime_s=time.time() - t0,
        master_seed=master_seed, extras={"dets": dets},
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
    threads: int = 1,
) -> ValidationReport:
    """Simulate the stationary model at the scaled points, rescale, and
    compare the joint empirical CDF against the limit law on a grid of
    s-vectors.  Each sample is centred on the exact lattice mean
    x/(1-rho) + y/rho of its simulated (floored) point (rescale_at_point),
    so the floors in scale_dpp add no O(1) shift in s at any T.
    Statistic: max_k (|emp_k - F_k| - 3 se_k - bias_allowance), clipped
    below at the plain sup distance when bias_allowance = 0."""
    if frame.T < 250:
        raise RefusalError("frame too small: need T >= 250")
    if n_samples < 10**4:
        raise RefusalError("need at least 1e4 samples")
    t0 = time.time()
    taus = tuple(float(t) for t in taus)
    pts = [scale_dpp(frame, tau, 0.0)[:2] for tau in taus]
    g = _batched_g(ModelParams.two_sided(frame.rho), master_seed, n_samples, pts, threads=threads)
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
# shift argument


def shift_coupling_validate(
    a: float, b: float, point, n_samples: int, master_seed: int
) -> ValidationReport:
    """max |G+ - G - w00| over shared-randomness samples (zero in exact
    arithmetic, since every up-right path passes the origin; the float
    path sums differ by a few ulps, hence the threshold 1e-12)."""
    t0 = time.time()
    pts = [tuple(point)]
    plus = ModelParams.shifted_plus(a, b)
    gz = _batched_g(ModelParams.shifted_zero(a, b), master_seed, n_samples, pts)[:, 0]
    gp = _batched_g(plus, master_seed, n_samples, pts)[:, 0]
    w00 = BatchWeights(plus, master_seed, range(n_samples)).row(0, 0)[:, 0]
    err = float(np.max(np.abs(gp - (gz + w00)), initial=0.0))
    return ValidationReport(
        name="shift-coupling", statistic=err, threshold=1e-12, passed=err <= 1e-12,
        runtime_s=time.time() - t0, master_seed=master_seed,
    )


def shift_argument_validate(
    a: float,
    b: float,
    points: Sequence[Tuple[int, int]],
    u_grid: Sequence[float],
    n_samples: int,
    master_seed: int,
    threshold: float = 0.02,
) -> ValidationReport:
    """Check P = (1 + (a+b)^-1 sum_k d/du_k) P+ pointwise on a diagonal
    threshold grid (u, ..., u); the u_k-derivatives of P+ are estimated by
    Gaussian-kernel smoothing with the usual n^(-1/5) bandwidth."""
    if not a + b > 0:
        raise ParameterError("shift argument requires a + b > 0")
    t0 = time.time()
    pts = [tuple(map(int, p)) for p in points]
    m = len(pts)
    gz = _batched_g(ModelParams.shifted_zero(a, b), master_seed, n_samples, pts)
    gp = _batched_g(
        ModelParams.shifted_plus(a, b), master_seed, n_samples, pts, sample_offset=n_samples
    )
    bandwidths = []
    for k in range(m):
        sd = float(np.std(gp[:, k]))
        h = 1.06 * sd * n_samples ** (-1.0 / 5.0)
        if not h > 0:
            raise RefusalError("degenerate bandwidth")
        bandwidths.append(h)
    worst = 0.0
    details = []
    inv_r = 1.0 / (a + b)
    for u in u_grid:
        uvec = np.full(m, float(u))
        p_zero = float(np.mean(np.all(gz <= uvec[None, :], axis=1)))
        p_plus = float(np.mean(np.all(gp <= uvec[None, :], axis=1)))
        deriv = 0.0
        for k in range(m):
            others = np.all(np.delete(gp, k, axis=1) <= np.delete(uvec, k)[None, :], axis=1)
            z = (u - gp[:, k]) / bandwidths[k]
            kern = np.exp(-0.5 * z * z) / (bandwidths[k] * math.sqrt(2.0 * math.pi))
            deriv += float(np.mean(kern * others))
        rhs = p_plus + inv_r * deriv
        details.append({"u": float(u), "lhs": p_zero, "rhs": rhs})
        worst = max(worst, abs(p_zero - rhs))
    return ValidationReport(
        name="shift-argument",
        statistic=worst,
        threshold=threshold,
        passed=worst <= threshold,
        runtime_s=time.time() - t0,
        master_seed=master_seed,
        config={"a": a, "b": b, "points": [list(p) for p in pts], "n_samples": n_samples},
        extras={"grid": details},
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
# tandem queues / Burke


def tandem_queue_sim(rho: float, n_queues: int, t_end: float, seed: SeedSpec):
    """FCFS tandem of Exp(1) servers fed by a Poisson(rho) stream, started
    from iid queue lengths with the M/M/1 stationary law
    P(L = k) = (1-rho) rho^k.  Returns (final_lengths, departure times per
    queue)."""
    if not 0.0 < rho < 1.0:
        raise ParameterError("rho must be in (0,1)")
    lengths = [sample_geom(CounterStream(seed, TAG_QUEUE_LEN, lane=q), rho) for q in range(n_queues)]
    srv_streams = [CounterStream(seed, TAG_QUEUE_SRV, lane=q) for q in range(n_queues)]
    arr_stream = CounterStream(seed, TAG_QUEUE_ARR, lane=0)
    departures: List[List[float]] = [[] for _ in range(n_queues)]

    import heapq

    heap: List[Tuple[float, int]] = []  # (time, queue) service completions; queue -1 = arrival
    heapq.heappush(heap, (-math.log(arr_stream.uniform()) / rho, -1))
    for q in range(n_queues):
        if lengths[q] > 0:
            heapq.heappush(heap, (-math.log(srv_streams[q].uniform()), q))
    while heap:
        t, q = heapq.heappop(heap)
        if t > t_end:
            break
        if q == -1:  # external arrival at queue 0
            lengths[0] += 1
            if lengths[0] == 1:
                heapq.heappush(heap, (t - math.log(srv_streams[0].uniform()), 0))
            heapq.heappush(heap, (t - math.log(arr_stream.uniform()) / rho, -1))
        else:  # service completion at queue q
            lengths[q] -= 1
            departures[q].append(t)
            if lengths[q] > 0:
                heapq.heappush(heap, (t - math.log(srv_streams[q].uniform()), q))
            if q + 1 < n_queues:
                lengths[q + 1] += 1
                if lengths[q + 1] == 1:
                    heapq.heappush(heap, (t - math.log(srv_streams[q + 1].uniform()), q + 1))
    return lengths, departures


def burke_validate(
    rho: float,
    n_departures: int,
    master_seed: int,
    n_queues: int = 3,
    n_replicas: int = 4000,
    p_threshold: float = 0.01,
) -> ValidationReport:
    """Burke's theorem in equilibrium: inter-departure gaps from the last
    queue are iid Exp(1/rho) (KS), and the queue-length marginal at a fixed
    time stays (1-rho) rho^k (chi-square)."""
    t0 = time.time()
    t_end = 1.25 * n_departures / rho
    _, deps = tandem_queue_sim(rho, n_queues, t_end, SeedSpec(master_seed, 0))
    gaps = np.diff(np.array(deps[n_queues - 1]))
    if len(gaps) < n_departures:
        raise RefusalError(f"only {len(gaps)} departures; extend t_end")
    gaps = gaps[:n_departures]
    ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / rho))

    # queue-length marginal at t=5 over independent replicas
    t_fix = 5.0
    lens = []
    for rep in range(1, n_replicas + 1):
        lengths, _ = tandem_queue_sim(rho, 1, t_fix, SeedSpec(master_seed, rep))
        lens.append(lengths[0])
    lens = np.array(lens)
    kmax = 8
    obs = np.array([np.sum(lens == k) for k in range(kmax)] + [np.sum(lens >= kmax)])
    probs = np.array([(1 - rho) * rho**k for k in range(kmax)] + [rho**kmax])
    chi = stats.chisquare(obs, n_replicas * probs)

    # Poisson count sanity on the last queue
    count_t = len(np.array(deps[n_queues - 1]))
    count_dev = abs(count_t - rho * t_end) / math.sqrt(rho * t_end)

    passed = (
        ks.pvalue > p_threshold and chi.pvalue > p_threshold and count_dev <= 4.0
    )
    return ValidationReport(
        name="burke-equilibrium",
        statistic=float(min(ks.pvalue, chi.pvalue)),
        threshold=p_threshold,
        passed=bool(passed),
        runtime_s=time.time() - t0,
        master_seed=master_seed,
        config={"rho": rho, "n_departures": n_departures, "n_queues": n_queues},
        extras={
            "ks_pvalue": float(ks.pvalue),
            "chi2_pvalue": float(chi.pvalue),
            "p_len0": float(np.mean(lens == 0)),
            "count_sigma": float(count_dev),
        },
    )


# ---------------------------------------------------------------------------
# Gaussian fluctuations off the characteristic direction


def offchar_gammas(rho: float) -> Tuple[float, float, float]:
    """gamma = x/y of the two Gaussian points and of the critical control:
    4 gamma_c, gamma_c/4 and gamma_c (1 + 1e-9), where gamma_c = (1-rho)^2/rho^2
    is x/y on the characteristic direction."""
    gc = 1.0 / characteristic_ratio(rho)
    return 4.0 * gc, gc / 4.0, gc * (1.0 + 1e-9)


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


def _offchar_ks(
    rho: float, gamma: float, N: int, variance, n_samples: int, master_seed: int,
    threshold: float, threads: int,
) -> ValidationReport:
    """KS test against N(0,1) of G at the lattice point (x, y) nearest the
    gamma ray of scale N, centred on its exact mean and divided by
    sqrt(variance(x, y) N)."""
    t0 = time.time()
    y = int(round(N / (1.0 + gamma)))
    x = N - y
    var = variance(x, y)
    mu = x / (1.0 - rho) + y / rho  # exact lattice mean
    g = _batched_g(ModelParams.two_sided(rho), master_seed, n_samples, [(x, y)], threads=threads)[:, 0]
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


def gaussian_offchar_validate(
    rho: float,
    gamma: float,
    n_scale: int,
    n_samples: int,
    master_seed: int,
    threshold: float = 0.05,
    threads: int = 1,
) -> ValidationReport:
    """KS test of G(x, y) at the lattice point nearest the gamma ray, centred
    on its exact mean and standardized by the point's own variance
    (point_variance), against N(0,1) away from the characteristic direction.
    Near rho = 0 or 1 the point can round onto an axis, where the ray's
    coefficient would misstate the variance by a quarter."""
    gaussian_coefficients(rho, gamma)  # refuses the characteristic ray
    return _offchar_ks(
        rho, gamma, int(n_scale), lambda x, y: point_variance(rho, x, y),
        n_samples, master_seed, threshold, threads,
    )


def gaussian_critical_control(
    rho: float, n_scale: int, n_samples: int, master_seed: int, threads: int = 1
) -> ValidationReport:
    """Negative control a relative 1e-9 off the characteristic: passes when
    KS exceeds 0.05.  It standardizes by the ray's variance coefficient,
    about 2e-9 there, so KS reads about 0.5 whatever the law of G: this
    checks only that the coefficient vanishes."""
    gamma = offchar_gammas(rho)[2]
    var = gaussian_coefficients(rho, gamma)[1]
    rep = _offchar_ks(
        rho, gamma, int(n_scale), lambda x, y: var, n_samples, master_seed, 0.05, threads
    )
    return replace(rep, name="gaussian-critical-control", passed=rep.statistic > 0.05)


# ---------------------------------------------------------------------------


def run_parallel(fn, arglists, threads: int):
    """Order-preserving map, optionally across processes."""
    if threads <= 1:
        return [fn(*args) for args in arglists]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        futures = [ex.submit(fn, *args) for args in arglists]
        return [f.result() for f in futures]
