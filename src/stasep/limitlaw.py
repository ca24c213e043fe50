"""Multi-point limit law: extended Airy kernel with shifted entries, block
Fredholm determinant, the resolvent correction functional, and the final CDF

    F(tau, s) = sum_k d/ds_k [ g_m(tau, s) * det(1 - P_s Khat P_s) ].

Kernel (row index i, column index j, Delta = tau_i - tau_j):

    Khat_{ij}(x, y) = int_0^inf Ai(x+l+tau_i^2) Ai(y+l+tau_j^2) e^{-l(tau_j-tau_i)} dl
                      - 1[tau_i > tau_j] *
                        exp(-(x-y)^2/(4 Delta) + (2/3)(tau_j^3 - tau_i^3)
                            + tau_j y - tau_i x) / sqrt(4 pi Delta)

For tau_i > tau_j this is the rewrite of -int_{-inf}^0 via the bilinear
Airy convolution identity; khat_dual_check evaluates both routes.

Discretization: per threshold k, an n-node Gauss-Legendre rule on
[s_k, s_k + Lambda_k], n from the resolution bounds of _node_count; the
block matrix is balanced with sqrt(w_p w_q).  numpy's slogdet gives det(1-D)
and its sign check; one inverse of 1 - D, taken after that check, serves
every solve and the exact condition number.  The inner product keeps its
identity component exact:

    <rho P Phi, P Psi> = <Phi, Psi>_w + psi^T (1-D)^{-1} D phi.

The lambda integrals of the kernel use one Airy table per distinct block
(equal tau_i^2, s_i and interval length give equal tables), which the first
term of Phi reuses.  B(lambda), B(0), Psi_j and the third term of Phi
are one-dimensional tail integrals T(v) = int_v^inf e^{-a u} Ai(u + b) du,
each tabulated over a whole point set on one set of Airy arguments
(_tail_plan); Psi_j and Phi_j share one plan on nodes[j], and B(0)'s
one-point plan is R's rule.  NystromSystem evaluates Ai at the block tables,
those sets, R's rule and the column Ai(x + tau_i^2) in one airy_ai call per
system, and def11_terms computes R, B, Psi_j and Phi_i from the slices;
airy_ai is elementwise, so the values are those of separate calls bit for
bit.

sum_k d/ds_k is the derivative along (1, ..., 1), taken in closed form from
the one system at s.  Under a uniform shift of the thresholds the nodes move
with their intervals, and integrating by parts in lambda gives

    (d_x + d_y) Khat_ij = -Ai(x + tau_i^2) Ai(y + tau_j^2) + (tau_j - tau_i) Khat_ij,
    Psi_j' = tau_j Psi_j + Ai(y + tau_j^2),
    Phi_i' = -tau_i Phi_i + (1 - c B(0)) Ai(x + tau_i^2),   R' = 1 - c B(0),

with c = e^{-2/3 tau_1^3}.  In balanced form D' = -a a^T + [D, T], where
a = sqrt(w) Ai(x + tau^2) and T = diag(tau).  The commutator has zero trace
against (1-D)^{-1} and its pairing terms cancel the tau-terms of Psi' and
Phi', so with v = (1-D)^{-1} phi and u = (1-D)^{-T} psi

    d log det = a^T (1-D)^{-1} a,
    <rho Phi, Psi>' = a^T v + (1 - c B(0)) u^T a - (u^T a)(a^T v),

where u^T a = psi^T (1-D)^{-1} a: two solves, for (1-D)^{-1} a and v
(_shift_derivatives).
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import AccuracyError, InvertibilityError, ParameterError
from .specfun import airy_ai, composite_rule, gaussian_tail_integral, legendre_rule

M_CAP = 8
ALARM_BAND = 1e-3  # limit_cdf refuses an F outside [-ALARM_BAND, 1 + ALARM_BAND]


@dataclass(frozen=True)
class MultiPointSpec:
    """tau_1 < ... < tau_m with thresholds s_1, ..., s_m."""

    taus: Tuple[float, ...]
    esses: Tuple[float, ...]

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        esses = tuple(float(s) for s in self.esses)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "esses", esses)
        if len(taus) != len(esses):
            raise ParameterError("taus and esses must have equal length")
        if not 1 <= len(taus) <= M_CAP:
            raise ParameterError(f"m must be in [1, {M_CAP}]")
        if any(t2 <= t1 for t1, t2 in zip(taus, taus[1:])):
            raise ParameterError("taus must be strictly increasing (equal taus rejected)")
        if not all(map(math.isfinite, taus + esses)):
            raise ParameterError("taus and esses must be finite")

    @property
    def m(self) -> int:
        return len(self.taus)


@dataclass(frozen=True)
class QuadratureConfig:
    n: int = 32               # least Gauss-Legendre nodes per threshold interval
    big_lambda: float = 12.0  # truncation length of [s_k, s_k + Lambda]

    def __post_init__(self):
        if self.n < 16:
            raise ParameterError("need n >= 16 nodes per interval")
        if self.big_lambda < 8:
            raise ParameterError("need Lambda >= 8")

    def refined(self) -> "QuadratureConfig":
        """The (2n, Lambda+4) companion used for convergence checks."""
        return QuadratureConfig(n=2 * self.n, big_lambda=self.big_lambda + 4.0)


# Every truncated Airy integral is cut where its dropped tail mass is
# certified below e^-TAIL_EXPONENT (~5e-19) and integrated with Gauss-Legendre
# panels of width PANEL_WIDTH carrying PANEL_NODES nodes each.
TAIL_EXPONENT = 42.0
PANEL_WIDTH, PANEL_NODES = 1.5, 12


# log max|Ai| (max|Ai| = 0.53566 at t = -1.0188), rounded up
_LOG_AI_MAX = -0.6241
_LOG_TWO_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))


def _airy_log_envelope(t: float) -> float:
    """An upper bound on log|Ai(t)|: log max|Ai| on t <= 0, and on t > 0 the
    smaller of that and log(e^{-2/3 t^(3/2)} / (2 sqrt(pi) t^(1/4))), which
    bounds Ai(t) from above (DLMF 9.7.15)."""
    if t <= 0.0:
        return _LOG_AI_MAX
    return min(_LOG_AI_MAX, -(2.0 / 3.0) * t**1.5 - 0.25 * math.log(t) - _LOG_TWO_SQRT_PI)


def _airy_rule(lo: float, shift: float, rate: float, factors: int, target: float = TAIL_EXPONENT):
    """Composite rule on [lo, lo + L] for an integrand of `factors` (1 or 2)
    Airy factors, each decaying like Ai(l - lo + shift), against e^{rate (l - lo)}.
    L is the first rung of the ladder 4, 8, ..., 160 (160 if none) at which
    the cut is certified: the envelope of the integrand decays past L at
    least like e^{-(l - L)}, because factors sqrt(L + shift) >= rate + 1, so
    the dropped tail is at most the envelope at L, and that is below
    e^-target."""
    length = 4.0
    while length < 160.0 and not (
        factors * math.sqrt(max(length + shift, 0.0)) >= rate + 1.0
        and -factors * _airy_log_envelope(length + shift) - rate * length >= target
    ):
        length += 4.0
    return composite_rule(lo, lo + length, int(np.ceil(length / PANEL_WIDTH)), PANEL_NODES)


def _lambda_rule(spec: MultiPointSpec):
    """The lambda grid shared by every int_0^inf d-lambda factor of a system."""
    taus = np.array(spec.taus)
    dmax = float(taus[-1] - taus[0]) if spec.m > 1 else 0.0
    shift = float(np.array(spec.esses).min() + (taus**2).min())
    return _airy_rule(0.0, shift, dmax, 2)


# Gauss-Legendre panels between consecutive points of a tail-integral table:
# width <= 0.5 with 8 nodes keeps each panel at float64 rounding for the
# arguments and rates the limit law uses.
_SEG_WIDTH, _SEG_NODES = 0.5, 8
_SEG_RULE = legendre_rule(_SEG_NODES, 0.0, 1.0)


def _tail_plan(rates, b: float, v: np.ndarray, target: float = TAIL_EXPONENT):
    """The Airy arguments u + b of T_a(v_k) = int_{v_k}^inf e^{-a u} Ai(u + b) du
    for every rate a in `rates` at every point of the 1-D array v, and
    `finish`, which turns Ai at those arguments into one T_a per rate, each in
    v's order (unsorted and repeated points allowed).

    The points are sorted once; short Gauss-Legendre panels integrate each
    gap between neighbours, and a cumulative sum from the right adds them
    onto one tail integral beyond the largest point.  The rates share the
    panels' arguments.  Each rate has its own tail, truncated where e^{a v_k}
    times the dropped mass is certified below e^{-target} for every k; rates
    whose tails come out as the same rule share its arguments too.
    """
    order = np.argsort(v, kind="stable")
    vs = v[order]
    top = float(vs[-1])
    gaps = np.diff(vs)
    panels = np.maximum(np.ceil(gaps / _SEG_WIDTH), 1.0).astype(int)
    first = np.cumsum(panels) - panels
    width = np.repeat(gaps / panels, panels)
    left = np.repeat(vs[:-1], panels) + (np.arange(width.size) - np.repeat(first, panels)) * width
    u = [(left[:, None] + width[:, None] * _SEG_RULE.nodes[None, :]).ravel()]
    starts, tails = {}, []
    for a in rates:
        rate = max(-a, 0.0)
        tail = _airy_rule(top, top + b, rate, 1, target + rate * (top - float(vs[0])))
        if tail.interval not in starts:  # one interval, one composite rule
            starts[tail.interval] = sum(x.size for x in u)
            u.append(tail.nodes)
        tails.append((tail, starts[tail.interval]))
    n_gap = width.size * _SEG_NODES

    def finish(ai: np.ndarray):
        out = []
        for a, (tail, start) in zip(rates, tails):
            pieces = np.empty(vs.size)
            pieces[-1] = np.dot(tail.weights, np.exp(-a * tail.nodes) * ai[start : start + tail.nodes.size])
            if vs.size > 1:
                f = np.exp(-a * u[0]) * ai[:n_gap]
                per_panel = width * (f.reshape(-1, _SEG_NODES) @ _SEG_RULE.weights)
                pieces[:-1] = np.add.reduceat(per_panel, first)
            t = np.empty(vs.size)
            t[order] = np.cumsum(pieces[::-1])[::-1]
            out.append(t)
        return out

    return np.concatenate(u) + b, finish


N_CAP = 512  # the most nodes per threshold interval limit_cdf will use


def _node_count(spec: MultiPointSpec, floor: int, l_max: float) -> int:
    """Gauss-Legendre nodes per threshold interval: the larger of `floor`
    and two resolution bounds over the longest interval l_max, rounded up
    to a multiple of 8, so that few rule sizes reach the cache of
    specfun._leggauss.

    Gaussian (m >= 2): the closest pair's Gaussian term has width
    sigma = sqrt(2 min(tau_{k+1} - tau_k)); 2.4 l_max / sigma nodes.
    Airy (x_min = min_k(s_k + tau_k^2) < 0): the kernel oscillates with local
    wavelength 2 pi / sqrt(-x_min) at the left end; 0.75 l_max sqrt(-x_min)
    nodes, three per wavelength mid-interval, where Gauss-Legendre nodes
    are sparsest.

    The constants were sized against references at 2n and beyond: F
    agreed with them to 1e-12 or better, at |tau| <= 2.5 and s in
    [-10, 6].  A count past N_CAP is refused with AccuracyError; at
    Lambda = 12 that happens for tau's closer than about 0.002."""
    n = floor
    if spec.m > 1:
        sigma = math.sqrt(2.0 * min(b - a for a, b in zip(spec.taus, spec.taus[1:])))
        n = max(n, math.ceil(2.4 * l_max / sigma))
    x_min = min(s + t * t for s, t in zip(spec.esses, spec.taus))
    if x_min < 0.0:
        n = max(n, math.ceil(0.75 * l_max * math.sqrt(-x_min)))
    n = -(-n // 8) * 8
    if n > N_CAP:
        raise AccuracyError(
            f"the kernel needs n = {n} nodes per interval to be resolved, "
            f"more than {N_CAP}: refused"
        )
    return n


class NystromSystem:
    """Quadrature grids, the balanced block kernel matrix, and the Airy values
    and plans (def11_ai, def11_plans) that def11_terms finishes into the
    Definition-1.1 tables, for one (spec, config) pair; quad.n is a floor on
    the nodes per interval, and `n` holds the count _node_count chose."""

    def __init__(self, spec: MultiPointSpec, quad: QuadratureConfig):
        self.spec = spec
        m = spec.m
        taus = np.array(spec.taus)
        esses = np.array(spec.esses)

        # Per-interval truncation: [s_k, s_k + Lambda_k].  Lambda_k must cover
        # the Psi*Phi pairing tail, which decays like
        # exp(tau_max * u - 2/3 (u + tau_min^2)^{3/2}) from the Airy pieces
        # and like exp(-(u - s_1)^2 / (4 (tau_k - tau_1))) from the Gaussian
        # piece of Phi_k (k >= 2); extend until both certify e^-30.
        target = 30.0
        tau_pos = max(float(taus.max()), 0.0)
        tau_min_sq = float((taus**2).min())
        u_star = float(esses.max()) + quad.big_lambda
        while u_star < float(esses.max()) + 120.0:
            if (2.0 / 3.0) * max(u_star + tau_min_sq, 0.0) ** 1.5 - tau_pos * u_star >= target:
                break
            u_star += 0.5
        lengths = []
        for k in range(m):
            lk = max(quad.big_lambda, u_star - esses[k])
            if k >= 1:
                gauss_reach = esses[0] + math.sqrt(4.0 * target * (taus[k] - taus[0]))
                lk = max(lk, gauss_reach - esses[k])
            lengths.append(lk)
        self.lengths = lengths
        self.n = n = _node_count(spec, quad.n, max(lengths))

        rules = [legendre_rule(n, s, s + lk) for s, lk in zip(esses, lengths)]
        self.nodes = [r.nodes for r in rules]
        self.weights = [r.weights for r in rules]
        sqw = [np.sqrt(w) for w in self.weights]

        lam_rule = _lambda_rule(spec)
        self.lam = lam_rule.nodes
        self.lam_w = lam_rule.weights
        self.lam_len = lam_rule.interval[1]

        # Every Airy value of the point comes from one airy_ai call: a table
        # Ai(x_p^(i) + tau_i^2 + lambda_l) per distinct (tau_i^2, s_i,
        # length_i), since equal keys give equal nodes, then the arguments of
        # _def11_plans.  airy_ai is elementwise, so each slice holds what a
        # call of its own gives, bit for bit.
        keys = [(taus[i] ** 2, esses[i], lengths[i]) for i in range(m)]
        distinct = list(dict.fromkeys(keys))
        table_args = [
            self.nodes[i][:, None] + taus[i] ** 2 + self.lam[None, :] for i in map(keys.index, distinct)
        ]
        def11_args, self.def11_plans = _def11_plans(spec, self.nodes, self.lam)
        args = [a.ravel() for a in table_args] + def11_args
        ai = np.split(airy_ai(np.concatenate(args)), np.cumsum([a.size for a in args[:-1]]))
        tables = [v.reshape(a.shape) for v, a in zip(ai, table_args)]
        self.ai_tables = [tables[distinct.index(k)] for k in keys]
        self.def11_ai = ai[len(tables) :]

        blocks = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                decay = np.exp(-self.lam * (taus[j] - taus[i])) * self.lam_w
                blk = (self.ai_tables[i] * decay[None, :]) @ self.ai_tables[j].T
                if taus[i] > taus[j]:
                    x, y = self.nodes[i][:, None], self.nodes[j][None, :]
                    blk = blk - _gauss_term(spec.taus[i], spec.taus[j], x, y)
                blocks[i][j] = sqw[i][:, None] * blk * sqw[j][None, :]
        self.matrix = np.block(blocks)
        self._slogdet: Optional[Tuple[float, float]] = None
        self._inv: Optional[np.ndarray] = None
        self._norm1: Optional[float] = None  # 1-norm of 1 - D, kept by _inverse

    def _one_minus_d(self) -> np.ndarray:
        """1 - D, formed from `matrix` when asked for (so an edit made before
        det or a solve is seen); a non-finite entry is refused."""
        one_minus_d = np.eye(self.matrix.shape[0]) - self.matrix
        if not np.isfinite(one_minus_d).all():
            raise ValueError("Nystrom matrix must contain only finite numbers")
        return one_minus_d

    def slogdet(self) -> Tuple[float, float]:
        """(sign, log|det|) of 1 - D, taken on first use; an exactly
        singular 1 - D gives sign 0, which det refuses."""
        if self._slogdet is None:
            sign, logabs = np.linalg.slogdet(self._one_minus_d())
            self._slogdet = float(sign), float(logabs)
        return self._slogdet

    def _positive_det(self) -> float:
        """det(1 - D), refused unless positive."""
        sign, logabs = self.slogdet()
        if sign <= 0:
            raise InvertibilityError(
                f"Nystrom determinant non-positive (sign={sign}); "
                "the continuum operator is provably invertible, so refine "
                "the discretization"
            )
        return sign * math.exp(logabs)

    @property
    def det(self) -> float:
        return self._positive_det()

    def _inverse(self) -> np.ndarray:
        """(1 - D)^{-1}, taken once, after det's sign check, and shared by
        every solve and by cond1.  With slogdet's LU that makes two LAPACK
        factorizations per system; the inverse then serves each right-hand
        side, and the exact condition number, with matrix products."""
        if self._inv is None:
            self._positive_det()
            one_minus_d = self._one_minus_d()
            self._norm1 = float(np.linalg.norm(one_minus_d, 1))
            try:
                self._inv = np.linalg.inv(one_minus_d)
            except np.linalg.LinAlgError as exc:
                raise InvertibilityError(f"Nystrom matrix 1 - D is singular: {exc}") from exc
        return self._inv

    def cond1(self) -> float:
        """The 1-norm condition number ||1-D||_1 ||(1-D)^{-1}||_1 of 1 - D,
        rounded down to 3 significant digits."""
        inv_norm1 = float(np.linalg.norm(self._inverse(), 1))
        kappa = self._norm1 * inv_norm1
        scale = 10.0 ** (2 - math.floor(math.log10(kappa)))
        return math.floor(scale * kappa) / scale

    def balanced(self, table: np.ndarray) -> np.ndarray:
        """sqrt(w) times a node table of shape (m, n), as one vector."""
        return np.sqrt(np.concatenate(self.weights)) * np.concatenate(table)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(1-D)^{-1} rhs from the shared inverse X, refined twice by
        x += X (rhs - (1-D) x).  A bare X rhs has an error of order
        eps * cond1 in every component, which in the left tail (cond1 up to
        1e12 at s = -10) buries g; each refinement step shrinks that error
        by a factor of order eps * cond1, down to the level of an LU solve."""
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must contain only finite numbers")
        inv = self._inverse()
        x = inv @ rhs
        for _ in range(2):
            x = x + inv @ (rhs - x + self.matrix @ x)
        return x

    def resolvent_inner(self, phi: np.ndarray, psi: np.ndarray) -> float:
        """<rho P Phi, P Psi> with the identity component kept exact.

        phi, psi are node tables of shape (m, n), row k sampled on nodes[k].
        """
        f = self.balanced(phi)
        g = self.balanced(psi)
        direct = float(g @ f)
        z = self.solve(self.matrix @ f)
        return direct + float(g @ z)


# ---------------------------------------------------------------------------
# kernel entries (scalar routes, used by tests and the dual-representation
# check; the Nystrom assembly above shares _gauss_term and evaluates the
# Airy pair integral in bulk on its lambda grid)


def _gauss_term(tau_i, tau_j, x, y):
    """The Gaussian of the tau_i > tau_j rewrite; broadcasts over x and y."""
    delta = tau_i - tau_j
    expo = (
        -((x - y) ** 2) / (4.0 * delta)
        + (2.0 / 3.0) * (tau_j**3 - tau_i**3)
        + tau_j * y
        - tau_i * x
    )
    return np.exp(expo) / np.sqrt(4.0 * np.pi * delta)


def _airy_pair(tau_i, tau_j, x, y, rule) -> float:
    """int Ai(x+l+tau_i^2) Ai(y+l+tau_j^2) e^{-l(tau_j-tau_i)} dl on `rule`."""
    lam = rule.nodes
    vals = (
        airy_ai(x + lam + tau_i**2)
        * airy_ai(y + lam + tau_j**2)
        * np.exp(-lam * (tau_j - tau_i))
    )
    return float(np.dot(rule.weights, vals))


def _khat_nonneg_branch(tau_i, tau_j, x, y) -> float:
    """The Airy pair integral over [0, inf)."""
    shift = min(x + tau_i**2, y + tau_j**2)
    return _airy_pair(tau_i, tau_j, x, y, _airy_rule(0.0, shift, max(tau_i - tau_j, 0.0), 2))


def khat(spec: MultiPointSpec, i: int, j: int, x: float, y: float) -> float:
    """Extended Airy kernel entry [Khat]_{ij}(x, y); i, j are 1-based."""
    if not (1 <= i <= spec.m and 1 <= j <= spec.m):
        raise ParameterError(f"block indices must lie in [1, {spec.m}]")
    ti, tj = spec.taus[i - 1], spec.taus[j - 1]
    val = _khat_nonneg_branch(ti, tj, x, y)
    if ti > tj:
        val -= float(_gauss_term(ti, tj, x, y))
    return val


def _khat_neg_branch(tau_i, tau_j, x, y) -> float:
    """The Airy pair integral over (-inf, 0], convergent for tau_i > tau_j.
    Its rule is its own, so the dual check compares independent routes."""
    delta = tau_i - tau_j
    # envelope: |Ai Ai e^{l delta}| <= 0.3 e^{l delta} for l -> -inf
    length = min((math.log(0.3) + 23.0) / delta + 8.0, 34.0)
    rule = composite_rule(-length, 0.0, max(8, int(np.ceil(length / 0.5))), 16)
    return _airy_pair(tau_i, tau_j, x, y, rule)


def khat_dual_check(
    spec: MultiPointSpec, i: int, j: int, x: float, y: float
) -> Tuple[float, float, float]:
    """For tau_i > tau_j: the direct -int_{-inf}^0 branch (lhs) against the
    'lambda>=0 integral minus Gaussian' rewrite (rhs), plus their gap."""
    if not (1 <= i <= spec.m and 1 <= j <= spec.m):
        raise ParameterError(f"block indices must lie in [1, {spec.m}]")
    ti, tj = spec.taus[i - 1], spec.taus[j - 1]
    if not ti > tj:
        raise ParameterError("dual check applies to the tau_i > tau_j branch only")
    lhs = -_khat_neg_branch(ti, tj, x, y)
    rhs = _khat_nonneg_branch(ti, tj, x, y) - float(_gauss_term(ti, tj, x, y))
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Definition 1.1 ingredients


@dataclass
class Def11Terms:
    r_value: float
    psi: np.ndarray  # (m, n) tables on the system nodes
    phi: np.ndarray
    b_zero: float    # B(0) = int_{s1}^inf e^{-tau1 y} Ai(y + tau1^2) dy
    ai_shift: np.ndarray  # (m, n) table of Ai(x + tau_i^2) on the system nodes


def _def11_plans(spec: MultiPointSpec, nodes, lam: np.ndarray):
    """The Airy arguments of Definition 1.1 for a system with these nodes and
    lambda grid, and the plans def11_terms finishes their values with: B's
    tail plan on s1 + lambda, R's rule, one shared Psi_j/Phi_j tail plan on
    each nodes[j] (rates tau_j and -tau_j, b = tau_j^2), then the columns
    x + tau_i^2.  B(0)'s tail rule is R's rule, so it needs no arguments."""
    t1, s1 = spec.taus[0], spec.esses[0]
    target = TAIL_EXPONENT + max(-t1 * s1, 0.0)
    b_args, b_tail = _tail_plan((t1,), t1**2, s1 + lam, target)
    r_rule = _airy_rule(s1, s1 + t1**2, max(-t1, 0.0), 1, target)
    pairs = [_tail_plan((t, -t), t**2, x) for t, x in zip(spec.taus, nodes)]
    shift_args = [x + t**2 for x, t in zip(nodes, spec.taus)]
    args = [b_args, r_rule.nodes + t1**2, *(a for a, _ in pairs), *shift_args]
    return args, (b_tail, r_rule, [tail for _, tail in pairs])


def def11_terms(sysm: NystromSystem) -> Def11Terms:
    """R, Psi_j, Phi_i and Ai(x + tau_i^2) tabulated at the nodes of sysm, and
    B(0), finished from the Airy values the system stored for them.  With
    c = e^{-2/3 tau_1^3} and T the tail integral of _tail_plan:

        B(l) = int_{s1}^inf e^{-tau1 y} Ai(y + tau1^2 + l) dy = e^{tau1 l} T(s1 + l),
            a = tau1, b = tau1^2, on the lambda grid;
        B(0) = T(s1), whose one-point plan is R's rule alone;
        R = s1 + c int_{s1}^inf (u - s1) Ai(u + tau1^2) e^{-tau1 u} du
            (the double integral collapsed along u = x + y);
        Psi_j(y) = e^{2/3 tau_j^3 + tau_j y} - int_0^inf Ai(x + y + tau_j^2) e^{-tau_j x} dx,
            the integral being e^{tau_j y} T(y), a = tau_j, b = tau_j^2;
        Phi_i(x) = c int_0^inf Ai(x + tau_i^2 + l) e^{-l(tau1 - tau_i)} B(l) dl
            + 1[i > 1] e^{-2/3 tau_i^3 - tau_i x} G(s1 - x) / sqrt(4 pi (tau_i - tau1))
            - int_0^inf Ai(x + tau_i^2 + y) e^{tau_i y} dy,
            G = gaussian_tail_integral, the last integral being e^{-tau_i x} T(x),
            a = -tau_i, b = tau_i^2.

    Psi_j and Phi_j share one tail plan; Phi's first term reuses the
    system's Airy tables on the lambda grid."""
    spec = sysm.spec
    m = spec.m
    taus = spec.taus
    t1, s1 = taus[0], spec.esses[0]
    c = math.exp(-(2.0 / 3.0) * t1**3)
    b_tail, r_rule, pair_tails = sysm.def11_plans
    ai_b, ai_r, *ai = sysm.def11_ai

    [b_t] = b_tail(ai_b)
    b_table = np.exp(t1 * sysm.lam) * b_t
    u = r_rule.nodes
    decay = np.exp(-t1 * u)
    r_value = s1 + c * float(np.dot(r_rule.weights, (u - s1) * ai_r * decay))
    b_zero = float(np.dot(r_rule.weights, decay * ai_r))
    psi, phi = [], []
    for i, (t, x, tails, v) in enumerate(zip(taus, sysm.nodes, pair_tails, ai[:m])):
        t_psi, t_phi = tails(v)
        psi.append(np.exp((2.0 / 3.0) * t**3 + t * x) - np.exp(t * x) * t_psi)
        term1 = c * (sysm.ai_tables[i] @ (sysm.lam_w * np.exp(-sysm.lam * (t1 - t)) * b_table))
        term2 = 0.0
        if i >= 1:
            delta = t - t1
            gauss = gaussian_tail_integral(s1 - x, delta)
            term2 = np.exp(-(2.0 / 3.0) * t**3 - t * x) / math.sqrt(4.0 * math.pi * delta) * gauss
        phi.append(term1 + term2 - np.exp(-t * x) * t_phi)
    return Def11Terms(
        r_value=r_value, psi=np.stack(psi), phi=np.stack(phi), b_zero=b_zero, ai_shift=np.stack(ai[m:]),
    )


# ---------------------------------------------------------------------------
# the CDF


@dataclass
class LimitLawResult:
    f_value: float
    det_value: float
    g_value: float
    diagnostics: Dict[str, object] = field(default_factory=dict)


def _shift_derivatives(
    spec: MultiPointSpec, sysm: NystromSystem, terms: Def11Terms
) -> Tuple[float, float]:
    """(d log det, dg) along (1, ..., 1), from the identities in the module
    docstring and two solves with the system's inverse."""
    a = sysm.balanced(terms.ai_shift)
    ra, v = sysm.solve(np.stack([a, sysm.balanced(terms.phi)], axis=1)).T
    dr = 1.0 - math.exp(-(2.0 / 3.0) * spec.taus[0] ** 3) * terms.b_zero
    av = float(a @ v)
    ua = float(sysm.balanced(terms.psi) @ ra)
    dpairing = av + dr * ua - ua * av
    return float(a @ ra), dr - dpairing


def limit_cdf(spec: MultiPointSpec, quad: QuadratureConfig = QuadratureConfig()) -> LimitLawResult:
    """F = sum_k d/ds_k (g_m * det) = det * (g' + g * (log det)'), the
    derivative along (1, ..., 1) in closed form from the one system at s.

    g_m = R - <rho P_s Phi, P_s Psi>: the sign matches the finite-size
    functional this is the limit of, and with + the tau -> -tau symmetry of
    the one-point law fails."""
    base = NystromSystem(spec, quad)
    det0 = base.det
    terms = def11_terms(base)
    g0 = terms.r_value - base.resolvent_inner(terms.phi, terms.psi)
    dlogdet, dg = _shift_derivatives(spec, base, terms)
    f = det0 * (dg + g0 * dlogdet)
    if not (-ALARM_BAND <= f <= 1.0 + ALARM_BAND):
        raise AccuracyError(
            f"limit CDF value {f} outside [-{ALARM_BAND}, 1+{ALARM_BAND}]: "
            "numerics alarm"
        )
    return LimitLawResult(
        f_value=f,
        det_value=det0,
        g_value=g0,
        diagnostics={
            "n": base.n,
            "big_lambda": quad.big_lambda,
            "lengths": [float(v) for v in base.lengths],
            "lam_len": base.lam_len,
            "nodes": spec.m * base.n,
            "lam_nodes": int(base.lam.size),
            "logdet": base.slogdet()[1],
            "cond1_est": base.cond1(),
        },
    )


def convergence_gap(
    spec: MultiPointSpec, quad: QuadratureConfig = QuadratureConfig()
) -> Dict[str, float]:
    """|value(n, Lambda) - value(2n, Lambda+4)| for F, det, and g, where n is
    the node count the base value used (quad.n or more)."""
    base = limit_cdf(spec, quad)
    fine = limit_cdf(spec, QuadratureConfig(base.diagnostics["n"], quad.big_lambda).refined())
    return {
        "f_gap": abs(base.f_value - fine.f_value),
        "det_gap": abs(base.det_value - fine.det_value),
        "g_gap": abs(base.g_value - fine.g_value),
        "f": base.f_value,
        "f_refined": fine.f_value,
    }
