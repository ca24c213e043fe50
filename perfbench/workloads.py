"""The four benchmark workloads.

Each workload is one closed-loop client: `run` is one op, and the next op is
issued only after it returns.  Inputs come from the workload seed alone and
are passed to the library as plain arguments.  `check` runs after the op,
outside its timing, and returns whether the op's output is correct;
`finish` runs the checks that need the whole run.

All library calls go through module attributes (`lpp.last_passage_batch`,
not a name imported into this module), so the traced run can rebind them.
"""

import json
import math
from pathlib import Path

import numpy as np

from stasep import limitlaw, lpp, scaling, tasep, weights
from stasep.rng import SeedSpec

HERE = Path(__file__).resolve().parent


def _rng(seed, *key):
    return np.random.default_rng([seed, *key])


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


class Workload:
    """A workload gives `op_input(k)` (the k-th op's input, from the seed),
    `run(input)` (the op), `check(k, input, output)`, `corrupt(output)` (a
    wrong output its check must catch, for the self-test) and `warm_up()`.
    The timed loop runs whole cycles of `cycle` ops."""

    cycle = 1

    def finish(self):
        """Checks over the whole run: (evaluations made here, failed op ids)."""
        return 0, []


class McCritical(Workload):
    """Stationary two-sided LPP at rho = 1/2, T = 500, tau in {-1, 0, 1}:
    one op is a 512-sample `last_passage_batch` over 165 x 165 cells plus
    `rescale_sample` at each point (the chunking experiments._batched_g uses)."""

    name = "mc-critical"
    rho = 0.5
    taus = (-1.0, 0.0, 1.0)
    points = [(85, 164), (125, 125), (164, 85)]

    def __init__(self, seed, tiny=False):
        r = _rng(seed, 1)
        self.seed = seed
        self.master = int(r.integers(1, 2**62))
        self.batch = 32 if tiny else 512
        self.base = int(r.integers(1, 2**20)) * self.batch
        self.params = weights.ModelParams.two_sided(self.rho)
        self.frame = scaling.ScalingFrame(T=500.0, rho=self.rho)
        # E G(x, y) = x/(1-rho) + y/rho holds exactly for the stationary model
        self.exact_mean = np.array([x / (1 - self.rho) + y / self.rho for x, y in self.points])

    def op_input(self, k):
        lo = self.base + k * self.batch
        return range(lo, lo + self.batch)

    def run(self, indices):
        g = lpp.last_passage_batch(self.params, self.master, indices, self.points)
        s = [scaling.rescale_sample(self.frame, tau, g[:, c]) for c, tau in enumerate(self.taus)]
        return g, s

    def warm_up(self):
        self.run(range(self.base - 8, self.base))

    def corrupt(self, out):
        g, s = out
        return g * (1.0 + 1e-6), s

    def check(self, k, indices, out):
        g, s = out
        j = int(_rng(self.seed, 2, k).integers(len(indices)))
        oracle = weights.WeightOracle(self.params, SeedSpec(self.master, indices[j]))
        ref = lpp.last_passage(oracle, self.points).values
        for c, (p, tau) in enumerate(zip(self.points, self.taus)):
            if not _rel_close(g[j, c], ref[p], 1e-12):
                return False
            ell = scaling.scale_dpp(self.frame, tau, float(s[c][j]))[2]
            if not _rel_close(ell, g[j, c], 1e-9):
                return False
        se = g.std(axis=0, ddof=1) / math.sqrt(g.shape[0])
        return bool(np.all(np.abs(g.mean(axis=0) - self.exact_mean) <= 5.0 * se))


class McSmall(Workload):
    """Shifted-zero and shifted-plus (a = b = 1/4) over the point sets of
    validate and c08: one op is a 512-sample `last_passage_batch` of at most
    25 cells per sample.  Ops come in (zero, plus) pairs on the same sample
    indices, so the pathwise coupling G+ = G0 + w00 can be checked."""

    name = "mc-small"
    point_sets = ([(2, 2)], [(3, 3)], [(4, 2), (2, 4)])
    cycle = 2 * len(point_sets)

    def __init__(self, seed, tiny=False):
        r = _rng(seed, 1)
        self.seed = seed
        self.master = int(r.integers(1, 2**62))
        self.batch = 32 if tiny else 512
        self.base = int(r.integers(1, 2**20)) * self.batch
        self.zero = weights.ModelParams.shifted_zero(0.25, 0.25)
        self.plus = weights.ModelParams.shifted_plus(0.25, 0.25)
        self._zero_out = {}

    def op_input(self, k):
        pair = k // 2
        lo = self.base + pair * self.batch
        params = self.plus if k % 2 else self.zero
        return params, range(lo, lo + self.batch), self.point_sets[pair % len(self.point_sets)]

    def run(self, inp):
        params, indices, points = inp
        return lpp.last_passage_batch(params, self.master, indices, points)

    def warm_up(self):
        for k in range(self.cycle):
            params, _, points = self.op_input(k)
            lpp.last_passage_batch(params, self.master, range(self.base - 8, self.base), points)

    def corrupt(self, out):
        return out * (1.0 + 1e-9)

    def check(self, k, inp, out):
        params, indices, points = inp
        j = int(_rng(self.seed, 2, k).integers(len(indices)))
        oracle = weights.WeightOracle(params, SeedSpec(self.master, indices[j]))
        serial = lpp.last_passage(oracle, points).values
        for c, p in enumerate(points):
            if not _rel_close(out[j, c], serial[p], 1e-12):
                return False
            # the serial DP is exact: it must equal path enumeration bit for bit
            if k < self.cycle and serial[p] != lpp.brute_force_last_passage(oracle, p):
                return False
        if params is self.zero:
            self._zero_out = {k: out}
            return True
        zero_out = self._zero_out.pop(k - 1, None)
        if zero_out is None:
            return False
        w00 = weights.BatchWeights(params, self.master, indices).row(0, 0)[:, 0]
        if w00[j] != oracle.weight_at(0, 0):
            return False
        return bool(np.max(np.abs(out - zero_out - w00[:, None])) <= 1e-12)


class LimitLaw(Workload):
    """`limit_cdf` at the default QuadratureConfig for tau = (0,) and
    tau = (-1, 1).  A cycle is three ops: an m=1 grid point, an m=1 point
    drawn from the seed near it, and an m=2 point (grid and drawn in turn),
    so the median op is an m=1 point and the 90th percentile an m=2 point.
    Grid points are visited in an order that spreads any prefix over
    [-4, 4]; grid points the timed ops did not reach are computed in
    `finish`, so every run checks the whole pinned 17-point grid."""

    name = "limit-law"
    cycle = 3
    tau_sets = ((0.0,), (-1.0, 1.0))
    order = (8, 0, 16, 4, 12, 2, 6, 10, 14, 1, 3, 5, 7, 9, 11, 13, 15)

    def __init__(self, seed, tiny=False):
        pinned = json.loads((HERE / "pinned_cdf.json").read_text())
        self.grid = pinned["s"]
        self.pinned = [pinned["F"]["0"], pinned["F"]["-1,1"]]
        self.order = self.order[:3] if tiny else self.order
        self.seed = seed
        self._used = set()
        self.values = []  # (tau set, s, F, op id)

    def _drawn(self, t, g, key):
        """A point of stratum g (half-width 1/4 around grid point g) that no
        op of this run has used yet."""
        lo = max(self.grid[g] - 0.25, -4.0)
        hi = min(self.grid[g] + 0.25, 4.0)
        r = _rng(self.seed, 3, t, g, *key)
        s = float(r.uniform(lo, hi))
        while (t, s) in self._used or s in self.grid:
            s = float(r.uniform(lo, hi))
        return s

    def op_input(self, k):
        c, pos = divmod(k, self.cycle)
        rnd, slot = divmod(c, len(self.order))
        g = self.order[slot]
        t = 0 if pos < 2 else 1
        on_grid = rnd == 0 and (pos == 0 or (pos == 2 and c % 2 == 0))
        s = self.grid[g] if on_grid else self._drawn(t, g, (rnd, pos))
        self._used.add((t, s))
        return t, s, g if on_grid else None

    def _cdf(self, t, s):
        taus = self.tau_sets[t]
        spec = limitlaw.MultiPointSpec(taus, (s,) * len(taus))
        return limitlaw.limit_cdf(spec).f_value

    def run(self, inp):
        t, s, _ = inp
        return self._cdf(t, s)

    def warm_up(self):
        quad = limitlaw.QuadratureConfig(n=16, big_lambda=8.0)
        limitlaw.limit_cdf(limitlaw.MultiPointSpec((0.0,), (0.1,)), quad)
        # fill the Gauss-Legendre node cache for the default node count
        limitlaw.legendre_rule(limitlaw.QuadratureConfig().n, 0.0, 1.0)

    def corrupt(self, out):
        return out + 1e-6

    def _value_ok(self, t, f, g):
        if not -1e-9 <= f <= 1.0 + 1e-9:
            return False
        return g is None or abs(f - self.pinned[t][g]) <= 1e-9

    def check(self, k, inp, f):
        t, s, g = inp
        self.values.append((t, s, f, k))
        return self._value_ok(t, f, g)

    def finish(self):
        """Complete the pinned grids, then require F nondecreasing in s over
        every point of the run.  Returns (evaluations made here, failed op
        ids); an evaluation made here has the op id ("grid", t, g)."""
        done = {(t, s) for t, s, _, _ in self.values}
        extra = 0
        failed = []
        for t in range(len(self.tau_sets)):
            for g in self.order:
                s = self.grid[g]
                if (t, s) in done:
                    continue
                f = self._cdf(t, s)
                extra += 1
                self.values.append((t, s, f, ("grid", t, g)))
                if not self._value_ok(t, f, g):
                    failed.append(("grid", t, g))
        for t in range(len(self.tau_sets)):
            pts = sorted(((s, f, k) for tt, s, f, k in self.values if tt == t), key=lambda v: v[:2])
            for (s0, f0, k0), (s1, f1, k1) in zip(pts, pts[1:]):
                if f1 < f0 - 1e-9:
                    failed.extend([k0, k1])
        return extra, failed


class TasepBridge(Workload):
    """`lpp_bridge_check` with (x, y) uniform on {1..20}^2, a 50-point t-grid
    up to E G + 6 sd and rho = 1/2: the traffic of validate and c01."""

    name = "tasep-bridge"
    rho = 0.5

    def __init__(self, seed, tiny=False):
        r = _rng(seed, 1)
        self.seed = seed
        self.master = int(r.integers(1, 2**62))
        self.base = int(r.integers(1, 2**40))

    def op_input(self, k):
        x, y = (int(v) for v in _rng(self.seed, 4, k).integers(1, 21, size=2))
        e_g = x / (1 - self.rho) + y / self.rho
        sd = 2.2 * (x + y) ** (1.0 / 3.0)
        return self.base + k, x, y, np.linspace(0.0, e_g + 6 * sd, 50)

    def run(self, inp):
        index, x, y, t_grid = inp
        return tasep.lpp_bridge_check(self.master, index, x, y, t_grid, rho=self.rho)

    def warm_up(self):
        index, x, y, t_grid = self.op_input(0)
        tasep.lpp_bridge_check(self.master, self.base - 1, x, y, t_grid, rho=self.rho)

    def corrupt(self, report):
        report.l_value = float(np.nextafter(report.l_value, np.inf))
        return report

    def check(self, k, inp, report):
        index, x, y, t_grid = inp
        if not report.ok or (report.x, report.y) != (x, y):
            return False
        if report.exit_time is None:
            # no exit event by the end of the grid: L must lie beyond it
            return report.l_value > t_grid[-1] and report.checks == len(t_grid)
        return report.exit_time == report.l_value and report.checks == len(t_grid)


WORKLOADS = {w.name: w for w in (McCritical, McSmall, LimitLaw, TasepBridge)}
