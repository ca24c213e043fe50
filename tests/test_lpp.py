import numpy as np
import pytest

from stasep.errors import DomainError, RefusalError
from stasep.lpp import (
    BRUTE_FORCE_CAP,
    HASH_BLOCK_CELLS,
    _diagonal_runs,
    _row_reach,
    _sweep,
    brute_force_last_passage,
    last_passage,
    last_passage_batch,
)
from stasep.rng import SeedSpec
from stasep.weights import BatchWeights, ModelKind, ModelParams, WeightOracle


class ConstantField:
    """All weights 1; stands in for an oracle in deterministic checks."""

    def cell_weights(self, i, j):
        return np.ones((len(i), 1))


class ShiftedField:
    """The field of `oracle` seen from (fx, fy): last_passage on it to (x, y)
    is the point-to-point passage time (fx, fy) -> (fx + x, fy + y)."""

    def __init__(self, oracle, fx, fy):
        self.oracle, self.fx, self.fy = oracle, fx, fy

    def cell_weights(self, i, j):
        return self.oracle.cell_weights(i + self.fx, j + self.fy)


def _point_to_point(oracle, frm, to):
    x, y = to[0] - frm[0], to[1] - frm[1]
    return last_passage(ShiftedField(oracle, *frm), [(x, y)]).values[(x, y)]


def test_constant_field():
    g = last_passage(ConstantField(), [(2, 2)]).values[(2, 2)]
    assert g == 5.0  # every up-right path visits 5 cells


def test_single_row_and_column():
    orc = WeightOracle(ModelParams.two_sided(0.5), SeedSpec(3, 1))
    row = orc.row_weights(0, 6)
    assert brute_force_last_passage(orc, (6, 0)) == pytest.approx(row.sum(), rel=1e-14)
    g = last_passage(orc, [(0, 4)]).values[(0, 4)]
    cols = sum(orc.row_weights(j, 0)[0] for j in range(5))
    assert g == pytest.approx(cols, rel=1e-14)


def test_dp_equals_brute_force_bitwise():
    # exact to the last bit on small grids
    rng = np.random.default_rng(0)
    for trial in range(400):
        x, y = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        orc = WeightOracle(ModelParams.two_sided(0.35), SeedSpec(1000, trial))
        dp = last_passage(orc, [(x, y)]).values[(x, y)]
        assert dp == brute_force_last_passage(orc, (x, y))


def test_brute_force_cap():
    orc = WeightOracle(ModelParams.two_sided(0.5), SeedSpec(1, 1))
    with pytest.raises(RefusalError):
        brute_force_last_passage(orc, (BRUTE_FORCE_CAP, 1))


def test_monotonicity_in_endpoints():
    orc = WeightOracle(ModelParams.two_sided(0.5), SeedSpec(5, 7))
    pts = [(x, y) for x in range(1, 8) for y in range(1, 8)]
    vals = last_passage(orc, pts).values
    for x in range(2, 8):
        for y in range(2, 8):
            assert vals[(x, y)] >= vals[(x - 1, y)]
            assert vals[(x, y)] >= vals[(x, y - 1)]


def test_point_to_point_cases():
    orc = WeightOracle(ModelParams.two_sided(0.5), SeedSpec(9, 0))
    w = orc.weight_at(2, 3)
    assert _point_to_point(orc, (2, 3), (2, 3)) == w
    # 2x2 hand case: (1,0) -> (1,1) forced path
    assert _point_to_point(orc, (1, 0), (1, 1)) == orc.weight_at(1, 0) + orc.weight_at(1, 1)
    with pytest.raises(DomainError):
        _point_to_point(orc, (3, 0), (2, 5))


def test_origin_decomposition_exact():
    # G = max(Q(1,0), Q(0,1)) exactly when w00 = 0
    for trial in range(300):
        orc = WeightOracle(ModelParams.two_sided(0.3), SeedSpec(77, trial))
        g = last_passage(orc, [(5, 4)]).values[(5, 4)]
        q10 = _point_to_point(orc, (1, 0), (5, 4))
        q01 = _point_to_point(orc, (0, 1), (5, 4))
        assert g == max(q10, q01)


def test_batch_equals_single_on_large_grids():
    # batch and single-sample sweeps run one kernel: equal bit for bit for
    # every model, on 60 samples at 41 x 31 and on two of over 20 000
    # cells, whose weights come 163 cells per hash call
    n = 200
    assert HASH_BLOCK_CELLS // n < 171
    pts = [(170, 120), (40, 30), (11, 30), (40, 6)]
    for p in (
        ModelParams.two_sided(0.6),
        ModelParams.bernoulli_domain(0.6),
        ModelParams.shifted_plus(0.2, 0.1),
        ModelParams.shifted_zero(0.2, 0.1),
    ):
        batch = last_passage_batch(p, 13, range(n), pts)
        for k in list(range(60)) + [n - 1]:
            q = pts if k in (0, n - 1) else pts[1:]
            ref = last_passage(WeightOracle(p, SeedSpec(13, k)), q).values
            assert [batch[k, pts.index(r)] for r in q] == [ref[r] for r in q]


def test_batch_matches_single():
    pts = [(30, 25), (10, 20)]
    vals = last_passage_batch(ModelParams.two_sided(0.5), 321, range(6), pts)
    for k in range(6):
        orc = WeightOracle(ModelParams.two_sided(0.5), SeedSpec(321, k))
        res = last_passage(orc, pts).values
        assert vals[k, 0] == res[(30, 25)]
        assert vals[k, 1] == res[(10, 20)]


MODELS = (
    ModelParams.two_sided(0.6),
    ModelParams.bernoulli_domain(0.6),
    ModelParams.shifted_plus(0.2, 0.1),
    ModelParams.shifted_zero(0.2, 0.1),
)


@pytest.mark.parametrize("lanes", [1, 2, 63, 64, 65, 513])
def test_batch_equals_single_at_every_lane_count(lanes):
    # lane counts around 64; at 513 lanes one hash call covers 63 cells, so
    # the long diagonals of the 71 x 65 grid span two calls.  The ends of
    # every diagonal are border cells, where the Bernoulli zeta masks apply
    assert HASH_BLOCK_CELLS // 513 < 65
    pts = [(70, 64), (9, 33), (40, 2)]
    checked = range(lanes) if lanes <= 65 else range(0, lanes, 32)
    for p in MODELS:
        batch = last_passage_batch(p, 41, range(lanes), pts)
        assert batch.shape == (lanes, 3)
        zetas = 0
        for k in list(checked) + [lanes - 1]:
            orc = WeightOracle(p, SeedSpec(41, k))
            ref = last_passage(orc, pts).values
            assert batch[k].tolist() == [ref[q] for q in pts]
            zetas += orc.zeta_plus > 0 and orc.zeta_minus > 0
        if p.kind is ModelKind.BernoulliDomain and lanes > 2:
            assert zetas > 0


def test_noncontiguous_diagonals_equal_enumeration():
    # on diagonals 3 and 4 the rows swept for {(12,0), (0,3), (2,2)} are not
    # contiguous: row 0 runs to column 12, rows 1-2 to column 2, row 3 to 0
    pts = [(12, 0), (0, 3), (2, 2)]
    for p in MODELS:
        batch = last_passage_batch(p, 8, range(20), pts)
        for k in range(20):
            orc = WeightOracle(p, SeedSpec(8, k))
            vals = last_passage(orc, pts).values
            assert [vals[q] for q in pts] == [brute_force_last_passage(orc, q) for q in pts]
            assert batch[k].tolist() == [vals[q] for q in pts]


def test_sweep_domain_checks():
    # a staircase {i >= starts[j]} as zero weights left of each start: G = 0
    # off it, and the first cell of a row takes w + below
    starts = np.array([2, 0])
    staircase = lambda i, j: (i >= starts[j]).astype(float)[:, None]
    pts = [(3, 0), (0, 1), (3, 1)]
    assert _sweep(staircase, [3, 3], 1, pts)[:, 0].tolist() == [2.0, 1.0, 4.0]
    ones = lambda i, j: np.ones((len(i), 1))
    for stops in ([2, 3], [3, 2, 3], [-1, -1], [3, -1]):
        with pytest.raises(DomainError):
            _sweep(ones, stops, 1, [(0, 1)])


def _enumerated_runs(stops, d_max):
    # maximal runs of consecutive in-domain rows, diagonal by diagonal
    runs = []
    for d in range(d_max + 1):
        for j in range(min(d + 1, len(stops))):
            if d - j <= stops[j]:
                if runs and runs[-1][0] == d and runs[-1][2] == j:
                    runs[-1][2] = j + 1
                else:
                    runs.append([d, j, j + 1])
    return [tuple(r) for r in runs]


def test_diagonal_runs_equal_enumeration():
    rng = np.random.default_rng(3)
    cases = [([5], 9), ([0] * 6, 8), ([4] * 4, 10), ([6, 0, 0, 0], 9), ([0], 0)]
    for _ in range(500):
        stops = sorted(rng.integers(0, 10, int(rng.integers(1, 10))).tolist(), reverse=True)
        cases.append((stops, int(rng.integers(0, 22))))
    for stops, d_max in cases:
        runs = list(zip(*(a.tolist() for a in _diagonal_runs(stops, d_max))))
        assert runs == _enumerated_runs(stops, d_max), (stops, d_max)
    # the mc-critical benchmark's points, swept to diagonal 250
    reach = _row_reach([(85, 164), (125, 125), (164, 85)])
    assert len(_diagonal_runs(reach, 250)[0]) == 327


def test_point_set_validation():
    orc = WeightOracle(ModelParams.two_sided(0.5), SeedSpec(2, 0))
    with pytest.raises(RefusalError):
        last_passage(orc, [])
    with pytest.raises(DomainError):
        last_passage(orc, [(-1, 3)])


def test_burke_boundary_increments():
    # G(0, j) - G(0, j-1) are iid Exp(1/rho) by construction
    rho = 0.4
    orc = WeightOracle(ModelParams.two_sided(rho), SeedSpec(8, 1))
    pts = [(0, j) for j in range(1, 4001)]
    vals = last_passage(orc, pts).values
    g = np.array([vals[(0, j)] for j in range(1, 4001)])
    inc = np.diff(g)
    assert abs(inc.mean() - 1.0 / rho) < 4.0 * (1.0 / rho) / np.sqrt(len(inc))


def test_bernoulli_domain_coupled_below_two_sided():
    # zeroing boundary weights can only lower the passage time, pathwise
    rho = 0.5
    pts = [(40, 40)]
    g_two = last_passage_batch(ModelParams.two_sided(rho), 99, range(200), pts)
    g_bern = last_passage_batch(ModelParams.bernoulli_domain(rho), 99, range(200), pts)
    assert np.all(g_bern <= g_two + 1e-12)
    assert np.any(g_bern < g_two)  # zetas are nonzero in some samples


@pytest.mark.parametrize("pts", [[(3, 3)], [(4, 2), (2, 4)]], ids=["3x3", "4x2-2x4"])
def test_shifted_plus_is_shifted_zero_plus_origin(pts):
    # every up-right path from the origin collects w00, and both models draw
    # the same uniforms cell by cell, so G+ = G0 + w00 pathwise; the float
    # path sums may differ by a few ulps
    plus, zero = ModelParams.shifted_plus(0.25, 0.25), ModelParams.shifted_zero(0.25, 0.25)
    g_plus = last_passage_batch(plus, 11, range(300), pts)
    g_zero = last_passage_batch(zero, 11, range(300), pts)
    w00 = BatchWeights(plus, 11, range(300)).cells(np.array([0]), np.array([0]))[0]
    assert np.all(w00 > 0)
    assert np.max(np.abs(g_plus - g_zero - w00[:, None])) <= 1e-12


def test_batch_layouts_agree_bitwise():
    # a batch of 200 samples hashes 163 cells per call, one of 50 hashes 655;
    # both equal the single-sample sweep bit for bit, row truncation
    # included
    n = 200
    assert HASH_BLOCK_CELLS // n < 171 <= HASH_BLOCK_CELLS // 50
    pts = [(170, 3), (20, 9), (5, 12), (20, 9)]
    for p in (ModelParams.two_sided(0.45), ModelParams.bernoulli_domain(0.5)):
        big = last_passage_batch(p, 77, range(n), pts)
        small = np.concatenate(
            [last_passage_batch(p, 77, range(a, a + 50), pts) for a in range(0, n, 50)]
        )
        assert big.shape == (n, 4)
        assert np.array_equal(big, small)
        assert np.array_equal(big[:, 1], big[:, 3])
        for k in (0, 133, n - 1):
            ref = last_passage(WeightOracle(p, SeedSpec(77, k)), pts).values
            assert [big[k, c] for c in range(4)] == [ref[tuple(q)] for q in pts]
