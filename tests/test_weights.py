import hashlib

import numpy as np
import pytest

from stasep.errors import DomainError, ParameterError
from stasep.rng import SeedSpec
from stasep.weights import BatchWeights, ModelKind, ModelParams, WeightOracle


def test_param_validation():
    with pytest.raises(ParameterError):
        ModelParams.two_sided(0.0)
    with pytest.raises(ParameterError):
        ModelParams.shifted_plus(0.3, -0.3)  # a+b = 0 not allowed for plus
    with pytest.raises(ParameterError):
        ModelParams.shifted_zero(0.7, 0.0)
    p = ModelParams.two_sided(0.3)
    assert p.a == pytest.approx(-0.2)
    assert p.b == pytest.approx(0.2)
    # stationary borders: bottom 1/(1-rho), left 1/rho
    assert p.bottom_mean == pytest.approx(1.0 / 0.7)
    assert p.left_mean == pytest.approx(1.0 / 0.3)


def test_origin_rules():
    seed = SeedSpec(10, 0)
    for kind, expect_zero in (
        (ModelParams.two_sided(0.4), True),
        (ModelParams.shifted_zero(0.25, 0.25), True),
        (ModelParams.shifted_plus(0.25, 0.25), False),
    ):
        orc = WeightOracle(kind, seed)
        w00 = orc.weight_at(0, 0)
        assert (w00 == 0.0) == expect_zero


def test_negative_index_rejected():
    orc = WeightOracle(ModelParams.two_sided(0.5), SeedSpec(1, 0))
    with pytest.raises(DomainError):
        orc.weight_at(-1, 0)


def test_bulk_and_border_means():
    # 1e6 draws per class, within 4 standard errors of the exponential law
    n = 10**6
    p = ModelParams.two_sided(0.5)
    bulk = np.array([WeightOracle(p, SeedSpec(21, 0)).row_weights(j, 0)[0] for j in (1,)])
    orc = WeightOracle(p, SeedSpec(21, 0))
    row = orc.row_weights(1, n)[1:]  # bulk cells (i>=1, j=1)
    assert abs(row.mean() - 1.0) < 4.0 / np.sqrt(n)
    assert abs(row.var() - 1.0) < 4.0 * np.sqrt(8.0 / n)
    bottom = orc.row_weights(0, n)[1:]  # Exp(mean 2) at rho=1/2
    assert abs(bottom.mean() - 2.0) < 4.0 * 2.0 / np.sqrt(n)


def test_shifted_plus_origin_mean():
    # w00 ~ Exp(mean 1/(a+b)) = 2 at a=b=0.25, samples 0..1e5-1 of seed 4
    p = ModelParams.shifted_plus(0.25, 0.25)
    vals = BatchWeights(p, 4, range(10**5)).cells(np.array([0]), np.array([0]))[0]
    for i in (0, 1, 77_777, 10**5 - 1):
        assert vals[i] == WeightOracle(p, SeedSpec(4, i)).weight_at(0, 0)
    assert abs(vals.mean() - 2.0) < 0.03


def test_bit_identical_reproducibility():
    p = ModelParams.bernoulli_domain(0.3)
    a = WeightOracle(p, SeedSpec(77, 5))
    b = WeightOracle(p, SeedSpec(77, 5))
    for j in range(6):
        assert np.array_equal(a.row_weights(j, 40), b.row_weights(j, 40))
    assert (a.zeta_plus, a.zeta_minus) == (b.zeta_plus, b.zeta_minus)


def test_row_matches_scalar():
    orc = WeightOracle(ModelParams.shifted_zero(0.1, 0.2), SeedSpec(8, 3))
    row = orc.row_weights(2, 25)
    for i in range(26):
        assert row[i] == orc.weight_at(i, 2)


def test_bernoulli_domain_zeroing_and_coupling():
    rho = 0.4
    seed = SeedSpec(31, 9)
    two = WeightOracle(ModelParams.two_sided(rho), seed)
    bern = WeightOracle(ModelParams.bernoulli_domain(rho), seed)
    zp, zm = bern.zeta_plus, bern.zeta_minus
    row0_two = two.row_weights(0, 30)
    row0_bern = bern.row_weights(0, 30)
    assert np.all(row0_bern[1 : zp + 1] == 0.0)
    assert np.array_equal(row0_bern[zp + 1 :], row0_two[zp + 1 :])
    for j in range(1, 8):
        rt, rb = two.row_weights(j, 30), bern.row_weights(j, 30)
        if j <= zm:
            assert rb[0] == 0.0
        else:
            assert rb[0] == rt[0]
        assert np.array_equal(rb[1:], rt[1:])


def test_zeta_marginals():
    p = ModelParams.bernoulli_domain(0.3)
    bw = BatchWeights(p, 55, range(20000))
    zps, zms = bw.zeta_plus, bw.zeta_minus
    for i in (0, 9, 19999):
        orc = WeightOracle(p, SeedSpec(55, i))
        assert (orc.zeta_plus, orc.zeta_minus) == (zps[i], zms[i])
    # zeta_plus ~ Geom(1-rho): mean (1-rho)/rho; zeta_minus ~ Geom(rho)
    assert abs(np.mean(zps) - 0.7 / 0.3) < 0.06
    assert abs(np.mean(zms) - 0.3 / 0.7) < 0.03


def test_zeta_geometric_law():
    # P(zeta = k) = (1-q) q^k: zeta_plus has q = 1-rho, zeta_minus q = rho
    bw = BatchWeights(ModelParams.bernoulli_domain(0.5), 5, range(10**5))
    for draws in (bw.zeta_plus, bw.zeta_minus):
        assert abs(draws.mean() - 1.0) < 0.02  # mean q/(1-q) = 1
        assert abs(np.mean(draws == 0) - 0.5) < 0.005
    # zeta_plus ~ Geom(1-rho) at rho=0.3: mean 0.7/0.3
    bw = BatchWeights(ModelParams.bernoulli_domain(0.3), 6, range(10**5))
    assert abs(bw.zeta_plus.mean() - 0.7 / 0.3) < 0.05
    # 1 - rho rounds to 1: zeta_plus would have log q = 0
    with pytest.raises(ParameterError):
        BatchWeights(ModelParams.bernoulli_domain(1e-17), 5, range(3))


# SHA-256 of the little-endian int64 bytes of zeta_plus then zeta_minus for
# samples 0..1999, with their sums, recorded before the zetas were drawn for
# the whole batch at once: the batch draw must keep every value
_ZETA_PINS = [
    # (rho, master_seed, sum zeta_plus, sum zeta_minus, digest)
    (0.5, 1, 1989, 1923, "24248dae06d1bf3bef769a06513c41a7daddff9566eb0175350d65f6dcc3cd00"),
    (0.3, 2**63 + 7, 4599, 890, "c5b925fc0717e697d69d6578aa2ab7f10e5a164b55f112fb69742d437f29841f"),
    (0.05, 2**64 - 1, 39052, 108, "f881e39873f058d137acd0e80d7ea74a844dd4ae0294c8df2762b17adb4ef21c"),
    (0.999, 42, 3, 2077110, "4c9b5bddb6ea43486640dbc5e65e8f2bb8d3059ec7a512d68f50676db46c822d"),
]


@pytest.mark.parametrize(
    "rho, seed, sum_plus, sum_minus, digest", _ZETA_PINS, ids=[f"{r}-{s}" for r, s, *_ in _ZETA_PINS]
)
def test_zetas_pinned(rho, seed, sum_plus, sum_minus, digest):
    p = ModelParams.bernoulli_domain(rho)
    bw = BatchWeights(p, seed, range(2000))
    zp, zm = bw.zeta_plus.astype("<i8"), bw.zeta_minus.astype("<i8")
    assert (int(zp.sum()), int(zm.sum())) == (sum_plus, sum_minus)
    assert hashlib.sha256(zp.tobytes() + zm.tobytes()).hexdigest() == digest
    # a WeightOracle is a one-lane batch: its zetas are its lane's
    for i in (0, 1234, 1999):
        orc = WeightOracle(p, SeedSpec(seed, i))
        assert (orc.zeta_plus, orc.zeta_minus) == (zp[i], zm[i])


def test_batch_matches_oracle_rows():
    p = ModelParams.bernoulli_domain(0.5)
    bw = BatchWeights(p, 123, range(5))
    for j in (0, 1, 3):
        block = bw.row(j, 12)
        for k in range(5):
            orc = WeightOracle(p, SeedSpec(123, k))
            assert np.array_equal(block[k], orc.row_weights(j, 12))


def test_all_weights_nonnegative():
    for p in (
        ModelParams.two_sided(0.2),
        ModelParams.shifted_plus(0.4, -0.1),
        ModelParams.bernoulli_domain(0.3),
    ):
        orc = WeightOracle(p, SeedSpec(2, 2))
        for j in range(4):
            assert np.all(orc.row_weights(j, 50) >= 0.0)


def test_cells_grow_the_key_tile_and_fill_out():
    # BatchWeights keeps one KeyTile across calls and grows it for a longer
    # block; every block, written to out or not, equals the scalar oracle
    p = ModelParams.two_sided(0.4)
    bw = BatchWeights(p, 9, range(3, 8))
    oracles = [WeightOracle(p, SeedSpec(9, s)) for s in range(3, 8)]
    for n in (2, 30, 7):
        i = np.arange(n)
        j = np.arange(n) % 3
        ref = np.array([[o.weight_at(a, b) for o in oracles] for a, b in zip(i, j)])
        assert np.array_equal(bw.cells(i, j), ref)
        out = np.empty((n, 5))
        assert bw.cells(i, j, out=out) is out
        assert np.array_equal(out, ref)


def test_transposed_rows_match_rows():
    # cells on any block of row j is row(j, imax)[:, i_lo:].T bit for bit, so
    # the border and origin means land on the right cells of every block
    for p in (
        ModelParams.bernoulli_domain(0.3),
        ModelParams.shifted_plus(0.2, 0.1),
        ModelParams.shifted_zero(0.2, 0.1),
    ):
        bw = BatchWeights(p, 55, range(40, 47))
        for j in (0, 1, 4):
            full = bw.row(j, 20)
            assert np.array_equal(bw.row_t(j, 20), full.T)
            for i_lo in (0, 1, 3, 20):
                i = np.arange(i_lo, 21)
                assert np.array_equal(bw.cells(i, np.full_like(i, j)), full[:, i_lo:].T)
