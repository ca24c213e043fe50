import numpy as np
import pytest

from stasep.errors import ParameterError
from stasep.rng import KeyTile, SeedSpec, stream_key, uniform_oc
from stasep.tasep import WaitingTimes


def test_seedspec_validation():
    with pytest.raises(ParameterError):
        SeedSpec(-1, 0)
    with pytest.raises(ParameterError):
        SeedSpec(0, 2**64)
    assert SeedSpec(2**64 - 1, 17).sample_index == 17


def test_seedspec_refuses_non_integers():
    # int() would put seed 2.7 on seed 2's stream
    for seed, index in ((2.7, 0), (2.0, 0), (2, 1.5), (np.float64(3.0), 0), ("2", 0)):
        with pytest.raises(ParameterError):
            SeedSpec(seed, index)
    # numpy integers are integers
    assert SeedSpec(np.int64(2), np.uint64(3)).key == SeedSpec(2, 3).key


def test_stream_key_refuses_what_seedspec_refuses():
    # int() and the 64-bit mask would put each of these on another key:
    # 2.5 on seed 2, index 1.7 on index 1, -1 on 2**64 - 1, [1.5] on [1]
    for seed, index in ((2.5, 0), (2, 1.7), (-1, 0), (2**64, 0), (2, -1), (2, 2**64), ("2", 0),
                        (2, np.array([1.5])), (2, np.array(1.5)), (2, np.array([0, -1])),
                        (2, np.array([True]))):
        with pytest.raises(ParameterError):
            stream_key(seed, index)
        if not isinstance(index, np.ndarray):
            with pytest.raises(ParameterError):
                SeedSpec(seed, index)
    # integer types of either kind keep their keys
    assert stream_key(np.uint64(2), np.int32(1)) == stream_key(2, 1) == SeedSpec(2, 1).key
    keys = stream_key(2, np.array([1, 2**40], dtype=np.int64))
    assert keys.tolist() == [int(stream_key(2, 1)), int(stream_key(2, 2**40))]


def test_uniform_open_closed_range():
    key = stream_key(123, 0)
    u = uniform_oc(key, 0, np.arange(200000), 5)
    assert u.min() > 0.0
    assert u.max() <= 1.0
    # mean/var of U(0,1]
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_reproducible_and_order_independent():
    key = stream_key(99, 4)
    a = uniform_oc(key, 0, np.arange(1000), 7)
    b = np.array([uniform_oc(key, 0, i, 7) for i in range(1000)])
    assert np.array_equal(a, b)
    # distinct lanes differ
    c = uniform_oc(key, 1, np.arange(1000), 7)
    assert not np.array_equal(a, c)


def test_waiting_time_clocks_nonnegative():
    # U lies in (0, 1], so every clock -log(U) is >= 0 (U = 1 gives 0)
    clocks = WaitingTimes(SeedSpec(3, 0)).omega_row(0, 0, 999)
    assert clocks.shape == (1000,) and np.all(clocks >= 0.0)


def test_statistical_calibration_exponential():
    # Exp(1) clocks: mean and variance within 4 standard errors, 1e6 draws
    # by WaitingTimes (the mean-2 border is checked in test_weights)
    n = 10**6
    vals = WaitingTimes(SeedSpec(11, 1)).omega_row(0, 0, n - 1)
    assert len(vals) == n
    assert abs(vals.mean() - 1.0) < 4 / np.sqrt(n)
    se_var = np.sqrt(8.0 / n)  # Var of sample variance ~ 8 mean^4 / n
    assert abs(vals.var() - 1.0) < 4 * se_var


def test_independence_across_sample_index():
    # lag-1 correlation of a per-sample statistic below 0.01
    n = 10**5
    keys = stream_key(42, np.arange(n))
    assert [int(keys[i]) for i in (0, 1, n - 1)] == [int(stream_key(42, i)) for i in (0, 1, n - 1)]
    vals = uniform_oc(keys, 0, 3, 3)
    x, y = vals[:-1] - vals.mean(), vals[1:] - vals.mean()
    corr = float(np.sum(x * y) / np.sqrt(np.sum(x * x) * np.sum(y * y)))
    assert abs(corr) < 0.01


def test_cross_stream_independence():
    # same cells, different master seeds: empirical correlation ~ 0
    a = uniform_oc(stream_key(1, 0), 0, np.arange(50000), 2)
    b = uniform_oc(stream_key(2, 0), 0, np.arange(50000), 2)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.015


def test_vectorized_key_and_out_buffer_bitwise():
    # one array call equals the scalar calls; out= receives the same bits
    idx = np.array([0, 1, 7, 2**40, 2**64 - 1], dtype=np.uint64)
    keys = stream_key(2**63 + 5, idx)
    assert keys.dtype == np.uint64
    assert [int(k) for k in keys] == [int(stream_key(2**63 + 5, int(s))) for s in idx]
    # 0-d arrays take the scalar results
    assert stream_key(9, np.array(7)) == stream_key(9, 7)
    assert uniform_oc(keys[1], 3, np.array(5), np.array(8)) == uniform_oc(keys[1], 3, 5, 8)
    buf = np.empty((len(keys), 40))
    u = uniform_oc(keys[:, None], 0, np.arange(40)[None, :], 9, out=buf)
    assert u is buf
    assert np.array_equal(buf, uniform_oc(keys[:, None], 0, np.arange(40)[None, :], 9))


def test_key_tile_matches_key_vector_bitwise():
    # a KeyTile hashes as its key vector does, for any block up to its rows,
    # and into out's memory when out is given
    keys = stream_key(17, np.arange(6))
    tile = KeyTile(keys, 8)
    for rows in (1, 5, 8):
        i = 3 * np.arange(rows)[:, None]
        j = np.full((rows, 1), 2)
        ref = uniform_oc(keys, 4, i, j)
        assert np.array_equal(uniform_oc(tile, 4, i, j), ref)
        buf = np.empty((rows, len(keys)))
        assert uniform_oc(tile, 4, i, j, out=buf) is buf
        assert np.array_equal(buf, ref)
