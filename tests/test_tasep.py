import numpy as np
import pytest
from scipy import stats

from stasep.errors import ParameterError, RefusalError, WindowError
from stasep.rng import SeedSpec
from stasep.tasep import (
    TasepState,
    WaitingTimes,
    bernoulli_occupation,
    evolve,
    init_stationary,
    lpp_bridge_check,
    queue_exit_time,
    stationary_window,
)


def _grid_for(x, y, rho=0.5, n=50):
    e_g = x / (1 - rho) + y / rho
    sd = 2.2 * (x + y) ** (1.0 / 3.0)
    return np.linspace(0.0, e_g + 6 * sd, n)


def test_init_labels_convention():
    # label 0 sits at the smallest occupied non-negative site
    st = init_stationary(0.5, (-50, 50), SeedSpec(5, 3))
    occ_sites = np.sort(st.positions)
    nonneg = occ_sites[occ_sites >= 0]
    assert st.position_of(0) == nonneg[0]
    # ordering is strict
    assert np.all(np.diff(st.positions) < 0)


def test_init_rejects_bad_rho():
    with pytest.raises(ParameterError):
        init_stationary(1.0, (-10, 10), SeedSpec(1, 0))
    with pytest.raises(ParameterError):
        init_stationary(0.0, (-10, 10), SeedSpec(1, 0))


def test_occupied_fraction():
    st = init_stationary(0.5, (0, 10**6), SeedSpec(9, 0))
    frac = st.occupation(0, 10**6).mean()
    assert abs(frac - 0.5) < 0.002


def test_free_particle_poisson():
    # single particle: position at time t is a Poisson(t) count
    counts = []
    for k in range(2000):
        st = TasepState(label_min=0, positions=np.array([0]), time=0.0,
                        n_current=0, window=(-1, 10**6))
        out, _ = evolve(st, WaitingTimes(SeedSpec(77, k)), 30.0)
        counts.append(out.positions[0])
    counts = np.array(counts)
    assert abs(counts.mean() - 30.0) < 3.0 * np.sqrt(30.0 / len(counts))
    assert abs(counts.var() - 30.0) < 4.0


def test_blocking_preserves_order():
    # two adjacent particles: the trailing one cannot pass
    st = TasepState(label_min=0, positions=np.array([5, 4]), time=0.0,
                    n_current=0, window=(0, 10**6))
    out, log = evolve(st, WaitingTimes(SeedSpec(3, 1)), 50.0,
                      record=True, check_exclusion=True)
    assert out.positions[0] > out.positions[1]
    # every jump respected exclusion (checked inside) and both moved
    assert out.positions[1] > 4


def test_stationarity_occupation_law():
    # occupation at t=10 stays Bernoulli(rho): chi-square on site counts
    rho = 0.5
    t_end = 10.0
    win = stationary_window(0, 4000, t_end)
    occs = []
    for k in range(12):
        st = init_stationary(rho, win, SeedSpec(31, k))
        out, _ = evolve(st, WaitingTimes(SeedSpec(31, k)), t_end)
        occs.append(out.occupation(0, 4000))
    occ = np.concatenate(occs)
    n1 = int(occ.sum())
    chi = stats.chisquare([n1, occ.size - n1], [occ.size * rho, occ.size * (1 - rho)])
    assert chi.pvalue > 0.01


def test_height_function_invariants():
    st = init_stationary(0.4, stationary_window(-200, 200, 5.0), SeedSpec(8, 2))
    out, _ = evolve(st, WaitingTimes(SeedSpec(8, 2)), 5.0)
    h = out.height(-150, 150)
    steps = np.diff(h)
    assert np.all(np.isin(steps, (-1, 1)))
    assert h[150] == 2 * out.n_current  # anchored at j=0
    # initial height vanishes at the origin
    assert init_stationary(0.4, (-50, 50), SeedSpec(8, 3)).height(0, 0)[0] == 0


def test_window_envelope_guard():
    # a declared window that cannot contain the dynamics trips the error
    st = TasepState(label_min=0, positions=np.array([0]), time=0.0,
                    n_current=0, window=(-10**6, -10**6 + 1))
    with pytest.raises(WindowError):
        evolve(st, WaitingTimes(SeedSpec(1, 0)), 100.0)


def test_bridge_small_cases():
    # degenerate smallest case (1,1) and a rectangular one
    for (x, y) in ((1, 1), (1, 5), (6, 1), (4, 4)):
        rep = lpp_bridge_check(2024, x * 100 + y, x, y, _grid_for(x, y))
        assert rep.ok, rep.witness
        assert rep.exit_time is None or rep.exit_time == rep.l_value


def test_bridge_negative_row_starts():
    # row y of the DP staircase starts at x_y(0) + y + 1, below 0 whenever
    # the y particles left of site 0 leave gaps; L still equals the exit time
    x, y = 6, 5
    occ = bernoulli_occupation(SeedSpec(2024, 1), -200, -1, 0.5)
    x_y0 = -1 - int(np.flatnonzero(occ[::-1])[y - 1])  # y-th particle left of 0
    assert x_y0 + y + 1 < 0
    rep = lpp_bridge_check(2024, 1, x, y, _grid_for(x, y))
    assert rep.ok, rep.witness
    assert rep.exit_time is not None and rep.exit_time == rep.l_value


def test_bridge_random_batch():
    rng = np.random.default_rng(5)
    for trial in range(150):
        x, y = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        rep = lpp_bridge_check(99, trial, x, y, _grid_for(x, y))
        assert rep.ok, (x, y, rep.witness)


def test_bridge_other_density():
    for trial in range(40):
        rep = lpp_bridge_check(7, trial, 8, 6, _grid_for(8, 6, rho=0.3), rho=0.3)
        assert rep.ok, rep.witness


def test_queue_exit_mapping():
    # E_j(i) is the jump of particle j into site i+1-j; position/queue index
    # mapping x_j(t) = Q_j(t) - j holds along the recorded trajectory
    st = init_stationary(0.5, stationary_window(-40, 40, 20.0), SeedSpec(44, 1))
    out, log = evolve(st, WaitingTimes(SeedSpec(44, 1)), 20.0, record=True)
    assert len(log.times) > 0
    # reconstruct particle 1's first jump from the log
    lab = int(log.labels[0])
    tgt = int(log.targets[0])
    t = queue_exit_time(log, lab, tgt + lab - 1)
    assert t == log.times[0]
    # not-yet-departed: absent value
    assert queue_exit_time(log, lab, 10**6) is None


def test_queue_interdeparture_exponential():
    # departures from a fixed queue index in equilibrium are Exp(1/rho):
    # E_j(i) over consecutive customers j at fixed i (Burke's theorem)
    rho = 0.5
    i_queue = 3
    n_customers = 400
    seed = SeedSpec(123, 0)
    # need labels 1..n_customers to pass queue i: simulate long enough
    t_end = 2.2 * (n_customers / rho + i_queue)
    win = stationary_window(int(-n_customers / rho - 200), 50, t_end)
    st = init_stationary(rho, win, seed)
    out, log = evolve(st, WaitingTimes(seed), t_end, record=True)
    exits = []
    for j in range(1, n_customers + 1):
        t = queue_exit_time(log, j, i_queue)
        if t is None:
            break
        exits.append(t)
    assert len(exits) >= 300
    gaps = np.diff(np.array(exits))
    assert np.all(gaps > 0)  # FIFO in label order
    ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / rho))
    assert ks.pvalue > 0.01


def test_jump_time_index_follows_the_log():
    # a lookup finds each logged jump, misses one never made, and sees a
    # jump appended after an earlier lookup
    st = init_stationary(0.5, stationary_window(-30, 30, 15.0), SeedSpec(45, 2))
    _, log = evolve(st, WaitingTimes(SeedSpec(45, 2)), 15.0, record=True)
    for t, lab, tgt in list(zip(log.times, log.labels, log.targets))[::7]:
        assert log.jump_time(tgt + lab, lab) == t
    assert log.jump_time(10**6, 0) is None
    log.times.append(99.0)
    log.labels.append(10**5)
    log.targets.append(3)
    assert log.jump_time(3 + 10**5, 10**5) == 99.0
    assert log.jump_time(3 + 10**5, 10**5) == 99.0


def test_clock_block_matches_rows():
    waits = WaitingTimes(SeedSpec(46, 0))
    js, i_los = np.array([-3, 0, 5]), np.array([-10, 2, 7])
    block = waits.omega_rows(js, i_los, 12)
    for k in range(3):
        assert np.array_equal(block[k], waits.omega_row(int(js[k]), int(i_los[k]), int(i_los[k]) + 11))
