import hashlib

import numpy as np
import pytest
from scipy import stats

from stasep import tasep
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
    assert st.positions[-st.label_min] == nonneg[0]
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
    out, log = evolve(st, WaitingTimes(SeedSpec(3, 1)), 50.0, record=True)
    assert out.positions[0] > out.positions[1]
    # every jump respected exclusion (evolve checks each one) and both moved
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


def test_occupied_until_span_changes_nothing():
    # the bridge draws each side's occupations in one call over a guessed
    # span, doubled until the stopping rule fires; the sites it returns must
    # not depend on the guess, and must match a site-by-site walk
    seed = SeedSpec(47, 3)
    for origin, step, stop in (
        (2, 1, lambda s, k: s >= 12 + k),
        (-1, -1, lambda s, k: (k > 9) & (s < -120)),
    ):
        walked, site = [], origin
        while True:
            if bernoulli_occupation(seed, site, site, 0.5)[0]:
                if stop(site, len(walked) + 1):
                    break
                walked.append(site)
            site += step
        assert len(walked) > 0
        for span in (1, 4096):
            got = tasep._occupied_until(seed, 0.5, origin, step, span, stop)
            assert got.tolist() == walked


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


# BridgeReport fields recorded while the bridge still simulated particles
# behind label y; simulating labels <= y only must keep every bit.  Covers
# rho = 1/2 and 0.3, x < y, x > y, x = y + 1 (height probed at site 0),
# grids cut to half their span (some with no exit event by t_cap), the
# negative-row-start instance of test_bridge_negative_row_starts, and
# rho = 0.1 and 0.9 on grids stretched by 1.5, where 7 to 59 labels behind
# y entered site 1 by t_cap.
_PINNED = [
    # (master, index, x, y, rho, grid scale, l_value, exit_time, checks)
    (11, 300, 14, 18, 0.5, 1.0, 53.12356213473178, 53.12356213473178, 50),
    (11, 301, 17, 8, 0.5, 1.0, 43.24284553528671, 43.24284553528671, 50),
    (11, 302, 12, 1, 0.5, 1.0, 25.021129999849617, 25.021129999849617, 50),
    (11, 303, 15, 15, 0.5, 1.0, 66.42190889929721, 66.42190889929721, 50),
    (11, 304, 1, 18, 0.5, 1.0, 26.244514628729938, 26.244514628729938, 50),
    (11, 305, 10, 16, 0.5, 1.0, 40.0870508522314, 40.0870508522314, 50),
    (11, 306, 14, 14, 0.5, 1.0, 51.78309726737919, 51.78309726737919, 50),
    (11, 307, 18, 1, 0.5, 1.0, 31.56763865551358, 31.56763865551358, 50),
    (11, 308, 10, 1, 0.5, 1.0, 28.52622644493436, 28.52622644493436, 50),
    (11, 309, 19, 20, 0.5, 1.0, 71.69709291521418, 71.69709291521418, 50),
    (11, 310, 13, 18, 0.5, 1.0, 55.524640136108005, 55.524640136108005, 50),
    (11, 311, 4, 15, 0.5, 1.0, 42.07989909635588, 42.07989909635588, 50),
    (11, 312, 10, 4, 0.5, 1.0, 24.162090832699484, 24.162090832699484, 50),
    (11, 313, 2, 5, 0.5, 1.0, 9.903820547415101, 9.903820547415101, 50),
    (11, 314, 7, 3, 0.5, 1.0, 20.815263106863675, 20.815263106863675, 50),
    (11, 315, 9, 16, 0.5, 1.0, 51.722627627498476, 51.722627627498476, 50),
    (11, 316, 14, 16, 0.5, 1.0, 56.68691243328646, 56.68691243328646, 50),
    (11, 317, 14, 4, 0.5, 1.0, 39.48716055900506, 39.48716055900506, 50),
    (11, 318, 4, 1, 0.5, 1.0, 11.531371996794611, 11.531371996794611, 50),
    (11, 319, 18, 17, 0.5, 1.0, 63.56718593456354, 63.56718593456354, 50),
    (11, 320, 11, 3, 0.5, 1.0, 25.49198487809405, 25.49198487809405, 50),
    (11, 321, 20, 2, 0.5, 1.0, 48.36785182432209, 48.36785182432209, 50),
    (11, 322, 11, 3, 0.5, 1.0, 22.79573200167382, 22.79573200167382, 50),
    (11, 323, 12, 3, 0.5, 1.0, 22.027506046048195, 22.027506046048195, 50),
    (11, 400, 2, 1, 0.5, 1.0, 4.0561272539207724, 4.0561272539207724, 50),
    (11, 401, 4, 3, 0.5, 1.0, 11.663286466713117, 11.663286466713117, 50),
    (11, 402, 7, 6, 0.5, 1.0, 24.789113602873698, 24.789113602873698, 50),
    (11, 403, 10, 9, 0.5, 1.0, 39.69479924957119, 39.69479924957119, 50),
    (11, 404, 13, 12, 0.5, 1.0, 45.136495968555685, 45.136495968555685, 50),
    (11, 405, 16, 15, 0.5, 1.0, 50.20280495201878, 50.20280495201878, 50),
    (11, 406, 19, 18, 0.5, 1.0, 88.76047744856263, 88.76047744856263, 50),
    (11, 407, 20, 19, 0.5, 1.0, 76.6988830303125, 76.6988830303125, 50),
    (13, 500, 12, 9, 0.3, 1.0, 40.46925714109836, 40.46925714109836, 50),
    (13, 501, 4, 17, 0.3, 1.0, 43.68798612910025, 43.68798612910025, 50),
    (13, 502, 1, 10, 0.3, 1.0, 56.42601688589074, 56.42601688589074, 50),
    (13, 503, 1, 17, 0.3, 1.0, 62.87217815908036, 62.87217815908036, 50),
    (13, 504, 8, 5, 0.3, 1.0, 17.787595199332735, 17.787595199332735, 50),
    (13, 505, 13, 1, 0.3, 1.0, 27.969300074657735, 27.969300074657735, 50),
    (13, 506, 12, 15, 0.3, 1.0, 64.8400550330646, 64.8400550330646, 50),
    (13, 507, 5, 2, 0.3, 1.0, 9.296657599815937, 9.296657599815937, 50),
    (13, 508, 14, 10, 0.3, 1.0, 43.31730571599971, 43.31730571599971, 50),
    (13, 509, 17, 12, 0.3, 1.0, 64.96232886733412, 64.96232886733412, 50),
    (13, 510, 20, 13, 0.3, 1.0, 60.56436015159874, 60.56436015159874, 50),
    (13, 511, 16, 14, 0.3, 1.0, 75.31645813669532, 75.31645813669532, 50),
    (13, 512, 9, 13, 0.3, 1.0, 66.9547251159981, 66.9547251159981, 50),
    (13, 513, 14, 18, 0.3, 1.0, 57.80280874438005, 57.80280874438005, 50),
    (13, 514, 4, 11, 0.3, 1.0, 37.15715426095358, 37.15715426095358, 50),
    (13, 515, 1, 16, 0.3, 1.0, 42.85743616089806, 42.85743616089806, 50),
    (13, 600, 3, 2, 0.3, 1.0, 13.120635957687298, 13.120635957687298, 50),
    (13, 601, 8, 7, 0.3, 1.0, 43.23325712256805, 43.23325712256805, 50),
    (13, 602, 14, 13, 0.3, 1.0, 56.8556236064006, 56.8556236064006, 50),
    (17, 700, 11, 3, 0.5, 0.5, 27.479533791598268, 27.479533791598268, 50),
    (17, 701, 2, 2, 0.3, 0.5, 22.302592135815107, None, 50),
    (17, 702, 9, 19, 0.5, 0.5, 62.237163699665814, None, 50),
    (17, 703, 2, 8, 0.3, 0.5, 29.554473839450424, None, 50),
    (17, 704, 1, 13, 0.5, 0.5, 21.44381355642332, 21.44381355642332, 50),
    (17, 705, 2, 1, 0.3, 0.5, 10.719762806278514, 10.719762806278514, 50),
    (17, 706, 20, 7, 0.5, 0.5, 40.3674237529398, 40.3674237529398, 50),
    (17, 707, 18, 15, 0.3, 0.5, 87.4234167332057, None, 50),
    (11, 800, 1, 20, 0.5, 1.0, 41.622235726184165, 41.622235726184165, 50),
    (11, 801, 20, 1, 0.5, 1.0, 59.62262223798581, 59.62262223798581, 50),
    (13, 802, 20, 20, 0.3, 1.0, 96.3083487405815, 96.3083487405815, 50),
    (2024, 1, 6, 5, 0.5, 1.0, 14.349121714944161, 14.349121714944161, 50),
    (19, 900, 3, 9, 0.1, 1.5, 54.1848442614444, 54.1848442614444, 50),
    (19, 901, 12, 4, 0.1, 1.5, 44.903825460697504, 44.903825460697504, 50),
    (19, 902, 8, 7, 0.1, 1.5, 81.69055366411062, 81.69055366411062, 50),
    (19, 903, 15, 15, 0.1, 1.5, 170.21415442959213, 170.21415442959213, 50),
    (19, 904, 1, 20, 0.1, 1.5, 256.1749101737129, 256.1749101737129, 50),
    (19, 905, 9, 3, 0.9, 1.5, 106.50444721681085, 106.50444721681085, 50),
    (19, 906, 4, 12, 0.9, 1.5, 32.04103535763461, 32.04103535763461, 50),
    (19, 907, 11, 10, 0.9, 1.5, 66.47729550323443, 66.47729550323443, 50),
    (19, 908, 20, 1, 0.9, 1.5, 117.36937823640855, 117.36937823640855, 50),
    (19, 909, 14, 17, 0.9, 1.5, 191.29798045549862, 191.29798045549862, 50),
]


def test_bridge_reports_pinned():
    assert len(_PINNED) >= 70
    for master, index, x, y, rho, scale, l_value, exit_time, checks in _PINNED:
        rep = lpp_bridge_check(master, index, x, y, _grid_for(x, y, rho=rho) * scale, rho=rho)
        got = (rep.ok, rep.l_value, rep.exit_time, rep.checks, rep.witness)
        assert got == (True, l_value, exit_time, checks, None), (master, index, x, y, rho)


def test_bridge_ignores_labels_behind_y(monkeypatch):
    # the bridge simulates labels <= y only.  Handing it the log of a run
    # with the next 40 particles behind label y as well must give the same
    # report, although those particles do jump into observed sites
    real_evolve = tasep.evolve
    behind = []

    def with_more_behind(state, waits, t_end, **kwargs):
        back = int(state.positions[-1])
        occ = bernoulli_occupation(waits.seed, back - 300, back - 1, rho)
        extra = (back - 300 + np.flatnonzero(occ))[::-1][:40]
        wide = TasepState(state.label_min, np.concatenate((state.positions, extra)),
                          state.time, state.n_current, state.window)
        out, log = real_evolve(wide, waits, t_end, **kwargs)
        last = int(state.labels[-1])
        behind.append(sum(1 for lab, tgt in zip(log.labels, log.targets)
                          if lab > last and tgt >= seg_lo))
        return out, log

    rng = np.random.default_rng(8)
    for trial in range(40):
        rho = 0.5 if trial < 30 else 0.3
        x, y = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        seg_lo = min(1, x - y)
        args = (12, trial, x, y, _grid_for(x, y, rho=rho))
        narrow = lpp_bridge_check(*args, rho=rho)
        assert narrow.ok, narrow.witness
        monkeypatch.setattr(tasep, "evolve", with_more_behind)
        assert lpp_bridge_check(*args, rho=rho) == narrow, (x, y, rho)
        monkeypatch.undo()
    # not vacuous: labels beyond y do jump into the observed sites
    assert sum(behind) > 0


def test_bridge_jumps_are_exactly_the_dp_cells(monkeypatch):
    # every jump the bridge simulates is a cell (i, j) = (target + j, j) of
    # its DP staircase {x_j(0) + j < i <= x}, at time G(i, j) bit for bit,
    # and every cell with G <= t_cap is simulated.  G comes from the
    # recursion written out here, G = 0 off the staircase, not from the
    # bridge's DP.  A cap at x - 1 breaks the pinned reports; one at x + 1
    # logs cells outside the staircase
    real_evolve = tasep.evolve
    runs = []

    def keeping(state, waits, t_end, **kwargs):
        state_out, log = real_evolve(state, waits, t_end, **kwargs)
        runs.append((state, waits, t_end, log))
        return state_out, log

    monkeypatch.setattr(tasep, "evolve", keeping)
    rng = np.random.default_rng(21)
    shapes = {"x<=y": 0, "x>y": 0}
    no_exit = 0
    for trial in range(30):
        rho = 0.5 if trial < 15 else 0.3
        x, y = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        grid = _grid_for(x, y, rho=rho) * (0.5 if trial % 3 == 0 else 1.0)
        rep = lpp_bridge_check(23, trial, x, y, grid, rho=rho)
        assert rep.ok, rep.witness
        shapes["x<=y" if x <= y else "x>y"] += 1
        no_exit += rep.exit_time is None
        state, waits, t_cap, log = runs.pop()
        js = state.labels
        starts = (state.positions + js + 1).tolist()
        i0 = min(starts)
        clocks = waits.omega_rows(js, np.full(len(js), i0), x - i0 + 1).tolist()
        g_of = {}
        for r, start in enumerate(starts):
            for i in range(start, x + 1):
                left, below = g_of.get((i - 1, r), 0.0), g_of.get((i, r - 1), 0.0)
                g_of[i, r] = clocks[r][i - i0] + max(left, below)
        for t, j, p in zip(log.times, log.labels, log.targets):
            assert (p + j, j - state.label_min) in g_of, (x, y, j, p)
            assert t == g_of[(p + j, j - state.label_min)]
        assert len(log.times) == sum(v <= t_cap for v in g_of.values())
    assert min(shapes.values()) >= 5 and no_exit >= 1


def test_evolve_column_cap():
    # i_max=None leaves the log pinned from before the cap existed; a cap
    # beyond every reachable cell changes nothing; a binding cap keeps
    # exactly the jumps of clock index <= i_max, at the same times, and
    # stops particle j at site i_max - j
    def digest(log):
        data = np.array(log.times).tobytes()
        data += np.array(log.labels + log.targets, dtype=np.int64).tobytes()
        return hashlib.md5(data).hexdigest()

    seed = SeedSpec(45, 2)
    st = init_stationary(0.5, stationary_window(-30, 30, 15.0), seed)
    full, log = evolve(st, WaitingTimes(seed), 15.0, record=True, i_max=None)
    assert (len(log.times), digest(log)) == (673, "ee79c63a131c7238288181afdefc23f7")
    far, far_log = evolve(st, WaitingTimes(seed), 15.0, record=True, i_max=10**6)
    assert far_log == log and np.array_equal(far.positions, full.positions)
    cols = [p + j for j, p in zip(log.labels, log.targets)]
    for i_max in (-20, 0, 7, 15):
        out, capped = evolve(st, WaitingTimes(seed), 15.0, record=True, i_max=i_max)
        kept = [k for k, c in enumerate(cols) if c <= i_max]
        assert 0 < len(kept) < len(cols)
        assert capped.times == [log.times[k] for k in kept]
        assert capped.labels == [log.labels[k] for k in kept]
        assert capped.targets == [log.targets[k] for k in kept]
        stop = i_max - st.labels
        moved = st.positions < stop
        assert np.all(out.positions[moved] <= stop[moved])
        assert np.array_equal(out.positions[~moved], st.positions[~moved])
        assert np.array_equal(out.positions[moved], np.minimum(full.positions, stop)[moved])


def test_bridge_detects_a_dropped_crossing(monkeypatch):
    # with x = y + 1 the height is probed at site 0, where h_t(0) = 2 N_t;
    # at t = L particle y has just crossed bond 0 -> 1, so h_L(0) = x + y - 1
    # exactly, and a log missing an earlier crossing (label 1's) must fail
    # the height form at the grid point t = L
    real_evolve = tasep.evolve

    def dropping_first_crossing(*args, **kwargs):
        state, log = real_evolve(*args, **kwargs)
        k = log.targets.index(1)
        for column in (log.times, log.labels, log.targets):
            del column[k]
        return state, log

    for y in (2, 3, 5, 8):
        x = y + 1
        first = lpp_bridge_check(31, y, x, y, _grid_for(x, y))
        assert first.ok and first.exit_time is not None
        grid = np.append(_grid_for(x, y), first.l_value)
        assert lpp_bridge_check(31, y, x, y, grid).ok
        monkeypatch.setattr(tasep, "evolve", dropping_first_crossing)
        rep = lpp_bridge_check(31, y, x, y, grid)
        monkeypatch.undo()
        assert not rep.ok
        assert rep.witness.startswith("height/particle mismatch"), rep.witness


def test_bridge_detects_a_dropped_entry_off_site_one(monkeypatch):
    # h(x-y-1) moves only on entries into site x-y.  With x, y >= 2 particle
    # y's is not the first of them, so a log missing the first must fail the
    # height form at t = L, for x - y above, below and at 0
    real_evolve = tasep.evolve

    def dropping_first_entry(*args, **kwargs):
        state, log = real_evolve(*args, **kwargs)
        k = log.targets.index(x - y)
        for column in (log.times, log.labels, log.targets):
            del column[k]
        return state, log

    for x, y in ((7, 2), (9, 4), (2, 9), (3, 6), (5, 5)):
        first = lpp_bridge_check(41, x, x, y, _grid_for(x, y))
        assert first.ok and first.exit_time is not None
        grid = np.sort(np.append(_grid_for(x, y), first.l_value))
        monkeypatch.setattr(tasep, "evolve", dropping_first_entry)
        rep = lpp_bridge_check(41, x, x, y, grid)
        monkeypatch.undo()
        assert rep.witness.startswith("height/particle mismatch"), (x, y, rep.witness)
        assert grid[rep.checks] == first.l_value

def test_bridge_detects_a_moved_or_missing_exit(monkeypatch):
    # the particle form is checked only as E_y(x-1) = L: an exit entry one
    # ulp late, or none although L <= t_cap, must fail the check
    real_evolve = tasep.evolve

    def editing_exit(edit):
        def run(*args, **kwargs):
            state, log = real_evolve(*args, **kwargs)
            k = next(k for k, (lab, tgt) in enumerate(zip(log.labels, log.targets))
                     if lab == y and tgt == x - y)
            edit(log, k)
            return state, log
        return run

    def later(log, k):
        log.times[k] = float(np.nextafter(log.times[k], np.inf))

    def dropped(log, k):
        for column in (log.times, log.labels, log.targets):
            del column[k]

    rng = np.random.default_rng(33)
    for trial in range(12):
        x, y = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        args = (37, trial, x, y, _grid_for(x, y))
        rep = lpp_bridge_check(*args)
        assert rep.ok and rep.exit_time is not None and rep.l_value <= args[-1][-1]
        for edit, head in ((later, "E_y(x-1) = "), (dropped, "no exit event although L = ")):
            monkeypatch.setattr(tasep, "evolve", editing_exit(edit))
            bad = lpp_bridge_check(*args)
            monkeypatch.undo()
            assert not bad.ok and bad.checks == 0 and bad.l_value == rep.l_value
            assert bad.witness.startswith(head), bad.witness


def test_bad_times_raise_parameter_error():
    seed = SeedSpec(45, 2)
    st = init_stationary(0.5, stationary_window(-30, 30, 15.0), seed)
    for t_end in (np.inf, -np.inf, np.nan):
        with pytest.raises(ParameterError):
            evolve(st, WaitingTimes(seed), t_end)
    for grid in ([], np.array([]), [1.0, np.inf], [np.nan, 2.0], [-np.inf]):
        with pytest.raises(ParameterError):
            lpp_bridge_check(3, 0, 4, 4, grid)


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
    # particles behind the last customer never affect its exits, so the
    # window needs no margin on the left
    lo = int(-n_customers / rho - 200)
    win = (lo, stationary_window(lo, 50, t_end)[1])
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
