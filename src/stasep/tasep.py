"""Event-driven TASEP with particle, height, and tandem-queue observables,
plus the exact pathwise bridge to last-passage percolation.

Conventions (right-to-left labels): label 0 sits at the smallest occupied
non-negative site at t=0; labels increase to the left, so positions are
strictly decreasing in the label.  Omega(i, j) is the Exp(1) clock of the
jump taking particle j from site i-j-1 to i-j, armed at the instant both
the particle sits at i-j-1 and site i-j is empty.

The jump times then satisfy T(i,j) = Omega(i,j) + max(T(i-1,j), T(i,j-1))
with T = 0 outside the domain {i - j > x_j(0)}, which is a last-passage
recursion over a staircase domain (swept as a rectangle whose clocks are
zero left of the staircase); the simulator and the DP compute the same
max/add float operations, so the bridge comparisons are bit-exact.

The bridge simulates exactly its DP cells: labels <= y, columns <= x.
Particles behind particle y cross every bond after it does, and jumps past
column x come after every cell the DP reads, so neither can change an
outcome of the check (lpp_bridge_check gives the argument).
"""

import heapq
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import ParameterError, RefusalError, WindowError
from .lpp import _sweep
from .rng import TAG_INIT, TAG_OMEGA, SeedSpec, uniform_oc

_OFF = 1 << 20  # recenters signed lattice/site indices into counter range
_CLOCK_BLOCK_CELLS = 1 << 12  # clocks drawn per hash call in evolve


class WaitingTimes:
    """Counter-backed iid Exp(1) jump clocks Omega(i, j)."""

    def __init__(self, seed: SeedSpec):
        self.seed = seed
        self._key = seed.key

    def omega_row(self, j: int, i_lo: int, i_hi: int) -> np.ndarray:
        idx = np.arange(i_lo + _OFF, i_hi + 1 + _OFF)
        return -np.log(uniform_oc(self._key, TAG_OMEGA, idx, j + _OFF))

    def omega_rows(self, js: np.ndarray, i_los: np.ndarray, width: int) -> np.ndarray:
        """Row k is omega_row(js[k], i_los[k], i_los[k] + width - 1), bit for
        bit: the clocks are a pure function of the cell."""
        idx = np.asarray(i_los)[:, None] + np.arange(_OFF, width + _OFF)[None, :]
        j = np.asarray(js)[:, None] + _OFF
        return -np.log(uniform_oc(self._key, TAG_OMEGA, idx, j))


def bernoulli_occupation(seed: SeedSpec, lo: int, hi: int, rho: float) -> np.ndarray:
    """iid Bernoulli(rho) occupation variables for sites lo..hi."""
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"rho must be in (0,1), got {rho}")
    sites = np.arange(lo + _OFF, hi + 1 + _OFF)
    return uniform_oc(seed.key, TAG_INIT, sites, 0) < rho


@dataclass
class TasepState:
    label_min: int
    positions: np.ndarray  # positions[k] = site of particle label_min + k
    time: float
    n_current: int  # jumps across bond 0 -> 1 so far
    window: Tuple[int, int]

    def __post_init__(self):
        if np.any(np.diff(self.positions) >= 0):
            raise ParameterError("positions must be strictly decreasing in the label")

    @property
    def labels(self) -> np.ndarray:
        return self.label_min + np.arange(len(self.positions))

    def occupation(self, lo: int, hi: int) -> np.ndarray:
        occ = np.zeros(hi - lo + 1, dtype=np.int8)
        pos = self.positions
        inside = (pos >= lo) & (pos <= hi)
        occ[pos[inside] - lo] = 1
        return occ

    def height(self, lo: int, hi: int) -> np.ndarray:
        """h_t(j) for j in lo..hi, anchored at h_t(0) = 2 N_t; slopes are
        +1 over empty sites and -1 over occupied ones."""
        full_lo, full_hi = min(lo, 0), max(hi, 0)
        occ = self.occupation(full_lo, full_hi).astype(np.int64)
        step = 1 - 2 * occ
        h = np.zeros(full_hi - full_lo + 2, dtype=np.int64)  # h[k] at site full_lo-1+k
        zero_idx = 0 - (full_lo - 1)
        h[zero_idx:] = np.concatenate(([0], np.cumsum(step[zero_idx:])))
        h[:zero_idx] = -np.cumsum(step[:zero_idx][::-1])[::-1]
        h += 2 * self.n_current
        return h[(lo - (full_lo - 1)) : (hi - (full_lo - 1)) + 1]


@dataclass
class JumpLog:
    times: List[float] = field(default_factory=list)
    labels: List[int] = field(default_factory=list)
    targets: List[int] = field(default_factory=list)

    def jump_time(self, i: int, j: int) -> Optional[float]:
        """Time of the jump with clock index (i, j), i.e. particle j into
        site i - j; None if it has not occurred.  Hops between the log
        entries of label j (list.index scans in C); the bridge makes one
        lookup per log."""
        k = -1
        try:
            while True:
                k = self.labels.index(j, k + 1)
                if self.targets[k] == i - j:
                    return self.times[k]
        except ValueError:
            return None


def stationary_window(obs_lo: int, obs_hi: int, t_end: float) -> Tuple[int, int]:
    """Fill window guaranteeing exact observations on [obs_lo, obs_hi] up to
    t_end: information moves at rate <= 1, so the margin carries the ballistic
    term plus a 10*sqrt(t) fluctuation allowance (never below 50)."""
    margin = int(math.ceil(t_end + max(10.0 * math.sqrt(max(t_end, 0.0)), 50.0)))
    return obs_lo - margin, obs_hi + margin


def init_stationary(rho: float, window: Tuple[int, int], seed: SeedSpec) -> TasepState:
    """Bernoulli(rho) product initial data on the window, labelled by the
    right-to-left convention."""
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ParameterError("empty window")
    occ = bernoulli_occupation(seed, lo, hi, rho)
    sites = np.arange(lo, hi + 1)[occ]
    if len(sites) == 0:
        raise RefusalError("no particles in window; enlarge it or raise rho")
    nonneg = sites[sites >= 0]
    if len(nonneg) == 0:
        label_of_rightmost = 1  # all particles on negative sites
    else:
        label_of_rightmost = -(len(nonneg) - 1)
    positions = sites[::-1].astype(np.int64)  # decreasing
    return TasepState(
        label_min=label_of_rightmost,
        positions=positions,
        time=0.0,
        n_current=0,
        window=(lo, hi),
    )


def evolve(
    state: TasepState,
    waits: WaitingTimes,
    t_end: float,
    record: bool = False,
    *,
    i_max: Optional[int] = None,
) -> Tuple[TasepState, JumpLog]:
    """Run the event-driven dynamics from state.time to t_end.

    The particle with the smallest simulated label is treated as unblocked;
    the caller must size the label range so that unsimulated particles
    cannot influence the observables (lpp_bridge_check states why its label
    range suffices).  Raises WindowError if any particle escapes the window,
    and AssertionError if a jump lands on or past the particle ahead.

    With i_max set, particle j stops at site i_max - j: no jump with clock
    index (target + j) beyond i_max is scheduled.  The jumps that remain see
    the same clocks and the same blocking, since a jump into column i <= i_max
    waits only on jumps of columns <= i, so each keeps its time bit for bit.
    """
    if t_end < state.time:
        raise ParameterError("t_end precedes current state time")
    start_pos = state.positions.astype(np.int64)
    nlab = len(start_pos)
    label_min = state.label_min
    n_current = state.n_current
    elapsed = t_end - state.time
    # rate-1 jumps cannot carry a particle further than this; crossing it
    # means the window was mis-sized (or the clock logic broke)
    max_jumps = int(elapsed + 10.0 * math.sqrt(elapsed + 1.0) + 30.0)
    envelope = int(state.window[1]) + max_jumps

    # preload every clock each particle could possibly consume (the draws
    # are pure functions of the cell, so unused preloads change nothing)
    labs = label_min + np.arange(nlab)
    i_los = start_pos + labs + 1
    width = max_jumps + 1
    if i_max is None:
        i_max = int(i_los.max()) + width  # past every preloaded clock: binds no one
    else:
        width = max(1, min(width, i_max - int(i_los.min()) + 1))
    block = max(1, _CLOCK_BLOCK_CELLS // width)
    clocks = []
    for a in range(0, nlab, block):
        rows = waits.omega_rows(labs[a : a + block], i_los[a : a + block], width)
        clocks.extend(rows.tolist())
    # particle k may jump while its position stays below stop[k]
    stop = (i_max - labs).tolist()

    pos = [int(p) for p in start_pos]
    jumps = [0] * nlab
    pending = [False] * nlab
    rec_t: List[float] = []
    rec_l: List[int] = []
    rec_g: List[int] = []
    heap: List[Tuple[float, int]] = []
    t0 = state.time
    for k in range(nlab):
        if pos[k] < stop[k] and (k == 0 or pos[k - 1] > pos[k] + 1):
            heap.append((t0 + clocks[k][0], k))
            pending[k] = True
    heapq.heapify(heap)

    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        t, k = pop(heap)
        if t > t_end:
            push(heap, (t, k))
            break
        pending[k] = False
        old = pos[k]
        new = old + 1
        if k > 0 and pos[k - 1] <= new:
            raise AssertionError("exclusion violated")
        pos[k] = new
        jumps[k] += 1
        if jumps[k] >= max_jumps or new > envelope:
            raise WindowError(
                f"particle {label_min + k} reached site {new}, beyond the "
                f"physical envelope of window {state.window}; size the "
                "window for (t_end, rho)"
            )
        if new == 1:
            n_current += 1
        if record:
            rec_t.append(t)
            rec_l.append(label_min + k)
            rec_g.append(new)
        # the particle behind, if adjacent, is unblocked at time t (its jump
        # into `old` has clock index new + label_k, within i_max)
        kb = k + 1
        if kb < nlab and pos[kb] == old - 1 and not pending[kb]:
            push(heap, (t + clocks[kb][jumps[kb]], kb))
            pending[kb] = True
        # this particle may keep moving
        if new < stop[k] and (k == 0 or pos[k - 1] > new + 1):
            push(heap, (t + clocks[k][jumps[k]], k))
            pending[k] = True

    out = TasepState(
        label_min=label_min,
        positions=np.array(pos, dtype=np.int64),
        time=t_end,
        n_current=n_current,
        window=state.window,
    )
    return out, JumpLog(rec_t, rec_l, rec_g)


def queue_exit_time(log: JumpLog, j: int, i: int) -> Optional[float]:
    """E_j(i): when customer j leaves queue i, under the mapping that puts
    particle j of the TASEP in queue x_j(t) + j.  Equals the time of the
    jump with clock index (i+1, j); None if not yet departed."""
    return log.jump_time(i + 1, j)


# ---------------------------------------------------------------------------
# the pathwise bridge


@dataclass
class BridgeReport:
    ok: bool
    x: int
    y: int
    l_value: float
    exit_time: Optional[float]
    checks: int
    witness: Optional[str] = None


def _occupied_until(seed: SeedSpec, rho: float, origin: int, step: int, span: int, stop):
    """The occupied sites met walking from `origin` in direction `step` (+1 or
    -1), in walking order, up to but excluding the k-th one (k = 1, 2, ...)
    at site s for which stop(s, k) first holds; `stop` maps arrays to a
    boolean array.  The occupations are drawn in one bernoulli_occupation call
    over `span` sites, doubled until the rule fires (they are a pure function
    of the site, so the span changes no value)."""
    while True:
        lo, hi = sorted((origin, origin + step * (span - 1)))
        sites = lo + np.flatnonzero(bernoulli_occupation(seed, lo, hi, rho))
        if step < 0:
            sites = sites[::-1]
        hit = np.flatnonzero(stop(sites, np.arange(1, len(sites) + 1)))
        if hit.size:
            return sites[: hit[0]]
        span *= 2


def lpp_bridge_check(
    master_seed: int,
    sample_index: int,
    x: int,
    y: int,
    t_grid,
    rho: float = 0.5,
) -> BridgeReport:
    """Build the waiting-time field and the induced last-passage problem from
    one seed and assert, for every t in t_grid,

        x_y(t) >= x - y       <=>  L(x, y) <= t         (particle form)
        h_t(x-y-1) >= x+y-1   <=>  x_y(t) >= x - y       (height form)

    plus exact equality of L(x, y) with the simulated exit time E_y(x-1).
    Initial data: Bernoulli(rho) conditioned on site 0 empty, site 1
    occupied.

    The height form above is the exact pathwise identity.  A jump across
    bond j raises h(j) by 2 and bond-j crossings happen in label order, so
    h_t(j) >= x+y is the arrival of particle y at site j+1; displayed with
    h_t(x-y) the statement acquires a unit shift that matters pathwise
    (though not in the scaling limit), hence the -1 offsets here.

    Simulated cells.  Labels <= 0 sit on sites >= 1 and are kept while
    their DP row is non-empty; labels 1..y are the remaining DP rows, and
    particle y gives the exit time.  No label > y is simulated, and this
    changes no outcome of the check.  Such a label starts left of
    seg_lo = min(1, x-y) and crosses each bond only after particle y has.
    The replay observes only jumps into sites >= seg_lo: N_t counts entries
    to site 1, and the height segment [seg_lo, seg_hi] counts entries and
    exits.  A label > y entering site 1 raises N_t and the segment count
    together, so h(x-y-1) is unchanged.  Any other observed jump by such a
    label comes after particle y reached x-y; by then the particle form
    holds, and h only grows.  So every report on a passing instance is
    unchanged; only the h= value printed in a failing witness could differ.

    Each simulated label j also stops at site x - j (evolve's i_max = x):
    the DP reads only cells with i <= x, so every T(i, j) it uses comes from
    the same float operations.  The dropped jumps change no outcome either.
    h(x-y-1) changes only on jumps into site x-y; for a label j <= y that
    jump has clock index x-y+j <= x, so it is still simulated.  The one
    other observed jump that can be dropped is a label j >= x entering site
    1 when x <= y, which, like a label > y entering site 1, leaves h(x-y-1)
    unchanged.
    """
    if x < 1 or y < 1:
        raise ParameterError("bridge requires x, y >= 1")
    seed = SeedSpec(master_seed, sample_index)
    waits = WaitingTimes(seed)
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    t_cap = float(t_grid[-1])
    j_site = x - y - 1  # height is probed one site left of the arrival
    if j_site >= 1:
        seg_lo, seg_hi = 1, j_site
    else:
        seg_lo, seg_hi = j_site + 1, 0

    # labels <= 0 live on sites >= 1 (label 0 on the conditioned site 1);
    # include while the row domain {i : x_j(0) + j < i <= x} is non-empty
    # (monotone stopping rule)
    right = _occupied_until(seed, rho, 2, 1, 4 * x + 64, lambda s, k: s >= x + k)

    # labels 1..y live on negative sites (site 0 is conditioned empty)
    left = _occupied_until(seed, rho, -1, -1, 4 * y + 64, lambda s, k: k > y)

    # positions in decreasing order from label -len(right) to y
    positions = np.concatenate((right[::-1], [1], left)).astype(np.int64)
    label_min = -len(right)
    state = TasepState(
        label_min=label_min,
        positions=positions,
        time=0.0,
        n_current=0,
        window=(int(positions.min()), int(positions.max())),
    )
    state, log = evolve(state, waits, t_cap, record=True, i_max=x)

    # DP over rows label_min..y (rows above y cannot feed (x, y)) on the
    # staircase {x_j(0) + j < i <= x}: the rectangle from i0, row y's start
    # and the smallest, with zero clocks left of the staircase, a down-left
    # closed set (starts are nonincreasing) whose cells compute 0 + max(0, 0)
    js = np.arange(label_min, y + 1)
    starts = positions[: len(js)] + js + 1
    i0 = int(starts[-1])
    clocks = waits.omega_rows(js, np.full(len(js), i0), x - i0 + 1)
    clocks[np.arange(x - i0 + 1) < (starts - i0)[:, None]] = 0.0
    g = _sweep(lambda c, r: clocks[r, c, None], [x - i0] * len(js), 1, [(x - i0, len(js) - 1)])
    l_xy = float(g[0, 0])

    pos_y0 = int(positions[y - label_min])

    exit_t = queue_exit_time(log, y, x - 1)
    checks = 0
    witness = None

    if exit_t is not None and exit_t != l_xy:
        witness = f"E_y(x-1) = {exit_t!r} differs from L = {l_xy!r}"
    if exit_t is None and l_xy <= t_cap:
        witness = f"no exit event although L = {l_xy!r} <= {t_cap!r}"

    if witness is None:
        # single incremental replay of the time-ordered log: track N_t, the
        # occupied count over the height segment, and particle y's position
        seg_w = seg_hi - seg_lo + 1
        occ_in_seg = int(np.count_nonzero((positions >= seg_lo) & (positions <= seg_hi)))
        n_t = 0
        pos_y = pos_y0
        ev = 0
        n_ev = len(log.times)
        times = log.times
        labs = log.labels
        tgts = log.targets
        for t in t_grid:
            t = float(t)
            while ev < n_ev and times[ev] <= t:
                tgt = tgts[ev]
                if tgt == 1:
                    n_t += 1
                if tgt == seg_lo:
                    occ_in_seg += 1
                elif tgt == seg_hi + 1:
                    occ_in_seg -= 1
                if labs[ev] == y:
                    pos_y = tgt
                ev += 1
            particle_ok = pos_y >= x - y
            lpp_ok = l_xy <= t
            if particle_ok != lpp_ok:
                witness = f"particle/LPP mismatch at t={t}"
                break
            h_val = 2 * n_t
            if j_site != 0:
                signed = seg_w - 2 * occ_in_seg  # sum of (1 - 2 eta)
                h_val += signed if j_site >= 1 else -signed
            height_ok = h_val >= x + y - 1
            if height_ok != particle_ok:
                witness = f"height/particle mismatch at t={t} (h={h_val})"
                break
            checks += 1

    return BridgeReport(
        ok=witness is None,
        x=x,
        y=y,
        l_value=l_xy,
        exit_time=exit_t,
        checks=checks,
        witness=witness,
    )
