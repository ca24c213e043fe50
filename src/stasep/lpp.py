"""Last-passage dynamic programming with multi-point extraction.

G(x, y) = max over up-right paths (0,0) -> (x,y) of the path weight sum.
One kernel, _sweep, runs the exact recursion G = w + max(left, below) one
anti-diagonal at a time over row prefixes 0 <= i <= stops[j]: every cell
of diagonal i + j = d reads only diagonal d - 1, so a whole diagonal is
one array op, vectorized across independent weight fields (lanes) as well:
one lane for a single sample, the samples of a batch, or a TASEP bridge
instance, whose T = 0 staircase is written as zero clocks.  The counter
RNG gives O(1) access to any cell, so weights are fetched in hash-sized
groups of cells in sweep order.  Every DP value equals the
sequentially-rounded sum along some path, which makes it bit-exact against
the enumeration oracle (float addition is commutative and rounding is
monotone, so the max survives each +w step), and makes batch and
single-sample results equal bit for bit.  Ties in the max do not affect DP
values.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError, RefusalError
from .weights import BatchWeights, ModelParams, WeightOracle

BRUTE_FORCE_CAP = 22  # x + y; C(22,11) ~ 7e5 paths
HASH_BLOCK_CELLS = 32_768  # cells x lanes per cell_weights call in _sweep

Point = Tuple[int, int]


def _check_points(points: Sequence[Point]) -> List[Point]:
    if not points:
        raise RefusalError("point set is empty")
    seen = []
    for p in points:
        x, y = int(p[0]), int(p[1])
        if x < 0 or y < 0:
            raise DomainError(f"point {p} outside the first quadrant")
        if (x, y) not in seen:
            seen.append((x, y))
    return seen


@dataclass
class PassageResult:
    values: Dict[Point, float]


def _diagonal_runs(stops, d_max: int):
    """The sweep's runs as arrays (d, a, b): rows a..b-1 of diagonal d lie
    in the domain, for diagonals 0..d_max in order and maximal runs of
    consecutive rows from the bottom up.  A block [r0, r1) of rows with
    equal stop s covers rows max(r0, d - s)..min(r1, d + 1) - 1 of
    diagonal d; pieces of consecutive blocks that touch make one run."""
    stops = np.asarray(stops)
    r0 = np.flatnonzero(np.diff(stops, prepend=stops[0] + 1))  # first row of each block
    r1 = np.append(r0[1:], len(stops))
    d = np.arange(d_max + 1)[:, None]
    a, b = np.maximum(r0, d - stops[r0]), np.minimum(r1, d + 1)  # (diagonal, block)
    keep = a < b
    d, a, b = np.broadcast_to(d, keep.shape)[keep], a[keep], b[keep]
    # a piece starts a run unless it continues the one before on its diagonal
    new = np.ones(len(d), dtype=bool)
    new[1:] = (d[1:] != d[:-1]) | (a[1:] != b[:-1])
    return d[new], a[new], b[np.append(new[1:], True)]


def _block_cells(lanes: int) -> int:
    """Cells per cell_weights call in _sweep."""
    return max(1, HASH_BLOCK_CELLS // max(lanes, 1))


def _sweep(cell_weights, stops, lanes: int, wanted: Sequence[Point]) -> np.ndarray:
    """G(i, j) = w(i, j) + max(G(i-1, j), G(i, j-1)) over the row prefixes
    {0 <= i <= stops[j]}, G = 0 off them, for `lanes` weight fields at
    once; returns G at the wanted (i, j), shape (len(wanted), lanes).

    Diagonal d is swept run by run (_diagonal_runs), each one array op.  G
    of row j sits in g[d % 2][j + 1], which is 0 until the row's first
    cell: with nonincreasing stops, every neighbour an in-domain cell
    reads, in g[(d - 1) % 2], is either on diagonal d - 1 or off the domain.
    Other domains are written as weights: a zero weight at every cell of a
    down-left closed set gives G = 0 there exactly (the TASEP bridge sets
    its T = 0 staircase that way).  The weights do not depend on G, so
    cell_weights(i, j), giving w at the cells (i[k], j[k]) of 1-D index
    arrays as a (cells, lanes) array, is asked for _block_cells(lanes) cells
    at a time, in sweep order: short diagonals share a call, and a run may
    span two.  Each array is read only until the next call, so cell_weights
    may write every block into one buffer.
    """
    stops = [int(b) for b in stops]
    if min(stops) < 0 or any(a < b for a, b in zip(stops, stops[1:])):
        raise DomainError("row stops must be nonnegative and nonincreasing")
    by_diag: Dict[int, List[Tuple[int, int]]] = {}
    for k, (i, j) in enumerate(wanted):
        by_diag.setdefault(i + j, []).append((k, j))
    d, lo, hi = _diagonal_runs(stops, max(by_diag))
    # every run's cells in sweep order: run k holds cells at[k]..at[k+1]-1
    size = hi - lo
    at = np.concatenate(([0], np.cumsum(size)))
    jj = np.arange(at[-1]) - np.repeat(at[:-1] - lo, size)
    ii = np.repeat(d, size) - jj
    at = at.tolist()
    runs = list(zip(d.tolist(), lo.tolist(), hi.tolist()))
    step = _block_cells(lanes)
    out = np.empty((len(wanted), lanes))
    g = np.zeros((2, len(stops) + 1, lanes))  # g[0] pads row j = -1
    base = end = 0  # w holds the weights of cells base..end-1
    for k, (dk, a, b) in enumerate(runs):
        old, new = g[(dk - 1) % 2], g[dk % 2]
        c = at[k]
        while c < at[k + 1]:
            if c == end:
                base, end = c, min(c + step, at[-1])
                w = cell_weights(ii[base:end], jj[base:end])
            e = min(at[k + 1], end)
            ra, rb = a + c - at[k], a + e - at[k]  # rows of cells c..e-1
            np.maximum(old[ra + 1 : rb + 1], old[ra:rb], out=new[ra + 1 : rb + 1])
            new[ra + 1 : rb + 1] += w[c - base : e - base]
            c = e
        if k + 1 == len(runs) or runs[k + 1][0] != dk:
            for kw, j in by_diag.get(dk, ()):
                out[kw] = new[j + 1]
    return out


def _row_reach(pts: List[Point]) -> List[int]:
    """reach[j], for rows 0..max y: the rightmost column of a point at or
    above row j.  Row j is swept only that far: the recursion is a prefix
    one, so a shorter row leaves the values it keeps unchanged."""
    reach = [0] * (max(p[1] for p in pts) + 2)
    for x, y in pts:
        reach[y] = max(reach[y], x)
    for j in range(len(reach) - 2, -1, -1):
        reach[j] = max(reach[j], reach[j + 1])
    return reach[:-1]


def last_passage(oracle: WeightOracle, points: Sequence[Point]) -> PassageResult:
    """Passage times to every requested point, captured in one sweep."""
    pts = _check_points(points)
    reach = _row_reach(pts)
    g = _sweep(oracle.cell_weights, reach, 1, pts)
    vals = {p: float(v[0]) for p, v in zip(pts, g)}
    return PassageResult(values=vals)


def last_passage_batch(
    params: ModelParams,
    master_seed: int,
    sample_indices,
    points: Sequence[Point],
) -> np.ndarray:
    """G at the requested points for a batch of samples, bit for bit the
    single-sample last_passage values.

    Returns shape (n_samples, n_points), column order following `points`.
    Weights come in (cells, samples) blocks from BatchWeights.cells.
    """
    reach = _row_reach(_check_points(points))
    bw = BatchWeights(params, master_seed, sample_indices)
    lanes = len(bw.keys)
    block = np.empty((_block_cells(lanes), lanes))  # reused by every block
    pts = [(int(p[0]), int(p[1])) for p in points]
    g = _sweep(lambda i, j: bw.cells(i, j, out=block[: len(i)]), reach, lanes, pts)
    return g.T


def brute_force_last_passage(oracle: WeightOracle, point: Point) -> float:
    """Exact max over explicitly enumerated up-right paths (testing oracle).

    Path sums are accumulated step by step in path order, matching the
    DP's rounding exactly.
    """
    x, y = int(point[0]), int(point[1])
    if x < 0 or y < 0:
        raise DomainError(f"point {point} outside the first quadrant")
    if x + y > BRUTE_FORCE_CAP:
        raise RefusalError(
            f"x + y = {x + y} exceeds enumeration cap {BRUTE_FORCE_CAP}"
        )
    steps = x + y
    w = np.empty((y + 1, x + 1))
    for j in range(y + 1):
        w[j] = oracle.row_weights(j, x)
    if steps == 0:
        return float(w[0, 0])
    up_sets = list(combinations(range(steps), y))
    npaths = len(up_sets)
    is_up = np.zeros((npaths, steps), dtype=bool)
    for r, ups in enumerate(up_sets):
        is_up[r, list(ups)] = True
    rows = np.zeros(npaths, dtype=np.intp)
    cols = np.zeros(npaths, dtype=np.intp)
    acc = np.full(npaths, w[0, 0])
    for s in range(steps):
        rows = rows + is_up[:, s]
        cols = cols + (~is_up[:, s])
        acc = acc + w[rows, cols]
    return float(np.max(acc))
