"""Last-passage dynamic programming with multi-point extraction.

G(x, y) = max over up-right paths (0,0) -> (x,y) of the path weight sum.
One kernel, _sweep, runs the exact recursion G = w + max(left, below) row
by row over a staircase domain, vectorized across independent weight
fields (lanes): one lane for a single sample, the samples of a batch, or a
TASEP bridge instance.  Every DP value equals the sequentially-rounded sum
along some path, which makes it bit-exact against the enumeration oracle
(float addition is commutative and rounding is monotone, so the max
survives each +w step), and makes batch and single-sample results equal
bit for bit.  Ties in the max do not affect DP values.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError, RefusalError
from .weights import HASH_BLOCK_CELLS, BatchWeights, ModelParams, WeightOracle

BRUTE_FORCE_CAP = 22  # x + y; C(22,11) ~ 7e5 paths

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
    sample_index: int


def _sweep(row_weights, starts, stops, lanes: int, wanted: Sequence[Point]) -> np.ndarray:
    """G(i, j) = w(i, j) + max(G(i-1, j), G(i, j-1)) for rows j = 0, 1, ...
    over the domain {starts[j] <= i <= stops[j]}, G = 0 off it, for `lanes`
    weight fields at once; returns G at the wanted (i, j), shape
    (len(wanted), lanes).

    row_weights(j, lo, hi) gives w(lo..hi, j) as a (cells, lanes) array and
    is asked for blocks of HASH_BLOCK_CELLS // lanes cells.  Nonincreasing
    starts and stops make every cell's lower neighbour either computed or
    never written (zero), and the first cell of each row takes w + below.
    """
    starts, stops = [int(a) for a in starts], [int(b) for b in stops]
    if min(starts) < 0 or any(
        a < b for bounds in (starts, stops) for a, b in zip(bounds, bounds[1:])
    ):
        raise DomainError("row starts must be nonnegative, starts and stops nonincreasing")
    by_row: Dict[int, List[Tuple[int, int]]] = {}
    for k, (i, j) in enumerate(wanted):
        by_row.setdefault(j, []).append((k, i))
    out = np.empty((len(wanted), lanes))
    cells = list(np.zeros((max(stops[0] + 1, 0), lanes)))  # G by column, rolling over rows
    step = max(1, HASH_BLOCK_CELLS // max(lanes, 1))
    for j, (lo, hi) in enumerate(zip(starts, stops)):
        left = None
        for a in range(lo, hi + 1, step):
            w = row_weights(j, a, min(a + step, hi + 1) - 1)
            for g, wg in zip(cells[a : a + step], w):
                if left is not None:
                    np.maximum(left, g, out=g)
                g += wg
                left = g
        for k, i in by_row.get(j, ()):
            out[k] = cells[i]
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
    g = _sweep(
        lambda j, lo, hi: oracle.row_weights(j, hi)[lo:, None],
        [0] * len(reach), reach, 1, pts,
    )
    vals = {p: float(v[0]) for p, v in zip(pts, g)}
    return PassageResult(values=vals, sample_index=oracle.seed.sample_index)


def last_passage_batch(
    params: ModelParams,
    master_seed: int,
    sample_indices,
    points: Sequence[Point],
) -> np.ndarray:
    """G at the requested points for a batch of samples, bit for bit the
    single-sample last_passage values.

    Returns shape (n_samples, n_points), column order following `points`.
    Weights come in (cells, samples) blocks from BatchWeights.row_t.
    """
    reach = _row_reach(_check_points(points))
    bw = BatchWeights(params, master_seed, sample_indices)
    g = _sweep(
        lambda j, lo, hi: bw.row_t(j, hi, lo),
        [0] * len(reach), reach, len(bw.keys),
        [(int(p[0]), int(p[1])) for p in points],
    )
    return g.T


def last_passage_point_to_point(
    oracle: WeightOracle, frm: Point, to: Point
) -> float:
    """Max path weight over up-right paths constrained to start at `frm`."""
    fx, fy = int(frm[0]), int(frm[1])
    tx, ty = int(to[0]), int(to[1])
    if fx < 0 or fy < 0:
        raise DomainError(f"start point {frm} outside the first quadrant")
    if fx > tx or fy > ty:
        raise DomainError(f"start {frm} not componentwise <= end {to}")
    rows = ty - fy + 1
    g = _sweep(
        lambda r, lo, hi: oracle.row_weights(fy + r, hi)[lo:, None],
        [fx] * rows, [tx] * rows, 1, [(tx, rows - 1)],
    )
    return float(g[0, 0])


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
