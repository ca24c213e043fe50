"""Weight fields for the bordered last-passage models.

Four variants share one bulk field of unit-mean exponentials; they differ
only in the law of the first row, first column, and origin:

  TwoSidedStationary  w00 = 0, bottom mean 1/(1-rho), left mean 1/rho
  ShiftedPlus         w00 ~ Exp(mean 1/(a+b)), bottom 1/(1/2+b), left 1/(1/2+a)
  ShiftedZero         as ShiftedPlus but w00 = 0
  BernoulliDomain     TwoSidedStationary with the first zeta_plus bottom and
                      zeta_minus left weights forced to zero

zeta_plus ~ Geom(1-rho) and zeta_minus ~ Geom(rho), P(zeta = k) = (1-q) q^k,
are floor(log u / log q) for the uniform u at counter (0, 0), respectively
(0, 1), of the sample's TAG_ZETA lane: one hash per geometric, drawn for a
whole batch by one array call each.

The stationary model is the a = rho-1/2, b = 1/2-rho member of the shifted
family, so border means are computed uniformly from (a, b).  All variants
consume identical uniforms cell by cell, which makes cross-model couplings
(G+ = G + w00, Bernoulli <= TwoSided) exact pathwise.

Nothing else in the package builds ShiftedPlus or ShiftedZero (so
origin_mean is nonzero only for them) or calls BatchWeights.row: they stay
for the benchmark's mc-small workload, whose tracer also wraps row, and for
the tests.
"""

import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError
from .rng import TAG_FIELD, TAG_ZETA, KeyTile, SeedSpec, stream_key, uniform_oc


class ModelKind(Enum):
    TwoSidedStationary = "two-sided-stationary"
    ShiftedPlus = "shifted-plus"
    ShiftedZero = "shifted-zero"
    BernoulliDomain = "bernoulli-domain"


_STATIONARY_KINDS = (ModelKind.TwoSidedStationary, ModelKind.BernoulliDomain)


@dataclass(frozen=True)
class ModelParams:
    kind: ModelKind
    rho: float = 0.5
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        k = self.kind
        if k in _STATIONARY_KINDS:
            if not 0.0 < self.rho < 1.0:
                raise ParameterError(f"rho must be in (0,1), got {self.rho}")
            if k is ModelKind.BernoulliDomain and 1.0 - self.rho == 1.0:
                # zeta_plus ~ Geom(1 - rho) needs log(1 - rho) < 0
                raise ParameterError(f"1 - rho rounds to 1 at rho = {self.rho}")
            # a+b = 0 boundary of the shifted family
            object.__setattr__(self, "a", self.rho - 0.5)
            object.__setattr__(self, "b", 0.5 - self.rho)
        else:
            if not (-0.5 < self.a < 0.5 and -0.5 < self.b < 0.5):
                raise ParameterError("a, b must lie in (-1/2, 1/2)")
            if k is ModelKind.ShiftedPlus and not self.a + self.b > 0:
                raise ParameterError("ShiftedPlus requires a + b > 0")

    @classmethod
    def two_sided(cls, rho):
        return cls(ModelKind.TwoSidedStationary, rho=rho)

    @classmethod
    def bernoulli_domain(cls, rho):
        return cls(ModelKind.BernoulliDomain, rho=rho)

    @classmethod
    def shifted_plus(cls, a, b):
        return cls(ModelKind.ShiftedPlus, a=a, b=b)

    @classmethod
    def shifted_zero(cls, a, b):
        return cls(ModelKind.ShiftedZero, a=a, b=b)

    @property
    def bottom_mean(self) -> float:
        return 1.0 / (0.5 + self.b)

    @property
    def left_mean(self) -> float:
        return 1.0 / (0.5 + self.a)

    @property
    def origin_mean(self) -> float:
        if self.kind is ModelKind.ShiftedPlus:
            return 1.0 / (self.a + self.b)
        return 0.0


@dataclass(frozen=True)
class WeightOracle:
    """Deterministic map (i, j) -> weight for one sample of one model: a
    one-lane BatchWeights."""

    params: ModelParams
    seed: SeedSpec
    zeta_plus: int = field(init=False, default=0)
    zeta_minus: int = field(init=False, default=0)
    _lane: "BatchWeights" = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        lane = BatchWeights(self.params, self.seed.master_seed, [self.seed.sample_index])
        object.__setattr__(self, "_lane", lane)
        object.__setattr__(self, "zeta_plus", int(lane.zeta_plus[0]))
        object.__setattr__(self, "zeta_minus", int(lane.zeta_minus[0]))

    def weight_at(self, i: int, j: int) -> float:
        """w(i, j) by the scalar hash, with the operations of cells."""
        # the hash would truncate a float index onto another cell
        if not (isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)):
            raise DomainError(f"lattice index ({i}, {j}) is not a pair of integers")
        if i < 0 or j < 0:
            raise DomainError(f"negative lattice index ({i}, {j})")
        w = -np.log(uniform_oc(self._lane.keys[0], TAG_FIELD, i, j))
        if i == 0 or j == 0:
            w *= self._lane._border_means(np.array([[i]]), np.array([[j]]))[0, 0]
        return float(w)

    def row_weights(self, j: int, imax: int) -> np.ndarray:
        """Weights w(0..imax, j) as one vector; bitwise equal to weight_at."""
        if j < 0 or imax < 0:
            raise DomainError("negative lattice index")
        return self._lane.row_t(j, imax)[:, 0]

    def cell_weights(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Weights at cells (i[k], j[k]) as a (cells, 1) column."""
        return self._lane.cells(i, j)


def _integer_indices(sample_indices) -> bool:
    """True when sample_indices is a collection of integers: a range, an
    integer array (neither needs a look at its elements) or a collection
    whose every element is integral."""
    if isinstance(sample_indices, range):
        return True
    if isinstance(sample_indices, np.ndarray) and sample_indices.dtype.kind in "iu":
        return True
    try:
        return all(isinstance(s, numbers.Integral) for s in sample_indices)
    except TypeError:  # a scalar
        return False


class BatchWeights:
    """Weight generator for a batch of samples (vectorized across samples).

    cells(i, j) returns w at the cells (i[k], j[k]) as shape (cells,
    n_samples); row_t(j, imax) is row j's cells in that layout and row(j,
    imax) its transpose.  All are bit-identical to the per-sample weights.
    """

    def __init__(self, params: ModelParams, master_seed: int, sample_indices):
        self.params = params
        # the uint64 cast would truncate a float index onto another sample's
        # key, so every index must be an integer
        if not _integer_indices(sample_indices):
            raise ParameterError("sample indices must be a collection of integers")
        # SeedSpec refuses a seed or index outside [0, 2**64), which the uint64
        # cast would wrap; Python's min/max stay exact where numpy rounds
        ends = (min(sample_indices), max(sample_indices)) if len(sample_indices) else (0,)
        for s in ends:
            SeedSpec(master_seed, s)
        self.sample_indices = np.asarray(sample_indices, dtype=np.uint64)
        self.keys = stream_key(master_seed, self.sample_indices)
        if params.kind is ModelKind.BernoulliDomain:
            self.zeta_plus, self.zeta_minus = (
                np.floor(np.log(uniform_oc(self.keys, TAG_ZETA, 0, lane)) / np.log(q))
                .astype(np.int64)
                for lane, q in enumerate((1.0 - params.rho, params.rho))
            )
        else:
            self.zeta_plus, self.zeta_minus = np.zeros((2, len(self.keys)), dtype=np.int64)
        self._tile = None

    def row(self, j: int, imax: int) -> np.ndarray:
        return self.row_t(j, imax).T

    def row_t(self, j: int, imax: int) -> np.ndarray:
        """Cells 0..imax of row j, shape (imax+1, n_samples)."""
        i = np.arange(imax + 1)
        return self.cells(i, np.full_like(i, j))

    def cells(self, i: np.ndarray, j: np.ndarray, out=None) -> np.ndarray:
        """w(i[k], j[k]) for every sample, shape (len(i), n_samples), written
        to `out` if given: -log u, scaled in place on the border cells to
        mean * (-log u).  That equals -mean * log(u) bit for bit (both round
        |mean * log u| and agree in sign), so unit-mean cells need no
        multiply at all.  The keys' KeyTile is kept for the next call, and
        grown when a call brings more cells."""
        if self._tile is None or self._tile.rows < len(i):
            self._tile = KeyTile(self.keys, len(i))
        w = np.empty((len(i), len(self.keys))) if out is None else out
        uniform_oc(self._tile, TAG_FIELD, i[:, None], j[:, None], out=w)
        np.log(w, out=w)
        np.negative(w, out=w)
        border = np.flatnonzero((i == 0) | (j == 0))
        if border.size:
            w[border] *= self._border_means(i[border, None], j[border, None])
        return w

    def _border_means(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Weight means at border cells (i[k], j[k]) with i or j zero, per
        sample; i and j are (cells, 1) columns."""
        p = self.params
        means = np.where(j == 0, p.bottom_mean, p.left_mean)
        means = np.where(i == j, p.origin_mean, means)
        if p.kind is ModelKind.BernoulliDomain:
            # the first zeta_plus bottom and zeta_minus left cells are empty
            off = ((j == 0) & (i <= self.zeta_plus)) | ((i == 0) & (j <= self.zeta_minus))
            means = np.where(off & (i != j), 0.0, means)
        return means
