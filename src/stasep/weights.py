"""Weight fields for the bordered last-passage models.

Five variants share one bulk field of unit-mean exponentials; they differ
only in the law of the first row, first column, and origin:

  TwoSidedStationary  w00 = 0, bottom mean 1/(1-rho), left mean 1/rho
  ShiftedPlus         w00 ~ Exp(mean 1/(a+b)), bottom 1/(1/2+b), left 1/(1/2+a)
  ShiftedZero         as ShiftedPlus but w00 = 0
  BernoulliDomain     TwoSidedStationary with the first zeta_plus bottom and
                      zeta_minus left weights forced to zero
  NoSource            all border weights zero

The stationary model is the a = rho-1/2, b = 1/2-rho member of the shifted
family, so border means are computed uniformly from (a, b).  All variants
consume identical uniforms cell by cell, which makes cross-model couplings
(G+ = G + w00, Bernoulli <= TwoSided) exact pathwise.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError
from .rng import (
    TAG_FIELD,
    TAG_ZETA,
    CounterStream,
    SeedSpec,
    exp_from_uniform,
    sample_geom,
    stream_key,
    uniform_oc,
)


HASH_BLOCK_CELLS = 32_768  # cells per uniform_oc call in BatchWeights and per block in lpp._sweep


class ModelKind(Enum):
    TwoSidedStationary = "two-sided-stationary"
    ShiftedPlus = "shifted-plus"
    ShiftedZero = "shifted-zero"
    BernoulliDomain = "bernoulli-domain"
    NoSource = "no-source"


_STATIONARY_KINDS = (ModelKind.TwoSidedStationary, ModelKind.BernoulliDomain)


@dataclass(frozen=True)
class ModelParams:
    kind: ModelKind
    rho: float = 0.5
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        k = self.kind
        if k in _STATIONARY_KINDS or k is ModelKind.NoSource:
            if not 0.0 < self.rho < 1.0:
                raise ParameterError(f"rho must be in (0,1), got {self.rho}")
        if k in _STATIONARY_KINDS:
            # a+b = 0 boundary of the shifted family
            object.__setattr__(self, "a", self.rho - 0.5)
            object.__setattr__(self, "b", 0.5 - self.rho)
        elif k is ModelKind.NoSource:
            object.__setattr__(self, "a", 0.0)
            object.__setattr__(self, "b", 0.0)
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

    @classmethod
    def no_source(cls, rho=0.5):
        return cls(ModelKind.NoSource, rho=rho)

    @property
    def bottom_mean(self) -> float:
        if self.kind is ModelKind.NoSource:
            return 0.0
        return 1.0 / (0.5 + self.b)

    @property
    def left_mean(self) -> float:
        if self.kind is ModelKind.NoSource:
            return 0.0
        return 1.0 / (0.5 + self.a)

    @property
    def origin_mean(self) -> float:
        if self.kind is ModelKind.ShiftedPlus:
            return 1.0 / (self.a + self.b)
        return 0.0


def _sample_zetas(params: ModelParams, seed: SeedSpec):
    """zeta_plus ~ Geom(1-rho), zeta_minus ~ Geom(rho), independent."""
    zp = sample_geom(CounterStream(seed, TAG_ZETA, lane=0), 1.0 - params.rho)
    zm = sample_geom(CounterStream(seed, TAG_ZETA, lane=1), params.rho)
    return zp, zm


@dataclass(frozen=True)
class WeightOracle:
    """Deterministic map (i, j) -> weight for one sample of one model."""

    params: ModelParams
    seed: SeedSpec
    zeta_plus: int = field(init=False, default=0)
    zeta_minus: int = field(init=False, default=0)

    def __post_init__(self):
        if self.params.kind is ModelKind.BernoulliDomain:
            zp, zm = _sample_zetas(self.params, self.seed)
            object.__setattr__(self, "zeta_plus", zp)
            object.__setattr__(self, "zeta_minus", zm)

    def mean_at(self, i: int, j: int) -> float:
        if i < 0 or j < 0:
            raise DomainError(f"negative lattice index ({i}, {j})")
        p = self.params
        if i == 0 and j == 0:
            return p.origin_mean
        if j == 0:
            if p.kind is ModelKind.BernoulliDomain and i <= self.zeta_plus:
                return 0.0
            return p.bottom_mean
        if i == 0:
            if p.kind is ModelKind.BernoulliDomain and j <= self.zeta_minus:
                return 0.0
            return p.left_mean
        return 1.0

    def weight_at(self, i: int, j: int) -> float:
        mean = self.mean_at(i, j)  # validates the indices
        u = uniform_oc(self.seed.key, TAG_FIELD, i, j)
        return float(exp_from_uniform(u, mean))

    def row_weights(self, j: int, imax: int) -> np.ndarray:
        """Weights w(0..imax, j) as one vector; bitwise equal to weight_at."""
        if j < 0 or imax < 0:
            raise DomainError("negative lattice index")
        i = np.arange(imax + 1)
        u = uniform_oc(self.seed.key, TAG_FIELD, i, j)
        return exp_from_uniform(u, self._row_means(j, imax))

    def _row_means(self, j, imax):
        p = self.params
        means = np.ones(imax + 1)
        if j == 0:
            means[:] = p.bottom_mean
            if p.kind is ModelKind.BernoulliDomain:
                means[1 : self.zeta_plus + 1] = 0.0
            means[0] = p.origin_mean
        else:
            means[0] = p.left_mean
            if p.kind is ModelKind.BernoulliDomain and j <= self.zeta_minus:
                means[0] = 0.0
        return means


class BatchWeights:
    """Row generator for a batch of samples (vectorized across samples).

    row_t(j, imax) returns shape (imax+1, n_samples), bit-identical to the
    corresponding per-sample WeightOracle rows; row(j, imax) is its
    transpose.
    """

    def __init__(self, params: ModelParams, master_seed: int, sample_indices):
        self.params = params
        self.sample_indices = np.asarray(sample_indices, dtype=np.uint64)
        self.keys = np.asarray(stream_key(master_seed, self.sample_indices), dtype=np.uint64)
        n = len(self.keys)
        if params.kind is ModelKind.BernoulliDomain:
            zs = [
                _sample_zetas(params, SeedSpec(master_seed, int(s)))
                for s in self.sample_indices
            ]
            self.zeta_plus = np.array([z[0] for z in zs])
            self.zeta_minus = np.array([z[1] for z in zs])
        else:
            self.zeta_plus = np.zeros(n, dtype=int)
            self.zeta_minus = np.zeros(n, dtype=int)

    def row(self, j: int, imax: int) -> np.ndarray:
        return self.row_t(j, imax).T

    def row_t(self, j: int, imax: int, i_lo: int = 0) -> np.ndarray:
        """Cells i_lo..imax of row j, shape (imax+1-i_lo, n_samples)."""
        return self._to_weights(self._neg_log_uniforms(j, i_lo, imax), j, i_lo)

    def _neg_log_uniforms(self, j: int, i_lo: int, imax: int) -> np.ndarray:
        """-log u over cells (i_lo..imax, j) of every sample, as (cells,
        samples), hashed in blocks of about HASH_BLOCK_CELLS so that the
        hash's scratch arrays stay in cache."""
        i = np.arange(i_lo, imax + 1)
        keys = self.keys
        w = np.empty((len(i), len(keys)))
        step = max(1, HASH_BLOCK_CELLS // max(len(keys), 1))
        for a in range(0, len(i), step):
            block = w[a : a + step]
            uniform_oc(keys[None, :], TAG_FIELD, i[a : a + step, None], j, out=block)
            np.log(block, out=block)
            np.negative(block, out=block)
        return w

    def _to_weights(self, w: np.ndarray, j: int, i_lo: int) -> np.ndarray:
        """Scale w = -log u over cells i_lo.. (cells x samples) in place to
        the weights mean * (-log u).  That equals exp_from_uniform's
        -mean * log(u) bit for bit (both round |mean * log u| and agree in
        sign), so unit-mean cells need no multiply at all."""
        p = self.params
        if j == 0:
            i = np.arange(i_lo, i_lo + w.shape[0])[:, None]
            means = np.where(i == 0, p.origin_mean, p.bottom_mean)
            if p.kind is ModelKind.BernoulliDomain:
                means = np.broadcast_to(means, w.shape).copy()
                means[(i <= self.zeta_plus[None, :]) & (i > 0)] = 0.0
            w *= means
        elif i_lo == 0:
            left = np.full(len(self.keys), p.left_mean)
            if p.kind is ModelKind.BernoulliDomain:
                left[j <= self.zeta_minus] = 0.0
            w[0] *= left
        return w
