"""Counter-based reproducible randomness.

Every random quantity in the package is a pure function of
(master_seed, sample_index, tag, i, j).  The generator is a splitmix64-style
avalanche hash applied to a packed counter, which gives O(1) random access to
any lattice cell: weight fields can be materialized row by row, in parallel,
or in any traversal order, and always come out bit-identical.

Tags partition the 64-bit counter space into independent lanes: the LPP
weight field (TAG_FIELD), the Bernoulli-domain boundary geometrics
(TAG_ZETA, one counter per geometric), the TASEP jump clocks (TAG_OMEGA) and
the initial occupations (TAG_INIT).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_PHI_INT, _M1_INT, _M2_INT = int(_PHI), int(_M1), int(_M2)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX_STEPS = ((_U64(30), _M1), (_U64(27), _M2), (_U64(31), None))

# counter layout: [tag:4][j:30][i:30]
_INDEX_BITS = 30
_INDEX_CAP = 1 << _INDEX_BITS
_TAG_CAP = 16

# lanes
TAG_FIELD = 0        # LPP weight field uniforms
TAG_ZETA = 1         # Bernoulli-domain boundary geometrics
TAG_OMEGA = 2        # TASEP jump clocks
TAG_INIT = 3         # initial occupation variables


def _mix64_int(z: int) -> int:
    """splitmix64 finalizer on a Python int in [0, 2**64), wrapping; exact
    integer arithmetic is far cheaper than numpy scalars."""
    z = ((z ^ (z >> 30)) * _M1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _M2_INT) & _MASK64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray, t: np.ndarray) -> None:
    """_mix64_int overwriting the uint64 array z, with t as same-shape
    scratch (array arithmetic wraps silently)."""
    for shift, mult in _MIX_STEPS:
        np.right_shift(z, shift, out=t)
        z ^= t
        if mult is not None:
            z *= mult


def _u64(name: str, v) -> int:
    """v as a Python int.  int() would truncate a float onto another seed's
    stream and a mask would wrap -1 onto 2**64 - 1, so only integers (numpy's
    too) in [0, 2**64) pass."""
    if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < 2**64:
        raise ParameterError(f"{name} must be a 64-bit unsigned integer")
    return int(v)


def stream_key(master_seed: int, sample_index):
    """Derive the per-sample stream key.  Distinct (seed, index) pairs give
    statistically independent lanes.  sample_index may be an integer array,
    giving one key per entry.  Raises ParameterError for what SeedSpec
    refuses, and for an index array of non-integer type or with a negative
    entry."""
    ms = _u64("master_seed", master_seed)
    if isinstance(sample_index, np.ndarray) and sample_index.ndim == 0:
        sample_index = sample_index[()]  # a numpy scalar, checked as one
    if not isinstance(sample_index, np.ndarray):
        si = _u64("sample_index", sample_index)
        return _U64(_mix64_int((_mix64_int(ms ^ _PHI_INT) + si * _M2_INT) & _MASK64))
    if sample_index.dtype.kind not in "iu" or (sample_index.size and sample_index.min() < 0):
        raise ParameterError("sample_index array must hold integers in [0, 2**64)")
    z = sample_index.astype(np.uint64)  # a copy, hashed in place
    z *= _M2
    z += _U64(_mix64_int(ms ^ _PHI_INT))
    _mix64_inplace(z, np.empty_like(z))
    return z


class KeyTile:
    """Stream keys prepared for hashing blocks of up to `rows` cells: key * PHI
    tiled to shape (rows, keys), so a block's counters are added to it without
    broadcasting the keys again, and a scratch block of that shape for the
    mixer, so hashing block after block allocates nothing."""

    def __init__(self, keys, rows: int):
        self.rows = rows
        self.phi = np.tile(np.asarray(keys, dtype=np.uint64) * _PHI, (rows, 1))
        self.scratch = np.empty_like(self.phi)


def counter_hash(key, tag: int, i, j, out=None):
    """Raw 64-bit output for cells (i, j) in lane `tag`.  key, i and j may be
    numpy integer arrays (broadcast); i and j must lie in [0, 2**30).  key may
    also be a KeyTile, with i and j (cells, 1) columns of at most its rows.
    `out`, a uint64 array of the broadcast shape, receives array results.

    All-scalar arguments take exact Python-int arithmetic; arrays wrap
    silently, so no call needs an error-state guard."""
    if not 0 <= tag < _TAG_CAP:
        raise DomainError(f"tag {tag} outside [0, {_TAG_CAP})")
    tile = key if isinstance(key, KeyTile) else None
    if tile is None and np.ndim(key) == 0 and np.ndim(i) == 0 and np.ndim(j) == 0:
        i, j = int(i), int(j)
        if not (0 <= i < _INDEX_CAP and 0 <= j < _INDEX_CAP):
            raise DomainError("lattice index exceeds 2**30 counter capacity")
        c = (tag << 60) | (j << _INDEX_BITS) | i
        return _U64(_mix64_int(_mix64_int((c + int(key) * _PHI_INT) & _MASK64)))
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    if i.size and j.size and max(i.max(), j.max()) >= _INDEX_CAP:
        raise DomainError("lattice index exceeds 2**30 counter capacity")
    c = (j << _U64(_INDEX_BITS)) | i
    if tag:
        c |= _U64(tag << 60)
    t = None
    if tile is not None:
        kphi, t = tile.phi[: len(c)], tile.scratch[: len(c)]
    elif np.ndim(key):
        kphi = np.asarray(key, dtype=np.uint64) * _PHI
    else:
        kphi = _U64((int(key) * _PHI_INT) & _MASK64)
    # the field arrays are large: hash in place, with one scratch buffer
    z = np.add(c, kphi, out=out)
    if t is None:
        t = np.empty_like(z)
    _mix64_inplace(z, t)
    _mix64_inplace(z, t)
    return z


def uniform_oc(key, tag: int, i, j, out=None):
    """Uniform variates on (0, 1], exactly representable, never zero.
    `out`, a float64 array of the broadcast shape, receives array results;
    the hash runs in its memory, through a uint64 view."""
    h = counter_hash(key, tag, i, j, None if out is None else out.view(np.uint64))
    if isinstance(h, np.integer):
        return np.float64(((int(h) >> 11) + 1) * 2.0 ** -53)
    h >>= _U64(11)
    h += _U64(1)
    # (h >> 11) + 1 <= 2**53 converts exactly, and faster from int64
    return np.multiply(h.view(np.int64), 2.0 ** -53, out=out)


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one Monte Carlo sample's randomness."""

    master_seed: int
    sample_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "sample_index"):
            _u64(name, getattr(self, name))

    @property
    def key(self) -> np.uint64:
        return stream_key(self.master_seed, self.sample_index)
