"""Counter-based deterministic randomness.

Every random draw in the package is a pure function of a 64-bit seed and a
counter (an edge index, trial index, vertex index, ...).  This gives three
properties the experiments rely on:

* bit-reproducibility across runs, platforms and thread counts;
* consistent re-sampling of subsets: the draw for edge e is the same whether
  we sample the whole edge set or just {e};
* cheap hierarchical seeds via `derive_seed`, so per-trial / per-round /
  per-vertex streams never collide by construction.

The generator is the splitmix64 finalizer applied to seed + (i+1) * GAMMA,
which is the standard splitmix64 stream.  Quality is far beyond what the
Monte-Carlo experiments here can detect.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "MASK64",
    "mix64",
    "derive_seed",
    "derive_seeds",
    "uniforms",
    "uniform_rows",
    "uniform_at",
    "bernoulli_mask",
]

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# seed-space separator so derive_seed(s) != mix of raw s
_SALT = 0x5851F42D4C957F2D

_U_GAMMA = np.uint64(_GAMMA)
_U_MUL1 = np.uint64(_MUL1)
_U_MUL2 = np.uint64(_MUL2)
_INV_2_53 = 2.0 ** -53


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & MASK64
    return (x ^ (x >> 31)) & MASK64


def derive_seed(seed: int, *parts: int) -> int:
    """Derive an independent child seed from `seed` and integer labels.

    Deterministic and stable: no dependence on Python's salted hash().
    """
    h = mix64((seed & MASK64) ^ _SALT)
    for part in parts:
        h = mix64(h ^ mix64((part & MASK64) + _GAMMA))
    return h


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """`mix64` on a uint64 array; numpy's uint64 arithmetic wraps mod 2^64."""
    z = (z ^ (z >> np.uint64(30))) * _U_MUL1
    z = (z ^ (z >> np.uint64(27))) * _U_MUL2
    return z ^ (z >> np.uint64(31))


def derive_seeds(seed: int, tag: int, start: int, stop: int) -> np.ndarray:
    """uint64 array of derive_seed(seed, tag, s) for s in [start, stop).

    Vector twin of `derive_seed` for one trailing counter label.
    """
    h = np.uint64(derive_seed(seed, tag))
    s = np.arange(start, stop, dtype=np.uint64)
    return _mix64_vec(h ^ _mix64_vec(s + _U_GAMMA))


def uniform_at(seed: int, index: int) -> float:
    """The uniform [0,1) draw for counter `index` under `seed`.

    Scalar twin of `uniforms`: uniform_at(s, i) == uniforms(s, n)[i].
    """
    z = mix64((seed + (index + 1) * _GAMMA) & MASK64)
    return (z >> 11) * _INV_2_53


def uniforms(seed: int, count: int) -> np.ndarray:
    """Vector of uniform [0,1) draws for counters 0..count-1."""
    return uniform_rows(np.uint64(seed & MASK64), count)


def uniform_rows(seeds: np.ndarray, count: int) -> np.ndarray:
    """(len(seeds), count) matrix whose row r is uniforms(seeds[r], count).

    A scalar seed gives the single row, as a vector.
    """
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = _mix64_vec(np.asarray(seeds, dtype=np.uint64)[..., None] + idx * _U_GAMMA)
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53


def bernoulli_mask(seed: int, count: int, p: float) -> np.ndarray:
    """Boolean vector: entry i is True with probability p, independently.

    Entry i depends only on (seed, i), so restricting to a subset of
    counters re-yields the same draws.
    """
    return uniforms(seed, count) < p
