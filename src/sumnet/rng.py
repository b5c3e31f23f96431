"""Deterministic randomness built on the splitmix64 mixer.

Every random draw in the package flows through this module so that runs are
bit-reproducible across machines and Python versions.  No platform RNG, no
`random`, no `numpy.random`.  Draw k of a stream is a pure function of
(state, k) (Steele, Lea & Flood, OOPSLA 2014), so one vectorized pipeline,
`uniform_stack`, draws many streams in one pass; `uniform_array` and
`SplitMix64.uniforms` are its one-stream case.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# FNV-1a, used to fold string labels into seeds.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _fold(h: int, part) -> int:
    """The FNV-1a state h with str(part)'s UTF-8 bytes folded in, then the
    separator, so that ("ab", "c") and ("a", "bc") differ."""
    for byte in str(part).encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return (h ^ 0x2E) & _MASK64


@lru_cache(maxsize=1024)
def _label_state(label: str) -> int:
    """_fold of a label from the FNV offset basis: a model's build derives
    several fields from each parameter label, so each label is folded once."""
    return _fold(_FNV_OFFSET, label)


def derive(seed: int, *parts) -> int:
    """Derive a stream seed from a base seed and a label path.

    Labels are hashed with FNV-1a over their str() bytes, so derivation is
    stable across processes (unlike built-in hash()).  The first part's
    state comes from `_label_state`, and each later part is folded onto it.
    """
    h = _label_state(str(parts[0])) if parts else _FNV_OFFSET
    for part in parts[1:]:
        h = _fold(h, part)
    return _mix((seed & _MASK64) ^ h)


class SplitMix64:
    """Sequential splitmix64 generator: state += golden gamma, then mix."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53-bit mantissa draw in [0, 1).
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Vectorized batch of n draws; advances the state by n steps."""
        if n < 0:
            raise ValueError("n must be non-negative")
        u = uniform_stack((n,), lo, hi, (self._state,))[0]
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return u

    def next_below(self, n: int) -> int:
        """Integer in [0, n) via the 64x64 high-product trick."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.next_u64() * n) >> 64

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.next_below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def uniform_stack(shape, lo: float, hi: float, seeds) -> np.ndarray:
    """[len(seeds), *shape] in one pass: row k holds 53-bit uniforms in [lo, hi)
    from the stream seeded seeds[k], so it equals uniform_array(shape, lo, hi, seeds[k])."""
    states = np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)
    z = np.arange(1, math.prod(shape) + 1, dtype=np.uint64) * _GOLDEN + states[:, None]
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= z >> shift
        z *= mult
    z ^= z >> 31
    u = (z >> 11).astype(np.float64) * 2.0**-53
    u *= hi - lo
    u += lo
    return u.reshape((len(states), *shape))


def uniform_array(shape, lo: float, hi: float, seed: int) -> np.ndarray:
    """Seeded uniform array; same seed and shape give identical bytes."""
    return uniform_stack(shape, lo, hi, (seed,))[0]
