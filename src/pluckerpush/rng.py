"""Self-contained 64-bit generator so verification runs replay from the seed alone.

The algorithm is splitmix64: the state advances by the golden-ratio increment
0x9E3779B97F4A7C15 and each output is the finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2^64.  Bounded draws take the output modulo the
range size (the bias is irrelevant here, reproducibility is the point), and
distinct draws rediscard collisions.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic stream of 64-bit values from a 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def distinct_integers(self, count: int, lo: int, hi: int) -> list[int]:
        """``count`` pairwise distinct draws ``lo + next_u64() % span``, repeats rejected."""
        span = hi - lo + 1
        if count > span:
            raise ValueError(f"cannot draw {count} distinct values from [{lo}, {hi}]")
        drawn: dict[int, None] = {}  # insertion-ordered; a repeat is a no-op
        while len(drawn) < count:
            drawn[lo + self.next_u64() % span] = None
        return list(drawn)
