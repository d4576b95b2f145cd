"""Deterministic 64-bit generator for reproducible randomized suites.

The generator is splitmix64: state advances by the odd constant
0x9E3779B97F4A7C15 (2^64 / golden ratio) and each output is finalized by

    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z = z ^ (z >> 31)

all modulo 2^64.  Fixing the algorithm by its constants keeps every report
byte-identical across runs and across reimplementations.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Stream of pseudo-random 64-bit words from a single seed.  The first
    outputs for seed 0 are those of the splitmix64 reference:

    >>> rng = SplitMix64(0)
    >>> hex(rng.next_u64()), hex(rng.next_u64())
    ('0xe220a8397b1dcdaf', '0x6e789e6aa1b965f4')
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n).  Rejection-free modulo; the bias is
        irrelevant at our n << 2^64 and keeps the stream portable."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def stream_for(seed: int, index: int) -> SplitMix64:
    """Stream for instance `index` of a batch seeded with `seed`.

    Every instance gets its own stream so batches can be generated in any
    order (or in parallel) with identical results.
    """
    root = SplitMix64(seed)
    return SplitMix64(root.next_u64() ^ ((index + 1) * _GAMMA))
