"""numpy's ``default_rng(seed)`` draws, bit for bit, in Python integers: PCG64 (O'Neill, HMC-CS-2014-0905)
seeded by numpy's ``SeedSequence``, and Lemire's bounded integers (ACM TOMACS 2019) on its 32-bit halves.
"""

import itertools
import operator

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64(seed: int):
    """PCG64's XSL-RR outputs, seeded from ``SeedSequence(seed).generate_state(4, uint64)``."""
    entropy = [seed >> 32 * i & _M32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    const = [0x43B0D7E5]

    def fold(value: int) -> int:
        return value & _M32 ^ (value & _M32) >> 16

    def hashed(value: int, mult: int = 0x931E8875) -> int:
        value, const[0] = value ^ const[0], const[0] * mult & _M32
        return fold(value * const[0])

    pool = [hashed(word) for word in (entropy + [0] * 4)[:4]]  # mix_entropy: a pool of four words
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = fold(0xCA01F9DD * pool[dst] - 0x4973F715 * hashed(pool[src]))
    for word in entropy[4:]:
        pool = [fold(0xCA01F9DD * p - 0x4973F715 * hashed(word)) for p in pool]
    const[0] = 0x8B51F9DD  # generate_state: eight 32-bit words hashed out of the pool
    half = [hashed(pool[i % 4], 0x58F38DED) for i in range(8)]
    words = [half[i] | half[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (words[2] << 64 | words[3]) << 1 | 1
    state = ((inc + (words[0] << 64 | words[1])) * _MULT + inc) & _M128  # from 0: step, add, step
    while True:
        state = (state * _MULT + inc) & _M128
        value, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (value >> rot | value << (64 - rot)) & _M64


class SeededDraws:
    """The draws of ``numpy.random.default_rng(seed)``; a negative seed raises ``ValueError``."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._next64 = _pcg64(seed).__next__
        # numpy's next_uint32: the low half of a fresh 64-bit draw, then its high half at the next call.
        self._next32 = (half for value in iter(self._next64, None) for half in (value & _M32, value >> 32)).__next__

    def integers(self, low: int, high: int) -> int:
        """Uniform on [low, high) by Lemire's method, for 2 <= high - low < 2**32."""
        span = high - low
        m = self._next32() * span
        while m & _M32 < (1 << 32) % span:
            m = self._next32() * span
        return low + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        """Uniform on [low, high), from the top 53 bits of a 64-bit draw."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0 ** -53)
