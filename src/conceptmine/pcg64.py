"""The seeded stream of ``numpy.random.default_rng(seed)``, drawn in plain
Python, for the two draws the autoencoder makes: ``uniform`` and
``permutation``.

Seeding is NumPy's ``SeedSequence(seed).generate_state(4, uint64)``; the
bit generator is PCG64, XSL-RR 128/64 (O'Neill 2014); ``uniform`` and
``permutation`` follow ``Generator.uniform`` (53-bit doubles) and
``Generator.permutation`` (Fisher-Yates with masked rejection on 32-bit
draws, so at most 2**32 items). Every draw equals NumPy's bit for bit, and
the model bytes depend on this module rather than on NumPy's
``Generator`` methods, whose streams NumPy does not promise to keep.
Importing ``numpy.random`` would also load ``secrets`` and OpenSSL.
"""

from __future__ import annotations

from typing import Iterator

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants, for a pool of four 32-bit words.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def seed_state(seed: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as ints."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # Four uint64 words as eight 32-bit halves, the low half first.
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> _XSHIFT))
    w0, w1, w2, w3 = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    return w0, w1, w2, w3


class PCG64:
    """``default_rng(seed)``'s bit generator, with the two Generator draws
    the autoencoder uses."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        w0, w1, w2, w3 = seed_state(seed)
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        # srandom: step from 0, add the initial state, step again.
        state = (self._inc + (w0 << 64 | w1)) & _MASK128
        self._state = (state * _MULTIPLIER + self._inc) & _MASK128
        # The high half of a 64-bit draw whose low half a 32-bit draw took.
        self._half: int | None = None

    def _next64(self) -> int:
        """Step, then XSL-RR: the xor of the state's halves, rotated right
        by the state's top six bits."""
        self._state = state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        x = (state >> 64) ^ (state & _MASK64)
        return ((x << 64 | x) >> (state >> 122)) & _MASK64

    def uniform(self, low: float, high: float, count: int) -> list[float]:
        """``count`` draws of ``Generator.uniform(low, high)``, in order."""
        span = high - low
        return [low + span * ((self._next64() >> 11) * 2.0**-53) for _ in range(count)]

    def permutations(self, n: int) -> Iterator[list[int]]:
        """Successive ``Generator.permutation(n)`` draws, one per ``next``.

        Each is Fisher-Yates over ``range(n)`` from the last item down: the
        index for item i is a 32-bit draw ANDed with the smallest all-ones
        mask covering i, redrawn while it exceeds i. A 32-bit draw is the
        low half of a 64-bit one, then its high half. The state is stored
        back before each yield, so other draws may come in between.
        """
        if n - 1 > _MASK32:
            raise ValueError(f"permutation of {n} items needs 64-bit draws")
        swaps = [(i, (1 << i.bit_length()) - 1) for i in range(n - 1, 0, -1)]
        while True:
            order = list(range(n))
            state, inc, half = self._state, self._inc, self._half
            for i, mask in swaps:
                while True:
                    if half is None:
                        # _next64, inlined: this loop is the hot path.
                        state = (state * _MULTIPLIER + inc) & _MASK128
                        x = (state >> 64) ^ (state & _MASK64)
                        x = ((x << 64 | x) >> (state >> 122)) & _MASK64
                        j, half = x & mask, x >> 32
                    else:
                        j, half = half & mask, None
                    if j <= i:
                        break
                order[i], order[j] = order[j], order[i]
            self._state, self._half = state, half
            yield order
