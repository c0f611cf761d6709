"""The Philox4x64-10 counter-based generator, as numpy arrays of uniforms.

One call fills any number of lanes, each a (stream, counter block) pair, with
the four doubles ``numpy.random.Generator(numpy.random.Philox(key=[seed,
stream])).random()`` draws from that block (Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  Only ``sampling``
and ``oracle`` import it, so only the commands that draw (``sample`` and
``validate``) compile it.
"""

from __future__ import annotations

import numpy as np

# Philox4x64-10 round multipliers and key increments (Salmon et al., SC'11), as
# numpy.random.Philox uses them.  They stay Python ints until the kernel runs,
# so importing the module builds no array.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

_BLOCK = 1 << 12  # lanes whose rounds run together: bounds the kernel's buffers (0.44 MiB)


def _philox_uniforms(seed: int, streams: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Counter block ``blocks[i]`` of the stream keyed ``(seed, streams[i])``, as uniforms.

    Row ``i`` holds the four doubles that
    ``Generator(Philox(key=[seed, streams[i]])).random()`` returns as its draws
    ``4 * blocks[i]`` to ``4 * blocks[i] + 3``: numpy bumps the counter before
    each block, so block ``b`` is counter ``(b + 1, 0, 0, 0)``, and a double is
    the top 53 bits of a word times ``2**-53``.

    The lanes run ``_BLOCK`` at a time, so beyond the ``(lanes, 4)`` result
    the kernel holds seven ``(2, block)`` word buffers, however many lanes it
    fills.  A block's ten rounds run in place on them, through ``out=`` and
    augmented ufuncs: ``even`` holds words 0 and 2, ``odd`` words 1 and 3,
    ``key`` the two key words, and the high and low halves of the two
    products, each read in reverse order, are the next round's ``even`` and
    ``odd``.  The high half of each 64-bit product is assembled from 32-bit
    halves.
    """
    multiplier = np.array(_PHILOX_M, dtype=np.uint64)[:, None]  # one row per product word
    m_low, m_high = multiplier & 0xFFFFFFFF, multiplier >> 32
    weyl = np.array(_PHILOX_W, dtype=np.uint64)[:, None]
    out = np.empty((streams.size, 4))
    buffers = np.empty((7, 2, min(streams.size, _BLOCK)), dtype=np.uint64)
    for start in range(0, streams.size, _BLOCK):
        stop = min(start + _BLOCK, streams.size)
        even, odd, top, bottom, low, scratch, key = buffers[:, :, : stop - start]
        key[0], key[1] = seed, streams[start:stop]
        even[0], even[1], odd[:] = blocks[start:stop] + 1, 0, 0
        for _ in range(10):
            np.multiply(even, multiplier, out=bottom)
            np.bitwise_and(even, 0xFFFFFFFF, out=low)
            even >>= 32
            np.multiply(even, m_low, out=top)
            even *= m_high
            np.multiply(low, m_low, out=scratch)
            scratch >>= 32
            low *= m_high
            low += scratch
            np.bitwise_and(top, 0xFFFFFFFF, out=scratch)
            low += scratch  # the cross term
            low >>= 32
            top >>= 32
            top += even
            top += low  # the high words of both products
            top ^= odd[::-1]
            top ^= key[::-1]
            key += weyl
            even, odd, top, bottom = top[::-1], bottom[::-1], even, odd
        words = out[start:stop].T
        words[0::2], words[1::2] = even >> 11, odd >> 11
    out *= 2.0**-53
    return out
