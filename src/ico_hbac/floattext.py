"""Exact ``format(x, ".17g")`` text for blocks of floats: the CSV float kernel.

``float_rows`` renders each row of a 2-D array of finite, non-negative
floats (register populations) as its entries' ``.17g`` texts joined by
``|``, with elementwise numpy over the whole block.
Each entry's 17 significant digits come from a 128-bit product with a 64-bit
power of ten, rounded half to even (the fixed-precision method of Adams,
"Ryu revisited: printf floating point conversion", OOPSLA 2019); an entry
the product cannot decide takes its digits from ``'%.16e' % x``, which
rounds the same way (0.34% of the floats of the sample-wide benchmark).  The
ASCII digits come from a table of the 4-digit groups ``0000`` to ``9999``,
the ``0.000`` prefixes and ``e±XX`` exponents from a table by decimal
exponent, and one ``bytes.translate`` call drops the NUL padding of the
fixed-width records.  The tables are built on first use, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

_DECIMAL_EXPONENTS = range(-324, 309)  # floor(log10|x|) of every finite nonzero double


@functools.cache
def _power_of_ten():
    """``(low, high, drop, exact)``: ``10**(16 - X)`` for each ``X`` of ``_DECIMAL_EXPONENTS``.

    Row ``X + 324`` holds ``10**(16 - X)`` as ``p * 2**s`` rounded to nearest,
    ``2**63 <= p < 2**64``: ``low`` and ``high`` are the 32-bit halves of
    ``p``, ``drop`` is ``-s`` and ``exact`` says the rounding lost nothing
    (``0 <= 16 - X <= 27``).  Built on first use, not at import: numpy arrays
    built at import cost every command about 0.2 MB of RSS.
    """
    rows = []
    for decimal in _DECIMAL_EXPONENTS:
        exponent = 16 - decimal
        power = 10 ** abs(exponent)
        if exponent < 0:
            shift = -(63 + power.bit_length())
            rows.append((((1 << (1 - shift)) // power + 1) >> 1, shift, False))
        elif power.bit_length() <= 64:
            shift = power.bit_length() - 64
            rows.append((power << -shift, shift, True))
        else:
            shift = power.bit_length() - 64
            rounded = (power + (1 << (shift - 1))) >> shift
            rows.append((rounded, shift, rounded << shift == power))
    power, shift, exact = map(np.array, zip(*rows))
    power = power.astype(np.uint64)
    return power & np.uint64(2**32 - 1), power >> np.uint64(32), (-shift).astype(np.uint64), exact


@functools.cache
def _digit_table():
    """``(ascii, keep)`` for the 4-digit groups ``0 .. 9999`` of ``_ascii_digits``.

    ``ascii[g]`` holds the four ASCII digits of ``g``, zero-padded, as one
    uint32 whose bytes are in text order.  When ``g`` is group ``k`` of ``N``
    (digits ``4k + 2`` to ``4k + 5``), ``keep[10**4 * k + g]`` counts the
    digits of ``N`` up to the last nonzero one of ``g``, or is 0 if ``g`` is
    0.  Built on first use, not at import, in dtypes that keep every
    temporary below 128 KiB, glibc's threshold for mapping fresh pages.
    """
    groups = np.arange(10**4, dtype=np.uint16)[:, None]
    places = groups // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
    ascii = (places + 48).astype(np.uint8).view(np.uint32)[:, 0]
    last = (np.arange(1, 5, dtype=np.uint8) * (places != 0)).max(axis=1)
    keep = (np.arange(1, 17, 4, dtype=np.uint8)[:, None] + last) * (last != 0)
    return ascii, keep.ravel()


@functools.cache
def _frame_table():
    """The bytes around an entry's digits, by decimal exponent ``X``: row ``X + 324``, 16 bytes.

    Bytes 0-4 hold the ``0.`` to ``0.000`` prefix of ``-4 <= X < 0``; bytes
    5-9 ``e±XX`` or ``e±XXX`` of ``X < -4`` or ``X >= 17``; byte 10 how many
    digits go before the dot: 1 in exponent form, ``X + 1`` when ``X >= 0``,
    0 after a prefix.  NULs pad the rest.  Built on first use, not at import.
    """
    frames = []
    for decimal in _DECIMAL_EXPONENTS:
        plain = -4 <= decimal < 17
        prefix = "0.000"[: 1 - decimal] if plain and decimal < 0 else ""
        suffix = "" if plain else f"e{decimal:+03d}"
        before_dot = max(decimal + 1, 0) if plain else 1
        frames.append(prefix.ljust(5, "\0") + suffix.ljust(5, "\0") + chr(before_dot))
    return np.frombuffer("".join(frame.ljust(16, "\0") for frame in frames).encode(), dtype="V16")


def _decimal_digits(values):
    """``(N, X)``: ``x`` is ``N * 10**(X - 16)`` to 17 significant digits, ties to even.

    Every entry is finite and non-negative; zeros get ``N = X = 0``.  A
    nonzero ``x`` is ``m * 2**(e - 64)`` with ``2**63 <= m < 2**64``.  ``X``
    is estimated as ``floor(log10 x)``, and ``N`` is read from the high word
    of the 128-bit product of ``m`` and ``10**(16 - X)`` from
    ``_power_of_ten``, formed from 32-bit halves.  That word is within half a
    unit of the exact product, and exact when the power is.  An entry this
    cannot decide takes ``N`` and ``X`` from ``'%.16e' % x``, the same
    correctly rounded digits: its fraction lies within that error of one
    half, or ``N`` before rounding is outside ``[10**16, 10**17 - 1)`` (the
    estimate of ``X`` was one off, or rounding may carry it to ``10**17``).
    """
    nonzero = values != 0.0
    safe = np.where(nonzero, values, 1.0)
    fraction, binary = np.frexp(safe)
    decimal = np.floor(np.log10(safe)).astype(np.int64)
    p_low, p_high, drop, exact = (column.take(decimal + 324) for column in _power_of_ten())
    np.subtract(drop, binary, out=drop, dtype=np.uint64, casting="unsafe")  # modulo 2**64

    # the 128-bit product mantissa * power as a high and a low word, from
    # 32-bit halves; in place, to keep the call's temporaries few
    low32, shift32, one = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(1)
    # the mantissa m is 2**63 plus the fraction's 52 bits shifted up by 11
    m_low = fraction.view(np.uint64)
    m_low <<= np.uint64(11)
    m_high = (m_low >> shift32) | np.uint64(1 << 31)
    m_low &= low32
    low = m_low * p_low
    p_low *= m_high  # high half * low half
    m_low *= p_high  # low half * high half
    p_high *= m_high  # high * high
    m_low += low >> shift32
    m_low += p_low & low32  # the middle word, with its carries
    p_high += p_low >> shift32
    p_high += m_low >> shift32
    high = p_high
    low &= low32
    low |= m_low << shift32
    del fraction, binary, m_low, m_high, p_low

    # N before rounding is ``high >> drop``; ``rest`` is the fraction in units of ``high``
    truncated = high >> drop
    rest = high - (truncated << drop)
    half = (one << drop) >> one
    # up when rest > half, or rest == half and the product is above it or N is odd
    digits = truncated + (rest + ((truncated & one) | (low != 0)) > half)
    # an inexact power leaves the product within half a unit of ``high`` of the
    # truth: undecided when ``rest + low / 2**64`` is within 1/2 of ``half``
    undecided = (rest + (low >> np.uint64(63)) == half) & ~exact
    outside = (truncated - np.uint64(10**16)) >= np.uint64(9 * 10**16 - 1)
    fallback = np.flatnonzero(outside | undecided)
    digits *= nonzero
    # each text is d.dddddddddddddddde±XX[X]
    texts = ["%.16e" % value for value in values[fallback].tolist()]
    digits[fallback] = [int(text[0] + text[2:18]) for text in texts]
    decimal[fallback] = [int(text[19:]) for text in texts]
    return digits, decimal


def _ascii_digits(digits):
    """``(text, keep)``: the 17 digits of each ``N`` in ASCII, and how many to keep.

    ``text`` holds the digits, first to last, in rows 1 to 17 between two
    padding rows, one column per entry.  ``keep`` counts the digits up to the
    last nonzero one.  ``N`` is split into its leading digit and four 4-digit
    groups, and each group's ASCII digits and count come from
    ``_digit_table``.
    """
    # in place where it can be: fewer temporaries per call
    leading = digits // np.uint64(10**16)
    rest = leading * np.uint64(10**16)
    np.subtract(digits, rest, out=rest)
    leading = leading.astype(np.uint8)
    high = rest // np.uint64(10**8)
    rest -= high * np.uint64(10**8)
    groups = np.empty((4, digits.size), dtype=np.intp)  # take's own index type: no converted copies
    groups[1], groups[3] = high, rest  # both below 10**8
    del rest, high
    np.floor_divide(groups[1::2], 10**4, out=groups[0::2])
    groups[1::2] -= groups[0::2] * 10**4
    ascii, keep = _digit_table()
    text = np.zeros((19, digits.size), dtype=np.uint8)
    text[1] = leading + np.uint8(ord("0"))
    quads = ascii.take(groups).view(np.uint8).reshape(4, digits.size, 4)
    text[2:18].reshape(4, 4, digits.size)[...] = quads.transpose(0, 2, 1)
    del quads
    groups += np.arange(0, 4 * 10**4, 10**4)[:, None]
    return text, np.maximum(keep.take(groups).max(axis=0), leading != 0)


def float_rows(block) -> list[str]:
    """Each row of the 2-D float array ``block`` as ``"|".join(format(x, ".17g") for x in row)``.

    Every entry must be finite with its sign bit clear, as a population is:
    any other entry raises ``ValueError``.
    """
    if np.signbit(block).any() or not np.isfinite(block).all():
        raise ValueError("float_rows renders finite, non-negative floats only")
    # the rows are decoded once the kernel's temporaries are freed, so these
    # long-lived strings reuse the memory the temporaries leave instead of
    # growing the heap past it
    text = str(_float_record(block).T.tobytes().translate(None, b"\0"), "ascii")
    rows, start = [], 0
    for _ in range(block.shape[0]):  # a find per row: str.split steps through every character
        end = text.index("\n", start)
        rows.append(text[start:end])
        start = end + 1
    return rows


def _float_record(block):
    """The text of ``float_rows(block)`` as NUL-padded fixed-width records, one column per entry.

    Every step is elementwise numpy over the block.  ``_decimal_digits``
    gives each entry's 17 digits and decimal exponent ``X``, and
    ``_ascii_digits`` their ASCII text.  Each entry then becomes a record of
    bytes, one row per byte: ``0.000`` up to the first digit when
    ``-4 <= X < 0``; the digits, with the dot after ``X + 1`` of them (after
    one in exponent form) and without trailing zeros or a bare dot; ``e±XX[X]``
    when ``X < -4`` or ``X >= 17``; then a ``|``, or a newline at the end of
    a row.  The prefix and exponent bytes come from ``_frame_table``, and
    only the rows that some entry of the block uses are kept.
    ``float_rows`` then drops the NULs with one ``bytes.translate``.
    """
    values = block.ravel()
    size = values.size
    digits, decimal = _decimal_digits(values)
    ascii_digits, keep = _ascii_digits(digits)
    del digits
    frame = _frame_table().take(decimal + 324).view(np.uint8).reshape(size, 16)
    del decimal
    before_dot = frame[:, 10]
    np.maximum(keep, before_dot, out=keep)
    has_dot = (keep > before_dot) & (before_dot > 0)
    dot = before_dot + (17 - before_dot) * ~has_dot  # 17: no dot
    ascii_digits[1:18] *= np.arange(17, dtype=np.uint8)[:, None] < keep

    # the frame bytes some entry uses: prefix, then e, sign and exponent digits
    seen = [np.bitwise_or.reduce(word) for word in frame.view(np.uint64).T]
    used = np.flatnonzero(np.array(seen).view(np.uint8)[:10])
    prefix, suffix = used[used < 5], used[used >= 5]
    record = np.empty((prefix.size + 18 + suffix.size + 1, size), dtype=np.uint8)
    record[: prefix.size] = frame[:, prefix].T
    # body column c holds digit c before the dot and digit c - 1 after it
    body = record[prefix.size : prefix.size + 18]
    np.subtract(ascii_digits[1:], ascii_digits[:-1], out=body)
    body *= np.arange(18, dtype=np.uint8)[:, None] < dot
    body += ascii_digits[:-1]
    body[dot, np.arange(size)] = has_dot * np.uint8(ord("."))
    record[prefix.size + 18 : -1] = frame[:, suffix].T
    record[-1] = ord("|")
    record[-1, block.shape[1] - 1 :: block.shape[1]] = ord("\n")
    return record
