"""Integer labels parsed from the bytes of an edge list, and written back
as decimal bytes, in numpy.

``parse_digits`` gives the int64 value of every token when each is 1 to 8
ASCII digits; ``decimal_rows`` writes int64 labels as text for the TSV
output. Kept apart from ``graph.py``: compiled from source as part of it,
this code raised the peak RSS of importing ``tricent`` by 0.17 MB (Python
3.11, x86-64), and so of every run, digits or not.
"""

import numpy as np


# SWAR lanes of one little-endian 8-byte word (Lemire, "Number parsing at a
# gigabyte per second", Softw. Pract. Exp. 2021)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
# each step joins neighbouring lanes of 1, 2 and 4 digits into one of twice
# the width: (lanes & mask) * multiplier >> shift
_JOINS = tuple((np.uint64(mask), np.uint64(mul), np.uint64(shift)) for mask, mul, shift in (
    (0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8),
    (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
    (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32)))


def parse_digits(data, starts, length):
    """The int64 value of each token of padded edge-list data at the
    non-empty bounds of ``graph._token_bounds``, when every token is 1 to 8
    ASCII digits (``int()`` gives the same values); else None. Each token is
    read as the little-endian 8-byte word that ends with its last byte, and
    checked and parsed as eight digits at once (SWAR)."""
    if not 0x30 <= data[starts[0]] <= 0x39 or length.max() > 8:
        return None
    at = starts + length
    at -= 8  # the first byte of the word that ends with the token's last byte
    # the first few words would start before byte 0: they are read at 0 and
    # shifted up by the bytes missing, so that the token ends the word again;
    # the count is uint64, as uint64 << int32 arrays promote to float64
    early = int(np.searchsorted(at, 0))
    missing = (at[:early] * -8).astype(np.uint64)
    at[:early] = 0
    little = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    words = little[at].astype(np.uint64, copy=False)
    del at
    words[:early] <<= missing
    # keep the token's L bytes, at the top of the word, and make the 8 - L
    # bytes below them "0", in one work array that the tests reuse
    work = length.astype(np.uint64)
    work <<= np.uint64(3)
    np.subtract(np.uint64(64), work, out=work)  # the bits below the token
    np.left_shift(~np.uint64(0), work, out=work)
    words &= work
    np.invert(work, out=work)
    work &= _ASCII_ZEROS
    words |= work
    # every byte is 0x30-0x3f, and stays below 0x40 with 6 added: "0"-"9"
    for added in (np.uint64(0), _SIXES):
        np.add(words, added, out=work)
        work &= _HIGH_NIBBLES
        work ^= _ASCII_ZEROS
        if work.any():
            return None
    for mask, multiplier, shift in _JOINS:
        words &= mask
        words *= multiplier
        words >>= shift
    return words.view(np.int64)  # below 10**8


def decimal_rows(values):
    """The decimal text of each int64 of the non-empty array ``values``, as
    ``str`` writes it, in a row of a uint8 matrix as wide as the longest
    text: right-aligned, after NUL bytes.

    The digits come from the right, one column per ``divmod`` by 10 of the
    magnitudes; the zeros before a row's first nonzero digit (but the units
    digit) are then made NUL, and a minus sign goes before the digits.
    """
    low, high = int(values.min()), int(values.max())
    width = max(len(str(low)), len(str(high)))
    digits = len(str(max(-low, high)))
    rows = np.zeros((values.shape[0], width), dtype=np.uint8)
    # |v| through uint64, which holds the magnitude 2**63 of int64 min
    spent = np.abs(values).view(np.uint64)
    for col in range(width - 1, width - 1 - digits, -1):
        spent, rows[:, col] = np.divmod(spent, 10)
    text = np.logical_or.accumulate(rows != 0, axis=1)
    text[:, -1] = True  # the units digit, "0" included
    rows += 48
    rows *= text
    if low < 0:
        negative = np.flatnonzero(values < 0)
        rows[negative, text[negative].argmax(axis=1) - 1] = 45  # "-"
    return rows
