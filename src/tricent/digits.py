"""Integer labels parsed from the bytes of an edge list, and written back
as decimal bytes, in numpy.

``code_digits`` takes the padded data and token bounds that
``graph._token_bounds`` gives and codes them when every token is 1 to 8
ASCII digits whose values span fewer integers than there are tokens;
``graph`` sends any other input to its key sort. ``decimal_rows`` writes
int64 labels as text for the TSV output. Kept apart from
``graph.py``: compiled from source as part of it, this code raised the peak
RSS of importing ``tricent`` by 0.17 MB (Python 3.11, x86-64), and so of
every run, digits or not.
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
# in the word that ends with the last byte of a token of L bytes,
# _TOKEN_BYTES[L] masks the token's bytes and _ZERO_FILL[L] writes "0" before it.
# Built from Python ints: a numpy op here would page in 128 KB of numpy's
# uint64 loops at import, into the peak RSS of runs that never parse digits
_BEFORE = [(1 << 8 * (8 - length)) - 1 for length in range(9)]
_TOKEN_BYTES = np.array([~before & (1 << 64) - 1 for before in _BEFORE], dtype=np.uint64)
_ZERO_FILL = np.array([before & 0x3030303030303030 for before in _BEFORE], dtype=np.uint64)


def code_digits(data, starts, length):
    """``(labels, ids)`` as ``graph._code_text`` gives them, when every token of
    padded edge-list data is 1 to 8 ASCII digits, with the labels as a
    sorted int64 array; else None.

    Each token is read as the little-endian 8-byte word that ends with its
    last byte, the bytes before the token are made "0", and the word is
    checked and parsed as eight digits at once (SWAR). ``int()`` gives the
    same value for each such token, leading zeros and all. The values are
    coded by a presence table, so the path also gives None when their range
    is not below the token count; the ids are the width of ``starts``.
    """
    tokens = starts.shape[0]
    if not tokens or not 0x30 <= data[starts[0]] <= 0x39 or length.max() > 8:
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
    # take() from a small table is about twice as fast as indexing it
    words &= _TOKEN_BYTES.take(length)
    words |= _ZERO_FILL.take(length)
    # every byte is 0x30-0x3f, and stays below 0x40 with 6 added: "0"-"9"
    if not ((words & _HIGH_NIBBLES) == _ASCII_ZEROS).all():
        return None
    if not (((words + _SIXES) & _HIGH_NIBBLES) == _ASCII_ZEROS).all():
        return None
    for mask, multiplier, shift in _JOINS:
        words &= mask
        words *= multiplier
        words >>= shift
    values = words.view(np.int64)  # below 10**8
    low, high = int(values.min()), int(values.max())
    if high - low >= tokens:
        return None
    values -= low
    present = np.zeros(high - low + 1, dtype=bool)
    present[values] = True
    ids = np.cumsum(present, dtype=starts.dtype)[values]
    ids -= 1
    labels = np.flatnonzero(present)
    labels += low
    return labels, ids


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
