"""CSV cells, whole arrays at a time, with the same bytes as ``"%.17g" % v``.

``cell_rows(values)`` gives each value one fixed row of ``WIDTH`` bytes: its
text and a ',' (at ``SEPARATOR``) among NUL bytes.  ``lines(rows)`` deletes
the NULs of a table of such rows, one line per row.

The digits.  A finite v with 10**X <= |v| < 10**(X + 1) has the 17
significant digits D = round-half-even(|v| * 10**(16 - X)), with
10**16 <= D < 10**17; D = 10**17 carries into X + 1.  For X in [LOW, HIGH],
10**(16 - X) is an exact float64, and Dekker's TwoProduct (Numer. Math. 18
(1971) 224) gives the product exactly as hi + lo: hi >= 2**53 is an even
integer and |lo| <= 8, so D = hi + rint(lo), half-way cases going to even
as "%.17g" rounds them.  Zeros take the same path, as D = 0.  Every other
value (|v| < 1e-6, |v| >= 1e17, so subnormals too, inf and nan) is
formatted by "%.17g" itself.

The layout.  A row is six uint64 words: a sign, "0.000", the 17 digits each
followed by a point slot, "e-0", an exponent digit and the separator.  Every
%g layout of the fast path is a subsequence of it, fixed by the row's key:
X, the last nonzero digit and the sign.  One table holds each key's first
and last word and every four-digit group's word, so a row is one gather of
six words and one mask of the bytes its key keeps.
"""

from __future__ import annotations

import numpy as np

LOW, HIGH = -6, 16  # the fast path's decimal exponents X
WIDTH = 48
SEPARATOR = 44
_DIGITS = 6  # the first digit's byte; digit i is at _DIGITS + 2 i, its point slot after it
_EXPONENT = 40  # "e-0" and the exponent digit
_KEYS = (HIGH - LOW + 1) * 17 * 2  # ((X - LOW) * 17 + last nonzero digit) * 2 + sign
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves


def _halves(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _least_float_from(power: int) -> float:
    near = 10.0**power if power >= 0 else 1 / 10**-power  # correctly rounded
    num, den = near.as_integer_ratio()
    below = num * 10 ** max(-power, 0) < den * 10 ** max(power, 0)
    return float(np.nextafter(near, np.inf)) if below else near


#: BOUNDS[i] is the least float >= 10**(LOW + i).  A value with frexp's
#: exponent e (2**(e - 1) <= |v| < 2**e) has X = _GUESS[e - _E_MIN] or one more.
BOUNDS = np.array([_least_float_from(x) for x in range(LOW, HIGH + 2)])
_E_MIN, _E_MAX = (int(np.frexp(bound)[1]) for bound in BOUNDS[[0, -1]])
_GUESS = LOW - 1 + np.searchsorted(BOUNDS, np.ldexp(1.0, np.arange(_E_MIN - 1, _E_MAX)), "right")
_POWERS = 10.0 ** np.arange(17 - LOW)
_POWERS_HIGH, _POWERS_LOW = _halves(_POWERS)


def _groups() -> tuple[np.ndarray, np.ndarray]:
    """Each four-digit group "dddd" as the bytes "d.d.d.d.", and its trailing zeros."""
    group = np.arange(10_000, dtype=np.uint16)
    text = np.full((10_000, 8), ord("."), np.uint8)
    for i, power in enumerate((1000, 100, 10, 1)):
        text[:, 2 * i] = 48 + group // power % 10
    return text, sum((group % 10**z == 0).astype(np.uint8) for z in range(1, 5))


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Each key's row, digits NUL, and the bytes it keeps (0xff)."""
    x = np.arange(LOW, HIGH + 1)[:, None, None, None]
    last = np.arange(17)[:, None, None]
    negative = np.arange(2)[:, None]
    col = np.arange(WIDTH)
    fixed = x >= -4  # else d.ddde-0X
    point = np.where(fixed, x, 0)  # the digit the point follows, if x >= 0 or not fixed
    slot = (col - _DIGITS) // 2
    digits = (col >= _DIGITS) & (col < _EXPONENT)
    keep = (
        ((col == 0) & (negative == 1))
        | (fixed & (x < 0) & (col >= 1) & (col < 2 - x))  # "0." and -x - 1 zeros
        | (digits & (col % 2 == 0) & (slot <= np.maximum(last, point)))
        | (digits & (col % 2 == 1) & (slot == point) & ((x >= 0) | ~fixed) & (last > point))
        | (~fixed & (col >= _EXPONENT) & (col < SEPARATOR))
        | (col == SEPARATOR)
    )
    row = np.zeros(WIDTH, np.uint8)
    row[:_DIGITS + 2] = np.frombuffer(b"-0.000\0.", np.uint8)
    row[_EXPONENT:SEPARATOR + 1] = np.frombuffer(b"e-00,", np.uint8)
    rows = np.broadcast_to(row, keep.shape).copy()
    rows[..., SEPARATOR - 1] = 48 + (-x[..., 0]) % 10
    keep = keep.reshape(_KEYS, WIDTH)
    return rows.reshape(_KEYS, WIDTH) * keep, keep * np.uint8(0xFF)


def _word_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words a row takes, in one table: each group's, then each key's
    first word by first digit, then each key's last word; each key's kept
    bytes as words; each group's trailing zeros."""
    group_text, group_zeros = _groups()
    layouts, keep = _layouts()
    heads = np.repeat(layouts[:, None, :8], 10, axis=1)
    heads[..., _DIGITS] = 48 + np.arange(10)
    tails = np.ascontiguousarray(layouts[:, -8:])
    words = [part.view(np.uint64).ravel() for part in (group_text, heads, tails)]
    return np.concatenate(words), keep.view(np.uint64), group_zeros


_WORDS, _KEEP, _GROUP_ZEROS = _word_tables()
_HEADS = 10_000
_TAILS = _HEADS + 10 * _KEYS


def _significands(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**(16 - x)), exactly, as int64."""
    k = 16 - x
    hi = a * _POWERS.take(k)
    a_high, a_low = _halves(a)
    p_high, p_low = _POWERS_HIGH.take(k), _POWERS_LOW.take(k)
    lo = a_low * p_low - (((hi - a_high * p_high) - a_low * p_high) - a_high * p_low)
    digits = hi.astype(np.int64)
    digits += np.rint(lo).astype(np.int64)
    return digits


def _exponents(a: np.ndarray) -> np.ndarray:
    """X with 10**X <= a < 10**(X + 1), for a in [BOUNDS[0], BOUNDS[-1])."""
    binary = (a.view(np.int64) >> 52) - (1022 + _E_MIN)  # frexp's exponent, less _E_MIN
    x = _GUESS.take(binary.clip(0, _E_MAX - _E_MIN, out=binary))
    x += a >= BOUNDS.take(x + 1 - LOW, mode="clip")
    return x


def _word_index(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each 17-digit integer's first digit (column 0) and its four-digit
    groups (columns 1 to 4, their words' places in _WORDS), and how many
    zeros end it."""
    index = np.empty((digits.size, 6), np.intp)
    top = digits // 10**8
    low = digits - top * 10**8
    index[:, 0] = top // 10**8
    top -= index[:, 0] * 10**8
    index[:, 1] = top // 10**4
    index[:, 2] = top - index[:, 1] * 10**4
    index[:, 3] = low // 10**4
    index[:, 4] = low - index[:, 3] * 10**4
    trailing = _GROUP_ZEROS.take(index[:, 4])
    for j in (3, 2, 1):
        trailing += (trailing == 4 * (4 - j)) * _GROUP_ZEROS.take(index[:, j])
    return index, trailing


def cell_rows(values: np.ndarray) -> np.ndarray:
    """uint8 (*values.shape, WIDTH): each value's "%.17g" bytes and a ','
    among NULs."""
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= BOUNDS[0]) & (a < BOUNDS[-1])
    a[~fast] = 0.0  # through as zeros (digits 0 at exponent 0); their rows are replaced below
    x = _exponents(a)
    x[a == 0] = 0
    fast |= v == 0
    digits = _significands(a, x)
    carry = digits == 10**17
    x += carry
    digits[carry] = 10**16
    fast &= x <= HIGH
    x[~fast] = 0
    index, trailing = _word_index(digits)
    del a, digits  # a block's peak is then its rows and their mask
    key = ((x - LOW) * 17 + 16 - trailing) * 2 + np.signbit(v)
    index[:, 0] += _HEADS + key * 10
    index[:, 5] = _TAILS + key
    rows = _WORDS.take(index)
    del index
    rows &= _KEEP.take(key, axis=0)
    text = rows.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        formatted = np.array(["%.17g" % value for value in v[slow].tolist()], f"S{SEPARATOR}")
        text[slow, :SEPARATOR] = formatted.view(np.uint8).reshape(slow.size, SEPARATOR)
    return text.reshape(*np.shape(values), WIDTH)


def lines(rows: np.ndarray) -> str:
    """The text of cell rows (R, K, WIDTH): one line per row, its cells
    joined by ','.  Each row's last separator becomes its newline."""
    rows[:, -1, SEPARATOR] = ord("\n")
    rows = rows.reshape(len(rows), -1)
    rows = rows[:, rows.max(axis=0) > 0]  # less for translate to delete
    return rows.tobytes().translate(None, b"\0").decode("ascii")
