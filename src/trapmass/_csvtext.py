"""The CLI's CSV body: Python's "%.17g" text of every cell, from numpy.

A finite cell x with decimal exponent k (10^k <= |x| < 10^(k+1)) prints the
17 digits D = round(|x|·10^(16−k)), the same as Python's correctly rounded
"%.17g". The product is a double-double (Dekker, Numer. Math. 18, 224,
1971): 10^(16−k) is a hi + lo pair, computed exactly from Python ints, and
x·hi is split exactly, so |x|·10^(16−k) is known to about 1e-13 and the
rounding to D is certified unless its fraction lies within TIE of one half.
Python's "%" formats every cell that is not certified, and every cell with
|k| >= K_MAX (where 10^(16−k) or the split leaves the double range), on its
own.

The digits are then laid out in SLOTS bytes per cell: sign, "0.000" prefix,
digit i at 6 + 2i with a decimal point slot after it, exponent at 39,
separator at 44. A cell's layout holds its fixed characters, 0xFF at the
digits it prints and NUL elsewhere. It is a mantissa layout, looked up by
sign, form (the exponent form, or the fixed form of one k in [-4, 16]),
significant digits and last in row, with the exponent layout of k in its
exponent slots. ANDed with a row of the digits (0xFF between them), it gives
the cell's text with NULs, which are then deleted.
"""

from __future__ import annotations

import functools
import math
import zlib

import numpy as np

BLOCK_CELLS = 2048
K_MAX = 280
TIE = 1e-9
SPLIT = 134217729.0  # 2^27 + 1
SLOTS = 46
# Cells that are not a certified finite nonzero value; "" marks Python's "%".
SPECIALS = (b"", b"0", b"-0", b"nan", b"inf", b"-inf")
FIRST_SPECIAL = 22 * 17 * 2


class _Table:
    """Rows of a lookup table, each built by build(i) on its first use."""

    def __init__(self, rows: int, width: int, dtype, build):
        self.data = np.zeros((rows, width), dtype)
        self.done = np.zeros(rows, bool)
        self.build = build

    def take(self, index: np.ndarray) -> np.ndarray:
        if not self.done[index].all():
            for i in set(index[~self.done[index]].tolist()):
                self.data[i] = self.build(i)
                self.done[i] = True
        return self.data.take(index, axis=0)


@functools.cache
def _groups() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of every 4-digit group as a uint32, and its trailing zeros
    (4 for 0000)."""
    digits = np.empty((10000, 4), np.int64)
    rest = np.arange(10000)
    for j in (3, 2, 1, 0):
        rest, digits[:, j] = np.divmod(rest, 10)
    nonzero = digits[:, ::-1] != 0
    zeros = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), 4)
    ascii = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    ascii.flags.writeable = zeros.flags.writeable = False
    return ascii, zeros


def _scale(k: int) -> tuple[float, float]:
    """10^(16−k) as hi + lo: hi the nearest double, lo the nearest double to
    the rest."""
    num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
    hi = num / den
    h_num, h_den = hi.as_integer_ratio()
    return hi, (num * h_den - h_num * den) / (den * h_den)


def _mantissa(key: int) -> bytearray:
    """The mantissa layout of a key."""
    key, last = divmod(key, 2)
    slots = bytearray(SLOTS)
    slots[44:46] = b"\r\n" if last else b",\0"
    if key >= FIRST_SPECIAL:
        text = SPECIALS[key - FIRST_SPECIAL]
        slots[: len(text)] = text
        return slots
    (form, nsig), neg = divmod(key // 2, 17), key % 2
    nsig += 1
    point = form - 5 if form else 0  # the digit that the decimal point follows
    slots[0] = neg * ord("-")
    shown = max(point + 1, nsig)
    slots[6 : 6 + 2 * shown : 2] = b"\xff" * shown
    if point < 0:
        slots[1 : 2 - point] = b"0." + b"0" * (-point - 1)
    elif nsig > point + 1:
        slots[7 + 2 * point] = ord(".")
    return slots


def _exponent(k: int) -> np.ndarray:
    """The exponent layout of k: "e+dd" or "e+ddd", or NUL in the fixed form,
    which "%g" writes for 10^-4 <= |x| < 10^17."""
    text = b"" if -4 <= k < 17 else f"e{k:+03d}".encode()
    return np.frombuffer(text.ljust(5, b"\0"), np.uint8)


# By k + K_MAX: 10^(16−k) as hi, lo and the exponent layouts; by key: the
# mantissa layouts.
_SCALES = _Table(2 * K_MAX + 1, 2, float, lambda i: _scale(i - K_MAX))
_EXPONENTS = _Table(2 * K_MAX + 1, 5, np.uint8, lambda i: _exponent(i - K_MAX))
_MANTISSAS = _Table(2 * (FIRST_SPECIAL + len(SPECIALS)), SLOTS, np.uint8, _mantissa)


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, k, certified) for each |x| in a: the 17 digits D and the decimal
    exponent k, and whether x is finite and nonzero with |k| < K_MAX and D
    certified."""
    k0 = np.floor(np.frexp(a)[1] * math.log10(2.0)).astype(np.int64)
    # k0 is k or k + 1, so y = |x|·10^(16−k0) lies in [1e15, 1e17).
    regular = np.isfinite(a) & (a > 0) & (np.abs(k0) < K_MAX)
    k0[~regular] = 0
    x = np.where(regular, a, 1.0)
    hi, lo = _SCALES.take(k0 + K_MAX).T
    prod = x * hi
    xh = x * SPLIT
    xh -= xh - x
    hh = hi * SPLIT
    hh -= hh - hi
    xl, hl = x - xh, hi - hh
    err = ((xh * hh - prod) + xh * hl + xl * hh) + xl * hl
    # y = whole + frac exactly, frac in [0, 1); below 1e16, k = k0 − 1 and
    # frac gives one more digit.
    whole = np.floor(prod)
    frac = (prod - whole) + (err + x * lo)
    step = np.floor(frac)
    whole = whole.astype(np.int64) + step.astype(np.int64)
    frac -= step
    short = whole < 10**16
    scale = 1 + 9 * short
    frac *= scale
    step = np.floor(frac)
    whole = whole * scale + step.astype(np.int64)
    frac -= step
    digits = whole + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    regular &= np.abs(frac - 0.5) >= TIE
    return digits, k0 - short + carry, regular


def _text(cells: np.ndarray, last: np.ndarray, digit_row: np.ndarray) -> bytes:
    """The "%.17g" text of cells, each followed by "," or, where last, CRLF;
    digit_row is a (cells.size, SLOTS) uint8 work array of 0xFF outside the
    digit slots."""
    a = np.abs(cells)
    neg = np.signbit(cells) & ~np.isnan(cells)
    digits, k, regular = _decimal(a)
    # Digit 0 and four 4-digit groups, and how many digits are significant.
    lead, rest = np.divmod(digits, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = np.empty((cells.size, 4), np.int64)
    np.divmod(upper, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(lower, 10**4, out=(groups[:, 2], groups[:, 3]))
    ascii, group_zeros = _groups()
    zeros = group_zeros.take(groups)
    nsig = 17 - zeros[:, 3]
    whole_group = zeros[:, 3] == 4
    for j in (2, 1, 0):
        nsig -= whole_group * zeros[:, j]
        whole_group &= zeros[:, j] == 4
    digit_row[:, 6] = lead + ord("0")
    digit_row[:, 8:39:2] = ascii.take(groups).view(np.uint8)
    form = np.where((k >= -4) & (k < 17), k + 5, 0)
    keys = ((form * 17 + nsig - 1) * 2 + neg) * 2 + last
    other = np.flatnonzero(~regular)
    b, b_neg = a[other], neg[other]
    special = (b == 0) * (1 + b_neg) + np.isnan(b) * 3 + np.isinf(b) * (4 + b_neg)
    keys[other] = (FIRST_SPECIAL + special) * 2 + last[other]
    k[other] = 0
    text = _MANTISSAS.take(keys)
    text[:, 39:44] = _EXPONENTS.take(k + K_MAX)
    text &= digit_row
    body = text.tobytes().translate(None, b"\0")
    fallback = other[special == 0]
    if fallback.size == 0:
        return body
    size = np.count_nonzero(text, axis=1)
    starts = np.cumsum(size) - size
    parts, at = [], 0
    for i in fallback.tolist():
        parts += [body[at : starts[i]], b"%.17g" % cells[i]]
        at = starts[i]
    return b"".join(parts) + body[at:]


def write_rows(fh, data: np.ndarray, crc: int = 0) -> tuple[int, int]:
    """Write each row of the 2-D float array data to the binary file fh as
    "%.17g" cells joined by "," and ended by CRLF, at most BLOCK_CELLS cells
    at a time. Returns the byte count written and zlib.crc32 of those bytes
    continued from crc, both summed block by block."""
    n_cols = data.shape[1]
    rows = max(1, BLOCK_CELLS // n_cols)
    digit_row = np.full((rows * n_cols, SLOTS), 0xFF, np.uint8)
    last = np.arange(rows * n_cols) % n_cols == n_cols - 1
    size = 0
    for lo in range(0, data.shape[0], rows):
        cells = data[lo : lo + rows].ravel()
        block = _text(cells, last[: cells.size], digit_row[: cells.size])
        fh.write(block)
        size += len(block)
        crc = zlib.crc32(block, crc)
    return size, crc
