"""Byte kernel that prints a block of floats exactly as ``'%.12g' % x``.

:func:`render_rows` is the large-block route of
:func:`twospinboson.csvio.render_table`; ``csvio`` imports this module on
the first block large enough to use it, so its tables are built then and
start-up neither compiles nor builds them.

For finite nonzero x, let e = floor(log10|x|) and k = 11 - e.  With
|k| <= 22, 10^|k| is exact, so y = |x| * 10^k is one correctly rounded
multiply or divide, within 2^-13 of the exact product below 2^40.  A value
is *certified* when 1e11 <= floor(y) < 1e12 and frac(y) is more than 2^-11
from 1/2: its 12 significant digits are then floor(y) + (frac(y) > 1/2),
the correctly rounded digits ``%`` prints, and a carry to 1e12 becomes 1e11
at exponent e + 1.  Zeros print ``0``/``-0``.  Every other value (inf, nan,
|k| > 22, a near-tie, log10 off by one at a power of ten) is printed by
``%`` itself.

Each value fills a fixed 40-byte template, 10 ``uint32`` words:

======  =========================================================
bytes   content
======  =========================================================
2       ``-``
3-7     ``0.000``
8-19    the 12 digits, three 4-digit words from :data:`_QUADS`
20-31   ``.`` and digits 2 to 12, the part after a point
32-35   ``e``, the exponent's sign and its two digits (certified
        values have exponents -11 to 34)
36      the separator, ``,`` or ``\\n``
======  =========================================================

A keep-mask row picked by (sign, layout, last nonzero digit) selects the
bytes of the value's ``%g`` text; a value printed by ``%`` is written over
bytes 0-19 and its row keeps its length.  The block's text is the kept bytes
in order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_rows"]

_WIDTH = 40
# Layouts: fixed notation for exponents -4..11 is layout exponent + 4,
# exponent notation (two exponent digits) is 16 and zero is 17.
_EXP_LAYOUT = 16
_ZERO_LAYOUT = 17
_ROWS_PER_SIGN = 18 * 12
# Mask row of a value printed by %, by text length (at most 19 bytes).
_FALLBACK_ROW = 2 * _ROWS_PER_SIGN
_FALLBACK_WIDTH = 20
# Exponent e indexes the per-exponent tables at slot e + _EXP_OFFSET; slot 0
# is zero's.
_EXP_OFFSET = 330
_SCALE = 22  # largest exact power of ten in float64


def _quads() -> np.ndarray:
    """The 4-digit ASCII strings 0000..9999 as (10000, 4) bytes."""
    return (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).copy()


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 4 bytes as one uint32 word each."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32)[:, 0]


def _last_digits() -> np.ndarray:
    """Per 4-digit chunk (rows: first, middle, last) and value, the position of
    its last nonzero digit within the 12 digits; 0 for a chunk of zeros."""
    chunk = np.arange(10_000)[:, None]
    zeros = np.count_nonzero(chunk % 10 ** np.arange(1, 4) == 0, axis=1)
    return np.where(chunk[:, 0] > 0, 3 - zeros + np.array([[0], [4], [8]]), 0)


def _masks() -> np.ndarray:
    """Keep-mask rows by (sign, layout, last digit), then the fallback rows by text length."""
    neg, layout, last, j = np.ix_(range(2), range(_ZERO_LAYOUT + 1), range(12), range(_WIDTH))

    def between(lo, hi):
        return (lo <= j) & (j < hi)

    # Exponent notation keeps the digits of fixed notation with the point at 0.
    point = np.where(layout < _EXP_LAYOUT, layout - 4, 0)
    fraction = (last > point) & ((j == 20) | between(21 + point, 21 + last))
    masks = (((j == 2) & (neg == 1)) | (j == 36)
             | ((layout < 4) & (between(3, 8 - layout) | between(8, 9 + last)))  # 0.[000]digits
             | ((layout >= 4) & (layout <= _EXP_LAYOUT)  # digits[.digits]
                & (between(8, 9 + point) | fraction))
             | ((layout == _EXP_LAYOUT) & between(32, 36))  # e+dd
             | ((layout == _ZERO_LAYOUT) & (j == 3)))
    length = np.arange(_FALLBACK_WIDTH).reshape(-1, 1, 1, 1)
    fallback = (j < length) | ((j == 36) & (length > 0))
    return np.concatenate([masks.reshape(-1, _WIDTH), fallback.reshape(-1, _WIDTH)])


def _exponent_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per exponent slot: the layout's first mask row, and ``e``, sign and two digits."""
    exponents = np.arange(2 * _EXP_OFFSET) - _EXP_OFFSET
    layout = np.full(exponents.size, _EXP_LAYOUT)
    fixed = (exponents >= -4) & (exponents <= 11)
    layout[fixed] = exponents[fixed] + 4
    layout[0] = _ZERO_LAYOUT
    chars = np.zeros((exponents.size, 4), dtype=np.uint8)
    chars[:, 0] = ord("e")
    chars[:, 1] = np.where(exponents < 0, ord("-"), ord("+"))
    chars[:, 2:] = _QUADS[np.abs(exponents) % 100, 2:]
    return layout * 12, _words(chars)


_QUADS = _quads()
_DIGIT_WORDS = _words(_QUADS)
# The first chunk of the digits' second copy: its first digit becomes the point.
_POINT_WORDS = _words(np.column_stack([np.full(10_000, ord("."), np.uint8), _QUADS[:, 1:]]))
_LAST = _last_digits()
_MASKS = _masks()
_LAYOUT_ROW, _EXP_WORDS = _exponent_tables()
# Slot 34 - e of these holds 10^k, k = 11 - e, as y = |x| * _UP / _DOWN: one
# factor is 1 and the other exact.  Slots off |k| <= 22 give nan.
_UP = np.array([np.nan] + [float(10**max(k, 0)) for k in range(-_SCALE, _SCALE + 1)] + [np.nan])
_DOWN = np.array([float(10**max(-k, 0)) for k in range(-_SCALE - 1, _SCALE + 2)])
_PREFIX = _words(np.frombuffer(b"\0\0-0.000", dtype=np.uint8).reshape(2, 4))
_COMMA, _NEWLINE = _words([[ord(","), 0, 0, 0], [ord("\n"), 0, 0, 0]])


def render_rows(block: np.ndarray) -> bytes:
    """The rows of a 2-D float64 block as ASCII CSV lines, each value as ``'%.12g' % x``."""
    rows, columns = block.shape
    x = block.ravel()
    n = x.size
    a = np.abs(x)
    # Non-finite and uncertified lanes compute garbage that is never printed.
    with np.errstate(invalid="ignore"):
        e = np.full(n, -float(_EXP_OFFSET))
        np.floor(np.log10(a, out=e, where=a > 0.0), out=e)
        k = (11 + _SCALE + 1 - e).astype(np.intp)
        y = a * _UP.take(k, mode="clip") / _DOWN.take(k, mode="clip")
        whole = np.floor(y)
        frac = y - whole
        certified = (whole >= 1e11) & (whole < 1e12) & (np.abs(frac - 0.5) > 2.0**-11)
        whole += frac > 0.5
        carry = whole == 1e12
        np.subtract(whole, 9e11, out=whole, where=carry)
        slot = (e + carry + _EXP_OFFSET).astype(np.intp)
        digits = whole.astype(np.int64)

    chunks = np.empty((3, n), dtype=np.int64)
    np.floor_divide(digits, 10**8, out=chunks[0])
    digits -= chunks[0] * 10**8
    np.floor_divide(digits, 10**4, out=chunks[1])
    np.subtract(digits, chunks[1] * 10**4, out=chunks[2])
    last = _LAST[0].take(chunks[0], mode="clip")
    np.maximum(last, _LAST[1].take(chunks[1], mode="clip"), out=last)
    np.maximum(last, _LAST[2].take(chunks[2], mode="clip"), out=last)
    row = _LAYOUT_ROW.take(slot, mode="clip") + last
    row += np.signbit(x) * _ROWS_PER_SIGN

    buf = np.empty((rows, columns, _WIDTH // 4), dtype=np.uint32)
    buf[:, :, 9] = _COMMA
    buf[:, -1, 9] = _NEWLINE
    buf = buf.reshape(n, _WIDTH // 4)
    buf[:, 0], buf[:, 1] = _PREFIX
    words = _DIGIT_WORDS.take(chunks, mode="clip")
    buf[:, 2], buf[:, 3], buf[:, 4] = words
    buf[:, 5] = _POINT_WORDS.take(chunks[0], mode="clip")
    buf[:, 6], buf[:, 7] = words[1:]
    buf[:, 8] = _EXP_WORDS.take(slot, mode="clip")
    text = buf.view(np.uint8)

    fallback = np.flatnonzero(~certified & (a != 0.0))
    if fallback.size:
        printed = ["%.12g" % value for value in x[fallback].tolist()]
        text[fallback, :_FALLBACK_WIDTH] = (
            np.array(printed, dtype=f"S{_FALLBACK_WIDTH}").view(np.uint8)
            .reshape(-1, _FALLBACK_WIDTH))
        row[fallback] = _FALLBACK_ROW + np.array([len(s) for s in printed])
    return text[_MASKS.take(row, axis=0)].tobytes()
