"""Float tables as text: the number writer behind every array the package writes.

:func:`lines` spells a whole float table in array arithmetic: each cell comes
out as ``'%.17g' % x``, byte for byte, without one Python format call per
number.  Integers go in as floats (the OBJ face indices): below 10^17 they
spell as ``'%d'``, and an integer column raises ValueError rather than be
rounded above 2^53.

%.17g writes a finite non-zero x as the 17 digits of D = round-half-even(|x|
10^(16-k)), where k is the decimal exponent of D's leading digit: in fixed
point when -4 <= k <= 16 (the point after digit k, or "0." and -k-1 zeros
before D when k < 0), else as d.ddd followed by e-XX or e+XX, in both cases
without trailing fraction zeros or a bare point.  With 10^(16-k) = s + s_tail
as a double-double, |x| 10^(16-k) = hi + lo follows from Dekker's exact
product (Dekker 1971, "A floating-point technique for extending the available
precision") of |x| and s, plus |x| s_tail.  Where the product is at least
10^16 > 2^53, hi is an even integer, so D = hi + rint(lo) is the product
rounded half to even: the digits Ryu (Adams 2018) reaches with wider
integers.  For -6 <= k <= 16 the scale is a double (s_tail = 0) and D is
exact; elsewhere hi + lo is within 2^-47 of the product, and a product within
``TIE_GUARD`` of a half-integer is left to Python.  Each cell is spelled from
a table of 4-digit words into a fixed slot padded with NUL bytes, and one
``bytes.translate`` per block of rows drops the padding.  Zeros, non-finite
values, |x| outside the scale table (k < -284 or k > 292), those near-ties
and the rare x whose estimated exponent is off by one (D outside [10^16,
10^17)) go through Python's own '%.17g', in one call per block.
"""

import math
from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = ["lines"]

BLOCK_CELLS = 2048  # cells per block: bounds the temporaries of any table
FLOAT_SLOT = 24  # bytes: the longest '%.17g' of a double, '-2.2250738585072014e-308'
TIE_GUARD = 2.0**-30  # distance of an inexact product from a half-integer below which Python decides
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
_U8 = np.dtype("<u8")  # a slot is three little-endian 64-bit words
_EXPONENT = 21  # the slot layout of exponent notation; layouts 0..20 are fixed point with k = -4..16


class _Tables(NamedTuple):
    # by the index 292 - k of D's decimal exponent k = -284..292, where 10^(16 - k) = s + s_tail:
    scale: np.ndarray  # s
    scale_hi: np.ndarray  # the Veltkamp halves of s
    scale_lo: np.ndarray
    scale_tail: np.ndarray  # 0 where 10^(16 - k) is a double
    layout: np.ndarray  # 18 times the slot layout of the cell
    suffix: np.ndarray  # "e-XX" or "e+XXX" in bytes 3..7 of the slot's last word, 0 in fixed point
    # by the value i < 10^4 of a 4-digit group:
    words: np.ndarray  # 4-byte words [i]: the 4 digits of i, leading zeros kept
    significant: np.ndarray  # the digits of i up to its last non-zero one, 0 if i = 0
    masks: np.ndarray  # [:, code]: the slot words that keep bytes of A and of B, and the point


# D's digits in six half-words: "0000", digits 2..5 and 10..13 in the low halves of w0 w1 w2, d0 and digits
# 6..9 and 14..17 in the high halves; a slot's count of digits before its own (d0's group 000d counts -3)
_BEFORE = np.array([0, 1, 9, -3, 5, 13], np.int8).reshape(2, 3, 1)


def _scales():
    """10^m for m = 16 - k = -276..300 as a double-double s + s_tail, to 2^-106 relative, exactly for m = 0..22."""
    s, s_tail = [], []
    for m in range(-276, 301):  # 10^m = t 2^(e - 128) with 2^127 <= t < 2^128
        if m >= 0:
            n = 10**m
            e = n.bit_length()
            t = n << (128 - e) if e <= 128 else n >> (e - 128)
        else:
            d = 10**-m
            e = 1 - d.bit_length()
            t = (1 << (128 - e)) // d
        top = (t + (1 << 74)) >> 75  # t rounded to 53 bits
        s.append(math.ldexp(top, e - 53))
        s_tail.append(math.ldexp(t - (top << 75), e - 128))
    return np.array(s), np.array(s_tail)


@cache
def _tables():
    """The constant tables of the float speller, built at first use.

    A float cell's masks are picked by code = 18 layout + sig, where sig is the count of D's digits
    up to its last non-zero one.
    """
    scale, scale_tail = _scales()
    c = scale * _SPLIT
    scale_hi = c - (c - scale)
    k = 292 - np.arange(577)
    fixed = (k >= -4) & (k <= 16)
    layout = 18 * np.where(fixed, k + 4, _EXPONENT)
    # "e", the exponent's sign and its 2 or 3 digits, from byte 3 of the slot's last word
    suffix = np.zeros((577, 8), np.uint8)
    suffix[:, 3] = ord("e")
    suffix[:, 4] = np.where(k < 0, ord("-"), ord("+"))
    wide = abs(k) >= 100
    suffix[:, 5] = np.where(wide, abs(k) // 100, abs(k) // 10 % 10) + ord("0")
    suffix[:, 6] = np.where(wide, abs(k) // 10 % 10, abs(k) % 10) + ord("0")
    suffix[:, 7] = np.where(wide, abs(k) % 10 + ord("0"), 0)
    suffix[fixed] = 0
    ten = np.arange(10, dtype=np.uint8) + ord("0")
    digits = np.stack([np.repeat(np.tile(ten, 10**p), 10 ** (3 - p)) for p in range(4)], axis=1)
    nonzero = digits != ord("0")
    significant = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    words = digits.view("<u4").ravel()
    # The slot: byte 0 the sign (set per cell), bytes 1..22 the text E[:p] + "." + E[p:] from index start
    # to end.  E is "0000" + D with p = 5 + k in fixed point, D itself with p = 1 in exponent notation.
    zeros = np.where(np.arange(22) == _EXPONENT, 0, 4)[:, None, None]
    k_text = np.where(zeros == 0, 0, np.arange(22)[:, None, None] - 4)
    sig = np.arange(18)[None, :, None]
    j = np.arange(FLOAT_SLOT) - 1  # the text index of each slot byte
    point = zeros + 1 + k_text
    kept = (j >= zeros + np.minimum(k_text, 0)) & (j < np.where(sig > k_text + 1, zeros + 1 + sig, point))
    masks = np.zeros((3,) + kept.shape, np.uint8)
    masks[0] = kept & (j < point)
    masks[1] = kept & (j > point)
    masks[:2] *= np.uint8(255)
    masks[2] = np.where(kept & (j == point), np.uint8(ord(".")), np.uint8(0))
    masks = masks.reshape(3, -1, FLOAT_SLOT).view(_U8).transpose(0, 2, 1).reshape(9, -1)
    return _Tables(
        scale,
        scale_hi,
        scale - scale_hi,
        scale_tail,
        layout,
        suffix.view(_U8).ravel(),
        words,
        significant.astype(np.int8),
        np.ascontiguousarray(masks),
    )


def _python(values):
    """'%.17g' per entry of ``values`` by Python's own %-format, as NUL-padded rows of FLOAT_SLOT bytes."""
    spelled = ("%.17g\0" * len(values) % tuple(values.tolist())).encode().split(b"\0")[:-1]
    return np.array(spelled, dtype=f"S{FLOAT_SLOT}").view(np.uint8).reshape(-1, FLOAT_SLOT)


def _float_cells(x):
    """'%.17g' % x per entry of the float64 array x, as NUL-padded rows of FLOAT_SLOT bytes."""
    t = _tables()
    a = np.abs(x)
    with np.errstate(all="ignore"):  # 0, inf, nan and |x| beyond the table give values the tests below reject
        i = np.log10(a)
        np.floor(i, out=i)
        i = i.astype(np.intp)
        np.subtract(292, i, out=i)
        np.clip(i, 0, 576, out=i)
        # Dekker's product a s = hi + lo, with a and s split into 26-bit halves, plus a s_tail
        s = t.scale.take(i)
        hi = a * s
        a_hi = a * _SPLIT
        a_hi -= a_hi - a
        a_lo = a - a_hi
        s_hi, s_lo = t.scale_hi.take(i), t.scale_lo.take(i)
        lo = a_hi * s_hi
        lo -= hi
        lo += a_hi * s_lo
        lo += a_lo * s_hi
        lo += a_lo * s_lo
        tail = t.scale_tail.take(i)
        lo += a * tail  # hi + lo = |x| 10^(16 - k), exactly where the tail is 0
        fast = hi - 1e16
        fast += lo
        fast = (fast >= 0.0) & (hi < 1e17)  # 10^16 <= hi + lo < 10^17
        inexact = tail != 0.0
        if inexact.any():
            frac = lo - np.floor(lo)
            fast &= ~inexact | (np.abs(frac - 0.5) > TIE_GUARD)
        d = hi.astype(np.int64)
        d += np.rint(lo).astype(np.int64)
    del a, a_hi, a_lo, s, s_hi, s_lo, tail, hi, lo
    np.copyto(d, 10**16, where=~fast)
    g = np.empty((2, 3, len(d)), np.intp)
    g[0, 0] = 0
    upper = d // 10**8
    np.subtract(d, upper * 10**8, out=g[1, 2])
    np.floor_divide(upper, 10**8, out=g[1, 0])
    np.subtract(upper, g[1, 0] * 10**8, out=g[1, 1])
    np.floor_divide(g[1, 1:], 10**4, out=g[0, 1:])
    g[1, 1:] -= g[0, 1:] * 10**4
    del d, upper
    w = t.words.take(g).astype(_U8)
    w[1] <<= 32
    w = w[0] | w[1]  # E = "0000" + D at bytes 3..23 of w0 w1 w2
    last = t.significant.take(g)  # then D's digits up to each slot's last non-zero one
    last += (last > 0) * _BEFORE
    sig = np.maximum.reduce(last.reshape(6, -1), axis=0)
    del g, last
    layout = t.layout.take(i)
    exponent = layout == 18 * _EXPONENT
    if exponent.any():  # E = D at bytes 3..19
        shifted = w >> 32
        shifted[:2] |= w[1:] << 32
        w[:, exponent] = shifted[:, exponent]
    m = t.masks.take(layout + sig, axis=1)
    # A: E from slot byte 1 on (a 2-byte shift), B: one byte later; the masks pick, the marks add
    pick_a = w >> 16
    pick_a[:2] |= w[1:] << 48
    pick_a &= m[:3]
    pick_b = w >> 8
    pick_b[:2] |= w[1:] << 56
    pick_b &= m[3:6]
    pick_a |= pick_b
    pick_a |= m[6:]
    pick_a[2] |= t.suffix.take(i)
    pick_a[0] |= (x < 0.0) * np.uint64(ord("-"))
    out = np.ascontiguousarray(pick_a.T).view(np.uint8)
    slow = ~fast
    if slow.any():
        out[slow] = _python(x[slow])
    return out


def lines(columns, separators):
    """The table as bytes: one line per row, separators[i] before column i and separators[-1] after the last.

    ``columns`` are equal-length float arrays, written as '%.17g'.  Any other
    column raises ValueError: give integers as floats, which spell as '%d'
    below 10^17 and are exact to 2^53.  Separators must not contain NUL.
    """
    if len(separators) != len(columns) + 1 or len(columns) == 0:
        raise ValueError("lines needs at least one column and one separator more than columns")
    if not all(isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns):
        raise ValueError("lines takes float columns: give integers as float64, exact to 2^53")
    if "\0" in "".join(separators):
        raise ValueError("separators must not contain NUL")
    n, width = len(columns[0]), len(columns)
    seps = [np.frombuffer(s.encode(), np.uint8) for s in separators]
    step = max(1, BLOCK_CELLS // width)
    chunks = []
    for r0 in range(0, n, step):
        values = np.stack([c[r0 : r0 + step] for c in columns], axis=1, dtype=np.float64)
        cells = _float_cells(values.ravel()).reshape(len(values), width, FLOAT_SLOT)
        block = np.empty((len(values), sum(map(len, seps)) + width * FLOAT_SLOT), np.uint8)
        pos = 0
        for m, sep in enumerate(seps):
            block[:, pos : pos + len(sep)] = sep
            pos += len(sep)
            if m < width:
                block[:, pos : pos + FLOAT_SLOT] = cells[:, m]
                pos += FLOAT_SLOT
        chunks.append(block.tobytes().translate(None, b"\0"))
    return b"".join(chunks)
