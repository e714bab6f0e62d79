"""Trace CSV text of float blocks, each cell with the bytes `%.17g` gives it.

Only a trace of more than one engine block imports this module; a one-block
trace's stacked block is formatted by `%.17g` itself (report.emit_trace_csv).

The kernel formats a whole block at once.  A cell x with 1e-280 <= |x| <=
1e280 has k = floor(log10|x|) and the 17 digits D = round-half-even(|x| *
10**(16 - k)), 10**16 <= D < 10**17.  The power of ten is split into hi + lo
from exact integers, and |x| * hi is formed exactly by Dekker's two-product
(Numer. Math. 18, 224, 1971), so the fraction of |x| * 10**(16 - k) is known
to about 5e-15.  Each cell is then laid out from one row of a layout table,
chosen by the `%g` notation for k, the position of D's last nonzero digit
and the sign.  A cell whose fraction is within `_TIE` of 1/2, one whose
log10 rounded across a power of ten, and one that is non-finite or out of
that range goes through `%.17g` itself (`_fallback`); a zero is written as
`0` or `-0`.  Tables are built on first use, for the exponents and layouts
a block meets, so importing this module builds no table row.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

# 2**27 + 1: Dekker's splitter, which cuts a double into two 26-bit halves.
_SPLIT = 134217729.0
# A fraction this close to 1/2 may round either way: far above its ~5e-15 error.
_TIE = 1e-13
# floor(log10|x|) over the kernel's range; log10(1e-280) may round below -280.
_K_MIN, _K_MAX = -281, 280

# Each cell gets 32 source bytes: 2 unused, '0', its 17 digits, '0' and the 3
# digits of |k|, the separator, '.', '-', '0', 'e', '+', the NUL that pads a
# layout and the mark left where a fallback cell goes.
_DIGIT0, _SEP = 3, 24
_DOT, _MINUS, _ZERO, _E, _PLUS, _PAD, _MARK = range(25, 32)
_TAIL = b",.-0e+\0\x01"
# Layout kinds: 0-20 for fixed notation at k = -4..16; 21-24 for exponent
# notation at k < -4 with 2 or 3 exponent digits, then k >= 17 with 2 or 3;
# then a zero and a fallback cell.  A layout key is (kind * 17 + last) * 2 +
# negative, where `last` indexes D's last nonzero digit.
_EXP_KIND, _ZERO_KIND, _FALLBACK_KIND = 21, 25, 26
# The longest cell, '-d.dddddddddddddddde-ddd', and its separator.
_WIDTH = 25
# Cells laid out per pass, an eighth of a 1,024-row block of 5 columns: 128 KB of index.
_PASS = 640


def _halves(v):
    """Dekker's split of `v` into a high and a low half, each of 26 bits."""
    c = _SPLIT * v
    high = c - (c - v)
    return high, v - high


def _fallback(x: float) -> str:
    return "%.17g" % x


def _scale(key: int) -> tuple[float, float, float]:
    """10**(16 - k) at k = key + _K_MIN as hi + lo, each the correctly rounded
    double of what is left, with hi given as its two halves."""
    e = 16 - (key + _K_MIN)
    num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
    hi = num / den  # int / int rounds correctly
    a, b = hi.as_integer_ratio()
    return (*_halves(hi), (num * b - a * den) / (den * b))


def _layout(key: int) -> list[int]:
    """The source bytes of one layout key, in order, padded to `_WIDTH`."""
    kind, last, negative = key // 34, key // 2 % 17, key % 2
    digit = list(range(_DIGIT0, _DIGIT0 + 17))
    point = kind - 4 if kind < _EXP_KIND else 0  # index of the digit before '.'
    if kind == _FALLBACK_KIND:
        slots = [_MARK]
    elif kind == _ZERO_KIND:
        slots = [_ZERO]
    elif point < 0:
        slots = [_ZERO, _DOT] + [_ZERO] * (-point - 1) + digit[:last + 1]
    else:
        slots = digit[:point + 1] + ([_DOT] + digit[point + 1:last + 1] if last > point else [])
        if kind >= _EXP_KIND:
            positive, three = divmod(kind - _EXP_KIND, 2)
            slots += [_E, _PLUS if positive else _MINUS, *range(_SEP - 2 - three, _SEP)]
    slots = [_MINUS] * negative + slots + [_SEP]
    return slots + [_PAD] * (_WIDTH - len(slots))


class _LazyRows:
    """A table of `size` rows of which each is built, by `build(key)`, the
    first time a lookup meets its key.  A row is written before it is marked
    built, and one built twice is built the same, so concurrent lookups need
    no lock."""

    def __init__(self, size: int, width: int, dtype, build: Callable[[int], list]):
        self.rows = np.zeros((size, width), dtype)
        self.built = np.zeros(size, dtype=bool)
        self.build = build

    def table(self, keys: np.ndarray) -> np.ndarray:
        """The table, with the row of every key in `keys` built."""
        new = np.flatnonzero((np.bincount(keys, minlength=len(self.built)) > 0) & ~self.built)
        for key in new.tolist():
            self.rows[key] = self.build(key)
        self.built[new] = True
        return self.rows


_SCALES = _LazyRows(_K_MAX - _K_MIN + 1, 3, np.float64, _scale)
_LAYOUTS = _LazyRows(34 * (_FALLBACK_KIND + 1), _WIDTH, np.intp, _layout)


@functools.cache
def _digit_pairs() -> tuple[np.ndarray, np.ndarray]:
    """The two ASCII digits of each of 0..99 as one uint16, and for each pair
    i = 0..7 of D's digits after its first (digits 2i + 1 and 2i + 2) the index
    in D of the pair's last nonzero digit, 0 if it has none."""
    v = np.arange(100)
    ascii = np.stack([v // 10, v % 10], axis=1) + ord("0")
    last = np.where(v % 10 > 0, 2, np.where(v > 0, 1, 0))
    lasts = np.where(last > 0, last + 2 * v[:8, None], 0).astype(np.int8)
    return ascii.astype(np.uint8).view(np.uint16).ravel(), lasts


def _kept(work: dict, name: str, shape: tuple[int, int], dtype) -> np.ndarray:
    """An uninitialized array on a buffer that `work` keeps for the next block."""
    size = shape[0] * shape[1]
    buf = work.get(name)
    if buf is None or buf.size < size:
        buf = work[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k, D and whether a layout row can write the cell, for each cell of x
    (D is 10**16 where one cannot).  Buffers are reused in place and dropped
    after their last read, so at most eight 8-byte arrays the size of x are
    alive at once."""
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    k -= _K_MIN

    # |x| * 10**(16 - k) = top + whole + frac, with top and whole integers.
    hi_high, hi_low, lo = _SCALES.table(k).T
    a_high, a_low = _halves(a)
    hi_high, hi_low = hi_high.take(k), hi_low.take(k)
    top = a * (hi_high + hi_low)
    rest = np.multiply(a_high, hi_high)
    rest -= top
    rest += np.multiply(a_high, hi_low, out=a_high)
    rest += np.multiply(a_low, hi_high, out=hi_high)
    rest += np.multiply(a_low, hi_low, out=a_low)
    rest += np.multiply(a, lo.take(k, out=hi_low, mode="clip"), out=a)
    del a, a_high, a_low, hi_low
    whole = np.rint(rest, out=hi_high)
    frac = np.subtract(rest, whole, out=rest)
    d = top.astype(np.int64) + whole.astype(np.int64)
    ok &= (np.abs(np.abs(frac) - 0.5) > _TIE) & (d < 10 ** 17)
    ok &= (d > 10 ** 16) | ((d == 10 ** 16) & (frac >= 0))
    d[~ok] = 10 ** 16
    return k + _K_MIN, d, ok


def format_block(block: np.ndarray, work: dict) -> str:
    """CSV text of a 2-D float block, each cell as `%.17g` writes it; `work`
    keeps block-sized buffers for the next call, so none is mapped afresh."""
    rows, cols = block.shape
    x = block.ravel()
    k, d, ok = _digits(x)

    # D in base 100, its last pair first and its first digit last, then |k|
    # in base 100.  Each row goes through the pair tables as it is made, so
    # no index array is widened whole; `last` ends as the index in D of its
    # last nonzero digit.
    words, lasts = _digit_pairs()
    src = _kept(work, "src", (x.size, 16), np.uint16)
    last = np.zeros(x.size, np.int8)
    for i in range(8, 0, -1):
        q = d // 100
        d -= 100 * q
        src[:, 1 + i] = words.take(d)
        np.maximum(last, lasts[i - 1].take(d), out=last)
        d = q
    src[:, 1] = words.take(d)
    src[:, 10:12] = words.take(np.divmod(np.abs(k), 100)).T
    tail = np.empty((cols, 4), np.uint16)
    tail[:] = np.frombuffer(_TAIL, np.uint16)
    tail.view(np.uint8)[-1, 0] = ord("\n")
    src.reshape(rows, cols, 16)[:, :, 12:] = tail

    zero = x == 0
    kind = np.where((k >= -4) & (k < 17), k + 4, _EXP_KIND + 2 * (k > 0) + (np.abs(k) >= 100))
    kind = np.where(ok, kind, np.where(zero, _ZERO_KIND, _FALLBACK_KIND))
    fallback = np.flatnonzero(kind == _FALLBACK_KIND)
    key = (kind * 17 + np.where(ok, last, 0)) * 2 + (np.signbit(x) & (ok | zero))
    del k, ok, last, zero, kind
    # Layout, byte gather and NUL compaction, _PASS cells at a time.  A layout
    # key is below 34 * 27 and an index below 32 * cells (a layout's source
    # bytes are 0-31), so "clip" and "wrap" move none; in the default mode
    # "raise", numpy would buffer `out`.
    layouts, data = _LAYOUTS.table(key), src.view(np.uint8).ravel()
    offsets, pieces = np.arange(0, 32 * _PASS, 32)[:, None], []
    for start in range(0, x.size, _PASS):
        keys = key[start:start + _PASS]
        index = layouts.take(keys, axis=0, out=_kept(work, "index", (keys.size, _WIDTH), np.intp),
                             mode="clip")
        index += offsets[:keys.size]
        out = data[32 * start:].take(index, out=_kept(work, "out", index.shape, np.uint8),
                                     mode="wrap")
        mask = np.not_equal(out, 0, out=_kept(work, "mask", out.shape, bool))
        pieces.append(out[mask].tobytes().decode("ascii"))
    text = "".join(pieces)
    if not fallback.size:
        return text
    parts = text.split("\x01")
    cells = [_fallback(v) for v in x[fallback].tolist()]
    return parts[0] + "".join(cell + part for cell, part in zip(cells, parts[1:]))
