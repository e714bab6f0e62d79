"""Trace CSV text of float blocks, each cell with the bytes `%.17g` gives it.

Only a trace of more than one engine block imports this module; a one-block
trace's stacked block is formatted by `%.17g` itself (report.emit_trace_csv).

The kernel formats a whole block at once.  A cell x with 1e-280 <= |x| <=
1e280 has k = floor(log10|x|) and the 17 digits D = round-half-even(|x| *
10**(16 - k)), 10**16 <= D < 10**17.  The power of ten is split into hi + lo
from exact integers, and |x| * hi is formed exactly by Dekker's two-product
(Numer. Math. 18, 224, 1971), so the fraction of |x| * 10**(16 - k) is known
to about 5e-15.  Each cell's bytes are written in output order, four digits
a word, and a keep-mask, chosen by the `%g` notation for k, the position of
D's last nonzero digit and the sign, zeroes those it does not print, which
are then deleted.  A cell whose fraction is within `_TIE` of 1/2, one whose
log10 rounded across a power of ten, and one that is non-finite or out of
that range goes through `%.17g` itself (`_fallback`); a zero is written as
`0` or `-0`.  Tables are built on first use, masks for the layouts a block
meets, so importing this module builds no table row.
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

# A cell's source row, in output order: '-', '0.000', D's 17 digits each with a
# '.' slot after it, 'e+-', the 3 digits of |k|, the mark left where a fallback
# cell goes and the separator.  Constant bytes are written when a buffer is made.
_ROW = b"-0.000" + b"0." * 17 + b"e+-000\x01,"
_MINUS, _LEAD, _DIGIT0, _E, _K0, _MARK, _SEP = 0, 1, 6, 40, 43, 46, 47
_WIDTH = len(_ROW)
# Layout kinds: 0-20 for fixed notation at k = -4..16; 21-24 for exponent
# notation at k < -4 with 2 or 3 exponent digits, then k >= 17 with 2 or 3;
# then a zero and a fallback cell.  A layout key is (kind * 17 + last) * 2 +
# negative, where `last` indexes D's last nonzero digit.
_EXP_KIND, _ZERO_KIND, _FALLBACK_KIND = 21, 25, 26
# Cells masked per pass, an eighth of a 1,024-row block of 5 columns: 30 KB of mask.
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


def _keep(key: int) -> list[int]:
    """The keep-mask of one layout key: 255 at each source byte it prints."""
    kind, last, negative = key // 34, key // 2 % 17, key % 2
    point = kind - 4 if kind < _EXP_KIND else 0  # index of the digit before '.'
    if kind == _FALLBACK_KIND:
        kept = [_MARK]
    elif kind == _ZERO_KIND:
        kept = [_LEAD]
    elif point < 0:
        kept = [*range(_LEAD, _LEAD + 1 - point), *range(_DIGIT0, _DIGIT0 + 2 * last + 1, 2)]
    else:
        kept = [*range(_DIGIT0, _DIGIT0 + 2 * max(last, point) + 1, 2)]
        kept += [_DIGIT0 + 2 * point + 1] * (point < last)
        if kind >= _EXP_KIND:
            positive, three = divmod(kind - _EXP_KIND, 2)
            kept += [_E, _E + 2 - positive, *range(_K0 + 1 - three, _MARK)]
    kept = {_SEP, *kept, *[_MINUS] * negative}
    return [255 * (i in kept) for i in range(_WIDTH)]


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
_KEEPS = _LazyRows(34 * (_FALLBACK_KIND + 1), _WIDTH, np.uint8, _keep)


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bytes 'd.d.d.d.' of each of 0..9999 as one uint64; for each group
    i = 0..3 of D's digits 4i + 1 to 4i + 4, the index in D of its last nonzero
    digit, 0 if none; the two ASCII digits of 0..99 as uint16.  Written in place,
    as a temporary the size of a table would raise the peak."""
    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    words = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    lasts = np.zeros((4, 10, 10, 10, 10), np.int8)
    for j in range(4):  # digit j of 0..9999 runs along axis j
        words[..., 2 * j] = ascii.reshape(-1, *[1] * (3 - j))
        for i in range(4):
            lasts[(i, *[slice(None)] * j, slice(1, None))] = 4 * i + j + 1
    pairs = words[0, 0, ..., 4::2].copy()  # 00dd for dd = 0..99
    return words.view(np.uint64).ravel(), lasts.reshape(4, -1), pairs.view(np.uint16).ravel()


def _kept(work: dict, name: str, shape: tuple[int, int], dtype, row: bytes = b"") -> np.ndarray:
    """An array on a buffer that `work` keeps for the next block: uninitialized,
    or with each row set to `row` when the buffer is made."""
    size = shape[0] * shape[1]
    buf = work.get(name)
    if buf is None or buf.size < size:
        buf = work[name] = np.empty(size, dtype)
        if row:
            buf.reshape(-1, len(row))[:] = np.frombuffer(row, dtype)
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

    # A buffer per column count (a row's last cell ends in '\n').  D's digits
    # after its first go in four a word, the last four first, then its first
    # digit and |k|; `last` ends as the index in D of its last nonzero digit.
    words, lasts, pairs = _digit_words()
    src = _kept(work, f"src{cols}", (rows, cols * _WIDTH), np.uint8,
                (_ROW * cols)[:-1] + b"\n").reshape(x.size, _WIDTH)
    data, last = src.view(np.uint64), np.zeros(x.size, np.int8)
    for i in range(4, 0, -1):
        q = d // 10_000
        d -= 10_000 * q
        data[:, i] = words.take(d)
        np.maximum(last, lasts[i - 1].take(d), out=last)
        d = q
    src[:, _DIGIT0] = d + ord("0")
    hundreds = np.abs(k) // 100
    src[:, _K0] = hundreds + ord("0")
    src.view(np.uint16)[:, _K0 // 2 + 1] = pairs.take(np.abs(k) - 100 * hundreds)
    del d, q, hundreds

    zero = x == 0
    kind = np.where((k >= -4) & (k < 17), k + 4, _EXP_KIND + 2 * (k > 0) + (np.abs(k) >= 100))
    kind = np.where(ok, kind, np.where(zero, _ZERO_KIND, _FALLBACK_KIND))
    fallback = np.flatnonzero(kind == _FALLBACK_KIND)
    key = (kind * 17 + np.where(ok, last, 0)) * 2 + (np.signbit(x) & (ok | zero))
    del k, ok, last, zero, kind
    # Mask and NUL delete, _PASS cells at a time.  Keys are below 34 * 27, so
    # "clip" moves none; in the default mode "raise", numpy would buffer `out`.
    keeps, pieces = _KEEPS.table(key).view(np.uint64), []
    for start in range(0, x.size, _PASS):
        keys = key[start:start + _PASS]
        buf = keeps.take(keys, axis=0, out=_kept(work, "mask", (keys.size, _WIDTH // 8), np.uint64),
                         mode="clip")
        np.bitwise_and(buf, data[start:start + keys.size], out=buf)
        pieces.append(buf.tobytes().translate(None, b"\0").decode("ascii"))
    text = "".join(pieces)
    if not fallback.size:
        return text
    parts = text.split("\x01")
    cells = [_fallback(v) for v in x[fallback].tolist()]
    return parts[0] + "".join(cell + part for cell, part in zip(cells, parts[1:]))
