"""Grid CSV kernel: the CSV lines of a grid of doubles, byte for byte the
lines ",".join(map(repr, row)) + "\\r\\n", formed by numpy a block of rows
at a time.

Each cell's shortest round-trip digits come from integer and double-double
arithmetic that certifies its result (Loitsch, PLDI 2010; Adams, PLDI 2018);
a cell the kernel cannot certify is written by repr.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# A block runs about 100 numpy calls, each over one value per cell, so its
# cell count, not its row count, sets the speed and the memory: the calls
# cost less per cell in larger blocks, and the kernel's arrays, about 110
# bytes a cell, stay within a core's L2 cache and add less to a process's
# peak in smaller ones. Each block takes as many whole rows as fit, at least
# one.
_GRID_BLOCK_CELLS = 5120
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_MARGIN = 1e-9        # closest a certified decision may come to a boundary, in scaled units
_LOG10_2 = math.log10(2.0)
_U64 = np.dtype("<u8")
_E2_MIN, _E2_MAX = -930, 931  # frexp exponents of the doubles in [1e-280, 1e280]
_DECPT_RANGE = 300    # |decpt| bound of the layout tables; certified cells reach 281
_STEPS = np.array([1.0, 10.0, 100.0])


def _pow10_parts(q: int) -> tuple:
    """10^q as hi + lo, two doubles that together carry it to about 2^-106
    relative, and Dekker's halves of hi. Built from Python integers, whose true
    division rounds correctly."""
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    hi = num / den
    n, d = hi.as_integer_ratio()
    lo = (num * d - n * den) / (den * d)
    big = _SPLIT * hi
    hi_head = big - (big - hi)
    return hi, lo, hi_head, hi - hi_head


@functools.cache
def _exponent_table() -> tuple:
    """Lookup tables indexed by e2 - _E2_MIN, for the frexp exponents e2 of
    the doubles _shortest_decimals certifies, built on first use.

    With e10 = floor((e2 - 1) log10 2) they hold decpt = 1 + e10, the four
    parts of 10^(16 - e10) from _pow10_parts, and h = hi 2^(e2 - 54), half an
    ulp of a double of exponent e2 in units of 10^(e10 - 16), exact because
    hi is a double.
    """
    e2 = np.arange(_E2_MIN, _E2_MAX + 1)
    e10 = np.floor((e2 - 1) * _LOG10_2).astype(np.int64)
    parts = np.array([_pow10_parts(16 - q) for q in range(e10[0], e10[-1] + 1)])
    hi, lo, hi_head, hi_tail = parts[e10 - e10[0]].T.copy()
    return 1 + e10, hi, lo, hi_head, hi_tail, np.ldexp(hi, e2 - 54)


def _shortest_decimals(x: np.ndarray) -> tuple:
    """Shortest round-trip decimals of the magnitudes a = |x| of the doubles x,
    as repr chooses them.

    Returns (c, decpt, nd, ok). The int64 c lies in [10^16, 10^17) and holds
    the nd significant digits followed by zeros; the decimal is 0.d1...d_nd
    times 10^decpt. Zero reads c = 0, decpt = nd = 1. ok is False where the
    result is not certified: a outside [1e-280, 1e280] other than zero (so
    subnormals, inf and nan), a power of two, whose rounding interval is not
    symmetric, and any decision closer than _MARGIN to a boundary. Near 1e16
    the ends of the rounding interval are exact in the scaled units, so every
    double in [1e16, 1e17) goes to repr, about half of those in the decades
    on either side, and a share falling about fivefold per decade beyond
    (1e-4 at 1e10 and at 1e22).

    With e10 = floor((e2 - 1) log10 2) <= log10 a, y = a 10^(16 - e10) lies in
    [10^16, 2 10^17). Dekker's product gives y as p + s exactly enough (numpy
    has no fused multiply-add), and y is split as base + z with base a multiple
    of 100. Half an ulp of a is h in the same units, 0.55 < h < 22.3, and every
    decimal in z +- h reads back as a. The shortest is a multiple of the
    largest power of ten with a multiple inside, and repr takes the one
    closest to z; inside a width below 100 that is the nearest multiple of 1,
    10 or 100, and a multiple of 100 may carry more zeros. c >= 10^16 because
    y >= 10^16: when z - h reaches below it, 10^16 itself is the multiple.
    e10, the parts of 10^(16 - e10) and h come from _exponent_table; the
    steps reuse their arrays through out=, and every sum keeps the order of
    the formulas above.
    """
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= 1e-280) & (a <= 1e280)
    np.copyto(a, 1.5, where=~ok)  # a stand-in with decpt 1, which zero keeps
    mant, e2 = np.frexp(a)
    ok &= mant != 0.5
    at = np.subtract(e2, _E2_MIN, dtype=np.intp)
    decpt, scale, scale_lo, head, tail, h = (col.take(at) for col in _exponent_table())
    # Dekker's product: p + s = a (scale + scale_lo), with a = a_head + a_tail
    p = np.multiply(a, scale, out=scale)
    a_head = a * _SPLIT
    a_tail = np.subtract(a_head, a, out=mant)
    a_head -= a_tail
    np.subtract(a, a_head, out=a_tail)
    s = a_head * head
    s -= p
    a_head *= tail
    s += a_head
    head *= a_tail
    s += head
    tail *= a_tail
    s += tail
    scale_lo *= a
    s += scale_lo
    # the integer steps reuse the arrays of p and scale_lo, both read for the last time
    c = scale_lo.view(np.int64)
    np.copyto(c, p, casting="unsafe")
    base = np.floor_divide(c, 100, out=p.view(np.int64))
    base *= 100
    c -= base
    z = np.add(c, s, out=s)
    low = np.subtract(z, h, out=head)
    high = np.add(z, h, out=h)
    for end in (low, high):
        np.rint(end, out=tail)
        tail -= end
        np.abs(tail, out=tail)
        ok &= tail > _MARGIN
    has100 = ((low < 0.0) & (high > 0.0)) | ((low < 100.0) & (high > 100.0))
    np.multiply(high, 0.1, out=tail)
    np.floor(tail, out=tail)
    tail *= 10.0
    zeros = np.greater(tail, low, out=at)  # a multiple of 10 inside
    zeros += has100
    step = _STEPS.take(zeros, out=tail)
    v = np.divide(z, step, out=z)
    nearest = np.rint(v, out=a_head)
    v -= nearest
    np.abs(v, out=v)
    ok &= v < 0.5 - _MARGIN  # not a tie between two multiples
    nearest *= step
    np.copyto(c, nearest, casting="unsafe")
    c += base
    rows = np.flatnonzero(has100)
    rest = c[rows] // 100
    more = np.zeros_like(rest)
    for k in (8, 4, 2, 1):  # up to 15 more zeros, counted in binary
        cut = rest // 10 ** k
        whole = cut * 10 ** k == rest
        np.copyto(rest, cut, where=whole)
        more += k * whole
    zeros[rows] += more
    over = c >= 10 ** 17
    np.floor_divide(c, 10, out=c, where=over)
    decpt += over
    zeros -= over
    c[zero] = 0
    zeros[zero] = 16
    ok |= zero
    return c, decpt, np.subtract(17, zeros, out=zeros), ok


@functools.cache
def _layout_tables() -> tuple:
    """Lookup tables of the cell layout in _cell_words, built on first use.

    form[decpt + _DECPT_RANGE] is 17 f - 1, with f = decpt + 3 for the
    positional forms, decpt in [-3, 16], and f = 20 for the exponent form;
    exponent[...] holds the exponent's bytes "e-05", "e+16", "e+308" in bytes
    25-29 of a cell. masks[:, 17 f + nd - 1] are eight words: words 1 and 2
    of the digits kept before the point, words 1 to 3 of those kept after it
    (moved one byte up), and words 0 to 2 of the fixed characters, the point
    and the "0.000" prefix. Word 0 of the digits before the point is always
    byte 7, the first digit. digits4[k] holds the four ASCII digits of k <
    10^4, the most significant in the lowest byte.
    """
    decpts = range(-_DECPT_RANGE, _DECPT_RANGE + 1)
    form = np.array([17 * (d + 3 if -3 <= d <= 16 else 20) - 1 for d in decpts])
    exponent = np.array([0 if -3 <= d <= 16 else
                         int.from_bytes(f"e{d - 1:+03d}".encode(), "little") << 8
                         for d in decpts], _U64)
    masks = np.zeros((8, 21 * 17), _U64)
    for f in range(21):
        for nd in range(1, 18):
            if f == 20:
                kept, point, prefix = nd, 8 if nd > 1 else 32, b""
            elif f >= 4:  # d.dd, dd.d and dd0.0: zeros up to the point and one after it
                kept, point, prefix = max(nd, f - 2), f + 4, b""
            else:         # 0.ddd to 0.000ddd
                kept, point, prefix = nd, 32, b"0." + b"0" * (3 - f)
            before = sum(0xFF << 8 * i for i in range(7, min(7 + kept, point)))
            after = sum(0xFF << 8 * i for i in range(point + 1, 8 + kept))
            dot = 0x2E << 8 * point if point < 32 else 0
            chars = int.from_bytes(b"\0" + prefix, "little") | dot
            masks[:, 17 * f + nd - 1] = [v >> 64 * k & 2 ** 64 - 1 for v, k in (
                (before, 1), (before, 2), (after, 1), (after, 2), (after, 3),
                (chars, 0), (chars, 1), (chars, 2))]
    k = np.arange(10 ** 4)
    digits4 = sum((k // 10 ** (3 - i) % 10 + 0x30) << 8 * i for i in range(4)).astype("<u4")
    return form, exponent, masks, digits4


def _digit_words(c: np.ndarray) -> tuple:
    """The 17 decimal digits of each c in [0, 10^17) in ASCII: two words of
    eight digits, the most significant in the lowest byte, and the last
    digit, formed in the array of c."""
    u = np.uint64
    digits4 = _layout_tables()[3]
    last = c.view(_U64)
    halves = np.empty((2, c.size), _U64)
    np.floor_divide(last, u(10 ** 9), out=halves[0])
    last -= halves[0] * u(10 ** 9)
    np.floor_divide(last, u(10), out=halves[1])
    last -= halves[1] * u(10)
    last += u(0x30)
    quads = halves // u(10 ** 4)
    halves -= quads * u(10 ** 4)
    words = np.empty_like(halves)
    digits4.take(quads, out=words.view(np.uint32)[:, 0::2])  # the low half of each word
    digits4.take(halves, out=words.view(np.uint32)[:, 1::2])
    return words[0], words[1], last


def _cell_words(block: np.ndarray) -> np.ndarray:
    """The CSV lines of a 2-D block of doubles, each row
    ",".join(map(repr, row)) + "\\r\\n", as an array of four words a cell
    whose bytes, with their NUL bytes deleted, are the lines byte for byte.

    Each cell is laid out in 32 bytes, four little-endian words: byte 0 the
    sign, bytes 1-5 the "0." and zeros of 0 >= decpt >= -3, bytes 7-24 the
    digits and the point, bytes 25-29 the exponent, bytes 30-31 the
    separator. repr writes d.ddde+XX when decpt <= -4 or decpt > 16, and
    positional notation otherwise. The digits before the point start at
    byte 7 and those after it at byte 8, so word k of the digits moved one
    byte up is word k - 1 of the digits as _digit_words gives them. Every
    array is one value per cell, so numpy runs each step over contiguous
    memory, and the words are written straight into the rows of out.
    """
    u = np.uint64
    x = block.ravel()
    c, decpt, nd, ok = _shortest_decimals(x)
    form, exponent, masks, _ = _layout_tables()
    decpt += _DECPT_RANGE
    layout = np.add(nd, form.take(decpt), out=nd)
    d0, d1, last = _digit_words(c)
    out = np.empty((x.size, 4), _U64)
    # each word forms in a contiguous array and is written to its column once
    word = x.view(_U64) >> u(63)
    word *= u(0x2D)  # the sign
    word |= d0 << u(56)
    np.bitwise_or(word, masks[5].take(layout), out=out[:, 0])
    for k, (now, next_) in enumerate(((d0, d1), (d1, last)), 1):
        word = now >> u(8)
        word |= next_ << u(56)
        word &= masks[k - 1].take(layout)
        moved = masks[k + 1].take(layout)
        moved &= now
        word |= moved
        np.bitwise_or(word, masks[k + 5].take(layout), out=out[:, k])
    word = masks[4].take(layout)
    word &= last
    word |= exponent.take(decpt)
    np.bitwise_or(word, u(0x2C << 48), out=out[:, 3])  # the separator ","
    out[block.shape[1] - 1::block.shape[1], 3] ^= u((0x2C ^ 0x0A0D) << 48)  # "\r\n" ends a row
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array([repr(v) for v in x[bad].tolist()], dtype="S24")
        out[bad, :3] = text.view(_U64).reshape(bad.size, 3)
        out[bad, 3] &= u(0xFFFF << 48)
    return out


def grid_lines(t: np.ndarray, values: np.ndarray):
    """The CSV lines of the rows [t[i], *values[i]], as bytes a block of rows
    at a time."""
    height = max(1, _GRID_BLOCK_CELLS // (1 + values.shape[1]))
    block = np.empty((height, 1 + values.shape[1]))
    for start in range(0, len(t), height):
        rows = block[:len(t) - start]
        rows[:, 0] = t[start:start + height]
        rows[:, 1:] = values[start:start + height]
        yield _cell_words(rows).tobytes().translate(None, b"\0")
