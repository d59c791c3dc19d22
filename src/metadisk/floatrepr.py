"""Python's ``repr`` of float64 arrays, spelled in numpy, byte for byte.

``repr`` writes the shortest decimal digits that read back to the same
double, the nearest to it if several are that short and the even one on a
tie; it writes them in fixed notation when the decimal point position decpt
(x = 0.D * 10**decpt) meets -4 < decpt <= 16, else with an exponent.  CPython
finds the digits with dtoa, which runs in bignum arithmetic for most doubles.

Here the digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; the algorithm of Java 19's ``Double.toString``),
vectorized on 64-bit integers.  For v = c * 2**q it takes k =
floor(log10(2**q)) and the candidates sv = floor(v * 10**-k), sv + 1 and the
multiples of ten sp10 <= sv < sp10 + 10.  It picks the one multiple of ten
inside the rounding interval of v if there is exactly one, else the one of sv
and sv + 1 inside it, else the nearer, the even one on a tie.  There is no
minimum of two digits, unlike Java.

Every double that ``repr`` writes in fixed notation, zero aside, is normal
with 2**-14 <= |v| < 2**54, so -20 <= k <= 0.  There 10**-k is 5**-k < 2**47
times a power of two, and Schubfach's rounded-to-odd products with a 126-bit
approximation of 10**-k can be formed exactly instead: 4 * 10**-k * v is
N / 2**s with N = 5**-k * 16c, one 47 x 57-bit product in 32-bit limbs, and
each comparison of a candidate with an end of the interval is one of two
integers below 2**51.  Two refinements of Schubfach change no digit in this
band, so they are left out.  The ends of the interval count when c is even,
but an end meets a candidate only when q = 1, where the upper end v + 1 is
sv + 1 and sv = v is nearer.  Below a power of two (c = 2**52) the interval
is narrower, but for each of the band's 68 powers of two the full interval
gives ``repr``'s digits, which the tests check.

Each float is laid out in a fixed-width, NUL-padded cell: its sign, ``0.``,
up to three leading zeros, 17 digits each followed by a slot for the point,
and a ``.0`` tail, then a separator.  Every other float (exponent notation,
subnormals, nan, +-inf) has ``repr(float(x))`` written into its cell, so
there is one layout.  Dropping the NULs leaves the text.

The kernel keeps to cheap numpy loops: remainders are x - x // 10 * 10, as
numpy's ``//`` by a constant multiplies where its ``%`` divides;
selections are integer blends or ``np.copyto(where=)``; the cell of each
float is its template (sign, leading zeros, point) taken by decimal point
position, and the digits, written as uint16 slots into an array shaped like
the cells, with the ``.0`` tail in the last slot, are OR-ed into the cells in
one contiguous pass.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)

CELL = 42  # bytes per float: its spelling, NUL padded, then a separator
_REPR = CELL - 1  # the longest repr, -2.2250738585072014e-308, takes 24

# biased exponents of the normal doubles with 2**-14 <= |x| < 2**54
_BQ_LO, _BQ_HI = 1023 - 14, 1023 + 53


def _exponent_tables() -> dict:
    """Per biased exponent bq: k, the 32-bit limbs of 5**-k, the shift s with
    X = 4 * 10**-k * v = N / 2**s for N = 5**-k * 16c, and half the rounding
    interval of X, in units of 2**-s.

    Exponents outside the band get harmless entries: their floats are
    spelled by repr.
    """
    rows = {name: np.zeros(2048, np.int64) for name in ("k", "a0", "a1", "s",
                                                         "half")}
    rows["a0"][:] = rows["s"][:] = 1
    for bq in range(_BQ_LO, _BQ_HI + 1):
        q = bq - 1075
        k = (q * 661971961083) >> 41  # floor(log10(2**q))
        rows["k"][bq] = k
        rows["a0"][bq], rows["a1"][bq] = 5 ** -k % 2 ** 32, 5 ** -k >> 32
        rows["s"][bq] = 2 - q + k
        rows["half"][bq] = 5 ** -k * 8
    rows["unit"] = 1 << rows["s"]
    return rows


def _groups() -> np.ndarray:
    """The ASCII of every 4-digit group, a digit per little-endian uint16
    (every other byte of a cell), as one uint64; then the same groups with
    their trailing zeros as NULs."""
    n = np.arange(10_000)
    ascii = np.empty((2, 10_000, 4), "<u2")
    trailing = np.ones(10_000, bool)
    for i in range(3, -1, -1):
        n, digit = np.divmod(n, 10)
        ascii[:, :, i] = digit + 48
        trailing &= digit == 0
        ascii[1, trailing, i] = 0
    return ascii.view(np.uint64).ravel()


def _templates() -> np.ndarray:
    """Cells that spell 0.D * 10**decpt with every digit NUL: the sign, ``0.``
    and leading zeros, a '0' in each digit slot before the point, the point
    and the separator; row decpt + 3, plus 20 with a minus sign."""
    rows = np.zeros((2, 20, CELL), np.uint8)
    for decpt in range(-3, 17):
        row = rows[:, decpt + 3]
        if decpt <= 0:
            row[:, 1:3 - decpt] = list(b"0." + b"0" * -decpt)
        else:
            row[:, 6:6 + 2 * decpt:2] = 48
            row[:, 5 + 2 * decpt] = 46
    rows[1, :, 0] = 45
    rows[..., CELL - 1] = 44
    return rows.reshape(40, CELL)


_TABLES = _exponent_tables()
_GROUPS = _groups()
_TOP = _GROUPS.copy()  # the leading group "000d": its three zeros NUL
_TOP.view("<u2").reshape(-1, 4)[:, :3] = 0
_TEMPLATES = _templates()


def _shortest(mag):
    """Schubfach's f and k, with f * 10**k the shortest decimal that reads
    back to each positive double ``mag`` (as uint64) of the band, and
    10**15 <= f < 10**17; garbage for the others."""
    bq = (mag >> _U(52)).view(np.int64)
    tab = {name: table.take(bq) for name, table in _TABLES.items()}
    s, unit, half = tab["s"], tab["unit"], tab["half"]

    # N = a * b, a = 5**-k < 2**47 and b = 16c < 2**57, in 32-bit limbs
    b = ((mag & _U((1 << 52) - 1)) | _U(1 << 52)) << _U(4)
    a0, a1 = tab["a0"].view(np.uint64), tab["a1"].view(np.uint64)
    b0, b1 = b & _M32, b >> _U(32)
    p00 = a0 * b0
    mid = a0 * b1 + a1 * b0 + (p00 >> _U(32))
    lo = (mid << _U(32)) | (p00 & _M32)
    hi = a1 * b1 + (mid >> _U(32))
    s_u = s.view(np.uint64)
    whole = ((lo >> s_u) | (hi << (_U(64) - s_u))).view(np.int64)

    # sv = floor(X / 4) = floor(10**-k v); X - 4 sv and X - 4 sp10 in units
    # of 2**-s, with sp10 = 10 floor(sv / 10)
    sv = whole >> 2
    sp10 = sv // 10 * 10
    above = ((whole & 3) << s) + (lo.view(np.int64) & (unit - 1))
    above10 = above + ((sv - sp10) << 2) * unit
    uin = above <= half
    win = (unit << 2) - above <= half
    upin = above10 <= half
    wpin = unit * 40 - above10 <= half
    # the nearer of sv and sv + 1, the even one on a tie
    near = (above > unit << 1) | ((above == unit << 1) & (sv & 1).astype(bool))
    one = uin ^ win
    f = sv + ((one & win) | (~one & near))
    np.copyto(f, sp10 + 10 * wpin, where=upin ^ wpin)
    return f, tab["k"]


def spell(x: np.ndarray) -> np.ndarray:
    """``repr(float(v)) + ','`` for every v in ``x``, each in a NUL-padded
    uint8 cell: an array of the shape of ``x`` plus (CELL,)."""
    shape = np.shape(x)
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    bits = x.view(np.uint64)
    mag = bits & _U((1 << 63) - 1)
    bq = mag >> _U(52)
    f, k = _shortest(mag)
    f10 = f * 10
    long = f10 >= 10 ** 17
    np.copyto(f10, f, where=long)
    f = f10
    decpt = k + 16 + long
    zero = mag == 0
    band = (bq >= _U(_BQ_LO)) & (bq <= _U(_BQ_HI))
    fast = band & (decpt > -4) & (decpt <= 16)
    np.copyto(decpt, 1, where=~fast)  # zero is outside the band
    np.copyto(f, 0, where=zero)
    fast |= zero

    # 17 digits, trailing zeros as NULs, in 4-digit groups from "000d", laid
    # out as the cells' uint16 slots: the three leading zeros of "000d" NUL,
    # the ".0" tail of an integer in slot 20
    hi = f // 10 ** 8
    lo = f - hi * 10 ** 8
    top = hi // 10 ** 8
    hi -= top * 10 ** 8
    hi_hi, lo_hi = hi // 10 ** 4, lo // 10 ** 4
    parts = (top, hi_hi, hi - hi_hi * 10 ** 4, lo_hi, lo - lo_hi * 10 ** 4)
    digits = np.empty((x.size, CELL // 2), "<u2")
    groups = np.ndarray((x.size, 5), np.uint64, digits, strides=(CELL, 8))
    later_zero = np.ones(x.size, bool)
    for i in range(4, -1, -1):
        table = _TOP if i == 0 else _GROUPS
        groups[:, i] = table.take(parts[i] + 10_000 * later_zero)
        later_zero &= parts[i] == 0
    # the ".0" of an integer: no digit at or after the point
    at_point = digits.ravel().take(np.arange(3, CELL // 2 * x.size, CELL // 2)
                                   + decpt)
    digits[:, -1] = ((at_point == 0) & (decpt > 0)) * np.uint16(48)

    cells = _TEMPLATES.take(decpt + 3 + 20 * (bits >> _U(63)).view(np.int64),
                            axis=0)
    cells.view("<u2")[...] |= digits  # one contiguous pass

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([repr(v) for v in x[slow].tolist()], f"S{_REPR}")
        cells[slow, :_REPR] = text.view(np.uint8).reshape(-1, _REPR)
    return cells.reshape(shape + (CELL,))
