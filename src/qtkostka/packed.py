"""Kronecker-packed q-free Laurent polynomials: the format of the KL side.

A q-free coefficient f = sum_e c_e v^e is held as the single Python int

    f(2^WIDTH) * 2^(WIDTH * off),

that is, v is replaced by 2^WIDTH and every exponent is lifted by the window
offset off.  A value at offset off therefore holds the exponents e >= -off
only, and the int is exact for any coefficients: adding two values at one
offset is int +, and multiplying by a polynomial p in Z[v] (exponents >= 0)
is int * by p packed at offset 0, which keeps the offset.

Exactness of reading back.  The coefficients are the balanced base-2^WIDTH
digits of the int only while every |c_e| < 2^(WIDTH-1); otherwise a digit
carries into its neighbour.  So every packed value travels with a proven
bound on its coefficients, and the code that decodes a value, compares two
values or drops a digit first passes that bound through check_bound.  Two
values whose bounds fit are equal as ints exactly when they are equal as
polynomials.

Exactness of the window.  Multiplying by v^-1 is the one operation that can
push a term below -off.  shift_down checks that the digit it drops is zero
(under a fitting bound, a zero residue mod 2^WIDTH is a zero coefficient), so
a term that would leave the window raises ConsistencyError instead of being
lost.
"""

from __future__ import annotations

import struct

from .coeffs import CoeffPoly, ConsistencyError

# Digit width in bits.  Read at call time everywhere, never bound early.
WIDTH = 32


def offset(weight, n):
    """The window offset of the involution rows of weight `weight` at rank n.

    d(M^lambda) is the Phibar word over the |lambda| letters of the column
    word of lambda, applied to M^0; each Phibar_m is omega followed by n - m
    <= n - 1 inverse generators, and an inverse generator moves a v exponent
    by at most one.  So every exponent of a row lies in
    [-|lambda|(n-1), |lambda|(n-1)], and so does its bar.
    """
    return weight * (n - 1)


def row_limit():
    """The largest bound an involution row carries between exact decodes.

    2^(WIDTH-22).  Unless a row's exact coefficients are larger, its bound
    then stays below 3 * 2^(WIDTH-22), so an orbit sum of the KL solve,
    bounded by its entry count times the row's bound, fits for orbits of
    fewer than 2^20 entries.  For M^_(3,1,1) at rank 10 the largest such
    bound is 4536.
    """
    return 1 << max(WIDTH - 22, 0)


def check_bound(bound, what):
    """Raise unless coefficients bounded by `bound` decode uniquely at WIDTH."""
    if bound >= 1 << (WIDTH - 1):
        raise ConsistencyError(
            "%s: coefficient bound %d does not fit the %d-bit packing width"
            % (what, bound, WIDTH)
        )


def encode(f, off):
    """Pack the q-free polynomial f at offset off."""
    k = WIDTH
    x = 0
    for (e, q), c in f.terms.items():
        if q:
            raise ConsistencyError("packing a polynomial involving q: %r" % f)
        if e < -off:
            raise ConsistencyError(
                "v^%d lies below the packing window at offset %d" % (e, off)
            )
        x += c << (k * (e + off))
    return x


# struct codes of one unsigned little-endian digit, by WIDTH
_DIGIT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _biased_digits(x):
    """The digits of x, each plus 2^(WIDTH-1), lowest first.

    With every coefficient in (-2^(WIDTH-1), 2^(WIDTH-1)), adding
    2^(WIDTH-1) to each digit position makes every digit nonnegative and
    below 2^WIDTH, so the sum's plain bytes are the digits with no carry.
    """
    k = WIDTH
    nbytes = k // 8
    count = abs(x).bit_length() // k + 1
    bias = int.from_bytes((b"\0" * (nbytes - 1) + b"\x80") * count, "little")
    raw = (x + bias).to_bytes(nbytes * count, "little")
    return struct.unpack("<%d%s" % (count, _DIGIT_CODES[k]), raw)


def decode(x, off):
    """The polynomial packed as x at offset off; its bound must fit."""
    half = 1 << (WIDTH - 1)
    out = CoeffPoly.__new__(CoeffPoly)
    out.terms = {
        (pos - off, 0): d - half for pos, d in enumerate(_biased_digits(x)) if d != half
    }
    return out


def max_coeff(x):
    """The largest |coefficient| of x, read exactly; its bound must fit."""
    digits = _biased_digits(x)
    half = 1 << (WIDTH - 1)
    return max(max(digits) - half, half - min(digits))


def shift_down(x):
    """x times v^-1 at the same offset; the dropped digit must be zero."""
    k = WIDTH
    if x & ((1 << k) - 1):
        raise ConsistencyError(
            "a v^-1 shift drops a nonzero digit: the term leaves its packing window"
        )
    return x >> k
