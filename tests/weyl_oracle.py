"""Single-k Weyl error references, used only by the tests.

:func:`weyl_error_str` renders e_k at one index with its own two floors and
a divmod rendering, sharing no code with ``echtk.spectra``;
:func:`weyl_error_within` checks a tolerance claim exactly, by squaring,
without any fixed-point root.
"""

from fractions import Fraction
from math import isqrt

from echtk.currents import KnotParams


def divmod_fixed(scaled: int, scale_digits: int, digits: int) -> str:
    """The fixed-point rendering as a divmod of the rounded magnitude: half
    up in absolute value, with the sign of the unrounded value."""
    drop = 10 ** (scale_digits - digits)
    whole, frac = divmod((abs(scaled) + drop // 2) // drop, 10**digits)
    return "%s%d.%0*d" % ("-" if scaled < 0 else "", whole, digits, frac)


def weyl_fixed(kp: KnotParams, k: int, value: int) -> int:
    """e_k = (N_k - sqrt(2*k*pq)) / pq floored to 18 decimals, N_k = value."""
    return (value * 10**18 - isqrt(2 * kp.pq * 10**36 * k)) // kp.pq


def weyl_error_str(kp: KnotParams, k: int, value: int) -> str:
    """e_k floored to 18 decimals, then rounded half up in magnitude to 12."""
    return divmod_fixed(weyl_fixed(kp, k, value), 18, 12)


def weyl_error_within(kp: KnotParams, k: int, value: int, bound: Fraction) -> bool:
    """Exact check that |N_k/pq - sqrt(2k/pq)| <= bound, done by squaring."""
    # |value - sqrt(t)| <= c with t = 2*k*pq and c = bound*pq
    t = 2 * k * kp.pq
    c = Fraction(bound) * kp.pq
    if c.denominator == 1:
        ci = c.numerator
        return (value + ci) ** 2 >= t and (value - ci <= 0 or (value - ci) ** 2 <= t)
    upper = (value + c) ** 2 >= t
    lower = value - c <= 0 or (value - c) ** 2 <= t
    return upper and lower
