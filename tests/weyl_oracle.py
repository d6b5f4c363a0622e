"""Single-k Weyl error references, used only by the tests.

:func:`weyl_error_str` renders e_k at one index through the library's
fixed-point path; :func:`weyl_error_within` checks a tolerance claim
exactly, by squaring, without any fixed-point root.
"""

from fractions import Fraction

from echtk.currents import KnotParams
from echtk.spectra import _WEYL_DIGITS, _WEYL_SCALE, _fixed_strs, _weyl_fixed


def weyl_error_str(kp: KnotParams, k: int, value: int) -> str:
    return _fixed_strs(_weyl_fixed(kp)(value, [k]), _WEYL_SCALE, _WEYL_DIGITS)[0]


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
