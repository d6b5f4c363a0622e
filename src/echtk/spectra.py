"""Action and linking spectra, Weyl-law error terms, cobordism
obstructions, and the two quantitative dynamics bounds.

Square roots are evaluated in fixed-point integer arithmetic so that sign
and tolerance claims never depend on floating-point rounding.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .currents import KnotParams
from .exact import InfRat
from .nseq import nk_upto, repeat_counts

_GUARD = 6  # extra decimal digits carried through fixed-point roots
_WEYL_DIGITS = 12  # decimals of every rendered Weyl error


def sqrt_decimal(value: Fraction | int, digits: int = 12) -> str:
    """Decimal string of sqrt(value) rounded to the given digits."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("square root of a negative value")
    a, b = value.numerator, value.denominator
    scale = 10 ** (digits + _GUARD)
    # sqrt(a/b) = sqrt(a*b)/b
    root = isqrt(a * b * scale * scale) // b
    return _fixed_to_str(root, digits + _GUARD, digits)


def _fixed_to_str(scaled: int, scale_digits: int, digits: int) -> str:
    """Round a fixed-point integer down from scale_digits to digits."""
    drop = 10 ** (scale_digits - digits)
    whole, frac = divmod((abs(scaled) + drop // 2) // drop, 10**digits)
    return "%s%d.%0*d" % ("-" if scaled < 0 else "", whole, digits, frac)


def _weyl_fixed(
    kp: KnotParams, points: Iterable[tuple[int, int]]
) -> tuple[int, Iterator[int]]:
    """The fixed-point Weyl error at each ``(k, N_k)`` of ``points``.

    Returns ``(scale_digits, errors)``: ``errors`` yields
    (N_k - sqrt(2*k*p*q)) / (p*q) floored to scale_digits =
    _WEYL_DIGITS + _GUARD decimals, ready for
    ``_fixed_to_str(e, scale_digits, _WEYL_DIGITS)``.
    """
    pq = kp.pq
    scale_digits = _WEYL_DIGITS + _GUARD
    scale = 10**scale_digits
    square = 2 * pq * scale * scale  # isqrt(square * k) is sqrt(2*k*pq) in fixed point
    return scale_digits, ((value * scale - isqrt(square * k)) // pq for k, value in points)


def weyl_error_str(kp: KnotParams, k: int, value: int) -> str:
    scale_digits, (error,) = _weyl_fixed(kp, [(k, value)])
    return _fixed_to_str(error, scale_digits, _WEYL_DIGITS)


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


class SpectrumEntry(NamedTuple):
    """Index k of the action spectrum, held as plain integers: ``value`` is
    N_k and ``repeats`` the number of j <= k with N_j = N_k.  ``ck`` is one
    Fraction N_k/pq shared by every index of a run."""

    k: int
    value: int
    repeats: int
    weyl_error: str
    ck: Fraction

    @property
    def ck_link(self) -> InfRat:
        """The linking level N_k + (repeats - 1)*d."""
        return InfRat(self.value, self.repeats - 1)


def action_spectrum(kp: KnotParams, k_max: int) -> list[SpectrumEntry]:
    """c_k = N_k(p,q)/pq for k = 0..k_max, with linking levels and Weyl
    error terms attached."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    values = nk_upto(kp.p, kp.q, k_max)
    errors = _weyl_error_strs(kp, values)
    entries: list[SpectrumEntry] = []
    k = 0
    for value, length in repeat_counts(values):
        ck = Fraction(value, kp.pq)
        for repeats in range(1, length + 1):
            entries.append(SpectrumEntry(k, value, repeats, errors[k], ck))
            k += 1
    return entries


def linking_spectrum(kp: KnotParams, k_max: int) -> list[InfRat]:
    """Threshold levels of the knot filtration per index: N_k plus the
    infinitesimal repeat correction d*(repeats - 1)."""
    out: list[InfRat] = []
    for value, length in repeat_counts(nk_upto(kp.p, kp.q, k_max)):
        out.extend(InfRat(value, j) for j in range(length))
    return out


def _weyl_error_strs(kp: KnotParams, values: list[int]) -> list[str]:
    """e_k rendered for each index of ``values`` = N_0..N_k."""
    scale_digits, errors = _weyl_fixed(kp, enumerate(values))
    return [_fixed_to_str(e, scale_digits, _WEYL_DIGITS) for e in errors]


def _run_ends(values: list[int]) -> Iterator[tuple[int, int]]:
    """``(k, N_k)`` at the first and the last index of each run of equal N_k."""
    last = -1
    for value, length in repeat_counts(values):
        first, last = last + 1, last + length
        yield first, value
        yield last, value


def _weyl_sup(kp: KnotParams, values: list[int]) -> str:
    """max |e_k| rendered over the indices of ``values`` = N_0..N_k.

    Only the two ends of each run of equal N_k are evaluated.  Within a run
    N_k is fixed and the root grows with k, so the floored error does not
    increase, and its largest absolute value sits at one of the ends.
    """
    scale_digits, errors = _weyl_fixed(kp, _run_ends(values))
    return _fixed_to_str(max(map(abs, errors), default=0), scale_digits, _WEYL_DIGITS)


def weyl_sup(kp: KnotParams, k_max: int) -> str:
    """The supremum of |e_k| over k = 0..k_max, to 12 digits, without the
    per-k rows."""
    return _weyl_sup(kp, nk_upto(kp.p, kp.q, k_max))


def weyl_scan(kp: KnotParams, k_max: int) -> tuple[list[tuple[int, str]], str]:
    """Error terms e_k for k = 0..k_max, to 12 digits, and the supremum of |e_k|."""
    values = nk_upto(kp.p, kp.q, k_max)
    return list(enumerate(_weyl_error_strs(kp, values))), _weyl_sup(kp, values)


@dataclass(frozen=True)
class CobordismResult:
    applicable: bool
    consistent: bool
    obstructed_at: int | None
    k_max: int

    def describe(self) -> str:
        if not self.applicable:
            return "not applicable: source pq is smaller than target p'q'"
        if self.consistent:
            return f"consistent up to k={self.k_max}"
        return f"obstructed at k={self.obstructed_at}"


def cobordism_obstruction(
    frm: tuple[int, int], to: tuple[int, int], k_max: int
) -> CobordismResult:
    """Scan for a violation of N_k(p,q) >= N_k(p',q')."""
    kp_from = KnotParams(*frm)
    kp_to = KnotParams(*to)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if kp_from.pq < kp_to.pq:
        return CobordismResult(False, False, None, k_max)
    src = nk_upto(kp_from.p, kp_from.q, k_max)
    dst = nk_upto(kp_to.p, kp_to.q, k_max)
    for k, (a, b) in enumerate(zip(src, dst)):
        if a < b:
            return CobordismResult(True, False, k, k_max)
    return CobordismResult(True, True, None, k_max)


@dataclass(frozen=True)
class BoundResult:
    hypothesis_met: bool
    bound_squared: Fraction | None
    bound: str | None  # decimal string of the square root

    def describe(self) -> str:
        if not self.hypothesis_met:
            return "hypothesis not met: no bound"
        return f"bound {self.bound} (squared: {self.bound_squared})"


def action_linking_bound(
    kp: KnotParams,
    delta: Fraction,
    volume: Fraction,
) -> BoundResult:
    """Mean action-per-linking bound sqrt(V/pq), available when the
    contact volume satisfies V < pq/(pq + Delta)^2.  The action of the
    binding b is normalized to 1."""
    delta = Fraction(delta)
    volume = Fraction(volume)
    if delta <= 0:
        raise ValueError("rotation offset Delta must be positive")
    if volume <= 0:
        raise ValueError("volume must be positive")
    met = volume < kp.pq / (kp.pq + delta) ** 2
    if not met:
        return BoundResult(False, None, None)
    squared = volume / kp.pq
    return BoundResult(True, squared, sqrt_decimal(squared))


def calabi_mean_action_bound(kp: KnotParams, d: Fraction, calabi: Fraction) -> BoundResult:
    """Mean action bound sqrt(V(psi)/pq) for twist parameter d in
    (-1/pq, 0], available when V(psi) < pq*theta_0^2 with
    theta_0 = 1/pq + d."""
    d = Fraction(d)
    calabi = Fraction(calabi)
    if not (-Fraction(1, kp.pq) < d <= 0):
        raise ValueError(f"twist parameter {d} is outside (-1/{kp.pq}, 0]")
    if calabi <= 0:
        raise ValueError("the Calabi invariant must be positive here")
    theta0 = Fraction(1, kp.pq) + d
    met = calabi < kp.pq * theta0**2
    if not met:
        return BoundResult(False, None, None)
    squared = calabi / kp.pq
    return BoundResult(True, squared, sqrt_decimal(squared))
