"""Action and linking spectra, Weyl-law error terms, cobordism
obstructions, and the two quantitative dynamics bounds.

Square roots are evaluated in fixed-point integer arithmetic so that sign
and tolerance claims never depend on floating-point rounding.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .currents import KnotParams
from .exact import InfRat, _ValidatedTuple
from .nseq import _ordered_from, runs

_GUARD = 6  # extra decimal digits of the fixed-point Weyl errors, dropped by rounding
_WEYL_DIGITS = 12  # decimals of every rendered Weyl error
_WEYL_SCALE = _WEYL_DIGITS + _GUARD  # decimals of the fixed-point Weyl errors
_WEYL_ONE = 10**_WEYL_SCALE


def sqrt_decimal(value: Fraction | int, digits: int = 12) -> str:
    """Decimal string of sqrt(value) rounded half up to the given digits."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("square root of a negative value")
    if digits < 1:
        raise ValueError("digits must be positive")
    a, b = value.numerator, value.denominator
    # floor(10**digits * sqrt(a/b) + 1/2) = floor((2 * 10**digits * sqrt(a*b) + b) / (2b)),
    # and flooring the root first changes nothing, as b is an integer
    whole, frac = divmod((isqrt(4 * a * b * 10 ** (2 * digits)) + b) // (2 * b), 10**digits)
    return f"{whole}.{frac:0{digits}d}"


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


def _error_runs(kp: KnotParams, k_max: int) -> Iterator[tuple[int, int, list[str]]]:
    """``(k, N_k, errors)`` for each run of equal N_k in k = 0..k_max: the
    first index of the run, its value, and e_k rendered at each of its indices.
    Each text is the floored fixed-point error (T - r) // pq, T = N_k and
    r = sqrt(2*k*pq) at _WEYL_SCALE decimals, rounded half up in absolute value
    with its sign kept (so -0.000... is possible): that floor and the rounding
    fold into one division by pq * 10**_GUARD."""
    pq = kp.pq
    square = 2 * pq * _WEYL_ONE * _WEYL_ONE  # isqrt(square * k) is sqrt(2*k*pq) in fixed point
    unit, one = pq * 10**_GUARD, 10**_WEYL_DIGITS
    for k, value, length in runs(kp.p, kp.q, k_max):
        top = value * _WEYL_ONE
        up, down = top + unit // 2, unit // 2 + pq - 1 - top
        texts: list[str] = []
        append = texts.append
        for r in map(isqrt, range(square * k, square * (k + length), square)):
            if r <= top:
                y = (up - r) // unit
                if y < one:  # str() of one + y keeps the leading zeros of the decimals
                    append("0." + str(y + one)[1:])
                else:
                    s = str(y)
                    append(s[:-_WEYL_DIGITS] + "." + s[-_WEYL_DIGITS:])
            else:
                y = (r + down) // unit
                if y < one:
                    append("-0." + str(y + one)[1:])
                else:
                    s = str(y)
                    append("-" + s[:-_WEYL_DIGITS] + "." + s[-_WEYL_DIGITS:])
        yield k, value, texts


def action_spectrum(kp: KnotParams, k_max: int) -> list[SpectrumEntry]:
    """c_k = N_k(p,q)/pq for k = 0..k_max, with linking levels and Weyl
    error terms attached."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    entries: list[SpectrumEntry] = []
    for k, value, errors in _error_runs(kp, k_max):
        ck = Fraction(value, kp.pq)
        entries += [SpectrumEntry(k + j, value, j + 1, e, ck) for j, e in enumerate(errors)]
    return entries


def linking_spectrum(kp: KnotParams, k_max: int) -> list[InfRat]:
    """Threshold levels of the knot filtration per index: N_k plus the
    infinitesimal repeat correction d*(repeats - 1)."""
    return [InfRat(value, j) for _, value, length in runs(kp.p, kp.q, k_max) for j in range(length)]


def _weyl_sup(kp: KnotParams, spans: Iterable[tuple[int, int, int]]) -> str:
    """max |e_k| rendered over the indices of ``spans``, the
    ``(first k, N_k, length)`` runs of N_0..N_k.

    Only the two ends of each run are evaluated.  Within a run N_k is fixed
    and the root grows with k, so the floored error does not increase, and
    its largest absolute value sits at one of the ends.
    """
    pq = kp.pq
    square = 2 * pq * _WEYL_ONE * _WEYL_ONE
    top = 0
    for k, value, length in spans:
        head, tail = ((value * _WEYL_ONE - isqrt(square * j)) // pq for j in (k, k + length - 1))
        top = max(top, head, -tail)  # head >= tail, so |e| peaks at head or -tail
    whole, frac = divmod((top + 10**_GUARD // 2) // 10**_GUARD, 10**_WEYL_DIGITS)
    return f"{whole}.{frac:0{_WEYL_DIGITS}d}"


def weyl_sup(kp: KnotParams, k_max: int) -> str:
    """The supremum of |e_k| over k = 0..k_max, to 12 digits, without the
    per-k rows; its cost grows with the number of runs, not with k_max."""
    return _weyl_sup(kp, runs(kp.p, kp.q, k_max))


class _CobordismFields(NamedTuple):
    applicable: bool
    consistent: bool
    obstructed_at: int | None
    k_max: int


class CobordismResult(_ValidatedTuple, _CobordismFields):
    __slots__ = ()

    def describe(self) -> str:
        if not self.applicable:
            return "not applicable: source pq is smaller than target p'q'"
        if self.consistent:
            return f"consistent up to k={self.k_max}"
        return f"obstructed at k={self.obstructed_at}"


def cobordism_obstruction(
    frm: tuple[int, int], to: tuple[int, int], k_max: int
) -> CobordismResult:
    """Scan for a violation of N_k(p,q) >= N_k(p',q'), stopping at the first,
    at k_max, or where the lattice-area bounds prove the order for pq > p'q'
    (:func:`nseq._ordered_from`); the same pair in either order has none."""
    kp_from = KnotParams(*frm)
    kp_to = KnotParams(*to)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if kp_from.pq < kp_to.pq:
        return CobordismResult(False, False, None, k_max)
    if sorted(frm) == sorted(to):  # N_k(p,q) = N_k(q,p) for every k
        return CobordismResult(True, True, None, k_max)
    top = k_max if kp_from.pq == kp_to.pq else min(k_max, _ordered_from(frm, to))
    # merge the two run streams: the order of N_k can change only where a run starts
    src, dst = runs(kp_from.p, kp_from.q, top), runs(kp_to.p, kp_to.q, top)
    k = src_end = dst_end = 0  # first index past the current run of each stream
    while k <= top:
        if k == src_end:
            _, a, length = next(src)
            src_end += length
        if k == dst_end:
            _, b, length = next(dst)
            dst_end += length
        if a < b:
            return CobordismResult(True, False, k, k_max)
        k = min(src_end, dst_end)
    return CobordismResult(True, True, None, k_max)


class _BoundFields(NamedTuple):
    hypothesis_met: bool
    bound_squared: Fraction | None
    bound: str | None  # decimal string of the square root


class BoundResult(_ValidatedTuple, _BoundFields):
    __slots__ = ()

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
    if kp.p < 2 or kp.q < 2:
        raise ValueError("the mean-action bound needs p, q >= 2")
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
