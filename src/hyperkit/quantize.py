"""A-priori quantization of indices of the form 1 plus a sum of Jones values.

Below 4, the possible index values of an inclusion are the discrete
series ``4 * cos(pi / n) ** 2`` for integer ``n >= 3``; from 4 upward
every real value occurs.  The admissible composite values considered
here are ``1 + sum(S)`` over finite multisets S drawn from that
spectrum.  Keeping to the discrete part, the only non-integer total
below 4 is

    1 + 4 cos(pi/5)^2 = (5 + sqrt 5) / 2 = 3.6180...

since every other discrete summand combination lands on an integer.
Any summand taken from the continuum is at least 4, pushing the total
to 5 or more, so for bounds up to 5 the continuum contributes nothing
but the closing remark "everything from 5 up".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DEFAULT_TOL
from .errors import PreconditionError

DEFAULT_N_MAX = 100


def jones_value(n: int) -> float:
    """The discrete index value ``4 * cos(pi / n) ** 2``."""
    if n < 3:
        raise PreconditionError("discrete index values start at n = 3")
    return 4.0 * math.cos(math.pi / n) ** 2


@dataclass(frozen=True)
class JonesSpectrum:
    """The discrete index values up to a cutoff, plus the continuum edge."""

    discrete: tuple[float, ...]
    continuum_start: float = 4.0


def jones_spectrum(n_max: int) -> JonesSpectrum:
    """Values ``4 cos(pi/n)^2`` for n = 3 .. n_max (increasing, in [1, 4))."""
    if n_max < 3:
        raise PreconditionError("n_max must be at least 3")
    return JonesSpectrum(tuple(jones_value(n) for n in range(3, n_max + 1)))


def jones_index_of(
    value: float, n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL
) -> int | None:
    """The n with ``4 cos(pi/n)^2 == value`` within tol, or None."""
    for n in range(3, n_max + 1):
        if abs(jones_value(n) - value) <= tol:
            return n
    return None


def check_ghj_dimension(tol: float = DEFAULT_TOL) -> bool:
    """Confirm that 2 + sqrt(3) is the discrete index value at n = 12."""
    value = 2.0 + math.sqrt(3.0)
    squared_cos = (2.0 * math.cos(math.pi / 12.0)) ** 2
    return abs(value - squared_cos) <= tol and jones_index_of(value, tol=tol) == 12


@dataclass(frozen=True)
class AdmissibleIndex:
    """One admissible value with a witness multiset of summand indices n."""

    value: float
    witness: tuple[int, ...]

    def summands(self) -> tuple[float, ...]:
        return tuple(jones_value(n) for n in self.witness)


@dataclass(frozen=True)
class AdmissibleIndexSet:
    """All values ``1 + sum(multiset of discrete Jones values) <= bound``.

    ``continuum_from`` marks the onset of the continuum of admissible
    values (5.0 = 1 + the continuum edge 4) whenever the bound reaches
    it; discrete sums above that point are still listed with their
    witnesses.
    """

    bound: float
    n_max: int
    entries: tuple[AdmissibleIndex, ...]
    continuum_from: float | None

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(e.value for e in self.entries)


def enumerate_admissible(
    bound: float, n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL
) -> AdmissibleIndexSet:
    """Enumerate all admissible totals up to ``bound``.

    Deduplicates values within tol, keeping the lexicographically
    smallest witness (as a sorted tuple of n's); entries come out
    sorted by value.  The empty multiset contributes the value 1, and
    summands equal to 1 (n = 3, the automorphism case) are allowed.
    """
    bound = float(bound)
    if not 1.0 < bound < math.inf:
        raise PreconditionError(f"bound must be a finite number above 1, got {bound}")
    spectrum = jones_spectrum(n_max).discrete
    budget = bound - 1.0 + tol

    found: list[tuple[float, tuple[int, ...]]] = []

    def extend(start: int, total: float, picked: tuple[int, ...]):
        found.append((1.0 + total, picked))
        for k in range(start, len(spectrum)):
            v = spectrum[k]
            if total + v > budget:
                break  # spectrum is increasing, so later k only grow
            extend(k, total + v, picked + (k + 3,))

    extend(0, 0.0, ())
    found.sort(key=lambda item: (item[0], item[1]))
    entries: list[AdmissibleIndex] = []
    for value, witness in found:
        if entries and abs(value - entries[-1].value) <= tol:
            continue
        entries.append(AdmissibleIndex(value, witness))
    continuum_from = 5.0 if bound >= 5.0 - tol else None
    return AdmissibleIndexSet(bound, n_max, tuple(entries), continuum_from)
