"""Independent brute-force references used by the test suite only.

These recompute class/coset hypergroups from a different formula than
the library (representative pair counting instead of full measure
convolution), and spectral radii via dense eigenvalues instead of
power iteration.  ``match_quadratic_reference`` is the scalar
quadratic-literal scan that the vectorized ``match_quadratic``
replaced.
"""

import math
from fractions import Fraction

import numpy as np

from hyperkit import QuadraticLiteral


def _inverse(group, i):
    return int(np.where(group.mul[i] == group.identity)[0][0])


def _classes(group):
    mul = group.mul
    n = group.order
    seen = set()
    classes = []
    for i in range(n):
        if i in seen:
            continue
        orbit = set()
        for g in range(n):
            orbit.add(int(mul[mul[g, i], _inverse(group, g)]))
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def _double_cosets(group, sub):
    mul = group.mul
    seen = set()
    cosets = []
    for e in range(group.order):
        if e in seen:
            continue
        coset = {int(mul[mul[h1, e], h2]) for h1 in sub for h2 in sub}
        seen |= coset
        cosets.append(tuple(sorted(coset)))
    return cosets


def _pair_count_table(group, parts):
    """lambda[A][B][C] = |C| * #{(g,h) in AxB : g*h = rep(C)} / (|A| |B|).

    The count is independent of the representative, so the first
    element of each part is used.
    """
    mul = group.mul
    k = len(parts)
    lam = np.zeros((k, k, k))
    for a, A in enumerate(parts):
        for b, B in enumerate(parts):
            for c, C in enumerate(parts):
                rep = C[0]
                count = sum(1 for g in A for h in B if mul[g, h] == rep)
                lam[a, b, c] = float(Fraction(count * len(C), len(A) * len(B)))
    return lam


def class_table_oracle(group):
    """(lambda, unit, involution) for the conjugacy-class hypergroup."""
    parts = _classes(group)
    return _finish(group, parts)


def double_coset_table_oracle(group, sub):
    parts = _double_cosets(group, sorted(sub))
    return _finish(group, parts)


def _finish(group, parts):
    lam = _pair_count_table(group, parts)
    part_of = {x: p for p, part in enumerate(parts) for x in part}
    unit = part_of[group.identity]
    involution = tuple(part_of[_inverse(group, part[0])] for part in parts)
    return lam, unit, involution


def spectral_radius_oracle(matrix):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix, dtype=float)))))


def cyclic_subgroups(group):
    """Distinct subgroups generated by a single element."""
    subs = set()
    for g in range(group.order):
        members = {group.identity}
        x = g
        while x not in members:
            members.add(x)
            x = int(group.mul[x, g])
        subs.add(frozenset(members))
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def squarefree_radicands(limit):
    """0, then the square-free integers 2..limit."""
    yield 0
    for d in range(2, limit + 1):
        if all(d % (k * k) for k in range(2, math.isqrt(d) + 1)):
            yield d


def match_quadratic_reference(value, tol=1e-9, max_coeff=64, max_radicand=64):
    """First literal in (d, c, b) order within tol, by a scalar triple loop."""
    if not math.isfinite(value):
        return None
    for d in squarefree_radicands(max_radicand):
        root = math.sqrt(d)
        for c in range(1, max_coeff + 1):
            if d == 0:
                a = round(value * c)
                if abs(a) <= max_coeff and abs(a / c - value) <= tol:
                    return QuadraticLiteral(int(a), 0, c, 0)
                continue
            for b in range(-max_coeff, max_coeff + 1):
                if b == 0:
                    continue
                a = round(value * c - b * root)
                if abs(a) > max_coeff:
                    continue
                if abs((a + b * root) / c - value) <= tol:
                    return QuadraticLiteral(int(a), b, c, d)
    return None
