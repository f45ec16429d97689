"""Independent brute-force references used by the test suite only.

These recompute class/coset hypergroups and double-coset groupoids
from a different formula than the library (representative pair
counting instead of full measure convolution), and spectral radii via
dense eigenvalues instead of power iteration.
``match_quadratic_reference`` is the scalar quadratic-literal scan that
the vectorized ``match_quadratic`` replaced, and the two
``associativity_reference`` functions are the n^4 einsum checks that the
per-slice kernel of ``validate`` and ``validate_groupoid`` replaced.
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


def _double_cosets(group, sub, right=None):
    mul = group.mul
    right = sub if right is None else right
    seen = set()
    cosets = []
    for e in range(group.order):
        if e in seen:
            continue
        coset = {int(mul[mul[h1, e], h2]) for h1 in sub for h2 in right}
        seen |= coset
        cosets.append(tuple(sorted(coset)))
    return cosets


def _pair_count_table(group, parts, parts_b=None, parts_c=None):
    """lambda[A][B][C] = |C| * #{(g,h) in AxB : g*h = rep(C)} / (|A| |B|).

    A, B and C range over ``parts``, ``parts_b`` and ``parts_c`` (both
    default to ``parts``).  The count is independent of the
    representative, so the first element of each part is used.
    """
    mul = group.mul
    parts_b = parts if parts_b is None else parts_b
    parts_c = parts if parts_c is None else parts_c
    lam = np.zeros((len(parts), len(parts_b), len(parts_c)))
    for a, A in enumerate(parts):
        for b, B in enumerate(parts_b):
            for c, C in enumerate(parts_c):
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


def double_coset_groupoid_comp_oracle(group, sub):
    """comp[x][y][z] of the two-object groupoid over the trivial subgroup and ``sub``."""
    subgroups = [[group.identity], sorted(sub)]
    parts = {
        (x, y): _double_cosets(group, subgroups[x], subgroups[y]) for x in range(2) for y in range(2)
    }
    return [
        [
            [_pair_count_table(group, parts[x, y], parts[y, z], parts[x, z]) for z in range(2)]
            for y in range(2)
        ]
        for x in range(2)
    ]


def _finish(group, parts):
    lam = _pair_count_table(group, parts)
    part_of = {x: p for p, part in enumerate(parts) for x in part}
    unit = part_of[group.identity]
    involution = tuple(part_of[_inverse(group, part[0])] for part in parts)
    return lam, unit, involution


def associativity_reference(lam, tol):
    """[((i, j, l, p), defect)] of a table, from two n^4 einsum tensors."""
    left = np.einsum("ijm,mlp->ijlp", lam, lam)
    right = np.einsum("jlm,imp->ijlp", lam, lam)
    dev = np.abs(left - right)
    return [
        ((int(i), int(j), int(l), int(p)), float(dev[i, j, l, p]))
        for i, j, l, p in zip(*np.where(dev > tol))
    ]


def groupoid_associativity_reference(g, tol):
    """[((x, y, z, w, a, b, c, p), defect)], from einsum tensors per object quadruple."""
    k = g.n_objects
    out = []
    for x in range(k):
        for y in range(k):
            for z in range(k):
                for w in range(k):
                    left = np.einsum("abm,mcp->abcp", g.comp[x][y][z], g.comp[x][z][w])
                    right = np.einsum("bcq,aqp->abcp", g.comp[y][z][w], g.comp[x][y][w])
                    dev = np.abs(left - right)
                    for a, b, c, p in zip(*np.where(dev > tol)):
                        out.append(
                            (
                                (x, y, z, w, int(a), int(b), int(c), int(p)),
                                float(dev[a, b, c, p]),
                            )
                        )
    return out


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
