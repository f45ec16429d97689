"""Reference computations made apart from hyperkit.

Everything here uses numpy and the standard library only, so the
benchmark can check the program's outputs against values it did not
compute itself:

* the SU(2)_k fusion rules from the truncated Clebsch-Gordan rule, the
  quantum dimensions, the Verlinde S-matrix and the rescaled structure
  constants ``lambda = N d_l / (d_i d_j)``;
* finite groups as Cayley tables (symmetric, dihedral, dicyclic and
  direct products), seeded relabelings, conjugacy classes, double
  cosets, and the pair-count convolution of partitions with one
  ``np.bincount`` over all |G|^2 pairs;
* an associativity-violation kernel that loops over the first index
  with matrix products (O(n^3) memory);
* the admissible index values ``1 + sum of 4 cos^2(pi/n)``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# ---------------------------------------------------------------------------
# SU(2)_k


def su2_fusion_tensor(k: int) -> np.ndarray:
    """``N[i, j, l] = 1`` iff ``|i-j| <= l <= min(i+j, 2k-i-j)`` and i+j+l is even."""
    n = k + 1
    i, j, l = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    rule = (np.abs(i - j) <= l) & (l <= np.minimum(i + j, 2 * k - i - j)) & ((i + j + l) % 2 == 0)
    return rule.astype(np.int64)


def su2_dims(k: int) -> np.ndarray:
    """Quantum dimensions ``d_j = sin(pi (j+1)/(k+2)) / sin(pi/(k+2))``."""
    q = math.pi / (k + 2)
    return np.array([math.sin(q * (j + 1)) / math.sin(q) for j in range(k + 1)])


def verlinde_s(k: int) -> np.ndarray:
    """``S[a, m] = sqrt(2/(k+2)) sin(pi (a+1)(m+1)/(k+2))``."""
    a = np.arange(k + 1)
    return math.sqrt(2.0 / (k + 2)) * np.sin(math.pi * np.outer(a + 1, a + 1) / (k + 2))


def verlinde_characters(k: int) -> np.ndarray:
    """Characters of the rescaled table: ``chi[m, a] = (S[a, m] / S[0, m]) / d_a``.

    ``S[a, m] / S[0, m]`` is character m of the fusion ring on f_a, and
    the rescaled basis element is ``k_a = f_a / d_a``.
    """
    s = verlinde_s(k)
    return (s / s[0][None, :]).T / su2_dims(k)[None, :]


def rescaled_lambda(N: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """``lambda[i, j, l] = N[i, j, l] d_l / (d_i d_j)``."""
    return N * dims[None, None, :] / (dims[:, None, None] * dims[None, :, None])


def jones(n: int) -> float:
    return 4.0 * math.cos(math.pi / n) ** 2


def permute_tensor(t: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Relabel a 3-index tensor: old index ``a`` becomes ``perm[a]``."""
    out = np.empty_like(t)
    out[np.ix_(perm, perm, perm)] = t
    return out


# ---------------------------------------------------------------------------
# associativity


def associativity_violations(lam: np.ndarray, tol: float) -> set[tuple[int, int, int, int]]:
    """All ``(i, j, l, p)`` with ``|(k_i k_j) k_l - k_i (k_j k_l)|_p > tol``.

    Loops over i with two matrix products, so memory stays O(n^3).
    """
    n = lam.shape[0]
    flat_first = lam.reshape(n, n * n)   # [m, (l, p)]
    flat_last = lam.reshape(n * n, n)    # [(j, l), m]
    out = set()
    for i in range(n):
        left = (lam[i] @ flat_first).reshape(n, n, n)        # sum_m lam[i,j,m] lam[m,l,p]
        right = (flat_last @ lam[i]).reshape(n, n, n)        # sum_m lam[j,l,m] lam[i,m,p]
        for j, l, p in zip(*np.nonzero(np.abs(left - right) > tol)):
            out.add((i, int(j), int(l), int(p)))
    return out


# ---------------------------------------------------------------------------
# finite groups


def permutation_group(generators, degree: int) -> tuple[np.ndarray, int]:
    """Cayley table of the group generated by permutations, by closure."""
    e = tuple(range(degree))
    elements = {e}
    frontier = [e]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[p[x]] for x in range(degree))
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    ordered = sorted(elements)
    index = {p: i for i, p in enumerate(ordered)}
    mul = np.array(
        [[index[tuple(p[q[x]] for x in range(degree))] for q in ordered] for p in ordered],
        dtype=np.int64,
    )
    return mul, index[e]


def symmetric_group(k: int) -> tuple[np.ndarray, int]:
    swap = tuple([1, 0] + list(range(2, k)))
    cycle = tuple(list(range(1, k)) + [0])
    return permutation_group([swap, cycle], k)


def dihedral_group(n: int) -> tuple[np.ndarray, int]:
    """Symmetries of the n-gon, order 2n."""
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    return permutation_group([rotation, reflection], n)


def dicyclic_group(n: int) -> tuple[np.ndarray, int]:
    """``<a, x | a^2n = 1, x^2 = a^n, x a x^-1 = a^-1>``, order 4n.

    Element ``a^s x^t`` has index ``2 s + t``.
    """
    m = 2 * n
    order = 4 * n
    mul = np.empty((order, order), dtype=np.int64)
    for s1, t1, s2, t2 in itertools.product(range(m), range(2), range(m), range(2)):
        if t1 == 0:
            s, t = s1 + s2, t2
        elif t2 == 0:
            s, t = s1 - s2, 1
        else:
            s, t = s1 - s2 + n, 0
        mul[2 * s1 + t1, 2 * s2 + t2] = 2 * (s % m) + t
    return mul, 0


def cyclic_group(n: int) -> tuple[np.ndarray, int]:
    r = np.arange(n)
    return (r[:, None] + r[None, :]) % n, 0


def direct_product(g1, g2) -> tuple[np.ndarray, int]:
    (m1, e1), (m2, e2) = g1, g2
    n2 = m2.shape[0]
    mul = (m1[:, None, :, None] * n2 + m2[None, :, None, :]).reshape(
        m1.shape[0] * n2, m1.shape[0] * n2
    )
    return mul.astype(np.int64), e1 * n2 + e2


def relabel_group(mul: np.ndarray, e: int, perm: np.ndarray) -> tuple[np.ndarray, int]:
    """Same group with old element ``g`` renamed ``perm[g]``."""
    out = np.empty_like(mul)
    out[np.ix_(perm, perm)] = perm[mul]
    return out, int(perm[e])


def inverses(mul: np.ndarray, e: int) -> np.ndarray:
    return np.argmax(mul == e, axis=1)


def class_count(mul: np.ndarray) -> int:
    """Number of conjugacy classes, by Burnside: commuting pairs / |G|."""
    return int(np.count_nonzero(mul == mul.T)) // mul.shape[0]


def orbit_partition(images: np.ndarray) -> list[tuple[int, ...]]:
    """Parts ``{images[:, x]}``, ordered by smallest member.

    ``images[g, x]`` is the image of x under the g-th map of a family
    closed under composition that contains the identity.
    """
    n = images.shape[1]
    part_of = np.full(n, -1)
    parts = []
    for x in range(n):
        if part_of[x] >= 0:
            continue
        members = np.unique(images[:, x])
        part_of[members] = len(parts)
        parts.append(tuple(int(v) for v in members))
    return parts


def conjugacy_classes(mul: np.ndarray, e: int) -> list[tuple[int, ...]]:
    inv = inverses(mul, e)
    conj = mul[mul, inv[:, None]]  # conj[g, x] = g x g^-1
    return orbit_partition(conj)


def double_cosets(mul: np.ndarray, left, right) -> list[tuple[int, ...]]:
    """Partition into ``L g R``, ordered by smallest member."""
    left = np.asarray(sorted(left))
    right = np.asarray(sorted(right))
    images = mul[mul[left][:, :, None], right[None, None, :]]  # [h1, g, h2] = h1 g h2
    images = images.transpose(0, 2, 1).reshape(-1, mul.shape[0])
    return orbit_partition(images)


def cyclic_subgroup(mul: np.ndarray, e: int, g: int) -> list[int]:
    out = [e]
    x = g
    while x != e:
        out.append(int(x))
        x = int(mul[x, g])
    return sorted(out)


def element_orders(mul: np.ndarray, e: int) -> np.ndarray:
    """Order of every element: the least m >= 1 with g^m = e."""
    n = mul.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    power = np.arange(n)
    for m in range(1, n + 1):         # power holds g^m
        orders[(power == e) & (orders == 0)] = m
        power = mul[power, np.arange(n)]
    return orders


def conjugate_cyclic(mul: np.ndarray, e: int, g: int, rng: np.random.Generator) -> list[int]:
    """Cyclic subgroup generated by ``h g h^-1`` for a seeded element h.

    Conjugate subgroups give isomorphic class and coset structures, so
    every seed does the same work.
    """
    h = int(rng.integers(mul.shape[0]))
    return cyclic_subgroup(mul, e, int(mul[mul[h, g], inverses(mul, e)[h]]))


def part_index(parts, order: int) -> np.ndarray:
    out = np.empty(order, dtype=np.int64)
    for p, part in enumerate(parts):
        out[list(part)] = p
    return out


def pair_count_convolution(mul: np.ndarray, parts_a, parts_b, parts_c) -> np.ndarray:
    """``lambda[a, b, c] = #{(g, h) in A x B : gh in C} / (|A| |B|)``.

    One ``np.bincount`` over all |G|^2 pairs, keyed by the triple of
    part indices.
    """
    n = mul.shape[0]
    pa = part_index(parts_a, n)
    pb = part_index(parts_b, n)
    pc = part_index(parts_c, n)
    na, nb, nc = len(parts_a), len(parts_b), len(parts_c)
    key = (pa[:, None] * nb + pb[None, :]) * nc + pc[mul]
    counts = np.bincount(key.ravel(), minlength=na * nb * nc).reshape(na, nb, nc)
    sizes_a = np.array([len(p) for p in parts_a])
    sizes_b = np.array([len(p) for p in parts_b])
    return counts / (sizes_a[:, None, None] * sizes_b[None, :, None])


def measure_convolution(mul: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """``(mu * nu)(x) = sum_{gh = x} mu(g) nu(h)``."""
    return np.bincount(mul.ravel(), weights=np.outer(mu, nu).ravel(), minlength=mul.shape[0])


def uniform_on_parts(coeffs, parts, order: int) -> np.ndarray:
    """The measure ``sum_a coeffs[a] * uniform(parts[a])`` on the group."""
    out = np.zeros(order)
    for c, part in zip(coeffs, parts):
        out[list(part)] += c / len(part)
    return out


def groupoid_parts(mul: np.ndarray, e: int, subgroup) -> dict:
    """Double cosets ``H_x g H_y`` for object 0 (trivial subgroup) and object 1."""
    subgroups = ([e], subgroup)
    return {(x, y): double_cosets(mul, subgroups[x], subgroups[y]) for x in range(2) for y in range(2)}


def double_coset_groupoid(mul: np.ndarray, e: int, subgroup):
    """Arrow labels, composition tensors, star and units of the two-object groupoid.

    Arrows of Mor(y -> x) are the double cosets ``H_x g H_y``, labelled
    ``a<x><y>_<index>``; composition is the pair-count convolution.
    """
    parts = groupoid_parts(mul, e, subgroup)
    inv = inverses(mul, e)
    part_of = {key: part_index(p, mul.shape[0]) for key, p in parts.items()}
    mor = [[[f"a{x}{y}_{i}" for i in range(len(parts[x, y]))] for y in range(2)] for x in range(2)]
    comp = [
        [
            [pair_count_convolution(mul, parts[x, y], parts[y, z], parts[x, z]) for z in range(2)]
            for y in range(2)
        ]
        for x in range(2)
    ]
    star = [[[int(part_of[y, x][inv[p[0]]]) for p in parts[x, y]] for y in range(2)] for x in range(2)]
    units = [int(part_of[x, x][e]) for x in range(2)]
    return mor, comp, star, units


def chain_convolution(mul: np.ndarray, parts: dict, objects, mixtures) -> np.ndarray:
    """Fold a chain of boundary mixtures as measures on the group.

    ``mixtures[i]`` is over the parts of Mor(objects[i+1] -> objects[i]);
    the convolution of the measures is read off on the outer parts.
    """
    n = mul.shape[0]
    mu = uniform_on_parts(mixtures[0], parts[objects[0], objects[1]], n)
    for pos, p in enumerate(mixtures[1:], start=1):
        nu = uniform_on_parts(p, parts[objects[pos], objects[pos + 1]], n)
        mu = measure_convolution(mul, mu, nu)
    return np.array([mu[list(part)].sum() for part in parts[objects[0], objects[-1]]])


# ---------------------------------------------------------------------------
# admissible indices


def admissible_values(bound: float, n_max: int, tol: float) -> list[float]:
    """Sorted distinct values ``1 + sum(S) <= bound`` over multisets S of Jones values."""
    spectrum = [jones(n) for n in range(3, n_max + 1)]
    budget = bound - 1.0 + tol
    totals = {0.0}
    frontier = {(0.0, 0)}
    while frontier:
        nxt = set()
        for total, start in frontier:
            for k in range(start, len(spectrum)):
                t = total + spectrum[k]
                if t <= budget:
                    nxt.add((t, k))
                    totals.add(t)
        frontier = nxt
    values = []
    for v in sorted(1.0 + t for t in totals):
        if not values or abs(v - values[-1]) > tol:
            values.append(v)
    return values
