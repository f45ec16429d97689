"""Hypergroups built from groups, fusion rings, and two-element data.

Three families of constructions:

* From a finite group given by its Cayley table: the group itself
  (rows are point masses), its conjugacy classes, and its double cosets
  with respect to a subgroup.  The group axioms are checked once, when
  a ``CayleyGroup`` is built (``validate_cayley``), so the constructions
  trust every group they are given.  Classes and double cosets come
  from one vectorized orbit pass each, and their tables expand
  products of normalized indicator sums from integer pair counts, with
  one correctly rounded division each.

* From a fusion ring (nonnegative-integer structure constants with a
  conjugation): rescale each basis element by its Perron-Frobenius
  dimension, ``k_i = f_i / dim_i``; the resulting table has weights
  ``dim_i ** 2``.

* The two-element family ``k_1^2 = lam * k_0 + (1 - lam) * k_1`` for
  ``0 < lam <= 1``, together with the decision procedure for whether a
  given ``lam`` arises from a two-element fusion ring.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .core import DEFAULT_TOL, HypergroupTable, ValidationReport
from .core import _EPS, _SCREEN_MIN_N, _as_index_tuple, _associativity_violations, _dot_error
from .core import _float_tensor, _grid, _int_tensor, _report
from .errors import AxiomError, NumericalError, PreconditionError, StructureError


@dataclass(frozen=True, eq=False)
class CayleyGroup:
    """A finite group as a multiplication table of element indices.

    Construction raises StructureError unless the table is a group
    (``validate_cayley``), so every instance satisfies the group axioms.
    """

    mul: np.ndarray
    identity: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        mul = _int_tensor(self.mul, 2, "Cayley table")
        if mul.shape[0] != mul.shape[1]:
            raise StructureError("Cayley table must be square")
        n = mul.shape[0]
        if n < 1:
            raise StructureError("a group needs at least one element")
        if mul.min() < 0 or mul.max() >= n:
            raise StructureError("Cayley table entries out of range")
        (identity,) = _as_index_tuple((self.identity,), n, "identity index")
        labels = self.labels
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise StructureError("label count does not match group order")
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "labels", labels)
        validate_cayley(self)

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"g{i}"


def validate_cayley(group: CayleyGroup) -> None:
    """Raise StructureError unless ``mul`` is a genuine group table.

    Checks the Latin-square property, both identity laws and
    associativity.  Inverses follow: every row of a Latin square holds
    the identity.  ``CayleyGroup`` runs it once, on construction.

    Associativity is certified from a generating set S, as in
    ``validate_fusion_ring``: the elements g with ``(x g) y = x (g y)``
    for all x, y are closed under products, and the identity is one.
    Each greedy generator (the least element outside the subgroup
    certified so far) is tested with two gathers, ``mul[mul[:, g]] ==
    mul[:, mul[g]]``, O(|G|^2), and |S| <= log2 |G|.  The certified set
    is then closed under products, one gather of all products of
    certified elements a round, so a word in the generators certifies in
    about log2 of its length rounds rather than one round a letter.  If
    a generator fails, the scan of all triples (O(|G|^3)) runs and names
    the first failing ``(i, j, k)``, so the message is the same as
    without the certificate.  Memory is O(|G|^2).
    """
    mul = group.mul
    n = group.order
    e = group.identity
    rng = np.arange(n)
    bad = np.any(np.sort(mul, axis=1) != rng, axis=1)
    bad |= np.any(np.sort(mul, axis=0) != rng[:, None], axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise StructureError(f"Cayley table is not a Latin square at row/column {i}")
    if not (np.array_equal(mul[e], rng) and np.array_equal(mul[:, e], rng)):
        raise StructureError("identity element does not act trivially")
    if _group_certificate(mul, e):
        return
    for i in range(n):
        # (i j) k against i (j k), one i at a time
        bad = mul[mul[i]] != mul[i][mul]
        if bad.any():
            j, k = (int(x[0]) for x in np.where(bad))
            raise StructureError(f"Cayley table is not associative at ({i}, {j}, {k})")


def _group_certificate(mul: np.ndarray, e: int) -> bool:
    """Whether greedy generators, each passing its middle law, certify ``mul``."""
    certified = np.zeros(mul.shape[0], dtype=bool)
    certified[e] = True
    while not certified.all():
        g = int(np.argmin(certified))  # the least element outside the certified subgroup
        if not (mul[mul[:, g]] == mul[:, mul[g]]).all():
            return False
        certified[g] = True
        members = np.empty(0)
        while members.size < np.count_nonzero(certified):  # products of certified elements
            members = np.flatnonzero(certified)
            certified[mul[members[:, None], members]] = True
    return True


def cayley_group(mul, identity, labels=None) -> CayleyGroup:
    return CayleyGroup(mul, identity, labels)


def inverses(group: CayleyGroup) -> tuple[int, ...]:
    return tuple(np.argmax(group.mul == group.identity, axis=1).tolist())


def _orbits(least: np.ndarray) -> list[tuple[int, ...]]:
    """The partition given by the least member of each element's part.

    Parts are ordered by least member and each is sorted: one stable
    sort, O(|G| log |G|).
    """
    order = np.argsort(least, kind="stable")
    bounds = np.flatnonzero(np.diff(least[order])) + 1
    return [tuple(part.tolist()) for part in np.split(order, bounds)]


def conjugacy_classes(group: CayleyGroup) -> list[tuple[int, ...]]:
    """Conjugacy classes, ordered by least member, each sorted.

    The least conjugate ``min_g g i g^-1`` of every i is read off the
    |G| x |G| table of conjugates: O(|G|^2) time and memory.
    """
    mul = group.mul
    inv = np.asarray(inverses(group))
    return _orbits(mul[mul, inv[:, None]].min(axis=0))


def is_subgroup(group: CayleyGroup, elements) -> bool:
    """Whether ``elements`` is a subgroup: a finite, nonempty, closed subset is one."""
    elems = sorted({int(x) for x in elements})
    if not elems or elems[0] < 0 or elems[-1] >= group.order:
        return False
    member = np.zeros(group.order, dtype=bool)
    member[elems] = True
    return bool(member[group.mul[np.ix_(elems, elems)]].all())


def subgroup_elements(group: CayleyGroup, subset) -> list[int]:
    """``subset`` sorted; StructureError unless it is a subgroup."""
    sub = sorted(int(x) for x in subset)
    if not is_subgroup(group, sub):
        raise StructureError("the given subset is not a subgroup")
    return sub


def double_cosets(group: CayleyGroup, left, right) -> list[tuple[int, ...]]:
    """Double cosets ``L g R`` of two subgroups, ordered by least member, each sorted.

    The least member of ``L g R`` is ``min_r min_l l (g r)``: the least
    member of each ``L x`` first, then the least of those over ``x`` in
    ``g R``.  Since L and R are subgroups, the double cosets partition
    the group, so equal least members mean equal double cosets.
    O(|G| (|L| + |R|)) time and memory.  Raises StructureError unless
    both are subgroups.
    """
    mul = group.mul
    least_left = mul[subgroup_elements(group, left)].min(axis=0)
    return _orbits(least_left[mul[:, subgroup_elements(group, right)]].min(axis=1))


def _part_of(group: CayleyGroup, parts) -> np.ndarray:
    """Entry g is the index of the part that holds g.

    Raises StructureError unless ``parts`` partition the group.
    """
    flat = [int(x) for part in parts for x in part]
    if not all(parts) or sorted(flat) != list(range(group.order)):
        raise StructureError("parts do not partition the group")
    part_of = np.empty(group.order, dtype=np.int64)
    part_of[flat] = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    return part_of


def _star(group: CayleyGroup, parts, back) -> tuple[int, ...]:
    """For each part of ``parts``, the index of the part of ``back`` that holds its inverses."""
    inv = np.asarray(inverses(group))
    return tuple(_part_of(group, back)[inv[[part[0] for part in parts]]].tolist())


def indicator_product_coefficients(
    group: CayleyGroup, parts_a, parts_b=None, parts_c=None
) -> np.ndarray:
    """Expansion of products of normalized indicator sums.

    Each of ``parts_a``, ``parts_b`` and ``parts_c`` must partition the
    group; the last two default to ``parts_a``.  Entry ``[a, b, c]`` is
    the mass that the convolution of the uniform measures on ``A_a``
    and ``B_b`` puts on ``C_c``: the number of pairs in ``A_a x B_b``
    whose product lies in ``C_c``, divided by ``|A_a| |B_b|``.  All |G|^2
    products are counted at once, O(|G|^2) time and memory, and each
    count is divided once, so every entry is correctly rounded.
    """
    parts_b = parts_a if parts_b is None else parts_b
    parts_c = parts_a if parts_c is None else parts_c
    na, nb, nc = len(parts_a), len(parts_b), len(parts_c)
    pa, pb, pc = (_part_of(group, parts) for parts in (parts_a, parts_b, parts_c))
    cell = (pa[:, None] * nb + pb[None, :]) * nc + pc[group.mul]
    counts = np.bincount(cell.ravel(), minlength=na * nb * nc).reshape(na, nb, nc)
    sizes_a = np.bincount(pa, minlength=na)
    sizes_b = np.bincount(pb, minlength=nb)
    return counts / (sizes_a[:, None, None] * sizes_b[None, :, None])


def _partition_hypergroup(group, parts, labels) -> HypergroupTable:
    unit = int(_part_of(group, parts)[group.identity])
    lam = indicator_product_coefficients(group, parts)
    return HypergroupTable(labels, unit, _star(group, parts, parts), lam)


def group_hypergroup(group: CayleyGroup) -> HypergroupTable:
    """The group itself as a hypergroup: every product is a point mass."""
    lam = np.eye(group.order)[group.mul]  # lam[i, j] is the point mass at i*j
    labels = tuple(group.label(i) for i in range(group.order))
    return HypergroupTable(labels, group.identity, inverses(group), lam)


def conjugacy_class_hypergroup(group: CayleyGroup) -> HypergroupTable:
    """Hypergroup of normalized conjugacy-class sums ``(1/|C|) sum_{g in C} g``."""
    classes = conjugacy_classes(group)
    labels = tuple(f"C{group.label(c[0])}" for c in classes)
    return _partition_hypergroup(group, classes, labels)


def double_coset_hypergroup(group: CayleyGroup, subgroup) -> HypergroupTable:
    """Hypergroup of normalized double-coset sums with respect to a subgroup."""
    sub = subgroup_elements(group, subgroup)
    cosets = double_cosets(group, sub, sub)
    labels = tuple(f"D{group.label(c[0])}" for c in cosets)
    return _partition_hypergroup(group, cosets, labels)


@dataclass(frozen=True, eq=False)
class FusionRing:
    """Integer structure constants ``N[i, j, l]`` with a conjugation."""

    labels: tuple[str, ...]
    unit: int
    conj: tuple[int, ...]
    N: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        n = len(labels)
        if n < 1:
            raise StructureError("a fusion ring needs at least one element")
        N = _int_tensor(self.N, 3, "fusion tensor")
        if N.shape != (n, n, n):
            raise StructureError(f"fusion tensor has shape {N.shape}, expected {(n, n, n)}")
        if N.min() < 0:
            raise StructureError("fusion multiplicities must be nonnegative")
        if n * int(N.max()) ** 2 >= 2**53:
            raise StructureError("fusion multiplicities too large: n * max(N)**2 >= 2**53")
        (unit,) = _as_index_tuple((self.unit,), n, "unit index")
        conj = _as_index_tuple(_grid(self.conj, n, 1, "conjugation"), n, "conjugation")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "conj", conj)
        object.__setattr__(self, "N", N)

    @property
    def n(self) -> int:
        return len(self.labels)


def _generator_certificate(Nf: np.ndarray, unit: int) -> bool:
    """Whether a generating set proves the integer tensor ``Nf`` associative.

    The set A = {a : (x a) y = x (a y) for all x, y} is closed under
    products: for a, b in A, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
    x((ab)y) (Light's test; Clifford & Preston, Algebraic Theory of
    Semigroups I, 1961, section 1.2).  The unit is in A by the unit laws,
    which are checked here.  If c is the only uncertified element in the
    support of a product ``a g`` of a certified element and a generator,
    then ``N[a, g, c] f_c`` is ``a g`` minus certified elements, so c is
    in A.  When no such product remains, the least uncertified element
    becomes a generator; its middle law is tested with two matrix
    products, 2 n^4 multiply-adds into two n^3 buffers, exactly, since
    ``FusionRing`` keeps ``n * max(N)**2`` below 2**53.  SU(2)_k needs
    one generator.  False, for the caller to run the kernel, when a unit
    law or a middle law fails, or when one more generator would bring
    the tests above a quarter of the screened kernel's n^5 multiply-adds.
    """
    n = Nf.shape[0]
    eye = np.eye(n)
    if not (np.array_equal(Nf[unit], eye) and np.array_equal(Nf[:, unit, :], eye)):
        return False
    flat = Nf.reshape(n, n * n)
    left, right = np.empty((n, n * n)), np.empty((n, n, n))
    certified = np.zeros(n, dtype=bool)
    certified[unit] = True
    support = np.zeros((n, 0, n), dtype=bool)  # support[a, j, c]: N[a, gens[j], c] > 0
    pending = np.zeros((n, 0), dtype=np.int64)  # uncertified elements in that support
    while not certified.all():
        a, j = np.nonzero(certified[:, None] & (pending == 1))
        if a.size:
            c = int(np.argmax(support[a[0], j[0]] & ~certified))
        elif 8 * (support.shape[1] + 1) > n:  # 2 n^4 a generator, at most n^5 / 4
            return False
        else:
            c = int(np.argmin(certified))
            np.matmul(Nf[:, c, :], flat, out=left)  # (x c) y
            np.matmul(Nf[c], Nf, out=right)  # x (c y)
            np.subtract(right, left.reshape(n, n, n), out=right)  # in place: no n^3 mask
            if right.any():
                return False
            column = Nf[:, c, :] > 0
            support = np.concatenate((support, column[:, None, :]), axis=1)
            pending = np.column_stack((pending, (column & ~certified).sum(axis=1)))
        certified[c] = True
        pending -= support[:, :, c]
    return True


def validate_fusion_ring(ring: FusionRing) -> None:
    """Raise AxiomError on hard violations; warn on Frobenius asymmetry.

    Hard requirements: exact associativity, both unit laws, and the
    conjugation law ``N[i, j, unit] == (j == conj(i))``.  Frobenius
    reciprocity ``N[i, j, l] == N[conj(i), l, j]`` is reported as a
    warning only, since rescalings of group-like data may lack it.

    From ``_SCREEN_MIN_N`` elements on, associativity is first certified
    from a generating set (``_generator_certificate``): 2 n^4
    multiply-adds a generator, one generator for SU(2)_k.  Otherwise,
    when a generator fails or more than n / 8 would be needed, it runs on
    the kernel of ``validate``, in float64 and exactly: ``FusionRing``
    keeps ``n * max(N)**2`` below 2**53, so every partial sum is an
    integer that float64 holds.  So a ring whose conjugation is an
    involution and obeys ``N[i, j, l] == N[conj(j), conj(i), conj(l)]``
    screens with margin 0, in n^5 multiply-adds when it passes,
    commutative or not; any other takes 2 n^5.  The certificate passes
    only an associative ring, and every failure ends in the kernel, so
    the outcome and the report are the same as the kernel's alone.
    Memory is O(n^3).  The error's ``report`` lists every violation.
    Below ``_SCREEN_MIN_N`` elements the certificate does not pay (least
    of 200 calls, one thread of a 2-vCPU VM, kernel against certificate):
    32 against 43 us on SU(2)_2, 72 against 96 on SU(2)_8, 131 against
    133 on SU(2)_12, but 202 against 166 on SU(2)_15.
    """
    N = ring.N
    unit = ring.unit
    eye = np.eye(ring.n, dtype=np.int64)
    if not (np.array_equal(N[unit], eye) and np.array_equal(N[:, unit, :], eye)):
        raise AxiomError("fusion ring violates the unit law")
    if not np.array_equal(N[:, :, unit], eye[list(ring.conj)]):
        raise AxiomError(
            "fusion ring violates the conjugation law N[i, j, unit] = delta(j, conj(i))"
        )
    frob = N.transpose(0, 2, 1)[list(ring.conj)]  # frob[i, j, l] = N[conj(i), l, j]
    if not np.array_equal(N, frob):
        warnings.warn("fusion ring lacks Frobenius symmetry N[i,j,l] = N[conj(i),l,j]")
    Nf = N.astype(np.float64)
    if ring.n >= _SCREEN_MIN_N and _generator_certificate(Nf, unit):
        return
    vios = []
    _associativity_violations(Nf, Nf, Nf, Nf, (), 0.0, vios, exact=True, star=ring.conj)
    if vios:
        report = ValidationReport(False, tuple(vios))
        raise AxiomError(f"fusion ring is not associative at {vios[0].indices}", report=report)


def fusion_ring(labels, unit, N, conj=None) -> FusionRing:
    """Build and validate a fusion ring, inferring the conjugation from N if omitted."""
    ring = FusionRing(tuple(labels), unit, range(len(labels)) if conj is None else conj, N)
    if conj is None:
        unit_slice = ring.N[:, :, ring.unit]  # nonnegative: one partner, once, iff sum is 1
        bad = np.flatnonzero(unit_slice.sum(axis=1) != 1)
        if bad.size:
            raise StructureError(
                f"cannot infer conjugation: row {bad[0]} has no unique unit partner"
            )
        ring = FusionRing(ring.labels, ring.unit, unit_slice.argmax(axis=1), ring.N)
    validate_fusion_ring(ring)
    return ring


@dataclass(frozen=True, eq=False)
class DimensionVector:
    """Perron-Frobenius dimensions of the basis of a fusion ring.

    ``defect`` is ``max |d_i d_j - sum_l N[i, j, l] d_l|``, the residual
    of the fusion rules on ``dims``; it is 0.0 for integer dimensions.
    """

    dims: np.ndarray
    defect: float

    def __post_init__(self):
        object.__setattr__(self, "dims", _float_tensor(self.dims, None, "dimensions"))
        object.__setattr__(self, "defect", float(self.defect))


def _reaches_all(adjacency: np.ndarray, start: int) -> bool:
    # breadth-first search; each vertex is a frontier row once, so O(n^2)
    reached = np.zeros(adjacency.shape[0], dtype=bool)
    reached[start] = True
    frontier = np.array([start])
    while frontier.size:
        step = adjacency[frontier].any(axis=0) & ~reached
        reached |= step
        frontier = np.flatnonzero(step)
    return bool(reached.all())


def pf_dimensions(ring: FusionRing) -> DimensionVector:
    """Perron-Frobenius dimensions, read off one eigenvector.

    With ``(N_i)[j, l] = N[i, j, l]`` the dimension vector d satisfies
    ``N_i d = d_i d`` for every i, so it is the Perron-Frobenius
    eigenvector of the total matrix ``T = sum_i N_i``, scaled to
    ``d[unit] = 1``.  T is nonnegative and irreducible (else
    PreconditionError; checked by search from the unit in T and in T^T,
    O(n^2)), so its Perron-Frobenius eigenvalue is the one with the
    largest real part.  One dense ``eig`` of T (O(n^3)) gives d; one
    pass ``d_i = sum_jl N[i, j, l] d_l / sum_j d_j`` (O(n^3)) refines
    it, and its rounding replaces it when the rounded vector satisfies
    the fusion rules exactly in integers.  A fusion-rule defect above
    1e-7 raises NumericalError.
    """
    N = ring.N
    total = N.sum(axis=0)
    adjacency = total > 0
    if not (_reaches_all(adjacency, ring.unit) and _reaches_all(adjacency.T, ring.unit)):
        raise PreconditionError("fusion graph is reducible; dimensions are not determined")
    values, vectors = np.linalg.eig(total)
    d = vectors[:, np.argmax(values.real)].real
    sums = N.sum(axis=1) @ d  # sums[i] = d_i * sum_j d_j
    dims = sums / sums[ring.unit]
    rounded = np.rint(dims).astype(np.int64)
    if np.array_equal(np.outer(rounded, rounded), N @ rounded):
        dims = rounded.astype(np.float64)
    defect = float(np.max(np.abs(np.outer(dims, dims) - N @ dims)))
    if defect > 1e-7:
        raise NumericalError(f"dimension vector inconsistent with fusion rules ({defect:.3e})")
    return DimensionVector(dims, defect)


def from_fusion_ring(ring: FusionRing, tol: float = DEFAULT_TOL) -> HypergroupTable:
    """Rescale ``k_i = f_i / dim_i``; weights of the result are ``dim_i**2``.

    The result is checked by ``validate`` at ``max(tol, 1e-9)``, with the
    same report, though from ``_SCREEN_MIN_N`` elements on its n^5
    associativity kernel is mostly skipped.  For any nonzero d, ``lam[a,
    b, c] = N[a, b, c] d_c / (d_a d_b)`` gives ``lam[a, b, m] lam[m, c,
    p] = N[a, b, m] N[m, c, p] d_p / (d_a d_b d_c)``: d_m cancels, and
    likewise in ``a (b c)``, so lam is exactly associative whenever N
    is.  Each stored entry is rounded three times (two products and a
    quotient), so it is ``lam (1 + theta)`` with ``|theta| <= rho = (1 +
    eps)^3 - 1``; an n-term sum of products of stored entries is then
    off from the exact one by at most ``sigma n M^2``, ``sigma = ((1 +
    rho)^2 - 1) / (1 - rho)^2``, ``M`` the largest entry, and the
    kernel's own round-off is ``core._dot_error(n, M)``.  When ``margin
    = 2 sigma n M^2 + _dot_error(n, M)`` is below tol, no computed
    defect can exceed tol, so the kernel is skipped once the generator
    certificate of ``validate_fusion_ring`` proves N associative; it runs
    on ``ring.N`` itself, unit laws included, since a ``FusionRing`` built
    directly may be neither.  If it fails, the kernel runs.  Timed as in
    ``validate_fusion_ring``: 135 against 152 us on SU(2)_2, 210 against
    251 on SU(2)_8, 294 against 298 on SU(2)_12, 423 against 384 on SU(2)_15.
    """
    dims = pf_dimensions(ring).dims
    lam = ring.N * dims[None, None, :] / (dims[:, None, None] * dims[None, :, None])
    table = HypergroupTable(ring.labels, ring.unit, ring.conj, lam)
    del lam  # HypergroupTable holds a copy
    tol = max(tol, 1e-9)
    n, big = ring.n, max(float(table.lam.max()), -float(table.lam.min()))
    rho = (1.0 + _EPS) ** 3 - 1.0
    sigma = ((1.0 + rho) ** 2 - 1.0) / (1.0 - rho) ** 2
    skip = (
        n >= _SCREEN_MIN_N
        and 2.0 * sigma * n * big * big + _dot_error(n, big) < tol
        and _generator_certificate(ring.N.astype(np.float64), ring.unit)
    )
    report = _report(table, tol, not skip)
    if not report.passed:
        raise AxiomError("rescaled fusion ring fails hypergroup axioms", report=report)
    return table


def two_element(lam: float, labels=("k0", "k1")) -> HypergroupTable:
    """The two-element hypergroup ``k1^2 = lam*k0 + (1-lam)*k1``."""
    lam = float(lam)
    if not 0.0 < lam <= 1.0:
        raise PreconditionError(f"two-element parameter must lie in (0, 1], got {lam}")
    tensor = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [lam, 1.0 - lam]]]
    return HypergroupTable(tuple(labels), 0, (0, 1), tensor)


def two_element_parameter(n_self: int) -> float:
    """The parameter realized by the fusion ring ``f1^2 = f0 + n_self*f1``.

    Equals ``1/dim**2`` with ``dim = (n + sqrt(n**2 + 4)) / 2``, which
    is the same number as ``1 + r/2 - r*sqrt(1/4 + 1/r)`` for
    ``r = n**2``.
    """
    if n_self < 0:
        raise PreconditionError("self-coupling must be nonnegative")
    dim = (n_self + np.sqrt(n_self * n_self + 4.0)) / 2.0
    return float(1.0 / (dim * dim))


def fusion_realizable_two_element(
    lam: float, search_bound: int = 64, tol: float = DEFAULT_TOL
) -> tuple[int, int] | None:
    """Decide whether ``two_element(lam)`` is the rescaling of a fusion ring.

    A two-element fusion ring has ``f1^2 = n0*f0 + n1*f1`` with the
    conjugation law forcing ``n0 = 1`` (the unit coefficient of
    ``f1 * conj(f1)`` is exactly 1), so candidates are scanned as
    ``(1, n1)`` for ``n1 = 0 .. search_bound`` and the first match of
    ``lam`` within tol is returned.  ``(1, 0)`` is the group Z2.
    Dropping the conjugation law would admit more parameters (for
    example double-coset rescalings with a unit multiplicity above 1),
    which this predicate deliberately rejects.
    """
    lam = float(lam)
    if not 0.0 < lam <= 1.0:
        raise PreconditionError(f"two-element parameter must lie in (0, 1], got {lam}")
    if search_bound < 1:
        raise PreconditionError("search bound must be at least 1")
    for n1 in range(0, search_bound + 1):
        if abs(two_element_parameter(n1) - lam) <= tol:
            return (1, n1)
    return None
