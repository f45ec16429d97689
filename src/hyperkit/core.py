"""Finite hypergroup tables and their basic operations.

A finite hypergroup is a vector space with a distinguished basis
``k_0, ..., k_{n-1}`` whose products expand as convex combinations

    k_i * k_j = sum_l  lambda[i][j][l] * k_l,

with all ``lambda[i][j][l] >= 0`` and each row summing to 1.  There is
a neutral element ``k_unit`` and an involution ``i <-> inv(i)`` such
that the unit coefficient ``lambda[i][j][unit]`` is nonzero exactly
when ``j = inv(i)``.  Groups are the special case where every row is a
point mass.

This module holds the table type, the axiom validator, multiplication
of basis elements and of convex mixtures, element weights
``mu_i = 1 / lambda[i][inv(i)][unit]`` and the Haar measure

    H = (sum_i mu_i)^(-1) * sum_i mu_i * k_i,

the unique absorbing idempotent mixture (H * k_i = k_i * H = H = H^2).

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import AxiomError, PreconditionError, StructureError

#: Absolute comparison tolerance used throughout unless overridden.
DEFAULT_TOL = 1e-9

_EPS = float(np.finfo(np.float64).eps)
_INT64_MAX = np.iinfo(np.int64).max
_BOOL_TYPES = frozenset({bool, np.bool_})
#: Smallest basis on which ``validate`` tries the certificate of
#: ``_rescaled_ring``: from there on the certificate's budget of n / 8
#: generators, a quarter of the kernel's work, covers two.  Below it
#: ``_middle_law`` multiplies all rows of a generator's products at once,
#: where two row blocks would cost mostly call overhead.
_CERTIFY_MIN_N = 16


def _integers(seq):
    """``seq`` as a tuple of integers, or None if an entry is a float, a
    string, a boolean or anything else that is not an integer."""
    if not _BOOL_TYPES.isdisjoint(map(type, seq)):  # operator.index takes True as 1
        return None
    try:
        return tuple(map(operator.index, seq))
    except TypeError:
        return None


def _as_index_tuple(seq, n, what):
    """``seq`` as a tuple of integers in ``[0, n)``; a float, a string or a
    boolean raises StructureError instead of being cast."""
    out = _integers(seq)
    if out is None or (out and (min(out) < 0 or max(out) >= n)):
        raise StructureError(f"{what}: expected integers in [0, {n})")
    return out


def _as_index(i, n, what):
    """``i`` as an integer in ``[0, n)``: a float, a string or a boolean
    raises StructureError, as in ``_as_index_tuple``, and an integer out
    of range raises IndexError."""
    out = _integers((i,))
    if out is None:
        raise StructureError(f"{what}: expected an integer, got {i!r}")
    if not 0 <= out[0] < n:
        raise IndexError(f"{what} {i} out of range [0, {n})")
    return out[0]


def _int_tensor(data, ndim: int, what: str) -> np.ndarray:
    """``data`` as a read-only int64 tensor with ``ndim`` axes, converted by
    one dtype inference: a float or boolean tensor, or an entry beyond
    int64, raises StructureError.  (A boolean among integers in a nested
    list infers as an integer; refusing it would cost a type check of
    every entry.)"""
    try:
        arr = np.array(data)
    except ValueError as exc:
        raise StructureError(f"{what}: expected a rectangular array of integers") from exc
    if arr.dtype == object and all(type(x) is int for x in arr.flat) or (
        arr.dtype.kind == "u" and arr.size and arr.max() > _INT64_MAX
    ):
        raise StructureError(f"{what}: entries must fit in int64")
    if arr.dtype.kind not in "iu":
        raise StructureError(f"{what}: expected a rectangular array of integers")
    if arr.ndim != ndim:
        raise StructureError(f"{what}: expected {ndim} axes, found {arr.ndim}")
    arr = arr.astype(np.int64, copy=False)  # np.array copied it, so it is ours
    arr.setflags(write=False)
    return arr


def _float_tensor(value, shape, what: str) -> np.ndarray:
    """``value`` as a read-only float64 tensor of ``shape`` (any if None);
    StructureError unless its inferred dtype is integer or float and its
    entries are finite, so strings, booleans and complex entries are refused."""
    try:
        arr = np.array(value)
    except (OverflowError, ValueError) as exc:
        raise StructureError(f"{what}: expected a rectangular array of finite numbers") from exc
    if arr.dtype.kind not in "iuf":
        raise StructureError(f"{what}: expected a rectangular array of finite numbers")
    if shape is not None and arr.shape != shape:
        raise StructureError(f"{what}: shape {arr.shape}, expected {shape}")
    arr = arr.astype(np.float64, copy=False)  # np.array copied it, so it is ours
    if not np.isfinite(arr).all():
        raise StructureError(f"{what}: non-finite entries")
    arr.setflags(write=False)
    return arr


def _grid(value, k: int, depth: int, what: str) -> tuple:
    """``value`` as nested tuples, each of its ``depth`` levels a list,
    tuple, range or array of exactly ``k`` entries; StructureError otherwise."""
    if not (isinstance(value, (list, tuple)) or np.ndim(value)) or len(value) != k:
        raise StructureError(f"{what} must be a list of length {k}")
    if depth == 1:
        return tuple(value)
    return tuple(_grid(v, k, depth - 1, f"{what}[{i}]") for i, v in enumerate(value))


@dataclass(frozen=True, eq=False)
class HypergroupTable:
    """Structure constants of a finite hypergroup.

    Attributes:
        labels: one name per basis element.
        unit: index of the neutral element.
        involution: one index per element, ``inv(i)``; that it is an
            involution fixing the unit is an axiom, checked by ``validate``.
        lam: tensor of shape (n, n, n); ``lam[i, j, l]`` is the
            coefficient of ``k_l`` in ``k_i * k_j``.

    Construction checks shapes only; axioms are checked by ``validate``.
    """

    labels: tuple[str, ...]
    unit: int
    involution: tuple[int, ...]
    lam: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        n = len(labels)
        if n < 1:
            raise StructureError("a hypergroup needs at least one element")
        if len(set(labels)) != n:
            raise StructureError("element labels must be distinct")
        lam = _float_tensor(self.lam, (n, n, n), "lambda tensor")
        (unit,) = _as_index_tuple((self.unit,), n, "unit index")
        involution = _as_index_tuple(_grid(self.involution, n, 1, "involution"), n, "involution")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "involution", involution)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element named {label!r}") from None


def with_labels(table: HypergroupTable, labels) -> HypergroupTable:
    """Same table, new element names."""
    return HypergroupTable(tuple(labels), table.unit, table.involution, table.lam)


def tables_equal(t1: HypergroupTable, t2: HypergroupTable, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise equality of two tables (labels included)."""
    return (
        t1.labels == t2.labels
        and t1.unit == t2.unit
        and t1.involution == t2.involution
        and t1.lam.shape == t2.lam.shape
        and bool(np.all(np.abs(t1.lam - t2.lam) <= tol))
    )


@dataclass(frozen=True, eq=False)
class Mixture:
    """A convex combination of basis elements of a fixed table."""

    table: HypergroupTable
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _float_tensor(self.coeffs, (self.table.n,), "mixture coefficients")
        object.__setattr__(self, "coeffs", coeffs)


def mixture(table: HypergroupTable, coeffs, tol: float = DEFAULT_TOL) -> Mixture:
    """Build a mixture, clamping round-off negatives in [-tol, 0) to zero.

    Raises PreconditionError if the vector is not convex within tol.
    """
    c = _float_tensor(coeffs, (table.n,), "mixture coefficients")
    if np.any(c < -tol):
        raise PreconditionError("mixture has a negative coefficient beyond tolerance")
    c = np.where((c < 0.0) & (c >= -tol), 0.0, c)
    if abs(float(c.sum()) - 1.0) > tol:
        raise PreconditionError("mixture coefficients do not sum to 1 within tolerance")
    return Mixture(table, c)


def point_mass(table: HypergroupTable, i: int) -> Mixture:
    """The mixture concentrated on basis element ``i``."""
    i = _as_index(i, table.n, "element index")
    c = np.zeros(table.n)
    c[i] = 1.0
    return Mixture(table, c)


@dataclass(frozen=True)
class Violation:
    """One axiom failure: which axiom, at which indices, how large."""

    axiom: str
    indices: tuple[int, ...]
    magnitude: float

    def __str__(self):
        where = ", ".join(str(i) for i in self.indices)
        return f"{self.axiom} at ({where}): defect {self.magnitude:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]

    def __str__(self):
        if self.passed:
            return "all hypergroup axioms hold"
        lines = [f"{len(self.violations)} axiom violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _row_violations(t, prefix, tol, vios) -> None:
    """Nonnegativity of every entry and convexity of every row ``t[a, b, :]``."""
    for a, b, c in zip(*np.where(t < -tol)):
        where = (*prefix, int(a), int(b), int(c))
        vios.append(Violation("nonnegativity", where, float(-t[a, b, c])))
    dev = np.abs(t.sum(axis=2) - 1.0)
    for a, b in zip(*np.where(dev > tol)):
        vios.append(Violation("convexity", (*prefix, int(a), int(b)), float(dev[a, b])))


def _unit_violations(left, right, lu, ru, endo, prefix, tol, vios) -> None:
    """Unit laws: ``left[lu]`` and ``right[:, ru]`` are identity matrices.

    On an endo-space (``endo``) the entries ``(lu, lu, c)`` are checked
    by the left law only, so each is reported once.
    """
    eye = np.eye(left.shape[1])
    dev = np.abs(left[lu] - eye)
    for b, c in zip(*np.where(dev > tol)):
        vios.append(Violation("unit", (*prefix, lu, int(b), int(c)), float(dev[b, c])))
    dev = np.abs(right[:, ru, :] - eye)
    for a, c in zip(*np.where(dev > tol)):
        if not (endo and a == ru):
            vios.append(Violation("unit", (*prefix, int(a), ru, int(c)), float(dev[a, c])))


#: ``gamma_3 / (1 - gamma_3)``: ``N * d_c / (d_a * d_b)``, computed for an
#: integer N and normal floats d, is within this fraction of itself of the
#: exact value (three roundings, Higham 2002, lemma 3.1).
_RHO = 3.0 * _EPS / (1.0 - 6.0 * _EPS)


def _rescaling_margin(n, big, delta) -> float:
    """``2 n (2 M delta + delta^2) + e`` for ``M = big`` and ``e = 2 (gamma_n +
    eps)(1 + gamma_n) n M^2``, ``gamma_n = n eps / (1 - n eps)``.

    If every entry of a table t with ``max|t| = M`` lies within delta of
    an exactly associative table L, then with ``E = t - L`` each sum
    ``sum_m t[a,b,m] t[m,c,p]`` differs from L's by ``sum_m (E t + t E -
    E E)``, at most ``n (2 M delta + delta^2)``, and likewise in ``a (b
    c)``, where L's sums agree.  A dot product of length n computed in
    any order is off by at most ``gamma_n sum|x_i y_i|`` (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, section 3.1);
    with the rounding of the subtraction, a computed defect of
    ``_associativity_violations`` is off by at most e.  So no computed
    associativity defect of t exceeds this margin.
    """
    gamma = n * _EPS / (1.0 - n * _EPS)
    error = 2.0 * (gamma + _EPS) * (1.0 + gamma) * n * big * big
    return 2.0 * n * (2.0 * big * delta + delta * delta) + error


def _generator_certificate(N, unit, star, work=None) -> bool:
    """Whether a generating set proves the integer ring N associative.

    The basis spans a ring: ``a b = sum_c N[a, b, c] c``, N a float
    tensor of whole numbers.  The set A = {a : (x a) y = x (a y) for all
    x, y} is closed under products: for a, b in A, (x(ab))y = ((xa)b)y =
    (xa)(by) = x(a(by)) = x((ab)y) (Light's test; Clifford & Preston,
    Algebraic Theory of Semigroups I, 1961, section 1.2).  The unit is
    in A by the unit laws, which the caller checks first, and N is
    nonnegative.  If c is the only uncertified element in the support
    of a product ``a g`` of a certified element and a generator, ``N[a,
    g, c] c`` is ``a g`` minus certified elements, so c is in A.  When
    no such product remains, the next generator is taken by how many
    elements ``g g*`` holds (``star`` gives g*), read once, in O(n^2):
    the first generator is the uncertified g whose ``g g*`` holds the
    fewest but more than the unit (j1 or j(k-1) of SU(2)_k in any basis
    order); a later one is an invertible element while there is one,
    since it certifies ``a g`` for every certified a, else again the
    fewest; ties go to the least index.  A generator is tested by ``(a
    g) b = a (g b)`` for all a and b, 2 n^4 multiply-adds
    (``_middle_law``), exactly, since the caller keeps ``n * max(N)**2``
    below 2**53.  Memory: the products' ``work`` (allocated if None;
    ``_work_size``), plus one byte an element for each generator g and
    element a whose product ``a g`` still holds an uncertified element
    (n^2 a generator; ``_closure_rows``).  Each element certified costs
    five numpy calls.  False, for the caller to run the kernel, when a
    test fails, or when it would take more than n / 8 generators, a
    quarter of the kernel's 2 n^5 multiply-adds; so, before any
    allocation, always on 2 to 7 elements.  SU(2)_k needs one or two
    generators, groups and double-coset tables a few.
    """
    n = len(N)
    if n == 1:
        return True
    budget = n // 8
    if not budget:
        return False
    uncertified = np.ones(n, dtype=np.int8)
    uncertified[unit] = 0
    rank = np.count_nonzero(N[np.arange(n), list(star)] > 0.0, axis=1)  # |g g*|
    rank[rank == 1] = n + 1  # the first generator's g g* branches
    if work is None:
        work = np.empty(_work_size(n))
    # one row per generator g and element a = owner[r] that it follows, while
    # the support of a g has an uncertified element: weight[r, c] is 1 where
    # N[a, g, c] > 0, plus 2 at c = a, so that pending[r], the weight of the
    # uncertified elements, is 1 just when a is certified and c is the one
    # uncertified element of that support
    weight = np.zeros((0, n), dtype=np.int8)
    pending = owner = np.zeros(0, dtype=np.intp)
    todo = n - 1  # elements left to certify
    while todo:
        r = int((pending == 1).argmax()) if pending.size else 0
        if pending.size and pending[r] == 1:
            c = int((weight[r] & uncertified).argmax())
        else:
            budget -= 1
            if budget < 0:
                return False
            c = int(np.where(uncertified, rank, n + 2).argmin())
            rank[rank == n + 1] = 1  # later ones: invertible elements first
            if not _middle_law(N, c, work):
                return False
            weight, pending, owner = _closure_rows((weight, pending, owner), N[:, c], uncertified)
        uncertified[c] = 0
        todo -= 1
        pending -= weight[:, c]
    return True


def _work_size(n) -> int:
    """Floats of ``_middle_law``'s ``work``: two products of a row block
    of a, all n rows below ``_CERTIFY_MIN_N`` elements and half of them,
    rounded up, from there on; so at least n^3, which ``_rescaled_ring``
    uses first."""
    return 2 * (n if n < _CERTIFY_MIN_N else -(-n // 2)) * n * n


def _middle_law(N, g, work) -> bool:
    """Whether ``(a g) b = a (g b)`` for generator g, every a and every b
    of the integer ring N (``_generator_certificate``): two matrix
    products a row block of a, as many rows as ``work`` holds them for
    (``_work_size``).  Every block runs, whatever an earlier one found."""
    n = len(N)
    step = work.size // (2 * n * n)
    mb = N.reshape(n, n * n)  # m b for every m
    failed = False
    for lo in range(0, n, step):
        m = min(step, n - lo)
        span = m * n * n
        left = work[:span].reshape(m, n * n)
        right = work[span : 2 * span].reshape(m, n, n)
        np.matmul(N[lo : lo + m, g], mb, out=left)  # (a g) b
        np.matmul(N[g], N[lo : lo + m], out=right)  # a (g b)
        np.subtract(right, left.reshape(m, n, n), out=right)  # in place: no mask
        failed = failed or bool(right.any())
    return not failed


def _closure_rows(rows, ag, uncertified):
    """The rows ``(weight, pending, owner)`` of ``_generator_certificate``'s
    closure with those of a new generator g added, ``ag[a, c] = N[a, g,
    c]``, and with every row dropped whose support has no uncertified
    element left (1 in the int8 ``uncertified``): such a row never gets one."""
    fresh = np.arange(uncertified.size)
    added = (ag > 0.0).view(np.int8)  # the support of a g, a row for each a
    counts = (added & uncertified).sum(axis=1)
    added[fresh, fresh] += 2
    live = counts > 0
    added, fresh = added[live], fresh[live]
    counts = counts[live] + 2 * uncertified[fresh]
    weight, pending, owner = rows
    if not pending.size:
        return added, counts, fresh
    alive = pending > 2 * uncertified[owner]
    return (
        np.concatenate((weight[alive], added)),
        np.concatenate((pending[alive], counts)),
        np.concatenate((owner[alive], fresh)),
    )


def _rescaled_ring(lam, unit, inv, tol: float) -> bool:
    """Whether the table ``lam`` is so close to a rescaled associative
    integer ring that ``_associativity_violations`` reports nothing beyond tol.

    False at once below ``_CERTIFY_MIN_N`` elements.  The weights ``mu_a
    = 1 / lam[a, inv(a), unit]`` give the scales: ``d = sqrt(mu)`` first
    (fusion rings, ``N[a, a*, unit] = 1``), then ``d = mu`` (groups,
    classes and double cosets, where ``lam[a, b, c] mu_a mu_b / mu_c``
    counts pairs).  For one d, in [2**-64, 2**64] so that nothing below
    over- or underflows, ``N = rint(lam[a, b, c] d_a d_b / d_c)`` must
    be nonnegative, obey both unit laws exactly and keep ``n *
    max(N)**2`` below 2**53.  For any positive d, ``L[a, b, c] = N[a, b,
    c] d_c / (d_a d_b)`` is exactly associative when N is, since d_m
    cancels in ``L[a, b, m] L[m, c, p]`` and in ``L[b, c, q] L[a, q,
    p]`` (see ``from_fusion_ring``).  Its computed value ``fl(L)`` is
    within ``_RHO fl(L)`` of it, and a computed difference within a
    factor ``1 - eps`` of the exact one, so every entry of lam lies
    within ``delta = max|lam - fl(L)| / (1 - eps) + _RHO max fl(L)`` of
    L.  A d for which N fails, or whose delta brings
    ``_rescaling_margin(n, max|lam|, delta)`` up to tol (NaN and inf
    do), sends the next d; after the last, False.  Only then is N
    certified, by ``_generator_certificate``.  So True means that the
    kernel would report nothing: the report is the same without it.
    Time O(n^3) for the scales, plus the certificate's tests; memory
    about 2 n^3 floats: N, rounded into one buffer for either d, and the
    certificate's ``work``, which holds fl(L) first.
    """
    n = len(lam)
    if n < _CERTIFY_MIN_N:
        return False
    big = max(float(np.maximum.reduce(lam, axis=None)), -float(np.minimum.reduce(lam, axis=None)))
    N, work = np.empty(lam.shape), np.empty(_work_size(n))
    spare = work[: lam.size].reshape(lam.shape)
    with np.errstate(all="ignore"):
        mu = 1.0 / lam[np.arange(n), list(inv), unit]
        for d in (np.sqrt(mu), mu):
            if not np.all((d >= 2.0**-64) & (d <= 2.0**64)):
                continue  # NaN fails too
            outer = d[:, None] * d[None, :]
            # einsum, unlike a broadcasting multiply, takes no ufunc buffer
            np.einsum("abc,ab->abc", lam, outer, out=N)
            np.divide(N, d, out=N)
            np.rint(N, out=N)
            top = float(np.maximum.reduce(N, axis=None))
            if not (
                np.minimum.reduce(N, axis=None) >= 0.0
                and n * top * top < 2.0**53
                and np.array_equal(N[unit], np.eye(n))
                and np.array_equal(N[:, unit, :], np.eye(n))
            ):
                continue
            np.einsum("abc,c->abc", N, d, out=spare)  # fl(L), rounded as from_fusion_ring rounds it
            np.divide(spare, outer[:, :, None], out=spare)
            top = float(np.maximum.reduce(spare, axis=None))
            np.subtract(lam, spare, out=spare)
            np.abs(spare, out=spare)
            delta = float(np.maximum.reduce(spare, axis=None)) / (1.0 - _EPS) + _RHO * top
            if _rescaling_margin(n, big, delta) < tol:  # NaN compares False
                break
        else:
            return False
    return _generator_certificate(N, unit, inv, work)


def _associativity_violations(ab, mc, bc, aq, prefix, tol, vios) -> None:
    """Report ``|sum_m ab[a,b,m] mc[m,c,p] - sum_q bc[b,c,q] aq[a,q,p]| > tol``.

    Violations come in (a, b, c, p) order.  One first index ``a`` at a
    time, with two matrix products into two reused buffers, so for basis
    sizes up to n this takes 2 n^5 multiply-adds and O(n^3) memory.  The
    deviations of a slice are formed in place, and only a slice whose
    largest deviation exceeds tol is scanned for its indices (NaN is
    skipped, as the comparison with tol skips it).  On integer entries
    with ``n max|t|^2 < 2**53`` every sum is exact and every defect a
    whole number, so tol 0.5 reports exactly the nonzero defects.
    """
    nm, nc, np_ = mc.shape
    nb, nq = bc.shape[0], bc.shape[2]
    mc_flat = mc.reshape(nm, nc * np_)
    bc_flat = bc.reshape(nb * nc, nq)
    dev = np.empty((nb, nc * np_))
    right = np.empty((nb * nc, np_))
    for a in range(ab.shape[0]):
        np.matmul(ab[a], mc_flat, out=dev)
        np.matmul(bc_flat, aq[a], out=right)
        dev -= right.reshape(nb, nc * np_)
        np.abs(dev, out=dev)
        if dev.size == 0:
            continue
        if not np.fmax.reduce(dev, axis=None) > tol:  # skips NaN, as the comparisons do
            continue
        slab = dev.reshape(nb, nc, np_)
        for b, c, p in zip(*np.where(slab > tol)):
            where = (*prefix, a, int(b), int(c), int(p))
            vios.append(Violation("associativity", where, float(slab[b, c, p])))


def _involution_violations(t, unit, star, prefix, tol, vios) -> None:
    """The unit coefficient ``t[a, b, unit]`` is positive iff ``b == star[a]``."""
    v = t[:, :, unit]
    own = np.zeros(v.shape, dtype=bool)
    own[np.arange(v.shape[0]), list(star)] = True
    for a, b in zip(*np.nonzero(np.where(own, v <= tol, v > tol))):
        x = float(v[a, b])
        vios.append(Violation("involution", (*prefix, int(a), int(b)), tol - x if own[a, b] else x))


def _weight_symmetry_violations(lam, unit, inv, prefix, tol, vios) -> None:
    """Equal unit coefficients of ``k_i k_inv(i)`` and ``k_inv(i) k_i``."""
    for i in range(lam.shape[0]):
        if i <= inv[i]:
            d = abs(float(lam[i, inv[i], unit]) - float(lam[inv[i], i, unit]))
            if d > tol:
                vios.append(Violation("weight-symmetry", (*prefix, i, inv[i]), d))


def validate(table: HypergroupTable, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check every hypergroup axiom, reporting all violations beyond tol.

    Checks, in order: nonnegativity, convexity (rows sum to 1), unit
    laws, associativity, involution consistency (the permutation is an
    involution fixing the unit, and unit mass appears exactly on
    conjugate pairs), and symmetry of the unit coefficients across each
    conjugate pair (equal weights for ``i`` and ``inv(i)``).
    Associativity dominates.  From 16 elements on, a table within
    round-off of a rescaled associative integer ring (parsed documents
    and duals of fusion rings, group, class and double-coset tables, in
    any basis order) is certified instead: O(n^3) to recognise it and 2
    n^4 multiply-adds per generator, at most n / 8 of them, to certify
    the ring, in 2 n^3 floats (``_rescaled_ring``).  Any other table, or
    one the certificate cannot prove, takes the kernel, 2 n^5
    multiply-adds in 2 n^3 floats (``_associativity_violations``).  The
    report is the kernel's either way.
    """
    return _report(table, tol, True)


def _report(table: HypergroupTable, tol: float, associativity: bool) -> ValidationReport:
    """``validate``'s checks in its order; without ``associativity`` the kernel
    is skipped, for a caller that has proved it reports nothing beyond tol."""
    lam = table.lam
    unit = table.unit
    inv = table.involution
    vios: list[Violation] = []

    _row_violations(lam, (), tol, vios)
    _unit_violations(lam, lam, unit, unit, True, (), tol, vios)
    if associativity and not _rescaled_ring(lam, unit, inv, tol):
        _associativity_violations(lam, lam, lam, lam, (), tol, vios)

    if inv[unit] != unit:
        vios.append(Violation("involution-permutation", (unit,), 1.0))
    for i in range(table.n):
        if inv[inv[i]] != i:
            vios.append(Violation("involution-permutation", (i,), 1.0))

    _involution_violations(lam, unit, inv, (), tol, vios)
    _weight_symmetry_violations(lam, unit, inv, (), tol, vios)
    return ValidationReport(not vios, tuple(vios))


def multiply(table: HypergroupTable, a: int, b: int) -> Mixture:
    """The product ``k_a * k_b`` as a mixture (row lam[a][b][.])."""
    a, b = (_as_index(i, table.n, "element index") for i in (a, b))
    return Mixture(table, table.lam[a, b])


def _same_table(t1: HypergroupTable, t2: HypergroupTable) -> bool:
    return t1 is t2 or tables_equal(t1, t2, tol=0.0)


def multiply_mixtures(
    table: HypergroupTable, p: Mixture, q: Mixture, tol: float = DEFAULT_TOL
) -> Mixture:
    """Bilinear extension of the basis product to convex mixtures."""
    if not (_same_table(p.table, table) and _same_table(q.table, table)):
        raise PreconditionError("mixtures are over different tables")
    return Mixture(table, _convolve(p.coeffs, q.coeffs, table.lam, tol))


def _convolve(p, q, t, tol):
    """``sum_ij p[i] q[j] t[i, j, :]``, round-off negatives in [-tol, 0) set to 0."""
    out = np.einsum("i,j,ijl->l", p, q, t)
    return np.where((out < 0.0) & (out >= -tol), 0.0, out)


def weights(table: HypergroupTable, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Element weights ``mu_i = 1 / lam[i, inv(i), unit]``.

    The unit has weight 1; group elements all have weight 1; for
    tables rescaled from fusion rules the weight is the squared
    dimension of the corresponding basis element.
    """
    diag = table.lam[np.arange(table.n), list(table.involution), table.unit]
    bad = np.where(diag <= tol)[0]
    if bad.size:
        i = int(bad[0])
        raise AxiomError(
            f"unit coefficient of k_{i} * k_{table.involution[i]} vanishes; "
            "weights are undefined",
            detail=(i, table.involution[i], table.unit),
        )
    return 1.0 / diag


def haar(table: HypergroupTable, tol: float = DEFAULT_TOL) -> Mixture:
    """The Haar measure: weights normalized to a convex combination."""
    mu = weights(table, tol)
    return Mixture(table, mu / mu.sum())


def is_commutative(table: HypergroupTable, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``k_i * k_j = k_j * k_i`` for all pairs, within tol."""
    return bool(np.max(np.abs(table.lam - table.lam.transpose(1, 0, 2))) <= tol)


def _isomorphism_search(t1, t2, tol, extra=((), ())):
    """Search of ``table_isomorphism``; ``extra``: per table, more per-element colour columns."""
    n = t1.n
    if n != t2.n:
        return None
    cmp = max(tol, 1e-6)
    try:
        w1, w2 = weights(t1, tol), weights(t2, tol)
    except AxiomError:
        return None
    inv1, inv2 = np.array(t1.involution), np.array(t2.involution)
    feats = [
        np.column_stack([np.arange(n) == t.unit, inv == np.arange(n), w, *x])
        for t, inv, w, x in ((t1, inv1, w1, extra[0]), (t2, inv2, w2, extra[1]))
    ]
    # value ids: cut the sorted values at gaps over cmp, so close entries share one
    values = np.sort(np.concatenate([x.ravel() for x in (*feats, t1.lam, t2.lam)]))
    starts = values[np.concatenate(([True], np.diff(values) > cmp))]
    f1, f2, ids1, ids2 = (np.searchsorted(starts, x, "right") - 1 for x in (*feats, t1.lam, t2.lam))

    def classes(rows):  # equal rows of a C-contiguous matrix share a class; compared as bytes
        return np.unique(rows.view(f"V{rows[0].nbytes}"), return_inverse=True)[1].ravel()

    def refine(colours):
        count = 0
        while colours.max() + 1 > count:
            count = colours.max() + 1
            keys = [
                np.sort(((c[:, None] * count + c) * len(starts) + ids).reshape(n, n * n), axis=1)
                for c, ids in ((colours[:n], ids1), (colours[n:], ids2))
            ]
            colours = classes(np.column_stack([colours, np.vstack(keys)]))
        return colours

    def search(colours):
        c1, c2 = colours[:n], colours[n:]
        if not np.array_equal(np.sort(c1), np.sort(c2)):
            return None
        sizes = np.bincount(c1)
        pi = np.empty(n, dtype=np.int64)
        pi[np.argsort(c1, kind="stable")] = np.argsort(c2, kind="stable")
        p = np.flatnonzero(sizes[c1] == 1)  # singleton classes: their images are fixed
        if np.any(np.abs(t1.lam[np.ix_(p, p, p)] - t2.lam[np.ix_(pi[p], pi[p], pi[p])]) > cmp):
            return None
        if p.size == n:
            return tuple(int(b) for b in pi) if np.array_equal(pi[inv1], inv2[pi]) else None
        cell = np.argmin(np.where(sizes > 1, sizes, n + 1))  # smallest class of two or more
        a = int(np.flatnonzero(c1 == cell)[0])
        for b in np.flatnonzero(c2 == cell):
            trial = colours.copy()
            trial[[a, n + b]] = sizes.size  # a and its candidate image b get a new colour
            found = search(refine(trial))
            if found is not None:
                return found
        return None

    return search(refine(classes(np.vstack([f1, f2]))))


def table_isomorphism(
    t1: HypergroupTable, t2: HypergroupTable, tol: float = DEFAULT_TOL
) -> tuple[int, ...] | None:
    """Search for a basis bijection identifying two tables.

    Returns a permutation ``pi`` with ``lam1[i, j, l] == lam2[pi(i),
    pi(j), pi(l)]`` (within ``max(tol, 1e-6)``), ``pi(unit1) == unit2``
    and ``pi . inv1 == inv2 . pi``, or None if no such bijection exists;
    a table maps to itself by the identity.  Colours (unit, conjugacy,
    weight) are refined by the multiset of ``(colour(j), colour(l),
    lam[i, j, l])`` until they stop splitting (1-dimensional Weisfeiler-
    Leman), in O(n^3 log n) time and O(n^3) memory a round.  Backtracking
    fixes the image of one element of the smallest class, in index order,
    refines again and checks ``lam`` on the elements fixed so far (McKay &
    Piperno 2014); it is exponential only on tables refinement cannot split.
    """
    return _isomorphism_search(t1, t2, tol)
