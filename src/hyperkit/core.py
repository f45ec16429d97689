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
#: Smallest basis on which ``_associativity_violations`` screens.  Below
#: it a slice's matrix products cost mostly call overhead, so halving
#: their flops does not repay the screen's set-up.
_SCREEN_MIN_N = 16


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


def _dot_error(n, big) -> float:
    """``e = 2 (gamma_n + eps)(1 + gamma_n) n M^2`` for ``M = big``: how far a
    computed associativity defect on n-term sums with entries up to M may be
    off (``_associativity_violations`` derives it)."""
    gamma = n * _EPS / (1.0 - n * _EPS)
    return 2.0 * (gamma + _EPS) * (1.0 + gamma) * n * big * big


def _cut(tol, n, big, delta, exact):
    """``tol - margin`` if ``margin < tol`` or ``margin == 0``, else None.

    ``margin = 5 n M delta + 2 e`` with ``M = big`` and ``e = _dot_error(n,
    M)``, or ``e = 0`` under ``exact`` arithmetic;
    ``_associativity_violations`` derives it.
    """
    e = 0.0 if exact else _dot_error(n, big)
    margin = 5.0 * n * big * delta + 2.0 * e
    return tol - margin if margin < tol or margin == 0.0 else None


def _star_defect(t, u, stars, buf, spare) -> float:
    """``max |t[a, b, c] - u[b*, a*, c*]|``, where ``stars`` maps a, b, c to a*, b*, c*.

    One gather of the rows ``u[b*, a*, :]`` into ``buf``, one of their
    entries ``c*`` into ``spare`` (both flat, of ``t.size`` or more), so
    O(t.size) time and nothing of that size allocated.  0.0 on an empty ``t``.
    """
    if t.size == 0:
        return 0.0
    sa, sb, sc = (np.asarray(s, dtype=np.intp) for s in stars)
    rows = (sb[None, :] * u.shape[1] + sa[:, None]).ravel()  # u[b*, a*] at (a, b)
    nc = t.shape[2]
    gathered, dev = buf[: t.size].reshape(-1, nc), spare[: t.size].reshape(-1, nc)
    # mode "clip" writes into out unbuffered; every index is in range
    np.take(u.reshape(-1, nc), rows, axis=0, out=gathered, mode="clip")
    np.take(gathered, sc, axis=1, out=dev, mode="clip")
    np.subtract(t.reshape(-1, nc), dev, out=dev)
    np.abs(dev, out=dev)
    return float(np.maximum.reduce(dev, axis=None))


def _screen_cut(t, tol, exact, buf, star=None, spare=None):
    """Largest screened deviation that proves a slice and its mirror clean, or None.

    ``_cut`` of ``delta = max|t[a, b, c] - t[b*, a*, c*]|`` and ``M =
    max|t|`` for ``b* = star[b]``.  The identity star (``None``) takes
    ``delta = max|t - t^T|`` (the first two indices swapped), formed in
    ``buf``, of ``t``'s shape; any other star gathers it with
    ``_star_defect`` into ``buf`` and ``spare``, each of ``t``'s size.
    """
    if star is None:
        np.subtract(t, t.transpose(1, 0, 2), out=buf)
        np.abs(buf, out=buf)
        delta = float(np.maximum.reduce(buf, axis=None))  # NaN on NaN input: no screen
    else:
        delta = _star_defect(t, t, (star, star, star), buf.reshape(-1), spare.reshape(-1))
    big = max(float(np.maximum.reduce(t, axis=None)), -float(np.minimum.reduce(t, axis=None)))
    return _cut(tol, t.shape[0], big, delta, exact)


def _first_failing_step(t, cut, dev, right, star=None) -> int:
    """First step ``i`` whose screen ``max |S[a, b, c, p]|`` exceeds cut, else n.

    Step i screens the columns ``c >= i`` of slice ``a = star[i]`` (``a =
    i`` under the identity, ``None``).  ``dev`` and ``right`` are the
    kernel's two n^3 buffers; both products read views of ``t``.
    """
    n = t.shape[0]
    t_flat = t.reshape(n, n * n)
    bc = t.transpose(1, 0, 2) if star is None else t  # [b, c, q]: t[c,b,q], else t[b,c,q]
    left_flat, right_flat = dev.reshape(-1), right.reshape(-1)
    for i in range(n):
        a = i if star is None else int(star[i])
        size = n * (n - i) * n
        left = left_flat[:size].reshape(n, -1)                 # (ab)c, columns c >= i
        slab = right_flat[:size].reshape(n, -1, n)             # sum_q bc[b,c,q] t[a,q,p]
        np.matmul(t[a], t_flat[:, i * n :], out=left)
        np.matmul(bc[:, i:], t[a], out=slab)
        np.subtract(left, slab.reshape(n, -1), out=left)
        np.abs(left, out=left)
        if not np.maximum.reduce(left, axis=None) <= cut:  # NaN fails the screen
            return i
    return n


def _associativity_violations(ab, mc, bc, aq, prefix, tol, vios, exact=False, star=None) -> float:
    """Report ``|sum_m ab[a,b,m] mc[m,c,p] - sum_q bc[b,c,q] aq[a,q,p]| > tol``.

    Violations come in (a, b, c, p) order.  One first index ``a`` at a
    time, with two matrix products into two reused buffers, so for basis
    sizes up to n this takes 2 n^5 multiply-adds and O(n^3) memory.  The
    deviations of a slice are formed in place, and only a slice whose
    largest deviation exceeds tol is scanned for its indices.  Returns
    the largest deviation of the slices scanned in full (0.0 if none;
    NaN is skipped, as the comparison with tol skips it).

    When all four operands are one tensor ``t`` on ``_SCREEN_MIN_N`` or
    more elements and ``star`` (``b -> b*``; None is the identity) is an
    involution, a screen first halves the work, for n^5 multiply-adds on
    a table that passes and nearly obeys the star law ``t[a,b,c] ==
    t[b*,a*,c*]`` (a hypergroup's involution is an anti-automorphism; a
    commutative table obeys the law under the identity).  Write ``L``
    for ``(ab)c``, ``R`` for ``a(bc)`` and ``D = L - R``.  Under the star
    law each term ``t[c*,b*,m] t[m,a*,p*]`` of ``L[c*,b*,a*,p*]`` is the
    term ``t[b,c,m*] t[a,m*,p]`` of ``R[a,b,c,p]``, and the terms of
    ``R[c*,b*,a*,p*]`` are those of ``L[a,b,c,p]``, so ``D[c*,b*,a*,p*]
    = -D[a,b,c,p]``.  Step ``i`` of the screen covers the columns ``c >=
    i`` of slice ``a = i*`` only, with ``S[a,b,c,p] = L[a,b,c,p] - sum_q
    t[b,c,q] t[a,q,p]``, so ``S = D`` there; the identity star keeps the
    commutative screen's ``t[c,b,q]`` for ``t[b,c,q]``, off by ``|S -
    D[a,b,c,p]| <= n M delta``.  Both products read views of ``t``, no
    copy.  With ``delta = max|t[a,b,c] - t[b*,a*,c*]|`` and ``M =
    max|t|``, exactly ``|D[c*,b*,a*,p*] + D[a,b,c,p]| <= 4 n M delta``.
    A dot product of length n computed in any order is off by at most
    ``gamma_n sum|x_i y_i|``, ``gamma_n = n eps / (1 - n eps)`` (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    section 3.1); with the rounding of the subtraction, a computed ``S``
    or ``D`` is off by at most ``e = 2 (gamma_n + eps)(1 + gamma_n) n
    M^2``.  So a step whose computed ``|S|`` stays within ``tol -
    margin``, ``margin = 5 n M delta + 2 e``, has no computed ``|D|``
    above tol at ``(a, b, c, p)`` or at ``(c*, b*, a*, p*)`` for any ``c
    >= a*``.  ``exact`` says the arithmetic is exact (integer entries
    with ``n max|t|^2 < 2**53``), so ``e = 0`` and a table that obeys the
    star law screens with margin 0.  The screen runs while ``margin <
    tol`` (or ``margin == 0``).  If step ``i0`` is the first whose screen
    fails, every slice ``a`` screened before it (``a* < i0``) is clean:
    its columns ``c >= a*`` by its own step, the others as the mirrors of
    column ``a*`` of slice ``c*``, which step ``c < a*`` screened (``c**
    = c`` since ``star`` is an involution).  So the full scan takes the
    other slices, ``a* >= i0``, and reports exactly what it reports
    without the screen, at the cost of one screened step more.  Memory:
    the two n^3 buffers, which ``delta``'s two gathers reuse.
    """
    nm, nc, np_ = mc.shape
    nb, nq = bc.shape[0], bc.shape[2]
    mc_flat = mc.reshape(nm, nc * np_)
    bc_flat = bc.reshape(nb * nc, nq)
    dev = np.empty((nb, nc * np_))
    right = np.empty((nb * nc, np_))
    slices = range(ab.shape[0])
    if ab is mc is bc is aq and nm >= _SCREEN_MIN_N:
        ident = np.arange(nm)
        s = ident if star is None else np.asarray(star, dtype=np.intp)
        if np.array_equal(s[s], ident):
            s = None if np.array_equal(s, ident) else s
            cut = _screen_cut(ab, tol, exact, dev.reshape(ab.shape), s, right)
            if cut is not None:
                steps = _first_failing_step(ab, cut, dev, right, s)
                slices = sorted((ident if s is None else s)[steps:].tolist())  # not cleared
    worst = 0.0
    for a in slices:
        np.matmul(ab[a], mc_flat, out=dev)
        np.matmul(bc_flat, aq[a], out=right)
        dev -= right.reshape(nb, nc * np_)
        np.abs(dev, out=dev)
        if dev.size == 0:
            continue
        largest = np.fmax.reduce(dev, axis=None)  # skips NaN, as the comparisons do
        if largest > worst:
            worst = float(largest)
        if not largest > tol:
            continue
        slab = dev.reshape(nb, nc, np_)
        for b, c, p in zip(*np.where(slab > tol)):
            where = (*prefix, a, int(b), int(c), int(p))
            vios.append(Violation("associativity", where, float(slab[b, c, p])))
    return worst


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
    Associativity dominates: n^5 multiply-adds on a table that passes
    and whose involution is one and obeys the star law ``lam[a, b, c] ==
    lam[inv(b), inv(a), inv(c)]`` within the screen's margin (from 16
    elements on, see ``_associativity_violations``), 2 n^5 otherwise,
    and 2 n^3 floats of memory.
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
    if associativity:
        _associativity_violations(lam, lam, lam, lam, (), tol, vios, star=inv)

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
