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

import itertools
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


#: ``gamma_3 / (1 - gamma_3)``: ``N * d_c / (d_a * d_b)``, computed for an
#: integer N and normal floats d, is within this fraction of itself of the
#: exact value (three roundings, Higham 2002, lemma 3.1).
_RHO = 3.0 * _EPS / (1.0 - 6.0 * _EPS)


def _rescaling_margin(n, big, delta) -> float:
    """``2 n (2 M delta + delta^2) + _dot_error(n, M)`` for ``M = big``.

    If every entry of a table t with ``max|t| = M`` lies within delta of
    an exactly associative table L, then with ``E = t - L`` each sum
    ``sum_m t[a,b,m] t[m,c,p]`` differs from L's by ``sum_m (E t + t E -
    E E)``, at most ``n (2 M delta + delta^2)``, and likewise in ``a (b
    c)``, where L's sums agree.  So no computed associativity defect of t
    exceeds this margin, the kernel's own round-off included.
    """
    return 2.0 * n * (2.0 * big * delta + delta * delta) + _dot_error(n, big)


class _RingBlocks:
    """The integer blocks ``N[x][y][z]`` of a composition grid, rounded as they are needed.

    ``comp[x][y][z]`` composes Mor(y -> x) with Mor(z -> y) into Mor(z ->
    x), of shape (|Mor(y->x)|, |Mor(z->y)|, |Mor(z->x)|), as in
    ``groupoid.Hypergroupoid``; a table is the one-object grid
    ``(((lam,),),)``.  After ``rescale(scales)`` (``scales[x][y]``, one
    positive float per arrow of Mor(y -> x)), ``N[a, b, c] =
    rint(comp[x][y][z][a, b, c] d_a d_b / d_c)``, each entry rounded
    alike in whatever slice asks for it; before, ``comp`` holds N and
    nothing is copied.  Two
    buffers bound the memory: ``held``, of the largest block's size,
    keeps the last block rounded into it, and ``work``, of about that
    size (``room``, twice that below ``_SCREEN_MIN_N`` arrows, where one
    block of products is cheaper), takes a block of at most half of it
    at its front and the caller's products behind it.
    """

    def __init__(self, comp):
        objs = range(len(comp))
        self.comp = comp
        self.size = [[comp[x][y][0].shape[0] for y in objs] for x in objs]
        self.n = max(map(max, self.size))
        self.largest = max(t.size for grid in comp for row in grid for t in row)
        self.room = self.largest * (1 if self.n >= _SCREEN_MIN_N else 2)
        self.held = self.work = None
        self.rescale(None)

    def rescale(self, scales):
        """Round with ``scales`` from now on; no block is at hand."""
        self.scales = scales
        self.at_hand = {}  # block -> the array holding it rounded in full
        self.in_held = self.in_front = None

    def scratch(self):
        """``work``, flat, allocated on first use with room for any block
        ``_generator_certificate`` may round into it and the products behind."""
        if self.work is None:
            size, objs = self.size, range(len(self.size))
            need = self.room
            for x, y, z, w in itertools.product(objs, repeat=4):
                front = self.comp[x][z][w].size
                at_front = self.scales is not None and 2 * front <= self.room
                for used in {0, front if at_front else 0}:
                    per_row = self.per_row(x, y, z, w, y == z or self.scales is None)
                    need = max(need, used + self.step(size[x][y], per_row, used) * per_row)
            self.work = np.empty(need)
        return self.work

    def per_row(self, x, y, z, w, ready):
        """Floats of ``work`` that one arrow a in Mor(y -> x) takes in the test
        of a generator in Mor(z -> y) against Mor(w -> z): its rows of ``(a g) b``
        and ``a (g b)``, and of ``N[x][y][w]`` unless that block is ``ready``."""
        size = self.size
        return size[x][w] * (2 * size[z][w] + (0 if ready else size[y][w]))

    def step(self, rows, per_row, used):
        """Rows a block: ``rows`` split evenly into as few blocks as keep each
        block's products, give or take a row, within ``room`` less the ``used``
        floats at ``work``'s front (``scratch`` sizes ``work`` for the row)."""
        if not rows * per_row:
            return rows
        parts = -(-rows * per_row // (self.room - used))
        return -(-rows // parts)

    def ready(self, key) -> bool:
        """Whether block ``key`` is at hand in full, without rounding."""
        return self.scales is None or key in self.at_hand

    def block(self, key, front=False):
        """Block ``key = (x, y, z)`` of N in full: ``comp``'s own, one at hand,
        or rounded now into ``held`` or (``front``) ``work``'s front."""
        x, y, z = key
        if self.scales is None:
            return self.comp[x][y][z]
        arr = self.at_hand.get(key)
        if arr is not None:
            return arr
        if front:
            self.at_hand.pop(self.in_front, None)
            self.in_front, buf = key, self.scratch()
        else:
            self.at_hand.pop(self.in_held, None)
            if self.held is None:
                self.held = np.empty(self.largest)
            self.in_held, buf = key, self.held
        t = self.comp[x][y][z]
        arr = self.at_hand[key] = buf[: t.size].reshape(t.shape)
        self._round(key, slice(None), slice(None), arr)
        return arr

    def fetch(self, key):
        """``block(key)`` for a caller that then writes into ``work``: the block,
        at ``work``'s front if it fits in half of it, and how many floats of
        ``work`` it takes there (0 if none; a block held there before is dropped)."""
        x, y, z = key
        small = 2 * self.comp[x][y][z].size <= self.room
        arr = self.block(key, front=small and not self.ready(key))
        if key == self.in_front:
            return arr, arr.size
        self.at_hand.pop(self.in_front, None)
        self.in_front = None
        return arr, 0

    def part(self, key, rows, cols, buf=None):
        """``N[x][y][z][rows, cols]`` for slices ``rows`` and ``cols``: a view of
        a block at hand, else rounded into the flat ``buf`` (a new array if None)."""
        x, y, z = key
        arr = self.comp[x][y][z] if self.scales is None else self.at_hand.get(key)
        if arr is not None:
            return arr[rows, cols]
        t = self.comp[x][y][z][rows, cols]
        out = np.empty(t.shape) if buf is None else buf[: t.size].reshape(t.shape)
        self._round(key, rows, cols, out)
        return out

    def _round(self, key, rows, cols, out):
        x, y, z = key
        d = self.scales
        outer = d[x][y][rows][:, None] * d[y][z][cols][None, :]
        # einsum, unlike a broadcasting multiply, takes no ufunc buffer
        np.einsum("abc,ab->abc", self.comp[x][y][z][rows, cols], outer, out=out)
        np.divide(out, d[x][z], out=out)
        np.rint(out, out=out)


def _certificate_plan(size):
    """The cost model of ``_generator_certificate`` for hom-space sizes
    ``size[x][y] = |Mor(y -> x)|``: ``cost[y][z]``, the multiply-adds of
    testing one generator in Mor(z -> y), ``sum_xw s_xy s_zw s_xw (s_xz +
    s_yw)``; the budget, a quarter of the quadruple pass that a passing
    grid takes, ``sum_xyzw s_xy s_yz s_zw s_xw (s_xz + s_yw) / 2``; and
    the hom-spaces (x, y) that hold more than a unit."""
    objs = range(len(size))
    cost = [
        [
            sum(size[x][y] * size[z][w] * size[x][w] * (size[x][z] + size[y][w])
                for x in objs for w in objs)
            for z in objs
        ]
        for y in objs
    ]
    budget = sum(cost[y][z] * size[y][z] for y in objs for z in objs) / 8
    spaces = [(x, y) for x in objs for y in objs if size[x][y] > (x == y)]
    return cost, budget, spaces


def _generator_certificate(blocks: _RingBlocks, units) -> bool:
    """Whether a generating set proves the integer blocks of ``blocks`` associative.

    The arrows span an algebra: ``a b = sum_c N[x][y][z][a, b, c] c`` for
    a in Mor(y -> x) and b in Mor(z -> y), and 0 when they do not
    compose; one object gives a ring.  Its associativity is that of
    every object quadruple.  The set A = {a : (x a) y = x (a y) for all
    x, y} is closed under products: for a, b in A, (x(ab))y = ((xa)b)y =
    (xa)(by) = x(a(by)) = x((ab)y) (Light's test; Clifford & Preston,
    Algebraic Theory of Semigroups I, 1961, section 1.2).  Every unit
    ``units[x]`` is in A by the unit laws, which the caller checks first,
    and N is nonnegative.  If c is the only uncertified arrow in the
    support of a product ``a g`` of a certified arrow and a generator,
    ``N[a, g, c] c`` is ``a g`` minus certified arrows, so c is in A.
    When no such product remains, the least uncertified arrow of the
    first hom-space Mor(y -> x), in (x, y) order, that has one becomes
    the next generator (j1 of SU(2)_k in level order).
    A generator g in Mor(z -> y) is tested by (a g) b = a (g b) for a in
    Mor(y -> x) and b in Mor(w -> z) over every object pair (x, w): two
    matrix products a pair, ``cost[y][z]`` of ``_certificate_plan`` (2
    n^4 multiply-adds on one object), exactly, since the caller keeps
    ``n * max(N)**2`` below 2**53.  The blocks of N come from ``blocks``
    as they are needed, and the products go into its ``work`` in row
    blocks of a (``_middle_law``), so memory stays within its two
    buffers, plus one byte an arrow for each generator g and arrow a
    whose product ``a g`` still holds an uncertified arrow (n^2 a
    generator on one object; ``_closure_rows``), and a few blocks of
    ``a g`` and ``g b``.  Each arrow certified costs five numpy calls.
    False, for the caller to run the kernel, when a test fails, or when
    one more generator would bring the tests above the budget of
    ``_certificate_plan``, a quarter of the quadruple pass (n^5 / 4 on
    one object: at most n / 8 generators); so, before any allocation,
    always on 2 to 7 elements.  SU(2)_k needs one generator, groups and
    the double-coset groupoids a few.
    """
    size = blocks.size
    objs = range(len(size))
    cost, budget, spaces = _certificate_plan(size)
    if not spaces:
        return True
    if min(cost[x][y] for x, y in spaces) > budget:
        return False
    home, total = {}, 0  # arrows numbered hom-space by hom-space, in (x, y) order
    for x, y in itertools.product(objs, repeat=2):
        home[x, y], total = slice(total, total + size[x][y]), total + size[x][y]
    uncertified = np.ones(total, dtype=np.int8)
    for x in objs:
        uncertified[home[x, x].start + units[x]] = 0
    # one row per generator g and arrow a = owner[r] that it follows, while
    # the support of a g has an uncertified arrow: weight[r, c] is 1 where
    # N[a, g, c] > 0, plus 2 at c = a, so that pending[r], the weight of the
    # uncertified arrows, is 1 just when a is certified and c is the one
    # uncertified arrow of that support
    weight = np.zeros((0, total), dtype=np.int8)
    pending = owner = np.zeros(0, dtype=np.intp)
    todo, spent = total - len(units), 0.0  # arrows left to certify
    while todo:
        r = int((pending == 1).argmax()) if pending.size else 0
        if pending.size and pending[r] == 1:
            c = int((weight[r] & uncertified).argmax())
        else:
            y, z = next(s for s in spaces if uncertified[home[s]].any())
            spent += cost[y][z]
            if spent > budget:
                return False
            g = int(uncertified[home[y, z]].argmax())
            if not _middle_law(blocks, g, y, z):
                return False
            weight, pending, owner = _closure_rows(
                (weight, pending, owner), blocks, g, uncertified, home, y, z
            )
            c = home[y, z].start + g
        uncertified[c] = 0
        todo -= 1
        pending -= weight[:, c]
    return True


def _middle_law(blocks, g, y, z):
    """Whether (a g) b = a (g b) for generator g of Mor(z -> y), every a in
    Mor(y -> x) and every b in Mor(w -> z), over all objects x and w, in
    the integer blocks of ``blocks`` (``_generator_certificate``)."""
    size = blocks.size
    objs = range(len(size))
    for x in objs:
        sxy, sxz = size[x][y], size[x][z]
        if not sxy:
            continue
        # a g for every a in Mor(y -> x), copied: work and held change below
        ag = blocks.part((x, y, z), slice(None), slice(g, g + 1))
        ag = (ag if ag.flags.owndata else ag.copy()).reshape(sxy, sxz)
        for w in objs:
            szw, sxw = size[z][w], size[x][w]
            if not (szw and sxw):
                continue
            mb, used = blocks.fetch((x, z, w))  # m b for m in Mor(z -> x)
            mb = mb.reshape(sxz, szw * sxw)
            gb = blocks.part((y, z, w), slice(g, g + 1), slice(None)).reshape(szw, size[y][w])
            step = blocks.step(sxy, blocks.per_row(x, y, z, w, blocks.ready((x, y, w))), used)
            work = blocks.scratch()[used:]
            failed = False
            for lo in range(0, sxy, step):
                m = min(step, sxy - lo)
                span = m * szw * sxw
                left = work[:span].reshape(m, szw * sxw)
                right = work[span : 2 * span].reshape(m, szw, sxw)
                aq = blocks.part((x, y, w), slice(lo, lo + m), slice(None), work[2 * span :])
                np.matmul(ag[lo : lo + m], mb, out=left)  # (a g) b
                np.matmul(gb, aq, out=right)  # a (g b)
                np.subtract(right, left.reshape(m, szw, sxw), out=right)  # in place: no mask
                failed = failed or bool(right.any())
            if failed:
                return False
    return True


def _closure_rows(rows, blocks, g, uncertified, home, y, z):
    """The rows ``(weight, pending, owner)`` of ``_generator_certificate``'s
    closure with those of a new generator g in Mor(z -> y) added, and with
    every row dropped whose support has no uncertified arrow left (1 in
    the int8 ``uncertified``): such a row never gets one."""
    size = blocks.size
    xs = [x for x in range(len(size)) if size[x][y]]
    fresh = np.concatenate([np.arange(home[x, y].start, home[x, y].stop) for x in xs])
    added = np.zeros((fresh.size, uncertified.size), dtype=np.int8)
    first = 0
    for x in xs:  # the support N[a, g, c] > 0 of a g for a in Mor(y -> x), c in Mor(z -> x)
        ag = blocks.part((x, y, z), slice(None), slice(g, g + 1)).reshape(size[x][y], size[x][z])
        np.greater(ag, 0.0, out=added[first : first + size[x][y], home[x, z]])
        first += size[x][y]
    counts = (added & uncertified).sum(axis=1)
    added[np.arange(fresh.size), fresh] += 2
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


def _rescaled_ring(comp, units, star, tol: float) -> bool:
    """Whether the grid ``comp`` is so close to a rescaled associative integer
    grid that ``_associativity_violations`` reports nothing beyond tol on any
    of its object quadruples.

    ``comp[x][y][z]``, ``units[x]`` and ``star[x][y]`` are as in
    ``groupoid.Hypergroupoid``; a table is the one-object grid ``(((lam,),),)``
    with its unit and involution.  False at once, before anything is
    read, unless the budget of ``_certificate_plan`` covers two
    generators in every hom-space that holds more than a unit: on one
    object that is n >= 16 (``_SCREEN_MIN_N``), and a smaller grid, such
    as the double-coset groupoids of D8 or Z2 x D4 (16 group elements,
    a budget of about 1.5 generators a hom-space), would spend more on
    recognition and on generators that run out than the quadruple pass
    it skips.  The weights ``mu_a = 1 / comp[x][y][x][a, a*,
    units[x]]`` of the arrows a in Mor(y -> x) give the scales: ``d =
    sqrt(mu)`` first (fusion rings, ``N[a, a*, unit] = 1``), then ``d =
    mu`` (groups, classes, double cosets and their groupoids, where
    ``comp[a, b, c] mu_a mu_b / mu_c`` counts pairs).  For one d, in
    [2**-64, 2**64] so that nothing below over- or underflows, every block
    ``N = rint(comp[x][y][z][a, b, c] d_a d_b / d_c)`` must be nonnegative,
    obey both unit laws exactly for every (x, y) and keep ``n *
    max(N)**2`` below 2**53, for n the largest hom-space.  For any positive
    d, ``L[a, b, c] = N[a, b, c] d_c / (d_a d_b)`` is exactly associative
    when N is, since d_m cancels in ``L[a, b, m] L[m, c, p]`` and in ``L[b,
    c, q] L[a, q, p]`` (see ``from_fusion_ring``).  Its computed value
    ``fl(L)`` is within ``_RHO fl(L)`` of it, and a computed difference
    within a factor ``1 - eps`` of the exact one, so every entry of a
    block lies within ``delta = max|comp - fl(L)| / (1 - eps) + _RHO max
    fl(L)`` of L.  Blocks go smallest first, and the first that fails,
    or whose delta brings ``_rescaling_margin(n, max|comp|, delta)`` up to
    tol (NaN and inf do), sends the next d; after the last, False.  Only
    then is N certified, by ``_generator_certificate``.  So True means
    that the kernel would report nothing: the report is the same
    without it.  Time O(size of the grid) for the scales, plus the
    certificate's tests; memory the two buffers of ``_RingBlocks``, of
    about the largest block's size each, where N and ``fl(L)`` are formed
    block by block, never all at once.
    """
    blocks = _RingBlocks(comp)
    cost, budget, spaces = _certificate_plan(blocks.size)
    if not spaces or 2 * sum(cost[x][y] for x, y in spaces) > budget:
        return False
    objs = range(len(comp))
    order = sorted(itertools.product(objs, repeat=3), key=lambda q: comp[q[0]][q[1]][q[2]].size)
    tensors = [t for t in (comp[x][y][z] for x, y, z in order) if t.size]
    big = max(max(float(np.maximum.reduce(t, axis=None)), -float(np.minimum.reduce(t, axis=None)))
              for t in tensors)
    with np.errstate(all="ignore"):
        mu = [
            [1.0 / comp[x][y][x][np.arange(len(s)), np.asarray(s, dtype=np.intp), units[x]]
             for y, s in enumerate(star[x])]
            for x in objs
        ]
        for scales in ([[np.sqrt(m) for m in row] for row in mu], mu):
            if not all(np.all((d >= 2.0**-64) & (d <= 2.0**64)) for row in scales for d in row):
                continue  # NaN fails too
            blocks.rescale(scales)
            if _within_margin(blocks, order, units, big, tol):
                break
        else:
            return False
    return _generator_certificate(blocks, units)


def _within_margin(blocks, order, units, big, tol) -> bool:
    """Whether every block of ``blocks``, taken in ``order``, rounds to a
    nonnegative integer block with exact unit laws and ``n * max(N)**2 <
    2**53`` and lies so close to its rescaling that ``_rescaling_margin``
    stays below tol (``_rescaled_ring``); False at the first that does not."""
    comp, scales, n = blocks.comp, blocks.scales, blocks.n
    delta = 0.0
    for x, y, z in order:
        t = comp[x][y][z]
        if t.size == 0:
            continue
        ring = blocks.block((x, y, z))
        top = float(np.maximum.reduce(ring, axis=None))
        if not (
            np.minimum.reduce(ring, axis=None) >= 0.0
            and n * top * top < 2.0**53
            and (x != y or np.array_equal(ring[units[x]], np.eye(t.shape[2])))
            and (y != z or np.array_equal(ring[:, units[y], :], np.eye(t.shape[0])))
        ):
            return False
        spare = blocks.scratch()[: t.size].reshape(t.shape)
        outer = (scales[x][y][:, None] * scales[y][z][None, :])[:, :, None]
        np.multiply(ring, scales[x][z], out=spare)  # fl(L), rounded as from_fusion_ring rounds it
        np.divide(spare, outer, out=spare)
        top = float(np.maximum.reduce(spare, axis=None))
        np.subtract(t, spare, out=spare)
        np.abs(spare, out=spare)
        delta = max(delta, float(np.maximum.reduce(spare, axis=None)) / (1.0 - _EPS) + _RHO * top)
        if not _rescaling_margin(n, big, delta) < tol:  # NaN compares False
            return False
    return True


def _cut(tol, n, big, delta):
    """``tol - margin`` if ``margin < tol``, else None.

    ``margin = 5 n M delta + 2 _dot_error(n, M)`` with ``M = big``;
    ``_associativity_violations`` derives it.
    """
    margin = 5.0 * n * big * delta + 2.0 * _dot_error(n, big)
    return tol - margin if margin < tol else None


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


def _screen_cut(t, tol, buf, star=None, spare=None):
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
    return _cut(tol, t.shape[0], big, delta)


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


def _associativity_violations(ab, mc, bc, aq, prefix, tol, vios, star=None) -> None:
    """Report ``|sum_m ab[a,b,m] mc[m,c,p] - sum_q bc[b,c,q] aq[a,q,p]| > tol``.

    Violations come in (a, b, c, p) order.  One first index ``a`` at a
    time, with two matrix products into two reused buffers, so for basis
    sizes up to n this takes 2 n^5 multiply-adds and O(n^3) memory.  The
    deviations of a slice are formed in place, and only a slice whose
    largest deviation exceeds tol is scanned for its indices (NaN is
    skipped, as the comparison with tol skips it).

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
    >= a*``.  On integer entries with ``n max|t|^2 < 2**53`` every sum
    is exact and every defect a whole number, so tol 0.5 reports exactly
    the nonzero defects.  The screen runs while ``margin < tol``.  If
    step ``i0`` is the first whose screen fails, every slice ``a``
    screened before it (``a* < i0``) is clean: its columns ``c >= a*``
    by its own step, the others as the mirrors of column ``a*`` of slice
    ``c*``, which step ``c < a*`` screened (``c** = c`` since ``star`` is
    an involution).  So the full scan takes the other slices, ``a* >=
    i0``, and reports exactly what it reports without the screen, at the
    cost of one screened step more.  Memory: the two n^3 buffers, which
    ``delta``'s two gathers reuse.
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
            cut = _screen_cut(ab, tol, dev.reshape(ab.shape), s, right)
            if cut is not None:
                steps = _first_failing_step(ab, cut, dev, right, s)
                slices = sorted((ident if s is None else s)[steps:].tolist())  # not cleared
    for a in slices:
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
    Associativity dominates: n^5 multiply-adds on a table that passes
    and whose involution is one and obeys the star law ``lam[a, b, c] ==
    lam[inv(b), inv(a), inv(c)]`` within the screen's margin (from 16
    elements on, see ``_associativity_violations``), 2 n^5 otherwise,
    and 2 n^3 floats of memory.  From 16 elements on, a table within
    round-off of a rescaled associative integer ring (parsed documents
    and duals of fusion rings, group, class and double-coset tables)
    skips that kernel: O(n^3) to recognise it and 2 n^4 multiply-adds
    per generator to certify the ring, in the same memory
    (``_rescaled_ring``), with the same report.
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
    grid = (((lam,),),), (unit,), ((inv,),)
    if associativity and not (table.n >= _SCREEN_MIN_N and _rescaled_ring(*grid, tol)):
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
