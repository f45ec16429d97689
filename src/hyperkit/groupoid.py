"""Hypergroupoids of boundary conditions and their composition.

A hypergroupoid has finitely many objects (the phases, or extensions,
on either side of a boundary) and, for each ordered pair of objects,
a finite basis of arrows Mor(Y -> X).  Composition of an arrow
``a in Mor(Y -> X)`` with ``b in Mor(Z -> Y)`` is a convex combination
of arrows in Mor(Z -> X):

    a . b = sum_c comp[a][b][c] * c,

subject to the same axioms as a hypergroup, stated per composable
triple: nonnegativity and row sums 1, associativity, identity arrows,
and a star bijection Mor(Y -> X) -> Mor(X -> Y) playing the role of
the involution (the identity coefficient of ``a . star(a)`` is
positive, and of ``a . b`` vanishes for every other b).  Each
endo-space Mor(X -> X) is then an ordinary hypergroup, and a
one-object hypergroupoid is exactly a hypergroup.

A BoundaryState is a convex mixture of arrows between two fixed
objects; composing states along a chain of phases folds the mixtures
left to right ("juxtaposition").  The composite of two elementary
boundaries answers which boundary conditions between the outer phases
are compatible with the given pair across the middle phase.

``double_coset_groupoid`` builds a genuinely multi-object example from
a group with a chosen subgroup: objects carry the trivial subgroup and
the chosen one, arrow bases are the double cosets H_X \\ G / H_Y, and
composition convolves uniform indicator measures: integer pair counts,
one correctly rounded division each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    HypergroupTable,
    ValidationReport,
    Violation,
    _RHO,
    _as_index,
    _as_index_tuple,
    _associativity_violations,
    _convolve,
    _float_tensor,
    _grid,
    _involution_violations,
    _rescaling_margin,
    _row_violations,
    _unit_violations,
    _weight_symmetry_violations,
)
from .constructions import (
    CayleyGroup,
    _coset_least,
    _labels,
    _pair_counts,
    inverses,
    subgroup_elements,
)
from .errors import PreconditionError, StructureError

#: arrow label prefix of each hom-space Mor(y -> x) of ``double_coset_groupoid``
_ARROW_PREFIXES = (("g", "u"), ("v", "h"))


@dataclass(frozen=True, eq=False)
class Hypergroupoid:
    """Objects, arrow bases per ordered pair, composition tensors, star.

    ``mor[x][y]`` lists the arrow labels of Mor(y -> x) (target first).
    ``comp[x][y][z]`` has shape (|Mor(y->x)|, |Mor(z->y)|, |Mor(z->x)|).
    ``star[x][y][a]`` is the index in Mor(x -> y) of the adjoint arrow.
    ``units[x]`` is the identity arrow index inside Mor(x -> x).

    ``mor`` and ``star`` must be objects x objects grids, ``comp`` an
    objects x objects x objects grid and ``units`` one entry per object:
    every level a list, tuple or array of exactly k entries for k
    objects.  A missing or extra entry, a tensor of the wrong shape, or
    an index that is not an integer in range raises StructureError.

    Each comp block is a read-only copy.  A private record, set by
    ``double_coset_groupoid`` alone (never by this constructor,
    ``dataclasses.replace`` or ``parse_groupoid``), marks a grid whose
    associativity its group proves; ``validate_groupoid`` trusts it only
    while every block stays read-only.
    """

    objects: tuple[str, ...]
    mor: tuple[tuple[tuple[str, ...], ...], ...]
    comp: tuple[tuple[tuple[np.ndarray, ...], ...], ...]
    star: tuple[tuple[tuple[int, ...], ...], ...]
    units: tuple[int, ...]
    _from_group: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        objects = tuple(str(x) for x in self.objects)
        k = len(objects)
        if k < 1:
            raise StructureError("a hypergroupoid needs at least one object")
        mor = _grid(self.mor, k, 2, "mor")
        mor = tuple(tuple(tuple(map(str, labels)) for labels in row) for row in mor)
        if any(len(set(labels)) != len(labels) for row in mor for labels in row):
            raise StructureError("arrow labels must be distinct within each hom-space")
        size = [[len(labels) for labels in row] for row in mor]
        objs = range(k)
        comp_grid = _grid(self.comp, k, 3, "comp")
        star_grid = _grid(self.star, k, 2, "star")

        def tensor(x, y, z):
            want = (size[x][y], size[y][z], size[x][z])
            return _float_tensor(comp_grid[x][y][z], want, f"composition tensor ({x},{y},{z})")

        def adjoints(x, y):
            where = f"star[{x}][{y}]"
            return _as_index_tuple(_grid(star_grid[x][y], size[x][y], 1, where), size[y][x], where)

        comp = tuple(tuple(tuple(tensor(x, y, z) for z in objs) for y in objs) for x in objs)
        star = tuple(tuple(adjoints(x, y) for y in objs) for x in objs)
        units = tuple(
            _as_index_tuple((u,), size[x][x], f"unit of object {x}")[0]
            for x, u in enumerate(_grid(self.units, k, 1, "units"))
        )
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "mor", mor)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "units", units)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def object_index(self, label: str) -> int:
        try:
            return self.objects.index(label)
        except ValueError:
            raise KeyError(f"no object named {label!r}") from None

    def arrow_index(self, to_object: int, from_object: int, label: str) -> int:
        try:
            return self.mor[to_object][from_object].index(label)
        except ValueError:
            raise KeyError(
                f"no arrow named {label!r} in Mor({self.objects[from_object]} -> "
                f"{self.objects[to_object]})"
            ) from None

    def endo_table(self, x: int) -> HypergroupTable:
        """The hypergroup carried by Mor(x -> x)."""
        return HypergroupTable(
            self.mor[x][x], self.units[x], self.star[x][x], self.comp[x][x][x]
        )


@dataclass(frozen=True, eq=False)
class BoundaryState:
    """A convex mixture of arrows from one object into another."""

    groupoid: Hypergroupoid
    to_object: int
    from_object: int
    coeffs: np.ndarray

    def __post_init__(self):
        g = self.groupoid
        to, frm = _as_index_tuple(
            (self.to_object, self.from_object), g.n_objects, "boundary state objects"
        )
        coeffs = _float_tensor(self.coeffs, (len(g.mor[to][frm]),), "boundary state coefficients")
        object.__setattr__(self, "to_object", to)
        object.__setattr__(self, "from_object", frm)
        object.__setattr__(self, "coeffs", coeffs)


def point_state(
    g: Hypergroupoid, to_object: int, from_object: int, arrow: int | str
) -> BoundaryState:
    """The state concentrated on a single arrow."""
    to_object, from_object = _as_index_tuple(
        (to_object, from_object), g.n_objects, "boundary state objects"
    )
    if isinstance(arrow, str):
        arrow = g.arrow_index(to_object, from_object, arrow)
    n = len(g.mor[to_object][from_object])
    arrow = _as_index(arrow, n, "arrow index")
    c = np.zeros(n)
    c[arrow] = 1.0
    return BoundaryState(g, to_object, from_object, c)


def unit_state(g: Hypergroupoid, x: int) -> BoundaryState:
    return point_state(g, x, x, g.units[x])


def _groupoids_equal(g1: Hypergroupoid, g2: Hypergroupoid) -> bool:
    if g1 is g2:
        return True
    if g1.objects != g2.objects or g1.mor != g2.mor:
        return False
    if g1.star != g2.star or g1.units != g2.units:
        return False
    k = g1.n_objects
    return all(
        np.array_equal(g1.comp[x][y][z], g2.comp[x][y][z])
        for x in range(k)
        for y in range(k)
        for z in range(k)
    )


def _proved_by_group(g: Hypergroupoid, tol: float) -> bool:
    """Whether ``g`` carries the associativity of the group it was built
    from: its record is set (``double_coset_groupoid``), every comp block
    is still read-only, so unchanged, and ``_rescaling_margin(n, M, _RHO
    M)`` is below tol, for n the largest hom-space and M the largest entry.

    Each entry of such a grid is a pair count divided once by ``|A_a|
    |B_b|``, so it lies within ``eps / 2`` times itself, and within
    ``_RHO M``, of the exact convolution of uniform measures.  The exact
    values are the structure constants of the Hecke algebras ``e_{H_x}
    C[G] e_{H_z}`` (Curtis & Reiner, Methods of Representation Theory I,
    1981, section 11D), associative because G is (``CayleyGroup``
    certifies its table when it is built).  By the lemma of
    ``_rescaling_margin`` no computed associativity defect then exceeds
    tol, so the quadruple pass could report nothing.  Time linear in the
    grid.
    """
    tensors = [t for grid in g.comp for row in grid for t in row]
    if not g._from_group or any(t.flags.writeable for t in tensors):
        return False
    n = max(len(arrows) for row in g.mor for arrows in row)
    big = max(max(float(t.max(initial=0.0)), -float(t.min(initial=0.0))) for t in tensors)
    return _rescaling_margin(n, big, _RHO * big) < tol  # NaN compares False


def validate_groupoid(g: Hypergroupoid, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check all hypergroupoid axioms; violations carry object indices first.

    Runs the hypergroup checks of ``core.validate`` once per object
    tuple, so each defect is reported once.  Associativity dominates.  A
    groupoid built by ``double_coset_groupoid``, its comp blocks still
    read-only, carries the proof of its group: when the round-off margin
    of its entries is below tol, it is not checked (``_proved_by_group``).
    Any other groupoid, parsed and hand-built ones included, has its k^4
    object quadruples ``(x, y, z, w)`` checked in order, ``(a . b) . c``
    against ``a . (b . c)`` for a in Mor(y -> x), b in Mor(z -> y) and c
    in Mor(w -> z): at most 2 k^4 n^5 multiply-adds and O(n^3) memory for
    arrow bases of size up to n.  An endo quadruple ``(x, x, x, x)`` is
    ``core.validate``'s kernel on Mor(x -> x).
    """
    objs = range(g.n_objects)
    c, u, star = g.comp, g.units, g.star
    vios: list[Violation] = []

    for x, y, z in itertools.product(objs, repeat=3):
        _row_violations(c[x][y][z], (x, y, z), tol, vios)
    for x, y in itertools.product(objs, repeat=2):
        _unit_violations(c[x][x][y], c[x][y][y], u[x], u[y], x == y, (x, y), tol, vios)
    if not _proved_by_group(g, tol):
        for q in itertools.product(objs, repeat=4):
            x, y, z, w = q
            _associativity_violations(c[x][y][z], c[x][z][w], c[y][z][w], c[x][y][w], q, tol, vios)

    for x in objs:
        vios += (
            Violation("star-involution", (x, y, a), 1.0)
            for y in objs
            for a, sa in enumerate(star[x][y])
            if star[y][x][sa] != a
        )
        if star[x][x][u[x]] != u[x]:
            vios.append(Violation("star-unit", (x, u[x]), 1.0))

    for x, y in itertools.product(objs, repeat=2):
        # a in Mor(y->x), b in Mor(x->y), unit coefficient in Mor(x->x)
        _involution_violations(c[x][y][x], u[x], star[x][y], (x, y), tol, vios)
    for x in objs:
        _weight_symmetry_violations(c[x][x][x], u[x], star[x][x], (x,), tol, vios)

    return ValidationReport(not vios, tuple(vios))


def compose(
    g: Hypergroupoid, left: BoundaryState, right: BoundaryState, tol: float = DEFAULT_TOL
) -> BoundaryState:
    """Juxtapose two boundaries sharing their middle phase.

    ``left`` lives between the outer-left object and the middle one,
    ``right`` between the middle and the outer-right one; the result is
    the mixture of boundary conditions between the outer objects.
    """
    if not (_groupoids_equal(left.groupoid, g) and _groupoids_equal(right.groupoid, g)):
        raise PreconditionError("boundary states belong to a different hypergroupoid")
    if left.from_object != right.to_object:
        raise PreconditionError(
            f"cannot compose: left state ends at object "
            f"{g.objects[left.from_object]!r} but right state starts at "
            f"{g.objects[right.to_object]!r}"
        )
    tensor = g.comp[left.to_object][left.from_object][right.from_object]
    out = _convolve(left.coeffs, right.coeffs, tensor, tol)
    return BoundaryState(g, left.to_object, right.from_object, out)


def juxtapose_steps(g: Hypergroupoid, states, tol: float = DEFAULT_TOL):
    """Left-to-right fold of ``compose`` along a chain of phases.

    Yields each partial composite in turn, from the first state alone
    to the composite of the whole chain.
    """
    states = iter(states)
    acc = next(states, None)
    if acc is None:
        raise PreconditionError("empty chain")
    yield acc
    for pos, state in enumerate(states, start=1):
        if acc.from_object != state.to_object:
            raise PreconditionError(
                f"chain mismatch at step {pos}: expected a state out of object "
                f"{g.objects[acc.from_object]!r}"
            )
        acc = compose(g, acc, state, tol)
        yield acc


def juxtapose_chain(g: Hypergroupoid, states, tol: float = DEFAULT_TOL) -> BoundaryState:
    """The composite of a whole chain, the last of ``juxtapose_steps``."""
    for acc in juxtapose_steps(g, states, tol):
        pass
    return acc


def from_hypergroup(table: HypergroupTable, object_label: str = "B") -> Hypergroupoid:
    """Wrap a hypergroup as the one-object hypergroupoid it is."""
    return Hypergroupoid(
        (object_label,),
        ((table.labels,),),
        (((table.lam,),),),
        ((table.involution,),),
        (table.unit,),
    )


def double_coset_groupoid(group: CayleyGroup, subgroup) -> Hypergroupoid:
    """Two-object hypergroupoid from a group with a chosen subgroup.

    Object ``X0`` carries the trivial subgroup, ``X1`` the given one;
    the arrows of Mor(y -> x) are the double cosets ``H_x g H_y`` and
    composition convolves their uniform indicator measures.  The subgroup
    is checked once; each of the four hom-spaces is then one part-label
    vector (``constructions._labels``), from which the pair-count kernel
    of ``indicator_product_coefficients`` fills all eight comp blocks,
    and the stars and units are read off.  Arrow labels are
    ``prefix + index`` with a distinct prefix per hom-space (``g``,
    ``u``, ``v``, ``h`` for Mor(0 -> 0), Mor(1 -> 0), Mor(0 -> 1),
    Mor(1 -> 1)) so that names stay globally unique.

    The groupoid records that it comes from a group, whose associativity
    ``validate_groupoid`` then takes as proved while every comp block
    stays read-only; a rebuild through the constructor drops the record.
    """
    mul = group.mul
    subgroups = [[group.identity], subgroup_elements(group, subgroup)]
    objs = range(len(subgroups))
    inv = np.asarray(inverses(group))
    hom = {
        (x, y): _labels(_coset_least(mul, subgroups[x], subgroups[y])) for x in objs for y in objs
    }
    comp = tuple(
        tuple(
            tuple(_pair_counts(mul, hom[x, y], hom[y, z], hom[x, z]) for z in objs) for y in objs
        )
        for x in objs
    )
    star = tuple(tuple(tuple(hom[y, x][1][inv[hom[x, y][0]]].tolist()) for y in objs) for x in objs)
    units = tuple(int(hom[x, x][1][group.identity]) for x in objs)
    mor = tuple(
        tuple(tuple(f"{_ARROW_PREFIXES[x][y]}{i}" for i in range(hom[x, y][0].size)) for y in objs)
        for x in objs
    )
    del hom  # the constructor copies every comp block: keep the peak at two grids
    g = Hypergroupoid(tuple(f"X{x}" for x in objs), mor, comp, star, units)
    object.__setattr__(g, "_from_group", True)
    return g
