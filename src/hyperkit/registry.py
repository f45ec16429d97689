"""Builtin example objects, validated once and cached.

Groups come as Cayley tables (cyclic up to order 12, the symmetric
groups S3 and S4, the dihedral group of the square, and the quaternion
group).  Fusion rings: Fibonacci, Ising, and the representation ring
of S3.  Hypergroups: the groups Z2/Z3/S3 themselves, the conjugacy
classes of S3, a double-coset example, the index-(3+sqrt 3) two-element
table, and the Fibonacci/Ising rescalings.  Groupoids: one-object
wrappers of the latter plus a genuinely two-object double-coset
example over S3.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .constructions import (
    CayleyGroup,
    FusionRing,
    cayley_group,
    conjugacy_class_hypergroup,
    double_coset_hypergroup,
    from_fusion_ring,
    fusion_ring,
    group_hypergroup,
    two_element,
)
from .core import HypergroupTable, validate, with_labels
from .groupoid import (
    Hypergroupoid,
    double_coset_groupoid,
    from_hypergroup,
    validate_groupoid,
)

GHJ_LAMBDA = 2.0 - np.sqrt(3.0)


def cyclic_group(n: int) -> CayleyGroup:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"g{i}" for i in range(1, n)]
    return cayley_group(mul, 0, labels)


def _perm_label(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + "".join(str(x) for x in cycle) + ")")
    return "".join(cycles) if cycles else "e"


def _permutation_group(perms: list[tuple[int, ...]]) -> CayleyGroup:
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    mul = np.empty((order, order), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[x]] for x in range(len(p)))]
    identity = index[tuple(range(len(perms[0])))]
    labels = [_perm_label(p) for p in perms]
    return cayley_group(mul, identity, labels)


def symmetric_group(k: int) -> CayleyGroup:
    return _permutation_group(sorted(itertools.permutations(range(k))))


def dihedral_square_group() -> CayleyGroup:
    """Symmetries of the square as permutations of its corners (order 8)."""
    rotation = (1, 2, 3, 0)
    reflection = (0, 3, 2, 1)
    elements = {tuple(range(4))}
    frontier = [tuple(range(4))]
    while frontier:
        p = frontier.pop()
        for q in (rotation, reflection):
            composed = tuple(q[p[x]] for x in range(4))
            if composed not in elements:
                elements.add(composed)
                frontier.append(composed)
    return _permutation_group(sorted(elements))


def quaternion_group() -> CayleyGroup:
    """The eight quaternion units with their usual multiplication."""
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    axis_mul = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
        ("i", "e"): (1, "i"), ("j", "e"): (1, "j"), ("k", "e"): (1, "k"),
        ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    axes = ("e", "i", "j", "k")

    def decode(idx):
        return (1 if idx % 2 == 0 else -1, axes[idx // 2])

    def encode(sign, axis):
        return axes.index(axis) * 2 + (0 if sign > 0 else 1)

    mul = np.empty((8, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            sa, xa = decode(a)
            sb, xb = decode(b)
            sp, xp = axis_mul[(xa, xb)]
            mul[a, b] = encode(sa * sb * sp, xp)
    return cayley_group(mul, 0, labels)


def fibonacci_ring() -> FusionRing:
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1] = (1, 1)
    return fusion_ring(("1", "tau"), 0, N)


def ising_ring() -> FusionRing:
    # basis (1, psi, sigma): psi^2 = 1, psi sigma = sigma psi = sigma,
    # sigma^2 = 1 + psi
    N = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        N[0, j, j] = 1
        N[j, 0, j] = 1
    N[1, 1, 0] = 1
    N[1, 2, 2] = 1
    N[2, 1, 2] = 1
    N[2, 2, 0] = 1
    N[2, 2, 1] = 1
    return fusion_ring(("1", "psi", "sigma"), 0, N)


def s3_irrep_ring() -> FusionRing:
    # basis (trivial, sign, 2-dim): sgn^2 = 1, sgn std = std,
    # std^2 = 1 + sgn + std
    N = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        N[0, j, j] = 1
        N[j, 0, j] = 1
    N[1, 1, 0] = 1
    N[1, 2, 2] = 1
    N[2, 1, 2] = 1
    N[2, 2] = (1, 1, 1)
    return fusion_ring(("1", "sgn", "std"), 0, N)


@lru_cache(maxsize=1)
def _groups() -> dict[str, CayleyGroup]:
    groups = {f"z{n}": cyclic_group(n) for n in range(2, 13)}
    groups["s3"] = symmetric_group(3)
    groups["s4"] = symmetric_group(4)
    groups["d4"] = dihedral_square_group()
    groups["q8"] = quaternion_group()
    return groups


@lru_cache(maxsize=1)
def _fusion_rings() -> dict[str, FusionRing]:
    return {
        "fibonacci": fibonacci_ring(),
        "ising": ising_ring(),
        "s3-irreps": s3_irrep_ring(),
    }


@lru_cache(maxsize=1)
def _hypergroups() -> dict[str, HypergroupTable]:
    groups = _groups()
    rings = _fusion_rings()
    tables = {
        "z2": group_hypergroup(groups["z2"]),
        "z3": group_hypergroup(groups["z3"]),
        "s3-group": group_hypergroup(groups["s3"]),
        "conj-s3": with_labels(
            conjugacy_class_hypergroup(groups["s3"]),
            ("e", "transpositions", "3-cycles"),
        ),
        # subgroup generated by the transposition (01)
        "s3-double-coset": double_coset_hypergroup(groups["s3"], (0, 2)),
        "ghj": two_element(GHJ_LAMBDA),
        "fibonacci-rescaled": from_fusion_ring(rings["fibonacci"]),
        "ising-rescaled": from_fusion_ring(rings["ising"]),
    }
    for name, table in tables.items():
        report = validate(table)
        if not report.passed:
            raise RuntimeError(f"builtin hypergroup {name!r} is invalid: {report}")
    return tables


@lru_cache(maxsize=1)
def _groupoids() -> dict[str, Hypergroupoid]:
    tables = _hypergroups()
    groupoids = {
        "ghj": from_hypergroup(with_labels(tables["ghj"], ("a0", "a1")), "ghj"),
        "ising": from_hypergroup(
            with_labels(tables["ising-rescaled"], ("trivial", "fermionic", "dual")),
            "ising",
        ),
        "conj-s3": from_hypergroup(tables["conj-s3"], "conj-s3"),
        "two-object": double_coset_groupoid(_groups()["s3"], (0, 2)),
    }
    for name, g in groupoids.items():
        report = validate_groupoid(g)
        if not report.passed:
            raise RuntimeError(f"builtin groupoid {name!r} is invalid: {report}")
    return groupoids


def builtin_groups() -> dict[str, CayleyGroup]:
    return dict(_groups())


def builtin_fusion_rings() -> dict[str, FusionRing]:
    return dict(_fusion_rings())


def builtin_hypergroups() -> dict[str, HypergroupTable]:
    return dict(_hypergroups())


def builtin_groupoids() -> dict[str, Hypergroupoid]:
    return dict(_groupoids())
