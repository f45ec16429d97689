"""Independent brute-force references used by the test suite only.

These recompute class/coset hypergroups and double-coset groupoids
from a different formula than the library (representative pair
counting instead of full measure convolution), and spectral radii via
the dense eigenvalues of each element's fusion matrix instead of one
eigenvector of their sum.
``match_quadratic_reference`` is the scalar quadratic-literal scan that
the vectorized ``match_quadratic`` replaced, and the two
``associativity_reference`` functions are the n^4 einsum checks that the
per-slice kernel of ``validate`` and ``validate_groupoid`` replaced, and
``associativity_kernel_reference`` is that per-slice kernel written out
on its own, which the library's must match bit for bit.
``table_isomorphism_reference`` is the loop over all basis permutations
that the colour-refined search of ``table_isomorphism`` replaced.
``involution_reference`` is the loop over unit coefficients that the
vectorized involution check replaced.
``canonical_text_reference`` is the canonical JSON emitter that formats
every scalar on its own; the library now formats each distinct value of
an array once.
``dual_structure_constants_reference`` is the dual's formula in complex
arithmetic throughout; the library now takes real characters in real
arithmetic.
"""

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np

from hyperkit import (
    AxiomError,
    CayleyGroup,
    FusionRing,
    HypergroupTable,
    QuadraticLiteral,
    StructureError,
    weights,
)


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


def associativity_kernel_reference(ab, mc, bc, aq, tol):
    """[((a, b, c, p), defect)] from every slice, with the kernel's products and buffers."""
    nm, nc, np_ = mc.shape
    nb, nq = bc.shape[0], bc.shape[2]
    mc_flat = mc.reshape(nm, nc * np_)
    bc_flat = bc.reshape(nb * nc, nq)
    dev = np.empty((nb, nc * np_))
    right = np.empty((nb * nc, np_))
    out = []
    for a in range(ab.shape[0]):
        np.matmul(ab[a], mc_flat, out=dev)
        np.matmul(bc_flat, aq[a], out=right)
        dev -= right.reshape(nb, nc * np_)
        np.abs(dev, out=dev)
        slab = dev.reshape(nb, nc, np_)
        for b, c, p in zip(*np.where(slab > tol)):
            out.append(((a, int(b), int(c), int(p)), float(slab[b, c, p])))
    return out


def involution_reference(t, unit, star, tol):
    """[((a, b), defect)]: the n^2 loop over unit coefficients that ``validate`` vectorized."""
    out = []
    for a in range(t.shape[0]):
        for b in range(t.shape[1]):
            v = float(t[a, b, unit])
            if b == star[a] and v <= tol:
                out.append(((a, b), tol - v))
            elif b != star[a] and v > tol:
                out.append(((a, b), v))
    return out


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


def greedy_generators(mul, e):
    """Generators of a group table: each the least element outside the
    subgroup the earlier ones generate (the closure of ``e`` under right
    multiplication by them)."""
    n = len(mul)
    gens, reached = [], {e}
    while len(reached) < n:
        gens.append(min(set(range(n)) - reached))
        reached = frontier = {e}
        while frontier:
            frontier = {int(mul[a][g]) for a in frontier for g in gens} - reached
            reached = reached | frontier
    return gens


def su2_fusion_tensor(k):
    """SU(2)_k multiplicities from the truncated Clebsch-Gordan rule."""
    n = k + 1
    i, j, l = np.ogrid[:n, :n, :n]
    N = (np.abs(i - j) <= l) & (l <= np.minimum(i + j, 2 * k - i - j)) & ((i + j + l) % 2 == 0)
    return N.astype(np.int64)


def unchecked_fusion_ring(labels, unit, conj, N):
    """A ``FusionRing`` whose fields are set as given, with no check run.

    For guards that a ring checked on construction is not known to
    reach, such as the reducibility guard of ``pf_dimensions``.
    """
    ring = object.__new__(FusionRing)
    fields = {"labels": tuple(labels), "unit": unit, "conj": tuple(conj), "N": np.asarray(N)}
    for name, value in fields.items():
        object.__setattr__(ring, name, value)
    return ring


def unchecked_table(table, lam):
    """``table`` with its tensor replaced by ``lam`` as given, unchecked.

    ``HypergroupTable`` refuses NaN and inf entries; this reaches the
    guards of ``validate`` that such entries would meet.
    """
    out = HypergroupTable(table.labels, table.unit, table.involution, table.lam)
    object.__setattr__(out, "lam", np.asarray(lam))
    return out


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


def table_isomorphism_reference(t1, t2, tol=1e-9):
    """Search for a basis bijection identifying two tables.

    Returns a permutation ``pi`` with ``lam1[i, j, l] == lam2[pi(i),
    pi(j), pi(l)]`` (within tol), ``pi(unit1) == unit2`` and
    ``pi . inv1 == inv2 . pi``, or None if no such bijection exists.
    Exhaustive over basis permutations, pruned by weight matching.
    """
    n = t1.n
    if n != t2.n:
        return None
    try:
        w1 = weights(t1, tol)
        w2 = weights(t2, tol)
    except AxiomError:
        return None
    others1 = [i for i in range(n) if i != t1.unit]
    others2 = [i for i in range(n) if i != t2.unit]
    # candidate images per element, filtered by weight
    cands = {
        i: [j for j in others2 if abs(w1[i] - w2[j]) <= max(tol, 1e-6)] for i in others1
    }
    if any(not c for c in cands.values()):
        return None
    for images in itertools.permutations(others2):
        pi = [0] * n
        pi[t1.unit] = t2.unit
        ok = True
        for i, j in zip(others1, images):
            if j not in cands[i]:
                ok = False
                break
            pi[i] = j
        if not ok:
            continue
        if any(pi[t1.involution[i]] != t2.involution[pi[i]] for i in range(n)):
            continue
        perm = np.array(pi)
        pulled = t2.lam[np.ix_(perm, perm, perm)]
        if np.max(np.abs(t1.lam - pulled)) <= max(tol, 1e-6):
            return tuple(pi)
    return None


def relabel(table, perm):
    """The same table with element ``i`` renamed to index ``perm[i]``."""
    perm = np.asarray(perm)
    inverse = np.argsort(perm)
    return HypergroupTable(
        tuple(table.labels[i] for i in inverse),
        int(perm[table.unit]),
        tuple(int(perm[table.involution[i]]) for i in inverse),
        table.lam[np.ix_(inverse, inverse, inverse)],
    )


def direct_product(g1, g2):
    """Cayley table of ``g1 x g2``; the pair (a, b) has index ``a * |g2| + b``."""
    n2 = g2.order
    mul = g1.mul[:, None, :, None] * n2 + g2.mul[None, :, None, :]
    size = g1.order * n2
    return CayleyGroup(mul.reshape(size, size), g1.identity * n2 + g2.identity)


def dihedral_group(n):
    """Symmetries of the n-gon, order 2n: ``r^s f^t`` has index ``2 s + t``
    and ``f r = r^-1 f``."""
    s, t = np.divmod(np.arange(2 * n), 2)
    turn = np.where(t[:, None] == 1, -s[None, :], s[None, :])
    mul = 2 * ((s[:, None] + turn) % n) + (t[:, None] + t[None, :]) % 2
    return CayleyGroup(mul, 0)


def dicyclic_group(n):
    """``<a, x | a^2n = 1, x^2 = a^n, x a x^-1 = a^-1>``, order 4n: ``a^s x^t``
    has index ``2 s + t``."""
    s, t = np.divmod(np.arange(4 * n), 2)
    turn = np.where(t[:, None] == 1, -s[None, :], s[None, :])
    carry = np.where((t[:, None] == 1) & (t[None, :] == 1), n, 0)  # x x = a^n
    mul = 2 * ((s[:, None] + turn + carry) % (2 * n)) + (t[:, None] + t[None, :]) % 2
    return CayleyGroup(mul, 0)


_INT_RE = re.compile(r"^-?[0-9]+$")


def _format_float_reference(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    s = f"{x:.17g}"
    if _INT_RE.match(s):
        s += ".0"
    return s


def _emit_reference(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted(value.items())
        for pos, (key, item) in enumerate(items):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit_reference(item, indent + 1, out)
            out.append(",\n" if pos + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        if any(isinstance(v, (list, tuple, dict)) for v in seq):
            out.append("[\n")
            for pos, item in enumerate(seq):
                out.append(pad + "  ")
                _emit_reference(item, indent + 1, out)
                out.append(",\n" if pos + 1 < len(seq) else "\n")
            out.append(pad + "]")
        else:
            out.append("[" + ", ".join(_scalar_token_reference(v) for v in seq) + "]")
    else:
        out.append(_scalar_token_reference(value))


def _scalar_token_reference(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float_reference(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise StructureError(f"cannot serialize value of type {type(value).__name__}")


def _as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value


def canonical_text_reference(document: dict) -> str:
    """Canonical JSON text, one scalar token at a time, with arrays as ``tolist()``."""
    out: list[str] = []
    _emit_reference(_as_lists(document), 0, out)
    out.append("\n")
    return "".join(out)


def dual_structure_constants_reference(ct):
    """The dual's structure constants ``c[m, m', p] = (chi_p, chi_m chi_m')
    / (chi_p, chi_p)`` of a character table, in complex128 whatever the
    characters, with their real parts clipped at 0."""
    rows = np.asarray(ct.chars, dtype=np.complex128)
    mu = ct.haar_weights
    n = len(mu)
    pointwise = rows[:, None, :] * rows[None, :, :]
    gram = (pointwise.reshape(n * n, n) @ (np.conj(rows) * mu).T).reshape(n, n, n) / mu.sum()
    return np.clip((gram * ct.dual_weights[None, None, :]).real, 0.0, None)


def ulp_distance(a, b):
    """Entrywise distance of two float arrays in units in the last place
    of the larger magnitude (0 where they are equal)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.where(a == b, 0.0, np.abs(a - b) / scale)


def character_order_reference(rows):
    """The order of ``characters``' rows: the row nearest the constant 1
    (sup norm) first, then the others by their Python ``round(x, 9)``
    (re, im) pairs, element by element, ties in row order."""
    rows = np.asarray(rows, dtype=np.complex128)
    trivial = min(range(len(rows)), key=lambda m: max(abs(z - 1.0) for z in rows[m].tolist()))
    keys = [[(round(z.real, 9), round(z.imag, 9)) for z in row] for row in rows.tolist()]
    return [trivial] + sorted((m for m in range(len(rows)) if m != trivial), key=keys.__getitem__)


def haar_norm_reference(row, mu):
    """``(chi, chi)`` of one character row in the Haar inner product,
    ``sum_a conj(chi(a)) mu_a chi(a) / sum(mu)``, one complex sum and one
    complex division."""
    row = np.asarray(row, dtype=np.complex128)
    return complex(np.sum(np.conj(row) * mu * row) / mu.sum()).real


def conjugate_partner_reference(rows):
    """For each row m, the row j nearest ``conj(rows[m])`` in the sup norm
    (least j on ties), and that distance."""
    rows = np.asarray(rows, dtype=np.complex128)
    out = []
    for m in range(len(rows)):
        dists = np.max(np.abs(rows - np.conj(rows[m])[None, :]), axis=1)
        j = int(np.argmin(dists))
        out.append((j, float(dists[j])))
    return out
