"""Regular representation, characters, and duality of commutative tables.

The regular representation assigns to each basis element ``b`` the
matrix ``(R_b)[c, a] = lam[a, b, c]``, so that a mixture with
coefficient column ``p`` maps to ``R_b @ p`` under right
multiplication by ``k_b``.  These matrices commute exactly when the
table is commutative, and in that case they are simultaneously
diagonalizable.  The common eigenvectors, normalized to value 1 at the
unit, are the characters: multiplicative functionals

    chi(a) * chi(b) = sum_c lam[a, b, c] * chi(c).

Characters of a commutative table are pairwise orthogonal in the inner
product weighted by the Haar measure,

    (f, g) = (sum_a mu_a)^(-1) * sum_a conj(f(a)) * mu_a * g(a),

and rescaling the character matrix by the square roots of the element
weights and of the dual weights (inverse squared character norms)
yields a unitary matrix.  When the pointwise products of characters
expand with nonnegative coefficients, those coefficients are again a
hypergroup table: the dual hypergroup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    HypergroupTable,
    _float_tensor,
    _isomorphism_search,
    is_commutative,
    validate,
    weights,
)
from .errors import AxiomError, NumericalError, PreconditionError

#: Seed for the random recombination used by the simultaneous eigensolver.
DEFAULT_SEED = 0xC0FFEE

_EIG_GAP = 1e-8
_REL_EIG_GAP = 1e-5
_MAX_RETRIES = 16
_CHAR_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class RegularRep:
    """The matrices of right multiplication on mixture coefficients."""

    table: HypergroupTable
    matrices: np.ndarray  # shape (n, n, n); matrices[b] is R_b

    def __post_init__(self):
        n = self.table.n
        object.__setattr__(self, "matrices", _float_tensor(self.matrices, (n, n, n), "matrices"))


def regular_representation(table: HypergroupTable) -> RegularRep:
    """Transcribe the structure constants into dense matrices."""
    return RegularRep(table, table.lam.transpose(1, 2, 0))


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """All characters of a commutative table, with weight data.

    ``chars[m, a]`` is the value of character m on element a.  Row 0 is
    the trivial character; the remaining rows are sorted
    lexicographically by value vector.  ``haar_weights`` are the
    element weights mu_a; ``dual_weights[m]`` is the inverse squared
    norm of character m in the Haar inner product.

    ``characters`` also records how it found them: ``eigen_gap``, the
    smallest distance between two eigenvalues of the accepted random
    combination; ``retries``, the number of draws it rejected; and the
    largest defect of each character axiom, ``normalization`` (value 1
    at the unit), ``multiplicativity``, ``conjugation`` (``chi(inv(a))
    == conj(chi(a))``) and ``orthogonality`` (the Haar Gram matrix off
    its diagonal).  They are None on tables built otherwise, and no
    document carries them.
    """

    labels: tuple[str, ...]
    chars: np.ndarray
    haar_weights: np.ndarray
    dual_weights: np.ndarray
    eigen_gap: float | None = None
    retries: int | None = None
    normalization: float | None = None
    multiplicativity: float | None = None
    conjugation: float | None = None
    orthogonality: float | None = None

    def __post_init__(self):
        n = len(self.labels)
        chars = np.array(self.chars, dtype=np.complex128)
        hw = _float_tensor(self.haar_weights, (n,), "haar weights")
        dw = _float_tensor(self.dual_weights, (n,), "dual weights")
        chars.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "chars", chars)
        object.__setattr__(self, "haar_weights", hw)
        object.__setattr__(self, "dual_weights", dw)

    @property
    def n(self) -> int:
        return len(self.labels)


def _haar_inner(chars_m, chars_k, mu):
    return complex(np.sum(np.conj(chars_m) * mu * chars_k) / mu.sum())


def _sort_key(row):
    return tuple((round(float(z.real), 9), round(float(z.imag), 9)) for z in row)


def characters(
    table: HypergroupTable,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
) -> CharacterTable:
    """Compute all characters by simultaneous diagonalization.

    A random linear combination ``Z = sum_b c_b R_b`` of the regular
    matrices is diagonalized; for a commutative table its transpose has
    the character value vectors as eigenvectors.  Coefficients are
    drawn from a generator with the given seed, so results are
    deterministic.  Two eigenvalues of Z closer than ``max(1e-8, 1e-5 *
    max|eigenvalue|)`` would mix their eigenvectors, and the dual would
    inherit the mixing, so such a draw is retried (at most 16 times)
    before giving up.

    Raises PreconditionError for non-commutative input and
    NumericalError on persistent degeneracy.
    """
    if not is_commutative(table, tol):
        raise PreconditionError("character analysis requires a commutative table")
    n = table.n
    rng = np.random.default_rng(seed)
    rows = None
    for retries in range(1 + _MAX_RETRIES):
        coeffs = rng.standard_normal(n)
        z = np.einsum("b,abc->ac", coeffs, table.lam)
        eigvals, eigvecs = np.linalg.eig(z)
        gaps = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(gaps, np.inf)
        eigen_gap = float(gaps.min())
        if eigen_gap < max(_EIG_GAP, _REL_EIG_GAP * np.abs(eigvals).max()):
            continue
        units = eigvecs[table.unit, :]
        if np.min(np.abs(units)) < 1e-12:
            continue
        rows = (eigvecs / units[None, :]).T
        break
    if rows is None:
        raise NumericalError(
            "could not separate the characters: eigenvalues stayed degenerate "
            f"after {_MAX_RETRIES} retries"
        )

    # kill pure round-off imaginary parts; genuine complex characters
    # (e.g. on Z3) are far above this threshold
    rows = np.where(np.abs(rows.imag) < 1e-12, rows.real + 0.0j, rows)
    trivial = int(np.argmin(np.max(np.abs(rows - 1.0), axis=1)))
    rows[trivial] = np.ones(n, dtype=np.complex128)
    order = [trivial] + sorted((m for m in range(n) if m != trivial), key=lambda m: _sort_key(rows[m]))
    rows = rows[order]

    mu = weights(table, tol)
    norms = np.array([_haar_inner(rows[m], rows[m], mu).real for m in range(n)])
    if np.any(norms <= 0):
        raise NumericalError("a character has nonpositive Haar norm")
    defects = _check_character_axioms(table, rows, mu)
    return CharacterTable(table.labels, rows, mu, 1.0 / norms, eigen_gap, retries, *defects)


def _check_character_axioms(table: HypergroupTable, rows, mu) -> tuple[float, ...]:
    """The normalization, multiplicativity, conjugation and orthogonality
    defects of ``rows``; NumericalError if one exceeds 1e-7."""
    n = table.n
    normalization = float(np.max(np.abs(rows[:, table.unit] - 1.0)))
    if normalization > _CHAR_TOL:
        raise NumericalError("characters are not normalized at the unit")
    if np.max(np.abs(rows[0] - 1.0)) > 0.0:
        raise NumericalError("row 0 is not the trivial character")
    prod = rows[:, :, None] * rows[:, None, :]                    # chi(a) chi(b)
    expand = (rows @ table.lam.reshape(n * n, n).T).reshape(n, n, n)  # sum_c lam chi(c)
    multiplicativity = float(np.max(np.abs(prod - expand)))
    if multiplicativity > _CHAR_TOL:
        raise NumericalError("characters fail multiplicativity beyond tolerance")
    conj_rows = np.conj(rows)[:, list(table.involution)]
    conjugation = float(np.max(np.abs(rows - conj_rows)))
    if conjugation > _CHAR_TOL:
        raise NumericalError("characters fail conjugation symmetry beyond tolerance")
    gram = np.einsum("ma,a,ka->mk", np.conj(rows), mu, rows) / mu.sum()
    off = gram - np.diag(np.diag(gram))
    orthogonality = float(np.max(np.abs(off)))
    if orthogonality > _CHAR_TOL:
        raise NumericalError("characters are not Haar-orthogonal beyond tolerance")
    return normalization, multiplicativity, conjugation, orthogonality


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Unitarity of the weight-rescaled character matrix."""

    s_matrix: np.ndarray  # S[a, m]
    unitarity_defect: float

    def __post_init__(self):
        s = np.array(self.s_matrix, dtype=np.complex128)
        s.setflags(write=False)
        object.__setattr__(self, "s_matrix", s)


def orthogonality_check(
    table: HypergroupTable,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    chars: CharacterTable | None = None,
) -> DualityReport:
    """Build ``S[a, m] = sqrt(mu_a w_m / sum(mu)) chi_m(a)`` and test unitarity."""
    ct = chars if chars is not None else characters(table, seed=seed, tol=tol)
    mu = ct.haar_weights
    w = ct.dual_weights
    scale = np.sqrt(np.outer(mu, w) / mu.sum())
    s = scale * ct.chars.T
    defect_left = np.max(np.abs(np.conj(s.T) @ s - np.eye(table.n)))
    defect_right = np.max(np.abs(s @ np.conj(s.T) - np.eye(table.n)))
    return DualityReport(s, float(max(defect_left, defect_right)))


def dual_hypergroup(
    table: HypergroupTable,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    chars: CharacterTable | None = None,
) -> HypergroupTable:
    """Structure constants of the character basis under pointwise product.

    ``c[m, m', p] = (chi_p, chi_m chi_m') / (chi_p, chi_p)`` in the
    Haar inner product.  Raises AxiomError (with the offending triple
    in ``detail``) if some coefficient is negative beyond tol, in which
    case the dual is not a hypergroup.
    """
    ct = chars if chars is not None else characters(table, seed=seed, tol=tol)
    rows = ct.chars
    mu = ct.haar_weights
    n = table.n
    # coefficients of chi_m chi_m' in the character basis
    pointwise = rows[:, None, :] * rows[None, :, :]            # [m, m', a]
    gram = (pointwise.reshape(n * n, n) @ (np.conj(rows) * mu).T).reshape(n, n, n) / mu.sum()
    coeff = gram * ct.dual_weights[None, None, :]
    worst = int(np.argmin(coeff.real))
    m, k, p = np.unravel_index(worst, coeff.shape)
    if coeff.real[m, k, p] < -tol:
        raise AxiomError(
            "dual is not a hypergroup: negative structure constant "
            f"c[{m}, {k}, {p}] = {coeff.real[m, k, p]:.6e}",
            detail=(int(m), int(k), int(p)),
        )
    if np.max(np.abs(coeff.imag)) > max(tol, 1e-8):
        raise NumericalError("dual structure constants have large imaginary parts")
    lam = np.clip(coeff.real, 0.0, None)
    row_sums = lam.sum(axis=2)
    if np.max(np.abs(row_sums - 1.0)) > max(tol, 1e-8):
        raise AxiomError("dual is not a hypergroup: rows do not sum to 1")

    involution = []
    conj_rows = np.conj(rows)
    for m in range(n):
        dists = np.max(np.abs(rows - conj_rows[m][None, :]), axis=1)
        j = int(np.argmin(dists))
        if dists[j] > max(tol, 1e-7):
            raise NumericalError(f"no conjugate character found for row {m}")
        involution.append(j)
    labels = tuple(f"chi{m}" for m in range(n))
    dual = HypergroupTable(labels, 0, tuple(involution), lam)
    report = validate(dual, tol=max(tol, 1e-7))
    if not report.passed:
        raise AxiomError("dual table fails hypergroup axioms", report=report)
    return dual


def character_matched_isomorphism(
    t1: HypergroupTable,
    t2: HypergroupTable,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-6,
) -> tuple[int, ...] | None:
    """``table_isomorphism``, at the same cost, with the sorted real and
    imaginary character values at each element (independent of the basis
    order) as extra initial colours; None if a table has no characters."""
    try:
        cts = [characters(t, seed=seed) for t in (t1, t2)]
    except (PreconditionError, NumericalError):
        return None
    extra = [(np.sort(ct.chars.real.T, axis=1), np.sort(ct.chars.imag.T, axis=1)) for ct in cts]
    return _isomorphism_search(t1, t2, tol, extra)
