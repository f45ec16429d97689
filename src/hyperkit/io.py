"""Document formats and canonical serialization for all domain types.

Every document is a JSON object carrying a ``kind`` discriminator and
``format_version`` (currently 1).  Field names per kind:

* ``hypergroup``: labels, unit, involution (optional on input),
  lambda (3d tensor)
* ``fusion_ring``: labels, unit, involution (the conjugation,
  optional on input), N (3d integer tensor)
* ``group``: labels (optional), unit (the identity), mul (2d table)
* ``groupoid``: objects, mor, comp, star, unit; ``mor`` and ``star``
  are objects x objects grids, ``comp`` objects x objects x objects
* ``character_table``: labels, chars (complex entries as
  ``{"re": .., "im": ..}``), haar_weights, dual_weights

Numeric entries of ``lambda`` and groupoid ``comp`` tensors may be
plain numbers or exact quadratic literals ``{"a": .., "b": .., "c":
.., "d": ..}`` denoting ``(a + b * sqrt(d)) / c``, with ``|a|, |b|, c
<= 2**53`` and ``0 <= d < 2**31``; literals are evaluated once at parse
time.  A tensor of plain numbers converts in one pass (O(N)); one with
literals or other entries is checked entry by entry.  A number beyond
the float64 range is a ``StructureError``.

The parsers check labels and numeric literals; the index and integer
fields ``unit``, ``involution``, ``star``, ``N`` and ``mul`` pass
straight to the types, which check each field once and raise
``StructureError`` on non-integral or boolean indices, non-integer
``N`` or ``mul`` and non-finite coefficients, from documents and from
the library API alike.

Serialization is canonical: keys sorted, floats printed with 17
significant digits, identical objects always produce identical bytes.
Arrays are emitted in bulk: O(U log U) to sort the U nonzero entries,
one formatting pass over the distinct values, and an O(N) gather.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .constructions import CayleyGroup, FusionRing, cayley_group, fusion_ring
from .core import DEFAULT_TOL, HypergroupTable, ValidationReport, _as_index_tuple, _grid, validate
from .errors import AxiomError, StructureError
from .groupoid import BoundaryState, Hypergroupoid
from .quantize import AdmissibleIndexSet
from .reprs import CharacterTable

FORMAT_VERSION = 1

_QUAD_KEYS = frozenset({"a", "b", "c", "d"})
_INT_RE = re.compile(r"^-?[0-9]+$")
_MAX_LITERAL_COEFF = 2**53
_MAX_LITERAL_RADICAND = 2**31


@dataclass(frozen=True)
class QuadraticLiteral:
    """Exact representation of ``(a + b * sqrt(d)) / c``.

    The fields are bounded: ``|a|, |b|, c <= 2**53`` (exact in float64)
    and ``0 <= d < 2**31``, so the square-free check of d takes at most
    46,341 trial divisions.  Anything outside raises ``StructureError``.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.c <= 0:
            raise StructureError("quadratic literal denominator must be positive")
        if self.d < 0:
            raise StructureError("quadratic literal radicand must be nonnegative")
        if max(abs(self.a), abs(self.b), self.c) > _MAX_LITERAL_COEFF:
            raise StructureError("quadratic literal coefficients a, b, c must not exceed 2**53")
        if self.d >= _MAX_LITERAL_RADICAND:
            raise StructureError("quadratic literal radicand must be below 2**31")
        if not _is_squarefree(self.d):
            raise StructureError(f"quadratic literal radicand {self.d} is not square-free")

    def value(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def pretty(self) -> str:
        if self.d == 0 or self.b == 0:
            return f"{self.a}/{self.c}" if self.c != 1 else str(self.a)
        if self.b == 1:
            root = f"√{self.d}"
        elif self.b == -1:
            root = f"-√{self.d}"
        else:
            root = f"{self.b}√{self.d}"
        if self.a == 0:
            body = root
        else:
            body = f"{self.a}{root}" if root.startswith("-") else f"{self.a}+{root}"
        return f"({body})/{self.c}" if self.c != 1 else body


def _is_squarefree(d: int) -> bool:
    if d in (0, 1):
        return True
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


#: Buckets of the fractional parts of the roots ``b * sqrt(d)``.
_ROOT_BUCKETS = 4096


@functools.lru_cache(maxsize=8)
def _root_index(max_coeff: int, max_radicand: int):
    """The roots ``b * sqrt(d)`` of the box, bucketed by fractional part.

    Returns ``(radicands, bs, order, start, bucketed)``: the square-free
    d in ``2..max_radicand``, the float ``b != 0`` in ``[-max_coeff,
    max_coeff]``, and CSR arrays of the products ``b * sqrt(d)`` in
    the buckets ``floor(frac(root) * _ROOT_BUCKETS)``.  Bucket k holds
    the roots ``bucketed[start[k]:start[k + 1]]``, and ``order`` gives
    their positions in the (d, b) order of a scan, ``d_index * len(bs)
    + b_index``.  ``order``, ``start`` and ``bucketed`` run through the
    buckets twice, so a run of buckets that wraps past the last is one
    slice too.  The arrays are read-only.
    """
    radicands = tuple(d for d in range(2, max_radicand + 1) if _is_squarefree(d))
    bs = np.arange(-max_coeff, max_coeff + 1, dtype=np.float64)
    bs = bs[bs != 0]
    roots = (np.sqrt(np.array(radicands, dtype=np.float64))[:, None] * bs).ravel()
    bucket = ((roots - np.floor(roots)) * _ROOT_BUCKETS).astype(np.intp)  # both steps exact
    order = np.tile(np.argsort(bucket, kind="stable"), 2)
    start = np.zeros(2 * _ROOT_BUCKETS + 1, dtype=np.intp)
    np.cumsum(np.tile(np.bincount(bucket, minlength=_ROOT_BUCKETS), 2), out=start[1:])
    bucketed = roots[order]
    for arr in (bs, order, start, bucketed):
        arr.flags.writeable = False
    return radicands, bs, order, start, bucketed


def _window_candidates(frac, w, start):
    """Where the roots lie whose buckets cover ``[frac[c] - w[c], frac[c] +
    w[c]]`` modulo 1, for each c, in the CSR arrays of ``_root_index``:
    their positions in c order, and how many each c has.  A window with
    ``w >= 0.5`` holds every bucket once."""
    lo = np.floor((frac - w) * _ROOT_BUCKETS).astype(np.intp)
    last = np.floor((frac + w) * _ROOT_BUCKETS).astype(np.intp) - lo  # buckets after lo
    lo %= _ROOT_BUCKETS
    first = start[lo]
    count = start[lo + np.minimum(last, _ROOT_BUCKETS - 1) + 1] - first
    pos = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)
    return pos, count


def match_quadratic(
    value: float,
    tol: float = DEFAULT_TOL,
    max_coeff: int = 64,
    max_radicand: int = 64,
) -> QuadraticLiteral | None:
    """Bounded search for an exact quadratic literal matching ``value``.

    The box is ``|a|, |b|, c <= max_coeff`` and square-free
    ``d <= max_radicand``; the result is the first match within tol in
    (d, c, b) order (d = 0 first, so rationals win), with ``a =
    round(value * c - b * sqrt(d))`` (half to even).  A root ``b *
    sqrt(d)`` can match at c only if its fractional part lies within
    ``c * tol`` of ``frac(value * c)`` modulo 1 (widened by 1e-9 per
    unit of the box bound, far above the float round-off).  So each c
    looks up the buckets of ``_root_index`` that cover its window, and
    tests their roots with the float expressions of a full scan, whose
    result it returns.  The cost grows with the windows: on the default
    box a miss at tol 1e-9 tests about eighty candidates in about 60 us,
    against 2.5 ms for the scan; at tol 1e-3 the windows hold about 7%
    of the box's roots (0.7 ms), and from ``tol = 1 / (2 c)`` the window
    of c holds all of them.
    """
    if not math.isfinite(value):
        return None
    bound = max_coeff * (1.0 + math.sqrt(max_radicand))
    if abs(value) > bound + tol:
        return None  # beyond every literal in the box
    cs = np.arange(1, max_coeff + 1, dtype=np.float64)
    scaled = value * cs
    a = np.round(scaled)
    hits = (np.abs(a) <= max_coeff) & (np.abs(a / cs - value) <= tol)
    if hits.any():
        c = int(hits.argmax())
        return QuadraticLiteral(int(a[c]), 0, c + 1, 0)
    radicands, bs, order, start, bucketed = _root_index(max_coeff, max_radicand)
    if not radicands or not tol >= 0.0:
        return None  # no roots, or tol < 0 or NaN, which nothing lies within
    w = np.minimum(tol * cs + 1e-9 * max(1.0, bound), 1.0)  # from 0.5 on, every bucket
    pos, count = _window_candidates(scaled - np.floor(scaled), w, start)
    r = bucketed[pos]
    a = np.round(np.repeat(scaled, count) - r)
    hits = (np.abs(a) <= max_coeff) & (np.abs((a + r) / np.repeat(cs, count) - value) <= tol)
    if not hits.any():
        return None
    (at,) = np.nonzero(hits)
    c = np.searchsorted(np.cumsum(count), at, side="right")
    d, b = np.divmod(order[pos[at]], len(bs))
    best = np.argmin((d * max_coeff + c) * len(bs) + b)  # first in (d, c, b) order
    return QuadraticLiteral(int(a[at[best]]), int(bs[b[best]]), int(c[best]) + 1, radicands[d[best]])


# ---------------------------------------------------------------------------
# canonical JSON emission

def _format_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    s = f"{x:.17g}"
    if _INT_RE.match(s):
        s += ".0"
    return s


def _emit(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted(value.items())
        for pos, (key, item) in enumerate(items):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(item, indent + 1, out)
            out.append(",\n" if pos + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(value, np.ndarray):
        _emit_array(value, indent, out)
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        if any(isinstance(v, (list, tuple, dict, np.ndarray)) for v in seq):
            out.append("[\n")
            for pos, item in enumerate(seq):
                out.append(pad + "  ")
                _emit(item, indent + 1, out)
                out.append(",\n" if pos + 1 < len(seq) else "\n")
            out.append(pad + "]")
        else:
            out.append("[" + ", ".join(_scalar_token(v) for v in seq) + "]")
    else:
        out.append(_scalar_token(value))


@functools.lru_cache(maxsize=64)
def _rows(shape: tuple[int, ...], indent: int):
    """How an array of this shape at ``indent`` opens, the separator after a row
    by its count of trailing indices at their maximum, and each row's count (read-only)."""
    pads = ["\n" + "  " * (indent + d) for d in range(len(shape))]
    opens = ["".join(f"{p}[" for p in pads[first:]) for first in range(len(shape) + 1)]
    closes = ["]" + "".join(f"{p}]" for p in pads[-1 - t:-1][::-1]) for t in range(len(shape))]
    ends = np.arange(1, math.prod(shape[:-1]) + 1)
    trailing = sum((ends % math.prod(shape[d:-1]) == 0 for d in range(len(shape) - 1)), 0 * ends)
    trailing.flags.writeable = False
    separators = [f"{c},{o}" for c, o in zip(closes[:-1], opens[-2::-1])] + closes[-1:]
    return "[" + opens[1], separators, trailing


def _emit_array(arr: np.ndarray, indent: int, out: list[str]) -> None:
    """Emit an array exactly as ``_emit(arr.tolist())`` would.

    Only the U nonzero entries are sorted (``np.unique``, O(U log U)); an
    O(N) gather through one intp index fills one object array of N token
    references, with the row separators of ``_rows`` in its last column.
    """
    if arr.ndim == 0 or arr.size == 0:
        _emit(arr.tolist(), indent, out)
        return
    flat = arr.ravel()
    nonzero = flat.nonzero()[0]  # -0.0 is zero, as in _format_float
    distinct, inverse = np.unique(flat[nonzero], return_inverse=True)
    values = [arr.dtype.type(0).item(), *distinct.tolist()]  # index 0 is zero
    if arr.dtype.kind == "f":  # _format_float, one pass
        whole = [True, *((distinct == np.floor(distinct)) & (np.abs(distinct) < 1e17)).tolist()]
        tokens = [f"{x:.17g}.0" if w else f"{x:.17g}" for x, w in zip(values, whole)]
    else:
        tokens = [_scalar_token(v) for v in values]
    opening, separators, trailing = _rows(arr.shape, indent)
    table = np.array([t + ", " for t in tokens] + tokens + separators, dtype=object)
    index = np.zeros((len(trailing), arr.shape[-1] + 1), dtype=np.intp)
    index.ravel()[nonzero + nonzero // arr.shape[-1]] = inverse + 1
    index[:, -2] += len(tokens)  # the token that ends a row has no ", "
    index[:, -1] = trailing + 2 * len(tokens)
    out.append(opening + "".join(table[index.ravel()].tolist()))


def _scalar_token(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise StructureError(f"cannot serialize value of type {type(value).__name__}")


def canonical_text(document: dict) -> str:
    """Render a document as canonical, hand-editable JSON text."""
    out: list[str] = []
    _emit(document, 0, out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# shared parsing helpers

def _load(document) -> dict:
    if isinstance(document, dict):
        return document
    if isinstance(document, (bytes, str)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise StructureError(f"document is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise StructureError("document root must be an object")
        return doc
    raise StructureError("document must be JSON text or a parsed object")


def _expect_kind(doc: dict, kind: str, fields, noun: str | None = None) -> None:
    """Check the kind, the format version, and that every field is present.

    A missing field is reported as ``<noun> document is missing``; the
    noun defaults to the kind.
    """
    got = doc.get("kind")
    if got != kind:
        raise StructureError(f"expected a {kind!r} document, found kind {got!r}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise StructureError(f"unsupported format_version {version!r}")
    for field in fields:
        if field not in doc:
            raise StructureError(f"{noun or kind} document is missing {field!r}")


def _label_list(value, where: str = "labels") -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise StructureError(f"{where} must be a list of strings")
    return tuple(value)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StructureError(f"{where}: expected a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise StructureError(f"{where}: number out of the float64 range") from exc


def _scalar_entry(entry, where: str) -> float:
    if isinstance(entry, bool):
        raise StructureError(f"{where}: booleans are not numbers")
    if isinstance(entry, (int, float)):
        return _number(entry, where)
    if isinstance(entry, dict):
        if set(entry) != _QUAD_KEYS:
            raise StructureError(f"{where}: quadratic literal needs exactly keys a, b, c, d")
        if not all(isinstance(entry[k], int) for k in _QUAD_KEYS):
            raise StructureError(f"{where}: quadratic literal fields must be integers")
        return QuadraticLiteral(entry["a"], entry["b"], entry["c"], entry["d"]).value()
    raise StructureError(f"{where}: expected a number or quadratic literal")


def _scalar_tensor(data, where: str) -> np.ndarray:
    """A float64 tensor from nested lists of numbers or quadratic literals.

    Nested lists flatten a level at a time; N leaves of plain JSON numbers
    convert in one ``np.array`` call, O(N), and anything else (literals,
    booleans, ragged rows) goes through ``_scalar_tensor_entries``.
    """
    shape, level = [], [data]
    while (types := set(map(type, level))) == {list}:
        lengths = set(map(len, level))
        if len(lengths) > 1:
            return _scalar_tensor_entries(data, where)
        shape.append(lengths.pop())
        level = list(itertools.chain.from_iterable(level))
    if not types <= {int, float}:
        return _scalar_tensor_entries(data, where)
    try:
        return np.array(level, dtype=np.float64).reshape(shape)
    except OverflowError as exc:
        raise StructureError(f"{where}: number out of the float64 range") from exc


def _scalar_tensor_entries(data, where: str) -> np.ndarray:
    def convert(node):
        if isinstance(node, list):
            return [convert(v) for v in node]
        return _scalar_entry(node, where)

    try:
        arr = np.array(convert(data), dtype=np.float64)
    except ValueError as exc:
        raise StructureError(f"{where}: ragged or non-numeric tensor") from exc
    return arr


def infer_involution(lam: np.ndarray, unit: int, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
    """Read the involution off the unit coefficients of the table.

    ``inv(i)`` is the unique j with ``lam[i, j, unit] > tol``; zero or
    several candidates make the table ambiguous, which is an error.
    """
    n = lam.shape[0]
    involution = []
    for i in range(n):
        js = np.where(lam[i, :, unit] > tol)[0]
        if len(js) != 1:
            raise StructureError(
                f"cannot infer involution: element {i} has {len(js)} unit partners"
            )
        involution.append(int(js[0]))
    return tuple(involution)


# ---------------------------------------------------------------------------
# hypergroup documents

def parse_hypergroup(
    document, tol: float = DEFAULT_TOL, check: bool = True
) -> HypergroupTable:
    """Parse (and by default validate) a hypergroup document."""
    doc = _load(document)
    _expect_kind(doc, "hypergroup", ("labels", "unit", "lambda"))
    labels = _label_list(doc["labels"])
    lam = _scalar_tensor(doc["lambda"], "lambda")
    if "involution" in doc:
        involution = doc["involution"]
    else:  # the inference reads lam[:, :, unit], so it needs both checked first
        n = len(labels)
        if lam.shape != (n, n, n):
            raise StructureError(f"lambda tensor has shape {lam.shape}, expected {(n, n, n)}")
        (unit,) = _as_index_tuple((doc["unit"],), n, "unit index")
        involution = infer_involution(lam, unit, tol)
    table = HypergroupTable(labels, doc["unit"], involution, lam)
    if check:
        report = validate(table, tol)
        if not report.passed:
            raise AxiomError("hypergroup document fails validation", report=report)
    return table


def hypergroup_document(table: HypergroupTable) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "hypergroup",
        "labels": list(table.labels),
        "unit": table.unit,
        "involution": list(table.involution),
        "lambda": table.lam,
    }


def serialize_hypergroup(table: HypergroupTable) -> str:
    return canonical_text(hypergroup_document(table))


# ---------------------------------------------------------------------------
# fusion ring documents

def parse_fusion_ring(document) -> FusionRing:
    doc = _load(document)
    _expect_kind(doc, "fusion_ring", ("labels", "unit", "N"), "fusion ring")
    labels = _label_list(doc["labels"])
    return fusion_ring(labels, doc["unit"], doc["N"], conj=doc.get("involution"))


def serialize_fusion_ring(ring: FusionRing) -> str:
    return canonical_text(
        {
            "format_version": FORMAT_VERSION,
            "kind": "fusion_ring",
            "labels": list(ring.labels),
            "unit": ring.unit,
            "involution": list(ring.conj),
            "N": ring.N,
        }
    )


# ---------------------------------------------------------------------------
# group documents

def parse_group(document) -> CayleyGroup:
    doc = _load(document)
    _expect_kind(doc, "group", ("unit", "mul"))
    labels = doc.get("labels")
    if labels is not None:
        labels = _label_list(labels)
    return cayley_group(doc["mul"], doc["unit"], labels=labels)


def serialize_group(group: CayleyGroup) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "group",
        "unit": group.identity,
        "mul": group.mul,
    }
    if group.labels is not None:
        doc["labels"] = list(group.labels)
    return canonical_text(doc)


# ---------------------------------------------------------------------------
# groupoid documents

def parse_groupoid(document) -> Hypergroupoid:
    doc = _load(document)
    _expect_kind(doc, "groupoid", ("objects", "mor", "comp", "star", "unit"))
    objects = _label_list(doc["objects"], "objects")
    k = len(objects)
    mor = tuple(
        tuple(_label_list(labels, f"mor[{x}][{y}]") for y, labels in enumerate(row))
        for x, row in enumerate(_grid(doc["mor"], k, 2, "mor"))
    )
    comp = tuple(
        tuple(
            tuple(_scalar_tensor(t, f"comp[{x}][{y}][{z}]") for z, t in enumerate(cell))
            for y, cell in enumerate(plane)
        )
        for x, plane in enumerate(_grid(doc["comp"], k, 3, "comp"))
    )
    return Hypergroupoid(objects, mor, comp, doc["star"], doc["unit"])


def serialize_groupoid(g: Hypergroupoid) -> str:
    return canonical_text(
        {
            "format_version": FORMAT_VERSION,
            "kind": "groupoid",
            "objects": g.objects,
            "mor": g.mor,
            "comp": g.comp,
            "star": g.star,
            "unit": g.units,
        }
    )


# ---------------------------------------------------------------------------
# character table documents

def _complex_record(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


def _parse_complex(entry, where: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(_number(entry, where), 0.0)
    if isinstance(entry, dict) and set(entry) == {"re", "im"}:
        return complex(_number(entry["re"], where), _number(entry["im"], where))
    raise StructureError(f"{where}: expected a number or a re/im record")


def _number_list(value, n: int, where: str) -> list[float]:
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(_grid(value, n, 1, where))]


def parse_character_table(document) -> CharacterTable:
    doc = _load(document)
    _expect_kind(
        doc, "character_table", ("labels", "chars", "haar_weights", "dual_weights"),
        "character table",
    )
    labels = _label_list(doc["labels"])
    n = len(labels)
    rows = _grid(doc["chars"], n, 2, "chars")
    chars = np.array(
        [
            [_parse_complex(entry, f"chars[{m}][{a}]") for a, entry in enumerate(row)]
            for m, row in enumerate(rows)
        ],
        dtype=np.complex128,
    )
    return CharacterTable(
        labels,
        chars,
        _number_list(doc["haar_weights"], n, "haar_weights"),
        _number_list(doc["dual_weights"], n, "dual_weights"),
    )


def character_table_document(ct: CharacterTable) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "character_table",
        "labels": list(ct.labels),
        "chars": [[_complex_record(z) for z in row] for row in ct.chars],
        "haar_weights": ct.haar_weights,
        "dual_weights": ct.dual_weights,
    }


def serialize_character_table(ct: CharacterTable) -> str:
    return canonical_text(character_table_document(ct))


# ---------------------------------------------------------------------------
# report documents (CLI machine output)

def validation_report_document(report: ValidationReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "validation_report",
        "passed": report.passed,
        "violations": [
            {"axiom": v.axiom, "indices": list(v.indices), "magnitude": v.magnitude}
            for v in report.violations
        ],
    }


def boundary_state_document(state: BoundaryState) -> dict:
    g = state.groupoid
    return {
        "format_version": FORMAT_VERSION,
        "kind": "boundary_state",
        "from_object": g.objects[state.from_object],
        "to_object": g.objects[state.to_object],
        "labels": list(g.mor[state.to_object][state.from_object]),
        "coeffs": state.coeffs,
    }


def admissible_indices_document(result: AdmissibleIndexSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "admissible_indices",
        "bound": result.bound,
        "n_max": result.n_max,
        "continuum_from": result.continuum_from,
        "values": [
            {"value": e.value, "witness": list(e.witness)} for e in result.entries
        ],
    }


_PARSERS = {
    "hypergroup": parse_hypergroup,
    "fusion_ring": parse_fusion_ring,
    "group": parse_group,
    "groupoid": parse_groupoid,
    "character_table": parse_character_table,
}

_REPORT_FIELDS = {
    "validation_report": ("passed", "violations"),
    "boundary_state": ("from_object", "to_object", "labels", "coeffs"),
    "admissible_indices": ("bound", "n_max", "values", "continuum_from"),
    "characters_result": ("character_table", "unitarity_defect", "dual", "dual_error"),
}


def parse_document(document):
    """Parse any supported document by its ``kind`` discriminator.

    Object kinds return the corresponding domain value; report kinds
    are checked for their required fields and returned as dicts.
    """
    doc = _load(document)
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise StructureError(f"document kind must be a string, found {kind!r}")
    if kind in _PARSERS:
        return _PARSERS[kind](doc)
    if kind in _REPORT_FIELDS:
        _expect_kind(doc, kind, _REPORT_FIELDS[kind])
        return doc
    raise StructureError(f"unknown document kind {kind!r}")
