import copy
import functools
import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hyperkit as hk
import oracles
from hyperkit import io as hio
from hyperkit.cli import main

SQRT3 = math.sqrt(3.0)


def _pinned_match_cases():
    """Seeded (value, tol) pairs: box literals at small offsets, then uniform values.

    The counts keep the scalar reference to about twenty misses, each
    a full scan of the box.
    """
    rng = np.random.default_rng(1612)
    radicands = list(oracles.squarefree_radicands(64))
    tols = itertools.cycle((1e-9, 1e-6, 1e-12))
    cases = []
    for offset, count in ((0.0, 9), (1e-9, 4), (-1e-9, 4), (-2e-9, 4), (1e-7, 4)):
        for _ in range(count):
            d = int(rng.choice(radicands))
            a, b, c = (int(x) for x in rng.integers((-64, -64, 1), (65, 65, 65)))
            value = hk.QuadraticLiteral(a, b if d else 0, c, d).value()
            cases.append((value + offset, next(tols)))
    cases += [(float(v), next(tols)) for v in rng.uniform(-80, 80, 9)]
    return cases


GHJ_DOCUMENT = """
{
  "format_version": 1,
  "kind": "hypergroup",
  "labels": ["k0", "k1"],
  "unit": 0,
  "lambda": [
    [[1, 0], [0, 1]],
    [[0, 1], [{"a": 2, "b": -1, "c": 1, "d": 3}, {"a": -1, "b": 1, "c": 1, "d": 3}]]
  ]
}
"""


class TestQuadraticLiteral:
    def test_value(self):
        lit = hk.QuadraticLiteral(2, -1, 1, 3)
        assert abs(lit.value() - (2 - SQRT3)) < 1e-15

    def test_golden(self):
        lit = hk.QuadraticLiteral(5, 1, 2, 5)
        assert abs(lit.value() - (5 + math.sqrt(5)) / 2) < 1e-15

    def test_pretty(self):
        assert hk.QuadraticLiteral(2, -1, 1, 3).pretty() == "2-√3"
        assert hk.QuadraticLiteral(5, 1, 2, 5).pretty() == "(5+√5)/2"
        assert hk.QuadraticLiteral(1, 0, 2, 0).pretty() == "1/2"

    def test_rejects_bad_fields(self):
        with pytest.raises(hk.StructureError):
            hk.QuadraticLiteral(1, 1, 0, 2)
        with pytest.raises(hk.StructureError):
            hk.QuadraticLiteral(1, 1, 1, 4)  # 4 = 2^2 is not square-free
        with pytest.raises(hk.StructureError):
            hk.QuadraticLiteral(1, 1, 1, -1)

    def test_field_bounds(self):
        assert hk.QuadraticLiteral(-(2**53), 2**53, 2**53, 2**31 - 1).d == 2**31 - 1
        for fields in ((2**53 + 1, 0, 1, 0), (0, -(2**53) - 1, 1, 2), (0, 1, 2**53 + 1, 2),
                       (0, 1, 1, 2**31), (1, 0, 1, 10**18 + 3)):
            with pytest.raises(hk.StructureError):
                hk.QuadraticLiteral(*fields)

    def test_match_round_trip(self):
        for lit in (
            hk.QuadraticLiteral(2, -1, 1, 3),
            hk.QuadraticLiteral(5, 1, 2, 5),
            hk.QuadraticLiteral(0, 1, 2, 2),
            hk.QuadraticLiteral(1, 0, 3, 0),
        ):
            found = hk.match_quadratic(lit.value())
            assert found is not None
            assert abs(found.value() - lit.value()) < 1e-9

    def test_match_examples(self):
        found = hk.match_quadratic(2 - SQRT3)
        assert (found.a, found.b, found.c, found.d) == (2, -1, 1, 3)
        found = hk.match_quadratic((5 + math.sqrt(5)) / 2)
        assert (found.a, found.b, found.c, found.d) == (5, 1, 2, 5)
        found = hk.match_quadratic(0.5)
        assert found.d == 0 and (found.a, found.c) == (1, 2)

    def test_match_rejects_transcendental(self):
        assert hk.match_quadratic(math.pi, tol=1e-12) is None

    def test_match_agrees_with_scalar_reference(self):
        cases = _pinned_match_cases()
        found = [hk.match_quadratic(v, tol=t) for v, t in cases]
        assert found == [oracles.match_quadratic_reference(v, tol=t) for v, t in cases]
        assert any(f is None for f in found) and any(f is not None and f.d > 0 for f in found)

    def test_match_huge_values_miss_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (1e308, -1e308):
                assert hk.match_quadratic(value) is None


def _box_matches(value, tol, max_coeff=64, max_radicand=64):
    """Every literal of the box within tol of value, in (d, c, b) order, by one
    numpy pass per radicand (the reference's expressions, without its early exit)."""
    cs = np.arange(1, max_coeff + 1, dtype=np.float64)[:, None]
    found = []
    for d in oracles.squarefree_radicands(max_radicand):
        bs = np.arange(-max_coeff, max_coeff + 1) if d else np.zeros(1, dtype=np.int64)
        bs = bs[bs != 0] if d else bs
        roots = bs * math.sqrt(d)
        a = np.round(value * cs - roots)
        ok = (np.abs(a) <= max_coeff) & (np.abs((a + roots) / cs - value) <= tol)
        for c, b in zip(*np.nonzero(ok)):
            found.append(hk.QuadraticLiteral(int(a[c, b]), int(bs[b]), int(c) + 1, d))
    return found


def _wrapping_roots(count):
    """The ``count`` roots b sqrt(d) of the default box (b of both signs) whose
    fractional parts lie nearest to 0 or 1, as (b, d, fractional part)."""
    roots = [
        (min(frac, 1.0 - frac), b, d, frac)
        for d in oracles.squarefree_radicands(64)
        for b in range(-64, 65)
        if d and b
        for frac in [(b * math.sqrt(d)) % 1.0]
    ]
    return [(b, d, frac) for _, b, d, frac in sorted(roots)[:count]]


class TestQuadraticIndex:
    """The bucketed lookup of ``match_quadratic`` against the scalar reference."""

    def check(self, cases, **box):
        found = [hk.match_quadratic(v, tol=t, **box) for v, t in cases]
        assert found == [oracles.match_quadratic_reference(v, tol=t, **box) for v, t in cases]
        return found

    def test_index_buckets_every_root_once(self):
        radicands, bs, order, start, bucketed = hio._root_index(64, 64)
        assert radicands == tuple(d for d in oracles.squarefree_radicands(64) if d)
        roots = np.concatenate([bs * math.sqrt(d) for d in radicands])  # the scan's products
        assert np.array_equal(bucketed, roots[order])  # bit for bit
        assert sorted(order.tolist()) == sorted(2 * list(range(len(roots))))  # twice through
        assert start[0] == 0 and start[-1] == 2 * len(roots) and np.all(np.diff(start) >= 0)
        for k in (0, 1, 2047, 4095, 4096, 8191):
            chunk = bucketed[start[k] : start[k + 1]]
            assert np.all(np.floor((chunk - np.floor(chunk)) * 4096) == k % 4096)
        assert not bucketed.flags.writeable and not order.flags.writeable
        assert hio._root_index(64, 64)[4] is bucketed  # built once per box

    def test_fractional_parts_next_to_zero_and_one(self):
        # the window of c is frac(value * c) +- 64 tol (mod 1), so it wraps past
        # 0 or 1 for these values: each lies next to a root whose fractional
        # part does (within 3.2e-3, the window at tol 5e-5), or next to an integer
        roots = _wrapping_roots(4)
        assert {frac < 0.5 for _, _, frac in roots} == {True, False}
        assert all(min(frac, 1.0 - frac) < 3.2e-3 for _, _, frac in roots)
        cases = []
        for b, d, _ in roots:
            for a, c in ((5, 1), (-64, 7), (0, 64)):
                value = hk.QuadraticLiteral(a, b, c, d).value()
                cases += [(value, 1e-9), (value + 4e-10, 1e-9), (value, 5e-5)]
        found = self.check(cases)
        assert None not in found and sum(f.d > 0 for f in found) >= 30
        found = self.check([(-3 + 3e-5, 1e-5), (-3e-5, 1e-5), (2 + 3e-6, 1e-6), (41 - 3e-6, 1e-6)])
        assert found[0] == hk.QuadraticLiteral(10, -60, 63, 11) and found[1:] == [None] * 3

    def test_windows_hold_every_root_within_w(self):
        # the lookup is exact only if each window's buckets hold every root
        # whose fractional part lies within w of frac(value * c), modulo 1
        radicands, bs, order, start, bucketed = hio._root_index(64, 64)
        roots = np.concatenate([bs * math.sqrt(d) for d in radicands])
        root_frac = roots - np.floor(roots)
        rng = np.random.default_rng(3)
        fracs = np.concatenate([[0.0, 1e-9, 2.0**-12, 0.5, 1 - 2.0**-12, 1 - 1e-9],
                                rng.uniform(0, 1e-3, 4), rng.uniform(1 - 1e-3, 1, 4),
                                rng.uniform(0, 1, 4)])
        for w in (0.0, 1e-9, 1e-4, 3e-3, 0.2, 0.49999, 0.5, 1.0, np.linspace(0, 1, len(fracs))):
            pos, count = hio._window_candidates(fracs, w, start)
            c_of, j = np.repeat(np.arange(len(fracs)), count), order[pos]
            got = set(zip(c_of.tolist(), j.tolist()))
            assert len(got) == len(c_of)  # no root twice
            gap = np.abs(fracs[:, None] - root_frac[None, :])
            gap = np.minimum(gap, 1.0 - gap)
            wc = np.broadcast_to(w, fracs.shape)
            assert set(zip(*map(np.ndarray.tolist, np.nonzero(gap <= wc[:, None])))) <= got
            assert np.all(gap[c_of, j] <= wc[c_of] + 2.0**-12)  # and little more
            assert np.all(count[wc >= 0.5] == len(roots))  # every bucket once

    @pytest.mark.parametrize("tol", [1e-4, 1.2e-4, 1e-3, 1e-2, 0.1])
    def test_wide_tolerances(self, tol):
        # from tol 1e-3 the windows of the larger c cover every bucket
        values = np.random.default_rng(round(-math.log10(tol) * 10)).uniform(-70, 70, 12)
        found = self.check([(float(v), tol) for v in values])
        assert any(f is not None and f.d > 0 for f in found)

    def test_ties_take_the_first_in_d_c_b_order(self):
        rng = np.random.default_rng(29)
        ties = 0
        for tol in (1e-5, 1e-4, 1e-3):
            for value in rng.uniform(-6, 6, 10):
                matches = _box_matches(float(value), tol)
                if len(matches) < 2:
                    continue
                ties += len({m.d for m in matches}) > 1 or matches[0].d > 0
                assert hk.match_quadratic(float(value), tol) == matches[0]
                assert oracles.match_quadratic_reference(float(value), tol) == matches[0]
        assert ties >= 10

    def test_negative_values_and_the_box_bound(self):
        top = hk.QuadraticLiteral(64, 64, 1, 62).value()  # the largest literal
        bound = 64 * (1 + math.sqrt(64))
        cases = [(-top, 1e-9), (top, 1e-9), (top + 5e-10, 1e-9), (-top + 1e-6, 1e-9),
                 (-bound, 1e-9), (bound, 1e-3), (-(bound + 2e-3), 1e-3)]
        lits = [hk.QuadraticLiteral(-3, -5, 7, 13), hk.QuadraticLiteral(0, -1, 64, 2),
                hk.QuadraticLiteral(-64, 1, 1, 61), hk.QuadraticLiteral(-1, -1, 2, 5)]
        cases += [(lit.value(), 1e-9) for lit in lits]
        found = self.check(cases)
        assert found[0] == hk.QuadraticLiteral(-64, -64, 1, 62)
        assert found[-4:] == lits
        assert found[6] is None

    @pytest.mark.parametrize(
        "max_coeff, max_radicand",
        [(0, 64), (5, 0), (5, 1), (7, 2), (3, 30), (12, 64)],
    )
    def test_other_boxes(self, max_coeff, max_radicand):
        rng = np.random.default_rng(max_coeff * 100 + max_radicand)
        radicands = list(oracles.squarefree_radicands(max_radicand))
        cases = [(0.0, 1e-9), (-0.0, 0.0)]
        for _ in range(8):
            d = int(rng.choice(radicands))
            a, b = (int(x) for x in rng.integers(-max_coeff, max_coeff + 1, 2))
            c = int(rng.integers(1, max(max_coeff, 1) + 1))
            cases.append((hk.QuadraticLiteral(a, b if d else 0, c, d).value(), 1e-9))
        cases += [(float(v), t) for v in rng.uniform(-9, 9, 4) for t in (1e-9, 1e-2)]
        found = self.check(cases, max_coeff=max_coeff, max_radicand=max_radicand)
        if max_coeff == 0:
            assert found == [None] * len(cases)
        if max_radicand < 2:
            assert all(f is None or f.d == 0 for f in found)
            radicands, bs, order, start, bucketed = hio._root_index(max_coeff, max_radicand)
            assert radicands == () and bucketed.size == order.size == 0 and not start.any()

    def test_negative_or_nan_tol_matches_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tol in (-1e-9, -1.0, math.nan):
                assert hk.match_quadratic(2 - SQRT3, tol=tol) is None


class TestHypergroupDocuments:
    def test_parse_ghj_with_quadratic_literals(self, tables):
        table = hk.parse_hypergroup(GHJ_DOCUMENT)
        assert np.max(np.abs(table.lam - tables["ghj"].lam)) < 1e-12
        assert table.involution == (0, 1)  # inferred

    def test_involution_inferred_for_z2(self):
        doc = {
            "format_version": 1,
            "kind": "hypergroup",
            "labels": ["e", "g"],
            "unit": 0,
            "lambda": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        }
        table = hk.parse_hypergroup(json.dumps(doc))
        assert table.involution == (0, 1)

    def test_ambiguous_involution_is_hard_error(self):
        doc = {
            "format_version": 1,
            "kind": "hypergroup",
            "labels": ["e", "a", "b"],
            "unit": 0,
            "lambda": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0.5, 0.25, 0.25], [0.5, 0.25, 0.25]],
                [[0, 0, 1], [0.5, 0.25, 0.25], [0.5, 0.25, 0.25]],
            ],
        }
        with pytest.raises(hk.StructureError, match="involution"):
            hk.parse_hypergroup(json.dumps(doc))

    def test_negative_entry_fails_validation_with_report(self):
        doc = {
            "format_version": 1,
            "kind": "hypergroup",
            "labels": ["e", "g"],
            "unit": 0,
            "involution": [0, 1],
            "lambda": [[[1, 0], [0, 1]], [[0, 1], [1.2, -0.2]]],
        }
        with pytest.raises(hk.AxiomError) as info:
            hk.parse_hypergroup(json.dumps(doc))
        assert info.value.report is not None
        assert any(v.axiom == "nonnegativity" for v in info.value.report.violations)

    def test_schema_errors(self):
        with pytest.raises(hk.StructureError):
            hk.parse_hypergroup("not json at all {")
        with pytest.raises(hk.StructureError):
            hk.parse_hypergroup(json.dumps({"kind": "hypergroup"}))
        with pytest.raises(hk.StructureError):
            hk.parse_hypergroup(
                json.dumps({"format_version": 2, "kind": "hypergroup", "labels": [],
                            "unit": 0, "lambda": []})
            )
        with pytest.raises(hk.StructureError):
            hk.parse_hypergroup(json.dumps({"format_version": 1, "kind": "group"}))


class TestRoundTrips:
    def test_hypergroups(self, tables):
        for name, table in tables.items():
            text = hk.serialize_hypergroup(table)
            back = hk.parse_hypergroup(text)
            assert back.labels == table.labels and back.unit == table.unit
            assert back.involution == table.involution
            assert np.max(np.abs(back.lam - table.lam)) < 1e-9, name
            assert hk.serialize_hypergroup(back) == text

    def test_fusion_rings(self, rings):
        for ring in rings.values():
            text = hk.serialize_fusion_ring(ring)
            back = hk.parse_fusion_ring(text)
            assert back.labels == ring.labels and back.conj == ring.conj
            assert np.array_equal(back.N, ring.N)
            assert hk.serialize_fusion_ring(back) == text

    def test_groups(self, groups):
        for group in groups.values():
            text = hk.serialize_group(group)
            back = hk.parse_group(text)
            assert np.array_equal(back.mul, group.mul)
            assert back.identity == group.identity and back.labels == group.labels
            assert hk.serialize_group(back) == text

    def test_groupoids(self, groupoids):
        for name, g in groupoids.items():
            text = hk.serialize_groupoid(g)
            back = hk.parse_groupoid(text)
            assert back.objects == g.objects and back.mor == g.mor
            assert back.star == g.star and back.units == g.units
            for x in range(g.n_objects):
                for y in range(g.n_objects):
                    for z in range(g.n_objects):
                        assert np.max(
                            np.abs(back.comp[x][y][z] - g.comp[x][y][z])
                        ) < 1e-9, name
            assert hk.serialize_groupoid(back) == text

    def test_character_tables(self, tables):
        ct = hk.characters(tables["z3"])
        text = hk.serialize_character_table(ct)
        back = hk.parse_character_table(text)
        assert back.labels == ct.labels
        assert np.max(np.abs(back.chars - ct.chars)) < 1e-15
        assert np.array_equal(back.haar_weights, ct.haar_weights)
        assert hk.serialize_character_table(back) == text

    def test_serialization_hash_is_stable(self, tables):
        digests = {
            hashlib.sha256(hk.serialize_hypergroup(tables["ghj"]).encode()).hexdigest()
            for _ in range(3)
        }
        assert len(digests) == 1

    def test_canonical_output_is_valid_json(self, tables, groupoids):
        json.loads(hk.serialize_hypergroup(tables["conj-s3"]))
        json.loads(hk.serialize_groupoid(groupoids["two-object"]))


class TestParseDocument:
    def test_dispatch_by_kind(self, tables, groups):
        table = hk.parse_document(hk.serialize_hypergroup(tables["z2"]))
        assert isinstance(table, hk.HypergroupTable)
        group = hk.parse_document(hk.serialize_group(groups["q8"]))
        assert isinstance(group, hk.CayleyGroup)

    def test_report_kinds_checked(self):
        doc = {
            "format_version": 1,
            "kind": "validation_report",
            "passed": True,
            "violations": [],
        }
        assert hk.parse_document(json.dumps(doc))["passed"] is True
        with pytest.raises(hk.StructureError):
            hk.parse_document(json.dumps({"format_version": 1, "kind": "validation_report"}))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("chars", 5),
            ("chars", [[1, 1, 1], [1, 1, 1]]),
            ("chars", [[1, 1, 1], [1, 1], [1, 1, 1]]),
            ("chars", [[1, 1, 1], [1, {"re": "1", "im": 0}, 1], [1, 1, 1]]),
            ("haar_weights", ["x"]),
            ("haar_weights", ["x", 1, 1]),
            ("haar_weights", [1, 1]),
            ("dual_weights", [[1, 1], 1, 1]),
            ("dual_weights", 3),
        ],
        ids=[
            "chars-scalar",
            "chars-short",
            "chars-ragged",
            "chars-string-re",
            "haar-string",
            "haar-string-entry",
            "haar-short",
            "dual-ragged",
            "dual-scalar",
        ],
    )
    def test_character_table_faults_are_structural(self, tables, field, value):
        doc = json.loads(hk.serialize_character_table(hk.characters(tables["z3"])))
        doc[field] = value
        with pytest.raises(hk.StructureError):
            hk.parse_document(json.dumps(doc))

    def test_unknown_kind(self):
        with pytest.raises(hk.StructureError):
            hk.parse_document(json.dumps({"format_version": 1, "kind": "mystery"}))

    @pytest.mark.parametrize("kind", [None, 1, [], ["hypergroup"], {}])
    def test_kind_must_be_a_string(self, kind):
        with pytest.raises(hk.StructureError):
            hk.parse_document({"format_version": 1, "kind": kind})


def rescaled_su2(k):
    labels = [f"j{a}" for a in range(k + 1)]
    return hk.from_fusion_ring(hk.fusion_ring(labels, 0, oracles.su2_fusion_tensor(k)))


def emitted_document(serialize, obj):
    """The document ``serialize`` hands to ``canonical_text``, and the text it returns."""
    documents = []
    emit = hio.canonical_text
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hio, "canonical_text", lambda doc: documents.append(doc) or emit(doc))
        text = serialize(obj)
    (document,) = documents
    return document, text


EDGE_ARRAYS = {
    "signed-zero-and-subnormal": np.array([-0.0, 0.0, 5e-324, -5e-324, 0.0, -0.0]),
    "integral-floats": np.array([1e15, 1e16, 1e17, -1e15, -1e16, -1e17, 123456789012345678.0]),
    "extreme-floats": np.array([[1e308, -1e308], [np.finfo(np.float64).max, 2.2250738585e-308]]),
    "non-finite": np.array([np.inf, -np.inf, np.nan, 1.0, np.nan]),
    "int64-extremes": np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1]),
    "booleans": np.array([[True, False], [False, False]]),
    "empty-1d": np.zeros((0,)),
    "empty-rows": np.zeros((2, 0)),
    "empty-leading": np.zeros((0, 3, 3)),
    "empty-middle": np.zeros((2, 0, 3), dtype=np.int64),
    "empty-last": np.zeros((3, 2, 0)),
}


class TestBulkEmission:
    """``canonical_text`` emits arrays byte for byte as the per-scalar reference does."""

    @pytest.mark.parametrize("arr", EDGE_ARRAYS.values(), ids=EDGE_ARRAYS.keys())
    def test_edge_arrays(self, arr):
        doc = {"a": arr, "b": [arr, [arr, {"c": arr}]], "d": [[1, 2.0], arr]}
        assert hk.canonical_text(doc) == oracles.canonical_text_reference(doc)

    def test_seeded_tensors_with_repeated_values(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            shape = tuple(rng.integers(0, 6, size=rng.integers(1, 5)))
            pool = np.concatenate([rng.normal(size=5) * 10.0 ** rng.integers(-20, 20, size=5),
                                   np.array([0.0, -0.0, 1.0, 0.5, 1e16, 1e17])])
            arr = rng.choice(pool, size=shape)
            doc = {"x": arr, "y": [arr.astype(np.int64)]}
            assert hk.canonical_text(doc) == oracles.canonical_text_reference(doc)

    @settings(max_examples=200, deadline=None)
    @given(arr=hnp.arrays(
        dtype=st.sampled_from([np.float64, np.int64]),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    ))
    def test_hypothesis_arrays(self, arr):
        doc = {"lambda": arr, "rows": [arr, arr]}
        assert hk.canonical_text(doc) == oracles.canonical_text_reference(doc)

    def test_every_serialized_builtin(self, tables, rings, groups, groupoids):
        cases = [(hk.serialize_hypergroup, t) for t in tables.values()]
        cases += [(hk.serialize_hypergroup, hk.from_fusion_ring(r)) for r in rings.values()]
        cases += [(hk.serialize_fusion_ring, r) for r in rings.values()]
        cases += [(hk.serialize_group, g) for g in groups.values()]
        cases += [(hk.serialize_hypergroup, hk.conjugacy_class_hypergroup(g))
                  for g in groups.values()]
        cases += [(hk.serialize_groupoid, g) for g in groupoids.values()]
        cases += [(hk.serialize_character_table, hk.characters(t))
                  for t in tables.values() if hk.is_commutative(t)]
        for serialize, obj in cases:
            document, text = emitted_document(serialize, obj)
            assert text == oracles.canonical_text_reference(document)

    def test_boundary_state_document(self, groupoids):
        g = groupoids["ising"]
        dual = g.mor[0][0].index("dual")
        state = hk.compose(g, hk.point_state(g, 0, 0, dual), hk.point_state(g, 0, 0, dual))
        doc = hio.boundary_state_document(state)
        assert hk.canonical_text(doc) == oracles.canonical_text_reference(doc)

    def test_rescaled_su2(self):
        for k in [*range(1, 13), 18, 26, 36, 60]:
            document, text = emitted_document(hk.serialize_hypergroup, rescaled_su2(k))
            assert text == oracles.canonical_text_reference(document), k


def number_trees():
    """Nested lists of JSON scalars, rectangular or ragged, plain or mixed."""
    plain = st.one_of(
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False),
        st.sampled_from([10**400, -(10**400), 0, -0.0, 5e-324]),
    )
    other = st.one_of(
        st.booleans(),
        st.just("1"),
        st.just(None),
        st.fixed_dictionaries({k: st.integers(-3, 3) for k in "abcd"}),
        st.fixed_dictionaries({k: st.integers(1, 5) for k in "abcd"}),
    )
    rectangular = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3).flatmap(
        lambda shape: _filled(shape, st.one_of(plain, plain, plain, other))
    )
    ragged = st.recursive(st.one_of(plain, other), lambda kids: st.lists(kids, max_size=3))
    return st.one_of(rectangular, ragged)


def _filled(shape, entries):
    if not shape:
        return entries
    return st.lists(_filled(shape[1:], entries), min_size=shape[0], max_size=shape[0])


def tensor_outcome(convert, data):
    try:
        arr = convert(data, "lambda")
    except hk.StructureError as exc:
        return "error", str(exc)
    return "array", arr.shape, arr.tobytes()


class TestBulkParse:
    """``_scalar_tensor`` agrees with the per-entry path on every input."""

    @settings(max_examples=250, deadline=None)
    @given(data=number_trees())
    def test_agrees_with_the_per_entry_path(self, data):
        assert tensor_outcome(hio._scalar_tensor, data) == tensor_outcome(
            hio._scalar_tensor_entries, data
        )

    def test_serialized_tables_parse_to_the_same_bits(self, tables):
        for table in [*tables.values(), rescaled_su2(12), rescaled_su2(30)]:
            data = json.loads(hk.serialize_hypergroup(table))["lambda"]
            bulk = hio._scalar_tensor(data, "lambda")
            assert bulk.tobytes() == hio._scalar_tensor_entries(data, "lambda").tobytes()
            assert bulk.tobytes() == table.lam.tobytes()

    def test_huge_integers_are_structural_errors(self):
        for data in ([[[10**400]]], [[[10**400, {"a": 1, "b": 1, "c": 1, "d": 2}]]]):
            with pytest.raises(hk.StructureError, match="float64 range"):
                hio._scalar_tensor(data, "lambda")


@functools.cache
def builtin_documents():
    """Every builtin object, serialized and read back as JSON trees, by kind."""
    texts = (
        [hk.serialize_hypergroup(t) for t in hk.builtin_hypergroups().values()],
        [hk.serialize_fusion_ring(r) for r in hk.builtin_fusion_rings().values()],
        [hk.serialize_group(g) for g in hk.builtin_groups().values()],
        [hk.serialize_groupoid(g) for g in hk.builtin_groupoids().values()],
    )
    return tuple(tuple(json.loads(text) for text in kind) for kind in texts)


#: stand-ins of every JSON type for a retyped field
REPLACEMENTS = ("x", "", 0.5, 1e300, True, False, None, [], {})


@st.composite
def mutated_documents(draw):
    """A builtin document and a copy of it with one field dropped, retyped, truncated or extended.

    The field is a top-level key, or an entry reached by descending
    into it through lists and objects.  Each kind is drawn equally often,
    and each step down is taken with probability 3/4.  Extending a list
    appends a copy of its last entry.
    """
    original = draw(st.sampled_from(draw(st.sampled_from(builtin_documents()))))
    doc = copy.deepcopy(original)
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (list, dict)) and parent[key] and draw(st.integers(0, 3)):
        child = parent[key]
        parent, key = child, draw(st.sampled_from(sorted(child) if isinstance(child, dict)
                                                  else range(len(child))))
    value = parent[key]
    actions = ["drop", "retype"]
    if isinstance(value, list) and value:
        actions += ["truncate", "extend"]
    action = draw(st.sampled_from(actions))
    if action == "drop":
        del parent[key]
    elif action == "retype":
        parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    elif action == "truncate":
        value.pop()
    else:
        value.append(copy.deepcopy(value[-1]))
    return original, doc


def parse_outcome(doc):
    """None if the document parses, else the type of the (allowed) error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # Frobenius asymmetry is only a warning
            hk.parse_document(doc)
    except (hk.StructureError, hk.AxiomError) as exc:
        return type(exc)
    return None


#: a CLI command that reads each document kind
CLI_COMMANDS = {
    "hypergroup": ["validate"],
    "fusion_ring": ["build", "fusion", "--json"],
    "group": ["build", "classes", "--json"],
    "groupoid": ["compose", "--json", "--file"],
}


class TestDocumentMutations:
    @settings(max_examples=400, deadline=None)
    @given(mutation=mutated_documents())
    def test_parse_raises_only_library_errors(self, mutation):
        parse_outcome(mutation[1])

    def test_every_grown_list_is_refused(self):
        # appending a copy of the last entry of any list, at any depth, leaves
        # no builtin document whole: a grid, tensor or label list is one too long
        def lists(node, path=()):
            if isinstance(node, dict):
                for key, child in node.items():
                    yield from lists(child, path + (key,))
            elif isinstance(node, list) and node:
                yield path
                for key, child in enumerate(node):
                    yield from lists(child, path + (key,))

        for original in itertools.chain.from_iterable(builtin_documents()):
            for path in lists(original):
                doc = copy.deepcopy(original)
                node = functools.reduce(lambda parent, key: parent[key], path, doc)
                node.append(copy.deepcopy(node[-1]))
                with pytest.raises(hk.StructureError):
                    hk.parse_document(doc)

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(mutation=mutated_documents())
    def test_cli_exit_code_follows_the_parse(self, capsys, tmp_path, mutation):
        original, doc = mutation
        argv = list(CLI_COMMANDS[original["kind"]])
        if original["kind"] == "groupoid":
            argv.insert(1, original["mor"][0][0][0])  # an arrow of the unmutated groupoid
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        outcome = parse_outcome(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv + [str(path)])
        err = capsys.readouterr().err
        if outcome is hk.StructureError:
            assert code == 2 and err.startswith("error: ")
        elif outcome is hk.AxiomError:
            assert code == 1
        else:
            assert code in (0, 1, 2)


class TestRegistryCompleteness:
    def test_expected_names_present(self, tables, rings, groups, groupoids):
        assert set(tables) == {
            "z2", "z3", "s3-group", "conj-s3", "s3-double-coset",
            "ghj", "fibonacci-rescaled", "ising-rescaled",
        }
        assert set(rings) == {"fibonacci", "ising", "s3-irreps"}
        assert set(groups) == {f"z{n}" for n in range(2, 13)} | {"s3", "s4", "d4", "q8"}
        assert set(groupoids) == {"ghj", "ising", "conj-s3", "two-object"}

    def test_all_entries_validate(self, tables, rings, groups, groupoids):
        for table in tables.values():
            assert hk.validate(table).passed
        for ring in rings.values():
            hk.validate_fusion_ring(ring)
        for group in groups.values():
            hk.validate_cayley(group)
        for g in groupoids.values():
            assert hk.validate_groupoid(g).passed

    def test_group_orders(self, groups):
        orders = {name: group.order for name, group in groups.items()}
        assert orders["s4"] == 24 and orders["d4"] == 8 and orders["q8"] == 8
        assert all(orders[f"z{n}"] == n for n in range(2, 13))
        assert max(orders.values()) <= 24


@pytest.mark.parametrize("entry", [2**63, 2**70], ids=["2**63", "2**70"])
def test_fusion_multiplicities_beyond_int64_are_named(entry):
    # numpy infers uint64 for 2**63 and an object array for 2**70
    doc = {"format_version": 1, "kind": "fusion_ring", "labels": ["1"], "unit": 0,
           "N": [[[entry]]]}
    with pytest.raises(hk.StructureError, match="int64"):
        hk.parse_fusion_ring(json.dumps(doc))
