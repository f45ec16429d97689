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
