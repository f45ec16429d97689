import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperkit as hk
import oracles

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
PHI = (1.0 + SQRT5) / 2.0


@st.composite
def unital_tensors(draw):
    """Random multiplicities in 0..3 on n <= 5 with the unit and conjugation laws forced."""
    n = draw(st.integers(min_value=1, max_value=5))
    conj = (0, *draw(st.permutations(range(1, n))))
    entries = draw(st.lists(st.integers(0, 3), min_size=n**3, max_size=n**3))
    N = np.array(entries, dtype=np.int64).reshape(n, n, n)
    eye = np.eye(n, dtype=np.int64)
    N[0] = eye
    N[:, 0, :] = eye
    N[:, :, 0] = eye[list(conj)]
    return N, conj


def su2_ring(k):
    labels = tuple(f"j{a}" for a in range(k + 1))
    return hk.FusionRing(labels, 0, range(k + 1), oracles.su2_fusion_tensor(k))


def verlinde_dims(k):
    """Quantum dimensions ``sin(pi (i+1)/(k+2)) / sin(pi/(k+2))`` of SU(2)_k."""
    return np.sin(np.pi * np.arange(1, k + 2) / (k + 2)) / np.sin(np.pi / (k + 2))


def rep_d8():
    """Rep(D8): four 1-dimensional elements forming Z2 x Z2, and X with X X = 1 + a + b + c."""
    N = np.zeros((5, 5, 5), dtype=np.int64)
    for g in range(4):
        for h in range(4):
            N[g, h, g ^ h] = 1
        N[g, 4, 4] = N[4, g, 4] = 1
    N[4, 4, :4] = 1
    return hk.fusion_ring(("1", "a", "b", "c", "X"), 0, N)


def assert_associativity_matches_reference(N, conj):
    """Building the ring fails iff the einsum reference is non-empty.

    On failure the message names the reference's first index and the
    report lists all of its violations, defects included.
    """
    reference = oracles.associativity_reference(N, 0.0)
    labels = tuple(f"f{a}" for a in range(len(conj)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Frobenius asymmetry is only a warning
        if not reference:
            hk.FusionRing(labels, 0, conj, N)
            return
        with pytest.raises(hk.AxiomError) as info:
            hk.FusionRing(labels, 0, conj, N)
    assert str(info.value) == f"fusion ring is not associative at {reference[0][0]}"
    found = [(v.indices, v.magnitude) for v in info.value.report.violations]
    assert found == reference


class TestCayley:
    def test_builtin_groups_validate(self, groups):
        for group in groups.values():
            hk.validate_cayley(group)

    def test_not_latin_square(self):
        with pytest.raises(hk.StructureError):
            hk.cayley_group([[0, 0], [1, 1]], 0)

    def test_not_associative(self):
        # a Latin square with both-sided identity that fails associativity
        mul = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(hk.StructureError):
            hk.cayley_group(mul, 0)

    def test_constructor_rejects_non_latin_table(self):
        with pytest.raises(hk.StructureError, match="not a Latin square"):
            hk.CayleyGroup([[0, 0], [1, 1]], 0)

    @pytest.mark.parametrize(
        "mul, identity, match",
        [([[0, 1], [1]], 0, "Cayley table"), ([[0, 1], [1, 0]], "a", "identity index"),
         ([[0, 1], [1, 0]], [0], "identity index")],
        ids=["ragged-mul", "non-integer-identity", "list-identity"],
    )
    def test_constructor_rejects_malformed_input(self, mul, identity, match):
        with pytest.raises(hk.StructureError, match=match):
            hk.CayleyGroup(mul, identity)

    def test_constructor_rejects_non_associative_table(self):
        mul = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(hk.StructureError, match="not associative"):
            hk.CayleyGroup(mul, 0)

    def test_group_axioms_checked_once(self, groups, monkeypatch):
        calls = []
        check = hk.constructions.validate_cayley

        def counting(group):
            calls.append(group.order)
            check(group)

        for module in (hk.constructions, hk.groupoid, hk.registry, hk.io):
            if hasattr(module, "validate_cayley"):
                monkeypatch.setattr(module, "validate_cayley", counting)
        group = hk.parse_group(hk.serialize_group(groups["s3"]))
        hk.conjugacy_class_hypergroup(group)
        hk.double_coset_hypergroup(group, (0, 2))
        hk.double_coset_groupoid(group, (0, 2))
        assert calls == [6]

    def test_certificate_passes_every_group(self, groups):
        rng = np.random.default_rng(5)
        cases = [*groups.values(), oracles.direct_product(groups["z2"], groups["s4"])]
        cases += [relabel_group(g, rng.permutation(g.order)) for g in (groups["s4"], groups["q8"])]
        for group in cases:
            assert hk.constructions._group_certificate(group.mul, group.identity)

    @pytest.mark.parametrize("seed", range(6))
    def test_switched_intercalate_names_the_first_triple(self, groups, seed):
        # a 2 x 2 Latin subsquare off the identity row and column, switched:
        # still a Latin square with the identity, but no longer a group
        group = (groups["s4"], oracles.direct_product(groups["z2"], groups["d4"]))[seed % 2]
        mul, e, n = np.array(group.mul), group.identity, group.order
        rng = np.random.default_rng(seed)
        while True:
            x, y, u = (int(i) for i in rng.integers(n, size=3))
            v = int(np.flatnonzero(mul[y] == mul[x, u])[0])
            if e not in (x, y, u, v) and x != y and mul[x, v] == mul[y, u]:
                break
        mul[[x, x, y, y], [u, v, u, v]] = mul[[x, x, y, y], [v, u, v, u]]
        first = next(
            (i, j, k)
            for i in range(n) for j in range(n) for k in range(n)
            if mul[mul[i, j], k] != mul[i, mul[j, k]]
        )
        assert not hk.constructions._group_certificate(mul, e)
        with pytest.raises(hk.StructureError) as info:
            hk.CayleyGroup(mul, e)
        assert str(info.value) == f"Cayley table is not associative at {first}"

    def test_conjugacy_classes_of_s3(self, groups):
        classes = hk.conjugacy_classes(groups["s3"])
        assert [len(c) for c in classes] == [1, 3, 2]

    def test_subgroup_detection(self, groups):
        s3 = groups["s3"]
        assert hk.constructions.is_subgroup(s3, (0, 2))
        assert not hk.constructions.is_subgroup(s3, (0, 3))
        assert not hk.constructions.is_subgroup(s3, (2, 3))


def relabel_group(group, perm):
    """The same group with element ``i`` renamed to index ``perm[i]``."""
    perm = np.asarray(perm)
    mul = np.empty_like(group.mul)
    mul[np.ix_(perm, perm)] = perm[group.mul]
    return hk.CayleyGroup(mul, int(perm[group.identity]))


def partition_cases(groups):
    """Builtin groups, seeded relabelings of them, and a few direct products."""
    rng = np.random.default_rng(2024)
    cases = dict(groups)
    for name, group in groups.items():
        cases[f"{name}-relabelled"] = relabel_group(group, rng.permutation(group.order))
    for left, right in (("z2", "s3"), ("s3", "z3"), ("q8", "z2"), ("d4", "z3")):
        cases[f"{left}x{right}"] = oracles.direct_product(groups[left], groups[right])
    return cases


class TestGroupPartitions:
    def test_classes_against_orbit_loop(self, groups):
        for name, group in partition_cases(groups).items():
            assert hk.conjugacy_classes(group) == oracles._classes(group), name

    def test_double_cosets_against_orbit_loop(self, groups):
        for name, group in partition_cases(groups).items():
            subs = [sorted(s) for s in oracles.cyclic_subgroups(group)]
            assert [group.identity] in subs
            for left in subs:
                for right in subs:
                    got = hk.double_cosets(group, left, right)
                    assert got == oracles._double_cosets(group, left, right), (name, left, right)

    def test_double_cosets_need_subgroups(self, groups):
        s3 = groups["s3"]
        for bad in ([], [0, 1, 2]):
            for left, right in ((bad, [0]), ([0], bad)):
                with pytest.raises(hk.StructureError, match="^the given subset is not a subgroup$"):
                    hk.double_cosets(s3, left, right)

    def test_constructors_keep_their_subgroup_message(self, groups):
        for build in (hk.double_coset_hypergroup, hk.double_coset_groupoid):
            for bad in ([], [0, 1, 2], (0, 3)):
                with pytest.raises(hk.StructureError, match="^the given subset is not a subgroup$"):
                    build(groups["s3"], bad)

    def test_inverses_against_loop(self, groups):
        for name, group in partition_cases(groups).items():
            want = tuple(oracles._inverse(group, i) for i in range(group.order))
            assert hk.constructions.inverses(group) == want, name

    def test_is_subgroup_edge_cases(self, groups):
        s3 = groups["s3"]
        is_subgroup = hk.constructions.is_subgroup
        assert not is_subgroup(s3, [])
        assert not is_subgroup(s3, [0, -1])
        assert not is_subgroup(s3, [0, 6])
        assert is_subgroup(s3, [2, 0, 2, 0])
        assert not is_subgroup(s3, [0, 2, 2, 1])  # two transpositions, not closed
        assert is_subgroup(s3, range(6))

    @pytest.mark.parametrize("subset", [[0, 1.5], [0, True], ["0", "1"]], ids=repr)
    def test_is_subgroup_takes_integers_only(self, groups, subset):
        # {0, 1} is a subgroup of s3; a float, a boolean or a string is not cast to it
        s3 = groups["s3"]
        assert hk.constructions.is_subgroup(s3, [0, 1])
        assert hk.constructions.is_subgroup(s3, np.array([0, 1]))
        assert not hk.constructions.is_subgroup(s3, subset)

    def test_is_subgroup_against_cyclic_subgroups(self, groups):
        group = groups["s4"]
        for sub in oracles.cyclic_subgroups(group):
            assert hk.constructions.is_subgroup(group, sub)
            assert not hk.constructions.is_subgroup(group, sorted(sub)[1:])


def label_path_cases(groups):
    """S3, S4, Z2 x S4, S5, and dicyclic and dihedral groups, each relabeled
    by a seeded permutation."""
    rng = np.random.default_rng(25)
    cases = {
        "s3": groups["s3"],
        "s4": groups["s4"],
        "z2xs4": oracles.direct_product(groups["z2"], groups["s4"]),
        "s5": hk.registry.symmetric_group(5),
        "dic3": oracles.dicyclic_group(3),
        "dic5": oracles.dicyclic_group(5),
        "d5": oracles.dihedral_group(5),
        "d8": oracles.dihedral_group(8),
    }
    return {name: relabel_group(g, rng.permutation(g.order)) for name, g in cases.items()}


def part_index(parts):
    """Element -> index of its part, for a partition given as tuples."""
    return {g: i for i, part in enumerate(parts) for g in part}


class TestLabelPath:
    """Tables built from part-label vectors equal, bit for bit, the tables
    of the public tuple partitions."""

    def test_class_and_double_coset_tables(self, groups):
        for name, group in label_path_cases(groups).items():
            inv = hk.constructions.inverses(group)
            built = [(hk.conjugacy_class_hypergroup(group), hk.conjugacy_classes(group), "C")]
            for sub in oracles.cyclic_subgroups(group):
                cosets = hk.double_cosets(group, sub, sub)
                built.append((hk.double_coset_hypergroup(group, sub), cosets, "D"))
            for table, parts, prefix in built:
                part_of = part_index(parts)
                lam = hk.constructions.indicator_product_coefficients(group, parts)
                assert table.labels == tuple(f"{prefix}{group.label(p[0])}" for p in parts), name
                assert table.unit == part_of[group.identity], name
                assert table.involution == tuple(part_of[inv[p[0]]] for p in parts), name
                assert np.array_equal(table.lam, lam), name

    def test_double_coset_groupoids(self, groups):
        prefixes = (("g", "u"), ("v", "h"))
        for name, group in label_path_cases(groups).items():
            inv = hk.constructions.inverses(group)
            for sub in oracles.cyclic_subgroups(group):
                g = hk.double_coset_groupoid(group, sub)
                subgroups = ([group.identity], sub)
                cosets = {
                    (x, y): hk.double_cosets(group, subgroups[x], subgroups[y])
                    for x in range(2) for y in range(2)
                }
                part_of = {xy: part_index(parts) for xy, parts in cosets.items()}
                for (x, y), parts in cosets.items():
                    assert g.mor[x][y] == tuple(f"{prefixes[x][y]}{i}" for i in range(len(parts)))
                    assert g.star[x][y] == tuple(part_of[y, x][inv[p[0]]] for p in parts), name
                    for z in range(2):
                        want = hk.constructions.indicator_product_coefficients(
                            group, parts, cosets[y, z], cosets[x, z]
                        )
                        assert np.array_equal(g.comp[x][y][z], want), (name, x, y, z)
                assert g.units == tuple(part_of[x, x][group.identity] for x in range(2)), name


class TestGroupHypergroup:
    def test_z2(self, groups):
        table = hk.group_hypergroup(groups["z2"])
        assert table.n == 2 and table.lam[1, 1, 0] == 1.0

    def test_z3_involution_swaps_generators(self, groups):
        table = hk.group_hypergroup(groups["z3"])
        assert table.involution == (0, 2, 1)

    def test_s3_noncommutative(self, groups):
        table = hk.group_hypergroup(groups["s3"])
        assert table.n == 6
        assert not hk.is_commutative(table)
        assert hk.validate(table).passed


class TestClassHypergroup:
    def test_s3_against_oracle(self, groups):
        table = hk.conjugacy_class_hypergroup(groups["s3"])
        lam, unit, involution = oracles.class_table_oracle(groups["s3"])
        assert table.unit == unit and table.involution == involution
        assert np.max(np.abs(table.lam - lam)) <= 1e-12

    def test_s3_known_rows(self, groups):
        table = hk.conjugacy_class_hypergroup(groups["s3"])
        assert np.allclose(table.lam[1, 1], (1 / 3, 0, 2 / 3), atol=1e-12)
        assert np.allclose(table.lam[1, 2], (0, 1, 0), atol=1e-12)

    def test_abelian_reduces_to_group(self, groups):
        for name in ("z2", "z5", "z12"):
            classes = hk.conjugacy_class_hypergroup(groups[name])
            plain = hk.group_hypergroup(groups[name])
            assert np.array_equal(classes.lam, plain.lam)
            assert classes.unit == plain.unit
            assert classes.involution == plain.involution

    def test_all_builtin_groups_against_oracle(self, groups):
        for name, group in groups.items():
            table = hk.conjugacy_class_hypergroup(group)
            lam, unit, involution = oracles.class_table_oracle(group)
            assert table.unit == unit and table.involution == involution, name
            assert np.max(np.abs(table.lam - lam)) <= 1e-12, name
            assert hk.validate(table).passed, name


class TestDoubleCosetHypergroup:
    def test_trivial_subgroup_gives_group(self, groups):
        s3 = groups["s3"]
        table = hk.double_coset_hypergroup(s3, (0,))
        plain = hk.group_hypergroup(s3)
        assert np.array_equal(table.lam, plain.lam)

    def test_full_subgroup_gives_point(self, groups):
        table = hk.double_coset_hypergroup(groups["s3"], range(6))
        assert table.n == 1 and table.lam[0, 0, 0] == 1.0

    def test_s3_transposition_subgroup(self, groups):
        table = hk.double_coset_hypergroup(groups["s3"], (0, 2))
        assert table.n == 2
        assert np.allclose(table.lam[1, 1], (0.5, 0.5), atol=1e-12)

    def test_not_a_subgroup(self, groups):
        with pytest.raises(hk.StructureError):
            hk.double_coset_hypergroup(groups["s3"], (0, 3))

    def test_subgroup_elements_must_be_integers(self, groups):
        # read as indices: a float, a boolean or a string is refused, not cast
        s3 = groups["s3"]
        assert hk.double_coset_hypergroup(s3, [0, 1]).n == 2
        for bad in ([0, 1.5], [0, 1.0], [0, True], ["0", "1"]):
            with pytest.raises(hk.StructureError, match="^subgroup element: expected integers"):
                hk.double_coset_hypergroup(s3, bad)
        with pytest.raises(hk.StructureError, match="^subgroup element: expected integers"):
            hk.double_coset_groupoid(s3, [0, 1.5])

    def test_sample_against_oracle(self, groups):
        for name in ("s3", "d4", "q8"):
            group = groups[name]
            for sub in oracles.cyclic_subgroups(group):
                table = hk.double_coset_hypergroup(group, sub)
                lam, unit, involution = oracles.double_coset_table_oracle(group, sub)
                assert table.unit == unit and table.involution == involution
                assert np.max(np.abs(table.lam - lam)) <= 1e-12
                assert hk.validate(table).passed


class TestFusionRings:
    def test_builtin_rings_validate(self, rings):
        for ring in rings.values():
            hk.validate_fusion_ring(ring)

    def test_conjugation_inference(self, rings):
        fib = rings["fibonacci"]
        rebuilt = hk.fusion_ring(fib.labels, fib.unit, fib.N)
        assert rebuilt.conj == fib.conj

    def test_unit_law_enforced(self):
        N = np.zeros((2, 2, 2), dtype=np.int64)
        N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
        N[1, 1] = (2, 0)  # unit multiplicity 2 violates the conjugation law
        with pytest.raises(hk.AxiomError):
            hk.fusion_ring(("1", "x"), 0, N, conj=(0, 1))

    def test_frobenius_warning_precedes_associativity_error(self):
        # breaks Frobenius symmetry (and associativity, reported after)
        N = np.zeros((3, 3, 3), dtype=np.int64)
        for j in range(3):
            N[0, j, j] = 1
            N[j, 0, j] = 1
        N[1, 1, 0] = 1
        N[1, 2, 2] = 1
        N[2, 1, 2] = 1
        N[2, 2, 0] = 1
        N[2, 2, 1] = 1
        N[1, 2, 1] = 1  # asymmetric extra term
        with pytest.warns(UserWarning, match="Frobenius"):
            with pytest.raises(hk.AxiomError):
                hk.fusion_ring(("1", "a", "b"), 0, N, conj=(0, 1, 2))

    def test_empty_basis_is_structural(self):
        with pytest.raises(hk.StructureError, match="at least one element"):
            hk.FusionRing((), 0, (), np.zeros((0, 0, 0), dtype=np.int64))
        with pytest.raises(hk.StructureError, match="at least one element"):
            hk.fusion_ring((), 0, np.zeros((0, 0, 0), dtype=np.int64))

    @pytest.mark.parametrize("conj", [["a", "b"], [0, None], 0])
    def test_non_numeric_conjugation_is_structural(self, conj):
        with pytest.raises(hk.StructureError, match="conjugation"):
            hk.FusionRing(("1", "x"), 0, conj, np.eye(2, dtype=np.int64)[[[0, 1], [1, 0]]])

    @pytest.mark.parametrize(
        "labels, unit, conj, N, match",
        [(("1",), "a", (0,), [[[1]]], "unit index"),
         (("1", "x"), 0, (0, 1), [[[1, 0], [0, 1]], [[0, 1]]], "fusion tensor")],
        ids=["non-integer-unit", "ragged-N"],
    )
    def test_malformed_unit_or_tensor_is_structural(self, labels, unit, conj, N, match):
        with pytest.raises(hk.StructureError, match=match):
            hk.FusionRing(labels, unit, conj, N)

    def test_inferred_conjugation_needs_unit_in_range(self):
        with pytest.raises(hk.StructureError, match="unit index"):
            hk.fusion_ring(("1",), 3, np.ones((1, 1, 1), dtype=np.int64))

    def test_multiplicity_bound(self):
        # exact float64 associativity needs n * max(N)**2 < 2**53
        N = np.zeros((2, 2, 2), dtype=np.int64)
        N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
        N[1, 1, 1] = 2**26 - 1  # x^2 = 1 + (2**26 - 1) x
        hk.FusionRing(("1", "x"), 0, (0, 1), N)
        N[1, 1, 1] = 2**26
        with pytest.raises(hk.StructureError, match="2\\*\\*53"):
            hk.FusionRing(("1", "x"), 0, (0, 1), N)
        with pytest.raises(hk.StructureError):
            hk.fusion_ring(("1",), 0, [[[2**40]]])
        with pytest.raises(hk.StructureError):
            hk.FusionRing(("1",), 0, (0,), [[[2**70]]])

    @settings(max_examples=300, deadline=None)
    @given(data=unital_tensors())
    def test_associativity_matches_einsum_reference(self, data):
        assert_associativity_matches_reference(*data)

    def test_perturbed_su2_matches_einsum_reference(self):
        rng = np.random.default_rng(11)
        for k in range(1, 21):
            N = oracles.su2_fusion_tensor(k)
            assert_associativity_matches_reference(N, tuple(range(k + 1)))
            i, j, l = rng.integers(1, k + 1, size=3)  # off the unit, so both laws still hold
            N[i, j, l] += 1
            assert_associativity_matches_reference(N, tuple(range(k + 1)))

    def test_validate_memory_is_cubic(self):
        # two 71^4 int64 tensors would take about 0.4 GB
        labels = tuple(f"j{a}" for a in range(71))
        ring = hk.FusionRing(labels, 0, range(71), oracles.su2_fusion_tensor(70))
        tracemalloc.start()
        try:
            hk.validate_fusion_ring(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestPfDimensions:
    def test_group_ring_dims_are_one(self, groups):
        z2 = groups["z2"]
        table = hk.group_hypergroup(z2)
        N = np.array(np.rint(table.lam), dtype=np.int64)
        ring = hk.fusion_ring(table.labels, table.unit, N)
        dims = hk.pf_dimensions(ring).dims
        assert np.allclose(dims, (1.0, 1.0), atol=1e-12)

    def test_fibonacci_golden_ratio(self, rings):
        dims = hk.pf_dimensions(rings["fibonacci"]).dims
        assert abs(dims[1] - PHI) < 1e-10

    def test_ising_sqrt2(self, rings):
        dims = hk.pf_dimensions(rings["ising"]).dims
        assert np.allclose(dims, (1.0, 1.0, math.sqrt(2.0)), atol=1e-10)

    def test_against_eigenvalue_oracle(self, rings):
        for ring in rings.values():
            dims = hk.pf_dimensions(ring).dims
            for i in range(ring.n):
                rho = oracles.spectral_radius_oracle(ring.N[i].T)
                assert abs(dims[i] - rho) < 1e-9

    def test_dimension_residual(self, rings):
        for ring in rings.values():
            dims = hk.pf_dimensions(ring).dims
            defect = np.abs(
                np.outer(dims, dims) - np.einsum("ijl,l->ij", ring.N, dims)
            )
            assert defect.max() < 1e-7

    def test_reducible_graph_rejected(self):
        N = np.zeros((2, 2, 2), dtype=np.int64)
        N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1  # f1*f1 = 0: no path back
        ring = oracles.unchecked_fusion_ring(("1", "x"), 0, (0, 1), N)
        with pytest.raises(hk.PreconditionError):
            hk.pf_dimensions(ring)

    @pytest.mark.parametrize("forward", [True, False])
    def test_reducible_only_at_end_of_long_path(self, forward):
        # path 0 - 1 - ... - 63 with edges both ways, except one direction of the last link
        n = 64
        N = np.zeros((n, n, n), dtype=np.int64)
        N[0] = np.eye(n, dtype=np.int64)
        steps = np.arange(n - 1)
        N[1, steps, steps + 1] = 1
        N[1, steps + 1, steps] = 1
        if forward:
            N[1, n - 1, n - 2] = 0  # the last element reaches nothing else
        else:
            N[1, n - 2, n - 1] = 0  # nothing else reaches the last element
        ring = oracles.unchecked_fusion_ring(tuple(f"f{a}" for a in range(n)), 0, range(n), N)
        with pytest.raises(hk.PreconditionError):
            hk.pf_dimensions(ring)

    def test_su2_matches_verlinde(self):
        for k in range(1, 101):
            dims = hk.pf_dimensions(su2_ring(k)).dims
            assert np.max(np.abs(dims - verlinde_dims(k)) / verlinde_dims(k)) < 1e-13, k

    def test_su2_250_matches_verlinde_in_time(self):
        ring = su2_ring(250)
        start = time.perf_counter()
        dims = hk.pf_dimensions(ring).dims
        assert time.perf_counter() - start < 2.0
        assert np.max(np.abs(dims - verlinde_dims(250)) / verlinde_dims(250)) < 1e-13

    def test_relabelled_su2_against_eigenvalue_oracle(self):
        rng = np.random.default_rng(11)
        for k in (3, 8, 17, 30):
            n = k + 1
            perm = rng.permutation(n)  # element i becomes element perm[i]
            N = np.empty((n, n, n), dtype=np.int64)
            N[np.ix_(perm, perm, perm)] = oracles.su2_fusion_tensor(k)
            ring = hk.FusionRing(tuple(f"j{a}" for a in range(n)), perm[0], range(n), N)
            dims = hk.pf_dimensions(ring).dims
            assert dims[ring.unit] == 1.0
            rho = [oracles.spectral_radius_oracle(N[i].T) for i in range(n)]
            assert np.max(np.abs(dims - rho) / rho) < 1e-12, k
            assert np.max(np.abs(dims[perm] - verlinde_dims(k)) / verlinde_dims(k)) < 1e-13, k

    def test_integer_dimensions_are_exact(self, groups, rings):
        for n in range(2, 13):
            table = hk.group_hypergroup(groups[f"z{n}"])
            N = np.array(np.rint(table.lam), dtype=np.int64)
            ring = hk.fusion_ring(table.labels, table.unit, N)
            dimension = hk.pf_dimensions(ring)
            assert dimension.dims.tolist() == [1.0] * n and dimension.defect == 0.0
        assert hk.pf_dimensions(rings["s3-irreps"]).dims.tolist() == [1.0, 1.0, 2.0]
        assert hk.pf_dimensions(rep_d8()).dims.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0]

    def test_unit_dimension_is_exactly_one(self, rings):
        for ring in [*rings.values(), rep_d8(), *(su2_ring(k) for k in (5, 12, 40))]:
            assert hk.pf_dimensions(ring).dims[ring.unit] == 1.0

    def test_defect_is_the_fusion_rule_residual(self, rings):
        for ring in [*rings.values(), su2_ring(12)]:
            dimension = hk.pf_dimensions(ring)
            dims = dimension.dims
            residual = np.abs(np.outer(dims, dims) - np.einsum("ijl,l->ij", ring.N, dims))
            assert dimension.defect == pytest.approx(residual.max(), abs=1e-15)
            assert dimension.defect < 1e-12


class TestFromFusionRing:
    def test_group_ring_reproduces_group_table(self, groups):
        table = hk.group_hypergroup(groups["z3"])
        N = np.array(np.rint(table.lam), dtype=np.int64)
        ring = hk.fusion_ring(table.labels, table.unit, N)
        rescaled = hk.from_fusion_ring(ring)
        assert np.allclose(rescaled.lam, table.lam, atol=1e-12)

    def test_fibonacci_row(self, rings):
        table = hk.from_fusion_ring(rings["fibonacci"])
        assert np.allclose(table.lam[1, 1], (1 / PHI**2, 1 / PHI), atol=1e-10)

    def test_ising_rows(self, rings):
        table = hk.from_fusion_ring(rings["ising"])
        sigma = 2
        assert np.allclose(table.lam[sigma, sigma], (0.5, 0.5, 0.0), atol=1e-10)
        assert np.allclose(table.lam[1, sigma], (0, 0, 1), atol=1e-10)

    def test_weights_are_squared_dimensions(self, rings):
        for ring in rings.values():
            dims = hk.pf_dimensions(ring).dims
            table = hk.from_fusion_ring(ring)
            assert np.max(np.abs(hk.weights(table) - dims**2)) < 1e-7

    def test_output_validates(self, rings):
        for ring in rings.values():
            assert hk.validate(hk.from_fusion_ring(ring)).passed


class TestTwoElementFamily:
    def test_lambda_one_is_z2(self, tables):
        table = hk.two_element(1.0)
        assert np.allclose(table.lam, tables["z2"].lam, atol=1e-15)

    def test_ghj_parameter(self, tables):
        table = hk.two_element(2 - SQRT3)
        assert np.allclose(table.lam, tables["ghj"].lam, atol=1e-15)

    def test_fibonacci_parameter_matches_rescaling(self, rings):
        table = hk.two_element(1 / PHI**2)
        rescaled = hk.from_fusion_ring(rings["fibonacci"])
        assert np.max(np.abs(table.lam - rescaled.lam)) < 1e-10

    def test_domain(self):
        with pytest.raises(hk.PreconditionError):
            hk.two_element(0.0)
        with pytest.raises(hk.PreconditionError):
            hk.two_element(1.5)


class TestFusionRealizability:
    def test_golden_ratio_realizable(self):
        assert hk.fusion_realizable_two_element(1 / PHI**2, 64) == (1, 1)

    def test_ghj_not_realizable(self):
        assert hk.fusion_realizable_two_element(2 - SQRT3, 64) is None

    def test_z2_case(self):
        assert hk.fusion_realizable_two_element(1.0, 64) == (1, 0)

    def test_half_not_realizable(self):
        # 1/2 arises from double cosets, not from a fusion ring
        assert hk.fusion_realizable_two_element(0.5, 64) is None

    def test_parameter_formula_matches_radical_form(self):
        # x = 1 + r/2 - r*sqrt(1/4 + 1/r) with r = n^2 (unit multiplicity 1)
        for n in range(1, 65):
            r = float(n * n)
            x = 1.0 + r / 2.0 - r * math.sqrt(0.25 + 1.0 / r)
            assert abs(hk.two_element_parameter(n) - x) < 1e-12

    @settings(max_examples=65, deadline=None)
    @given(n=st.integers(min_value=0, max_value=64))
    def test_round_trip(self, n):
        lam = hk.two_element_parameter(n)
        assert hk.fusion_realizable_two_element(lam, 64) == (1, n)

    def test_bad_arguments(self):
        with pytest.raises(hk.PreconditionError):
            hk.fusion_realizable_two_element(0.0, 64)
        with pytest.raises(hk.PreconditionError):
            hk.fusion_realizable_two_element(0.5, 0)


@pytest.mark.parametrize(
    "mul, identity",
    [([[0, 1], [1.9, 0]], 0), ([[False, True], [True, False]], 0),
     (np.array([[False, True], [True, False]]), 0), ([[0, 1], [1, 0]], 0.7),
     ([[0, 1], [1, 0]], False), ([[0, 1], [1, 0]], "0")],
    ids=["float-entry", "bool-entries", "bool-array", "float-identity", "bool-identity",
         "string-identity"],
)
def test_cayley_fields_must_be_integers(mul, identity):
    with pytest.raises(hk.StructureError, match="Cayley table|identity index"):
        hk.CayleyGroup(mul, identity)


@pytest.mark.parametrize(
    "unit, conj, N",
    [(0, (0,), [[[1.7]]]), (0, (0,), [[[True]]]), (0, (0,), np.ones((1, 1, 1), dtype=bool)),
     (0.5, (0,), [[[1]]]), (False, (0,), [[[1]]]), (0, (0.0,), [[[1]]]), (0, (False,), [[[1]]])],
    ids=["float-N", "bool-N", "bool-array-N", "float-unit", "bool-unit", "float-conj",
         "bool-conj"],
)
def test_fusion_ring_fields_must_be_integers(unit, conj, N):
    with pytest.raises(hk.StructureError, match="fusion tensor|unit index|conjugation"):
        hk.FusionRing(("1",), unit, conj, N)


@pytest.mark.parametrize("entry", [2**63, 2**64 - 1], ids=["2**63", "2**64-1"])
def test_unsigned_multiplicities_beyond_int64_are_refused(entry):
    # a plain astype would wrap them to negative int64 values
    with pytest.raises(hk.StructureError, match="int64"):
        hk.FusionRing(("1",), 0, (0,), np.full((1, 1, 1), entry, dtype=np.uint64))
