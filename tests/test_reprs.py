import math
import time

import numpy as np
import pytest

import hyperkit as hk
import oracles
from hyperkit import reprs

SQRT3 = math.sqrt(3.0)

COMMUTATIVE_BUILTINS = (
    "z2",
    "z3",
    "conj-s3",
    "s3-double-coset",
    "ghj",
    "fibonacci-rescaled",
    "ising-rescaled",
)


class TestRegularRepresentation:
    def test_unit_matrix_is_identity(self, tables):
        for table in tables.values():
            rep = hk.regular_representation(table)
            assert np.allclose(rep.matrices[table.unit], np.eye(table.n), atol=1e-15)

    def test_z2_matrices(self, tables):
        rep = hk.regular_representation(tables["z2"])
        assert np.allclose(rep.matrices[0], np.eye(2), atol=1e-15)
        assert np.allclose(rep.matrices[1], [[0, 1], [1, 0]], atol=1e-15)

    def test_ghj_matrix(self, tables):
        rep = hk.regular_representation(tables["ghj"])
        expected = np.array([[0.0, 2 - SQRT3], [1.0, SQRT3 - 1]])
        assert np.allclose(rep.matrices[1], expected, atol=1e-12)

    def test_matrices_commute_iff_commutative(self, tables):
        for name, table in tables.items():
            mats = hk.regular_representation(table).matrices
            worst = max(
                np.max(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a]))
                for a in range(table.n)
                for b in range(table.n)
            )
            if hk.is_commutative(table):
                assert worst < 1e-12, name
            else:
                assert worst > 1e-6, name

    def test_conj_s3_matrices_are_3x3(self, tables):
        rep = hk.regular_representation(tables["conj-s3"])
        assert rep.matrices.shape == (3, 3, 3)


class TestCharacters:
    def test_z2(self, tables):
        ct = hk.characters(tables["z2"])
        assert np.allclose(ct.chars, [[1, 1], [1, -1]], atol=1e-9)

    def test_ghj(self, tables):
        ct = hk.characters(tables["ghj"])
        assert np.allclose(ct.chars, [[1, 1], [1, SQRT3 - 2]], atol=1e-9)

    def test_conj_s3_matches_classical_ratios(self, tables):
        # normalized columns chi(g)/chi(1) of the classical character table
        # of the symmetric group on 3 letters, classes (e, transp, 3-cyc)
        expected = np.array([[1, 1, 1], [1, -1, 1], [1, 0, -0.5]])
        ct = hk.characters(tables["conj-s3"])
        assert np.allclose(ct.chars, expected, atol=1e-9)

    def test_z3_has_conjugate_pair(self, tables):
        ct = hk.characters(tables["z3"])
        omega = complex(-0.5, math.sqrt(3) / 2)
        values = {round(z.real, 6) + 1j * round(z.imag, 6) for z in ct.chars[:, 1]}
        assert values == {
            1.0 + 0j,
            round(omega.real, 6) + 1j * round(omega.imag, 6),
            round(omega.real, 6) - 1j * round(omega.imag, 6),
        }

    def test_trivial_row_exact_and_first(self, tables):
        for name in COMMUTATIVE_BUILTINS:
            ct = hk.characters(tables[name])
            assert np.all(ct.chars[0] == 1.0)

    def test_unit_column_exact(self, tables):
        for name in COMMUTATIVE_BUILTINS:
            table = tables[name]
            ct = hk.characters(table)
            assert np.all(ct.chars[:, table.unit] == 1.0)

    def test_multiplicativity(self, tables):
        for name in COMMUTATIVE_BUILTINS:
            table = tables[name]
            ct = hk.characters(table)
            prod = ct.chars[:, :, None] * ct.chars[:, None, :]
            expand = np.einsum("abc,mc->mab", table.lam, ct.chars)
            assert np.max(np.abs(prod - expand)) < 1e-7, name

    def test_conjugation_symmetry(self, tables):
        for name in COMMUTATIVE_BUILTINS:
            table = tables[name]
            ct = hk.characters(table)
            pulled = np.conj(ct.chars)[:, list(table.involution)]
            assert np.max(np.abs(ct.chars - pulled)) < 1e-7

    def test_noncommutative_rejected(self, tables):
        with pytest.raises(hk.PreconditionError):
            hk.characters(tables["s3-group"])

    def test_persistent_degeneracy_is_numerical_error(self):
        # commutative but nilpotent: every random combination of the
        # regular matrices has a triple eigenvalue, so all retries fail
        lam = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                if i + j <= 2:
                    lam[i, j, i + j] = 1.0
        shifty = hk.HypergroupTable(("a", "b", "c"), 0, (0, 1, 2), lam)
        assert hk.is_commutative(shifty)
        with pytest.raises(hk.NumericalError):
            hk.characters(shifty)

    def test_overflowing_combination_is_numerical_error(self, tables):
        z3 = tables["z3"]
        lam = z3.lam.copy()
        lam[1, 1, 2] = 1e308
        with pytest.raises(hk.NumericalError, match="not finite"):
            hk.characters(hk.HypergroupTable(z3.labels, z3.unit, z3.involution, lam))

    def test_z3_rows_sort_by_imaginary_part_on_every_seed(self, tables):
        # the two nontrivial rows agree in their real parts; the eigensolver
        # returns them in either order, and the imaginary parts break the tie
        for seed in range(1, 9):
            ct = hk.characters(tables["z3"], seed=seed)
            assert ct.chars[1, 1].imag < 0 < ct.chars[2, 1].imag, seed

    def test_determinism_bit_identical(self, tables):
        for name in COMMUTATIVE_BUILTINS:
            first = hk.characters(tables[name], seed=0xC0FFEE)
            second = hk.characters(tables[name], seed=0xC0FFEE)
            assert np.array_equal(first.chars, second.chars)
            assert np.array_equal(first.haar_weights, second.haar_weights)
            assert np.array_equal(first.dual_weights, second.dual_weights)

    def test_seed_changes_nothing_observable(self, tables):
        a = hk.characters(tables["conj-s3"], seed=1)
        b = hk.characters(tables["conj-s3"], seed=2)
        assert np.allclose(a.chars, b.chars, atol=1e-8)

    def test_dual_weights_sum_to_haar_total(self, tables):
        for name in COMMUTATIVE_BUILTINS:
            ct = hk.characters(tables[name])
            assert abs(ct.dual_weights.sum() - ct.haar_weights.sum()) < 1e-6

    def test_conj_s3_dual_weights(self, tables):
        ct = hk.characters(tables["conj-s3"])
        assert np.allclose(sorted(ct.dual_weights), (1, 1, 4), atol=1e-8)


class TestCharacterDiagnostics:
    def test_defects_and_gap_are_recorded(self, tables):
        for name in COMMUTATIVE_BUILTINS:
            table = tables[name]
            ct = hk.characters(table)
            assert ct.retries == 0 and ct.eigen_gap >= 1e-8
            rows, mu = ct.chars, ct.haar_weights
            assert ct.normalization == np.max(np.abs(rows[:, table.unit] - 1.0))
            pulled = np.conj(rows)[:, list(table.involution)]
            assert ct.conjugation == np.max(np.abs(rows - pulled))
            expand = np.einsum("abc,mc->mab", table.lam, rows)
            product = rows[:, :, None] * rows[:, None, :]
            assert abs(ct.multiplicativity - np.max(np.abs(product - expand))) < 1e-15
            gram = np.einsum("ma,a,ka->mk", np.conj(rows), mu, rows) / mu.sum()
            assert ct.orthogonality == np.max(np.abs(gram - np.diag(np.diag(gram))))
            for defect in (ct.normalization, ct.multiplicativity, ct.conjugation, ct.orthogonality):
                assert 0.0 <= defect <= 1e-7, name

    def test_retries_and_gap_of_the_accepted_draw(self, tables, monkeypatch):
        # replay the solver's draws and set the gap threshold so that the
        # first draw fails and a later one passes
        table = tables["conj-s3"]
        mats = hk.regular_representation(table).matrices
        rng = np.random.default_rng(7)
        gaps = []
        for _ in range(4):
            z = np.einsum("b,bca->ca", rng.standard_normal(table.n), mats)
            eigvals = np.linalg.eigvals(z.T)
            diff = np.abs(eigvals[:, None] - eigvals[None, :])
            np.fill_diagonal(diff, np.inf)
            gaps.append(float(diff.min()))
        accepted = next(i for i in range(1, 4) if gaps[i] > gaps[0])
        threshold = (gaps[0] + gaps[accepted]) / 2
        expected = next(i for i in range(4) if gaps[i] >= threshold)
        monkeypatch.setattr(reprs, "_EIG_GAP", threshold)
        ct = hk.characters(table, seed=7)
        assert ct.retries == expected >= 1
        assert ct.eigen_gap == gaps[expected]

    def test_tables_built_otherwise_carry_none(self, tables):
        ct = hk.characters(tables["z3"])
        plain = hk.CharacterTable(ct.labels, ct.chars, ct.haar_weights, ct.dual_weights)
        assert plain.eigen_gap is plain.retries is plain.orthogonality is None
        text = hk.serialize_character_table(ct)
        assert text == hk.serialize_character_table(plain)
        parsed = hk.parse_character_table(text)
        assert parsed.eigen_gap is None and parsed.normalization is None


def reference_battery(groups):
    """Shuffled SU(2)_k, and the class and commutative double-coset
    tables of S4, Dic10 and D30, and of Dic5 and Z12, whose characters
    are complex, each in a seeded basis order."""
    for k in (4, 11, 20, 27, 36):
        labels = tuple(f"j{j}" for j in range(k + 1))
        table = hk.from_fusion_ring(hk.fusion_ring(labels, 0, oracles.su2_fusion_tensor(k)))
        for seed in (1, 2, 3):
            perm = np.random.default_rng([26, k, seed]).permutation(k + 1)
            yield f"su2-{k}-{seed}", oracles.relabel(table, perm)
    named = {"s4": groups["s4"], "dic10": oracles.dicyclic_group(10), "d30": oracles.dihedral_group(30),
             "dic5": oracles.dicyclic_group(5), "z12": groups["z12"]}
    for name, group in named.items():
        built = {f"{name}-classes": hk.conjugacy_class_hypergroup(group)}
        for h in oracles.cyclic_subgroups(group):
            table = hk.double_coset_hypergroup(group, sorted(h))
            if hk.is_commutative(table):
                built[f"{name}-cosets-{sorted(h)}"] = table
        for key, table in built.items():
            perm = np.random.default_rng([26, table.n]).permutation(table.n)
            yield key, oracles.relabel(table, perm)


class TestCharacterReferences:
    def test_order_norms_and_conjugates(self, groups):
        # the row order, the dual weights and the dual's involution against
        # per-row Python references
        start = time.perf_counter()
        count = 0
        for name, table in reference_battery(groups):
            ct = hk.characters(table)
            assert oracles.character_order_reference(ct.chars) == list(range(table.n)), name
            norms = np.array([oracles.haar_norm_reference(row, ct.haar_weights) for row in ct.chars])
            assert np.array_equal(ct.dual_weights, 1.0 / norms), name
            partners = oracles.conjugate_partner_reference(ct.chars)
            assert max(dist for _, dist in partners) <= 1e-7, name
            dual = hk.dual_hypergroup(table, chars=ct)
            assert dual.involution == tuple(j for j, _ in partners), name
            count += 1
        assert count > 30
        assert time.perf_counter() - start < 5.0


class TestOrthogonality:
    @pytest.mark.parametrize("name", ["z2", "ghj", "conj-s3"])
    def test_defect_tiny_on_examples(self, tables, name):
        report = hk.orthogonality_check(tables[name])
        assert report.unitarity_defect < 1e-9

    def test_defect_below_threshold_everywhere(self, tables):
        for name in COMMUTATIVE_BUILTINS:
            report = hk.orthogonality_check(tables[name])
            assert report.unitarity_defect < 1e-6, name

    def test_z2_s_matrix_is_fourier(self, tables):
        report = hk.orthogonality_check(tables["z2"])
        fourier = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(report.s_matrix.real, fourier, atol=1e-12)

    def test_noncommutative_rejected(self, tables):
        with pytest.raises(hk.PreconditionError):
            hk.orthogonality_check(tables["s3-group"])


class TestDualHypergroup:
    def test_z3_self_dual(self, tables):
        dual = hk.dual_hypergroup(tables["z3"])
        assert hk.validate(dual).passed
        assert hk.table_isomorphism(dual, tables["z3"]) is not None

    def test_ghj_self_dual(self, tables):
        dual = hk.dual_hypergroup(tables["ghj"])
        assert abs(dual.lam[1, 1, 0] - (2 - SQRT3)) < 1e-9

    def test_conj_s3_dual_is_s3_irrep_rescaling(self, tables, rings):
        dual = hk.dual_hypergroup(tables["conj-s3"])
        target = hk.from_fusion_ring(rings["s3-irreps"])
        assert np.allclose(dual.lam[2, 2], (0.25, 0.25, 0.5), atol=1e-9)
        pi = hk.character_matched_isomorphism(dual, target)
        assert pi is not None
        assert hk.table_isomorphism(dual, target) is not None  # cross-check

    @pytest.mark.parametrize("name", ["z2", "z3", "ghj", "conj-s3"])
    def test_double_dual(self, tables, name):
        table = tables[name]
        double = hk.dual_hypergroup(hk.dual_hypergroup(table))
        pi = hk.character_matched_isomorphism(double, table)
        assert pi is not None

    def test_dual_involution_is_conjugation(self, tables):
        dual = hk.dual_hypergroup(tables["z3"])
        assert dual.involution == (0, 2, 1)

    @pytest.mark.parametrize(
        "k, seed",
        [(27, None), (81, None), (36, 1003), (36, 2349)],
        ids=["27", "81", "36-1003", "36-2349"],
    )
    def test_su2_dual_with_close_eigenvalues(self, k, seed):
        # SU(2)_27 and SU(2)_81 in level order, and SU(2)_36 in two seeded
        # orders: the solver's first draw has two eigenvalues closer than
        # 1e-5 of its spectral radius.  Accepting it mixed their
        # eigenvectors, and the dual had structure constants near -1e-9.
        labels = tuple(f"j{j}" for j in range(k + 1))
        table = hk.from_fusion_ring(
            hk.FusionRing(labels, 0, range(k + 1), oracles.su2_fusion_tensor(k))
        )
        if seed is not None:
            table = oracles.relabel(table, np.random.default_rng(seed).permutation(k + 1))
        dual = hk.dual_hypergroup(table)
        assert hk.validate(dual, tol=1e-7).passed

    @pytest.mark.parametrize("name", ["su2-12", "su2-36", "su2-60", "conj-s3"])
    def test_real_characters_match_the_complex_reference(self, tables, name):
        if name.startswith("su2-"):
            k = int(name[4:])
            labels = tuple(f"j{j}" for j in range(k + 1))
            table = hk.from_fusion_ring(hk.fusion_ring(labels, 0, oracles.su2_fusion_tensor(k)))
        else:
            table = tables[name]
        ct = hk.characters(table)
        assert not ct.chars.imag.any()
        dual = hk.dual_hypergroup(table, chars=ct)
        reference = oracles.dual_structure_constants_reference(ct)
        assert oracles.ulp_distance(dual.lam, reference).max() <= 4

    def test_z3_keeps_complex_characters_and_its_closed_form_dual(self, tables):
        # chi_m(g^a) = exp(-2 pi i m a / 3), so chi_m chi_m' = chi_(m + m' mod 3)
        ct = hk.characters(tables["z3"])
        assert np.allclose(np.abs(ct.chars.imag[1:, 1:]), SQRT3 / 2, atol=1e-12)
        dual = hk.dual_hypergroup(tables["z3"], chars=ct)
        m = np.arange(3)
        expected = np.zeros((3, 3, 3))
        expected[m[:, None], m[None, :], (m[:, None] + m[None, :]) % 3] = 1.0
        assert np.allclose(dual.lam, expected, atol=1e-12)
        assert dual.involution == (0, 2, 1)
        reference = oracles.dual_structure_constants_reference(ct)
        assert oracles.ulp_distance(dual.lam, reference).max() <= 4

    def test_every_commutative_builtin_has_a_dual(self, tables):
        for name in COMMUTATIVE_BUILTINS:
            dual = hk.dual_hypergroup(tables[name])
            assert hk.validate(dual, tol=1e-7).passed, name


class TestCharacterMatching:
    def test_matches_relabeled_table(self, tables):
        ising = tables["ising-rescaled"]
        pi = hk.character_matched_isomorphism(ising, hk.with_labels(ising, ("a", "b", "c")))
        assert pi == (0, 1, 2)

    def test_matches_swapped_ising(self, tables):
        ising = tables["ising-rescaled"]
        swapped = oracles.relabel(ising, (0, 2, 1))
        assert hk.character_matched_isomorphism(ising, swapped) == (0, 2, 1)

    def test_rejects_different_tables(self, tables):
        assert hk.character_matched_isomorphism(tables["z2"], tables["ghj"]) is None

    def test_rejects_different_sizes(self, tables):
        assert hk.character_matched_isomorphism(tables["z2"], tables["z3"]) is None
