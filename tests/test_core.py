import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperkit as hk
import oracles

SQRT3 = math.sqrt(3.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def break_entry(table, i, j, l, value):
    lam = np.array(table.lam)
    lam[i, j, l] = value
    return hk.HypergroupTable(table.labels, table.unit, table.involution, lam)


def su2_table(k):
    """SU(2)_k from the truncated Clebsch-Gordan rule, rescaled by closed-form dimensions.

    ``lam[i, j, l] = N[i, j, l] d_l / (d_i d_j)`` with the quantum
    dimensions ``d_i = sin((i+1) pi/(k+2)) / sin(pi/(k+2))``.
    """
    n = k + 1
    i, j, l = np.ogrid[:n, :n, :n]
    N = (np.abs(i - j) <= l) & (l <= np.minimum(i + j, 2 * k - i - j)) & ((i + j + l) % 2 == 0)
    d = np.sin(np.pi * np.arange(1, n + 1) / (k + 2)) / np.sin(np.pi / (k + 2))
    lam = N * d[None, None, :] / (d[:, None, None] * d[None, :, None])
    return hk.HypergroupTable(tuple(f"j{a}" for a in range(n)), 0, tuple(range(n)), lam)


def perturb_rows(table, rng, count=3):
    """Replace ``count`` random rows by random convex rows (breaks associativity)."""
    lam = np.array(table.lam)
    for i, j in rng.integers(table.n, size=(count, 2)):
        row = rng.random(table.n)
        lam[i, j] = row / row.sum()
    return hk.HypergroupTable(table.labels, table.unit, table.involution, lam)


def assert_matches_reference(found, reference):
    """Same violations in the same order, defects within 1e-12."""
    assert [idx for idx, _ in found] == [idx for idx, _ in reference]
    assert np.allclose([m for _, m in found], [m for _, m in reference], rtol=0.0, atol=1e-12)


def associativity_found(report):
    return [(v.indices, v.magnitude) for v in report.violations if v.axiom == "associativity"]


class TestValidate:
    def test_z2_passes(self, tables):
        assert hk.validate(tables["z2"]).passed

    def test_ghj_passes(self, tables):
        ghj = tables["ghj"]
        assert np.allclose(ghj.lam[1, 1], (2 - SQRT3, SQRT3 - 1), atol=1e-12)
        assert hk.validate(ghj).passed

    def test_every_builtin_passes(self, tables):
        for name, table in tables.items():
            report = hk.validate(table)
            assert report.passed, f"{name}: {report}"

    def test_involution_violation_when_unit_mass_removed(self, tables):
        broken = break_entry(tables["ghj"], 1, 1, 0, 0.0)
        report = hk.validate(broken)
        assert not report.passed
        assert any(
            v.axiom == "involution" and v.indices == (1, 1) for v in report.violations
        )

    def test_convexity_violation(self, tables):
        broken = break_entry(tables["z2"], 1, 1, 0, 0.9)
        report = hk.validate(broken)
        assert any(v.axiom == "convexity" and v.indices == (1, 1) for v in report.violations)

    def test_nonnegativity_violation(self, tables):
        broken = break_entry(tables["ghj"], 1, 1, 0, -0.25)
        report = hk.validate(broken)
        assert any(v.axiom == "nonnegativity" for v in report.violations)

    def test_associativity_violation(self, tables):
        lam = np.array(tables["conj-s3"].lam)
        lam[1, 2] = (1.0, 0.0, 0.0)  # still convex, no longer associative
        broken = hk.HypergroupTable(
            tables["conj-s3"].labels, 0, tables["conj-s3"].involution, lam
        )
        report = hk.validate(broken)
        assert any(v.axiom == "associativity" for v in report.violations)

    def test_involution_permutation_checked(self, tables):
        z3 = tables["z3"]
        broken = hk.HypergroupTable(z3.labels, z3.unit, (0, 1, 2), z3.lam)
        report = hk.validate(broken)
        assert any(v.axiom == "involution" for v in report.violations)

    def test_associativity_matches_einsum_reference(self, tables):
        rng = np.random.default_rng(5)
        perturbed = [perturb_rows(su2_table(k), rng) for k in range(1, 21)]
        perturbed += [perturb_rows(t, rng) for t in tables.values()]
        for table in perturbed:
            reference = oracles.associativity_reference(table.lam, hk.DEFAULT_TOL)
            assert reference
            assert_matches_reference(associativity_found(hk.validate(table)), reference)

    def test_violations_only_in_last_slice(self):
        # an extra element x whose products with the others vanish and with
        # x * b = alpha_b x: associativity fails only with x as first factor
        base = su2_table(6)
        n = base.n + 1
        lam = np.zeros((n, n, n))
        lam[:-1, :-1, :-1] = base.lam
        lam[-1, :, -1] = np.linspace(0.5, 1.5, n)  # alpha is no character of the table
        table = hk.HypergroupTable((*base.labels, "x"), base.unit, (*base.involution, n - 1), lam)
        reference = oracles.associativity_reference(table.lam, hk.DEFAULT_TOL)
        assert reference and {idx[0] for idx, _ in reference} == {n - 1}
        assert_matches_reference(associativity_found(hk.validate(table)), reference)

    def test_involution_matches_loop_reference(self, tables):
        rng = np.random.default_rng(11)
        for table in [*tables.values(), su2_table(12)]:
            for _ in range(5):
                lam = np.array(table.lam)
                a, b = rng.integers(table.n, size=(2, 4))
                lam[a, b, table.unit] = rng.choice([0.0, 1e-10, 0.3], size=4)
                inv = tuple(rng.permutation(table.n)) if rng.random() < 0.5 else table.involution
                broken = hk.HypergroupTable(table.labels, table.unit, inv, lam)
                found = [
                    (v.indices, v.magnitude) for v in hk.validate(broken).violations
                    if v.axiom == "involution"
                ]
                assert found == oracles.involution_reference(lam, table.unit, inv, hk.DEFAULT_TOL)
                assert all(type(i) is int for idx, _ in found for i in idx)

    def test_weights_match_loop(self, tables):
        for table in [*tables.values(), su2_table(20)]:
            loop = [1.0 / table.lam[i, table.involution[i], table.unit] for i in range(table.n)]
            assert hk.weights(table).tolist() == loop

    def test_validate_memory_is_cubic(self):
        # three 71^4 float64 tensors would take about 0.6 GB
        table = su2_table(70)
        tracemalloc.start()
        try:
            report = hk.validate(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 32 * 2**20

    def test_bad_shape_is_structural(self):
        with pytest.raises(hk.StructureError):
            hk.HypergroupTable(("a", "b"), 0, (0, 1), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "unit, lam, match",
        [("a", np.ones((2, 2, 2)), "unit index"),
         (0, [[[1, 0], [0, 1]], [[0, 1]]], "lambda tensor"),
         (0, [[[1, 0], [0, 1]], [[0, 1], [1, "x"]]], "lambda tensor"),
         (0, [[[1, 0], [0, 1]], [[0, 1], [1, 10**400]]], "lambda tensor")],
        ids=["non-integer-unit", "ragged-lambda", "non-numeric-lambda", "huge-lambda"],
    )
    def test_malformed_unit_or_lambda_is_structural(self, unit, lam, match):
        with pytest.raises(hk.StructureError, match=match):
            hk.HypergroupTable(("e", "g"), unit, (0, 1), lam)

    def test_weight_symmetry_reported(self, tables):
        # unit masses of a conjugate pair must agree; skew one side
        lam = np.array(tables["z3"].lam)
        lam[2, 1] = (0.9, 0.05, 0.05)
        broken = hk.HypergroupTable(tables["z3"].labels, 0, (0, 2, 1), lam)
        report = hk.validate(broken)
        assert any(v.axiom == "weight-symmetry" for v in report.violations)

    def test_reports_all_violations(self, tables):
        broken = break_entry(tables["z2"], 1, 1, 0, -0.5)
        report = hk.validate(broken)
        axioms = {v.axiom for v in report.violations}
        assert {"nonnegativity", "convexity", "involution"} <= axioms


class TestMultiply:
    def test_ghj_square(self, tables):
        mix = hk.multiply(tables["ghj"], 1, 1)
        assert np.allclose(mix.coeffs, (2 - SQRT3, SQRT3 - 1), atol=1e-12)

    def test_unit_law_everywhere(self, tables):
        for table in tables.values():
            for b in range(table.n):
                mix = hk.multiply(table, table.unit, b)
                expected = np.zeros(table.n)
                expected[b] = 1.0
                assert np.allclose(mix.coeffs, expected, atol=1e-12)

    def test_conj_s3_transpositions(self, tables):
        conj = tables["conj-s3"]
        t = conj.index_of("transpositions")
        c = conj.index_of("3-cycles")
        assert np.allclose(hk.multiply(conj, t, t).coeffs, (1 / 3, 0, 2 / 3), atol=1e-12)
        assert np.allclose(hk.multiply(conj, t, c).coeffs, (0, 1, 0), atol=1e-12)

    def test_out_of_range(self, tables):
        with pytest.raises(IndexError):
            hk.multiply(tables["z2"], 0, 5)


class TestMixtures:
    def test_point_masses_reduce_to_multiply(self, tables):
        ghj = tables["ghj"]
        out = hk.multiply_mixtures(ghj, hk.point_mass(ghj, 1), hk.point_mass(ghj, 1))
        assert np.allclose(out.coeffs, ghj.lam[1, 1], atol=1e-15)

    def test_uniform_z2_squared_is_uniform(self, tables):
        z2 = tables["z2"]
        uniform = hk.mixture(z2, (0.5, 0.5))
        out = hk.multiply_mixtures(z2, uniform, uniform)
        assert np.allclose(out.coeffs, (0.5, 0.5), atol=1e-15)

    def test_mismatched_tables_rejected(self, tables):
        p = hk.point_mass(tables["z2"], 0)
        q = hk.point_mass(tables["ghj"], 0)
        with pytest.raises(hk.PreconditionError):
            hk.multiply_mixtures(tables["z2"], p, q)

    def test_factory_clamps_roundoff(self, tables):
        mix = hk.mixture(tables["z2"], (1.0 + 2e-10, -2e-10))
        assert mix.coeffs[1] == 0.0

    def test_factory_rejects_bad_vectors(self, tables):
        with pytest.raises(hk.PreconditionError):
            hk.mixture(tables["z2"], (0.8, 0.1))
        with pytest.raises(hk.PreconditionError):
            hk.mixture(tables["z2"], (1.5, -0.5))

    def test_associativity_fuzz(self, tables):
        rng = np.random.default_rng(7)
        for table in tables.values():
            for _ in range(100):
                raw = rng.random((3, table.n))
                p, q, r = (
                    hk.Mixture(table, row / row.sum()) for row in raw
                )
                left = hk.multiply_mixtures(table, hk.multiply_mixtures(table, p, q), r)
                right = hk.multiply_mixtures(table, p, hk.multiply_mixtures(table, q, r))
                assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-7


class TestWeightsAndHaar:
    def test_group_weights_are_one(self, tables):
        assert np.allclose(hk.weights(tables["z2"]), (1, 1), atol=1e-12)
        assert np.allclose(hk.weights(tables["s3-group"]), np.ones(6), atol=1e-12)

    def test_ghj_weight(self, tables):
        assert np.allclose(hk.weights(tables["ghj"]), (1, 2 + SQRT3), atol=1e-12)

    def test_ising_sigma_weight_is_two(self, tables):
        ising = tables["ising-rescaled"]
        mu = hk.weights(ising)
        assert abs(mu[ising.index_of("sigma")] - 2.0) < 1e-9

    def test_unit_weight_is_one(self, tables):
        for table in tables.values():
            assert abs(hk.weights(table)[table.unit] - 1.0) < 1e-9

    def test_weights_error_on_vanishing_unit_mass(self, tables):
        broken = break_entry(tables["ghj"], 1, 1, 0, 0.0)
        with pytest.raises(hk.AxiomError):
            hk.weights(broken)

    def test_haar_ghj(self, tables):
        h = hk.haar(tables["ghj"])
        expected = np.array([1.0, 2.0 + SQRT3]) / (3.0 + SQRT3)
        assert np.allclose(h.coeffs, expected, atol=1e-12)

    def test_haar_conj_s3_class_sizes(self, tables):
        h = hk.haar(tables["conj-s3"])
        assert np.allclose(h.coeffs, np.array([1, 3, 2]) / 6, atol=1e-9)

    def test_haar_absorbing_and_idempotent(self, tables):
        for table in tables.values():
            h = hk.haar(table)
            for i in range(table.n):
                delta = hk.point_mass(table, i)
                left = hk.multiply_mixtures(table, h, delta)
                right = hk.multiply_mixtures(table, delta, h)
                assert np.max(np.abs(left.coeffs - h.coeffs)) < 1e-9
                assert np.max(np.abs(right.coeffs - h.coeffs)) < 1e-9
            square = hk.multiply_mixtures(table, h, h)
            assert np.max(np.abs(square.coeffs - h.coeffs)) < 1e-9

    def test_haar_self_conjugate(self, tables):
        for table in tables.values():
            h = hk.haar(table).coeffs
            assert np.max(np.abs(h - h[list(table.involution)])) < 1e-9


class TestCommutativityAndShape:
    def test_is_commutative(self, tables):
        assert hk.is_commutative(tables["z3"])
        assert hk.is_commutative(tables["ghj"])
        assert not hk.is_commutative(tables["s3-group"])

    def test_group_rows_are_point_masses(self, tables):
        for name in ("z2", "z3", "s3-group"):
            lam = tables[name].lam
            assert np.all((lam == 0.0) | (lam == 1.0))


class TestIsomorphism:
    def test_relabeled_table_is_isomorphic(self, tables):
        fib = tables["fibonacci-rescaled"]
        assert hk.table_isomorphism(fib, hk.with_labels(fib, ("x", "y"))) == (0, 1)

    def test_different_parameters_not_isomorphic(self, tables):
        assert hk.table_isomorphism(tables["z2"], tables["ghj"]) is None

    def test_permuted_basis_recovered(self, tables):
        ising = tables["ising-rescaled"]
        perm = (1, 2, 0)  # image of each element under the relabeling
        inverse = np.argsort(perm)
        lam = ising.lam[np.ix_(inverse, inverse, inverse)]
        unit = perm[ising.unit]
        involution = tuple(
            perm[ising.involution[inverse[i]]] for i in range(3)
        )
        shuffled = hk.HypergroupTable(("a", "b", "c"), unit, involution, lam)
        assert hk.validate(shuffled).passed
        pi = hk.table_isomorphism(shuffled, ising)
        assert pi is not None
        assert hk.table_isomorphism(ising, shuffled) is not None

    def test_agrees_with_permutation_reference(self, tables, groups):
        rng = np.random.default_rng(6)
        pool = list(tables.values())
        pool += [hk.group_hypergroup(groups[f"z{n}"]) for n in range(2, 8)]
        pool += [hk.group_hypergroup(groups["s3"])]
        pool += [hk.group_hypergroup(oracles.direct_product(groups["z2"], groups["z2"]))]
        pool += [su2_table(k) for k in range(1, 7)]
        # z5 with unit mass on a second pairing too, under either pairing as involution
        z5 = hk.group_hypergroup(groups["z5"])
        lam = np.array(z5.lam)
        lam[[1, 2, 3, 4], [2, 1, 4, 3], 0] = 1.0
        pool += [hk.HypergroupTable(z5.labels, 0, inv, lam) for inv in (z5.involution, (0, 2, 1, 4, 3))]
        pairs = [(a, b) for a in pool for b in pool if a.n == b.n and a is not b]
        for table in pool:
            assert hk.table_isomorphism(table, table) == tuple(range(table.n))
            perm = rng.permutation(table.n)
            shuffled = oracles.relabel(table, perm)
            pairs.append((table, shuffled))
            for delta in (1e-8, 1e-3, 0.1):
                i, j, l = rng.integers(table.n, size=3)
                pairs.append((table, break_entry(shuffled, i, j, l, shuffled.lam[i, j, l] + delta)))
            # a bridging entry of 0.75e-6 puts 0 and 1.5e-6 in one value class
            zeros = np.argwhere(table.lam == 0.0)
            if len(zeros) >= 2:
                bridge, moved = zeros[rng.choice(len(zeros), 2, replace=False)]
                bridged = break_entry(table, *bridge, 0.75e-6)
                shifted = break_entry(oracles.relabel(bridged, perm), *perm[moved], 1.5e-6)
                pairs.append((bridged, shifted))
        found = 0
        for t1, t2 in pairs:
            pi = hk.table_isomorphism(t1, t2)
            assert (pi is None) == (oracles.table_isomorphism_reference(t1, t2) is None)
            if pi is not None:
                assert_pulls_back(t1, t2, pi)
                found += 1
        assert 0 < found < len(pairs)

    def test_non_isomorphic_groups_rejected_quickly(self, groups):
        rng = np.random.default_rng(9)
        z25 = hk.CayleyGroup((np.arange(25)[:, None] + np.arange(25)) % 25, 0)
        cases = [
            (groups["z12"], oracles.direct_product(groups["z2"], groups["z6"])),
            (z25, oracles.direct_product(groups["z5"], groups["z5"])),
        ]
        for g1, g2 in cases:
            t1, t2 = (oracles.relabel(hk.group_hypergroup(g), rng.permutation(g.order)) for g in (g1, g2))
            start = time.perf_counter()
            pi = hk.table_isomorphism(t1, t2)
            elapsed = time.perf_counter() - start
            assert pi is None
            assert elapsed < 1.0, f"order {g1.order}: {elapsed:.2f}s"

    @pytest.mark.parametrize(
        "search", [hk.table_isomorphism, hk.character_matched_isomorphism]
    )
    def test_random_relabelings_of_su2_recovered(self, search):
        rng = np.random.default_rng(7)
        for k in range(1, 31):
            table = su2_table(k)
            shuffled = oracles.relabel(table, rng.permutation(table.n))
            pi = search(table, shuffled)
            assert pi is not None, k
            assert_pulls_back(table, shuffled, pi)

    def test_random_relabelings_of_builtins_recovered(self, tables):
        rng = np.random.default_rng(8)
        for name, table in tables.items():
            searches = [hk.table_isomorphism]
            if hk.is_commutative(table):
                searches.append(hk.character_matched_isomorphism)
            for search in searches:
                for _ in range(5):
                    shuffled = oracles.relabel(table, rng.permutation(table.n))
                    pi = search(table, shuffled)
                    assert pi is not None, (name, search.__name__)
                    assert_pulls_back(table, shuffled, pi)


def assert_pulls_back(t1, t2, pi, tol=1e-6):
    """``pi`` maps the unit, the involution and ``lam`` of t1 onto t2 within tol."""
    perm = np.array(pi)
    assert sorted(pi) == list(range(t1.n))
    assert perm[t1.unit] == t2.unit
    assert all(perm[t1.involution[i]] == t2.involution[perm[i]] for i in range(t1.n))
    assert np.max(np.abs(t1.lam - t2.lam[np.ix_(perm, perm, perm)])) <= tol


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
def test_two_element_family_axioms(lam):
    table = hk.two_element(lam)
    assert hk.validate(table).passed
    assert abs(hk.weights(table)[1] - 1.0 / lam) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_two_element_haar_absorbs_random_mixtures(lam, seed):
    table = hk.two_element(lam)
    h = hk.haar(table)
    rng = np.random.default_rng(seed)
    raw = rng.random(2)
    p = hk.Mixture(table, raw / raw.sum())
    out = hk.multiply_mixtures(table, p, h)
    assert np.max(np.abs(out.coeffs - h.coeffs)) < 1e-9


Z2_LAMBDA = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]


@pytest.mark.parametrize(
    "unit, involution",
    [("0", (0, 1)), (True, (0, 1)), (np.True_, (0, 1)), (0.0, (0, 1)),
     (0, (0, 1.9)), (0, (0, True)), (0, ("0", 1))],
    ids=["string-unit", "bool-unit", "numpy-bool-unit", "float-unit",
         "float-involution", "bool-involution", "string-involution"],
)
def test_table_indices_must_be_integers(unit, involution):
    with pytest.raises(hk.StructureError, match="unit index|involution"):
        hk.HypergroupTable(("e", "g"), unit, involution, Z2_LAMBDA)


@pytest.mark.parametrize("build", [hk.mixture, hk.Mixture], ids=["mixture", "Mixture"])
@pytest.mark.parametrize(
    "coeffs",
    [[math.nan, 1.0], [math.inf, 0.0], [[1.0], 0.0], ["x", 1.0], ["0.5", "0.5"], [True, False]],
    ids=["nan", "inf", "ragged", "non-numeric", "numeric-string", "bool"],
)
def test_mixture_coefficients_must_be_finite_numbers(tables, build, coeffs):
    with pytest.raises(hk.StructureError, match="mixture coefficients"):
        build(tables["z2"], coeffs)


@pytest.mark.parametrize(
    "index",
    [True, np.bool_(False), 1.5, np.float64(1.0), np.array(1.5), np.array(True), "1", None],
    ids=["bool", "numpy-bool", "float", "numpy-float", "0d-float-array", "0d-bool-array",
         "string", "none"],
)
def test_element_index_must_be_an_integer(tables, index):
    z3 = tables["z3"]
    with pytest.raises(hk.StructureError, match="element index"):
        hk.point_mass(z3, index)
    with pytest.raises(hk.StructureError, match="element index"):
        hk.multiply(z3, 0, index)
    with pytest.raises(hk.StructureError, match="element index"):
        hk.multiply(z3, index, 0)


def test_element_index_range_and_integer_types(tables):
    z3 = tables["z3"]
    for index in (-1, 3):
        with pytest.raises(IndexError):
            hk.point_mass(z3, index)
    assert hk.point_mass(z3, np.int64(2)).coeffs.tolist() == [0.0, 0.0, 1.0]
    assert hk.multiply(z3, np.int32(1), 1).coeffs.tolist() == [0.0, 0.0, 1.0]
    assert hk.point_mass(z3, np.array(1)).coeffs.tolist() == [0.0, 1.0, 0.0]
