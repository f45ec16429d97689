import math
import tracemalloc

import numpy as np
import pytest

import hyperkit as hk
import oracles

SQRT3 = math.sqrt(3.0)


def with_changes(g, comp=None, star=None):
    """``g`` with some composition tensors or star maps replaced."""
    new_comp = [[list(row) for row in plane] for plane in g.comp]
    for (x, y, z), t in (comp or {}).items():
        new_comp[x][y][z] = t
    new_star = [list(row) for row in g.star]
    for (x, y), s in (star or {}).items():
        new_star[x][y] = s
    return hk.Hypergroupoid(g.objects, g.mor, new_comp, new_star, g.units)


#: depth of each objects x objects grid of a ``Hypergroupoid``
GRIDS = {"mor": 2, "comp": 3, "star": 2, "units": 1}


def as_lists(grid, depth):
    """The top ``depth`` levels of ``grid`` as nested lists, so they can be edited."""
    return [as_lists(v, depth - 1) for v in grid] if depth else grid


def order_two_subgroup(group):
    t = next(
        i for i in range(group.order) if i != group.identity and group.mul[i, i] == group.identity
    )
    return (group.identity, t)


def right_fold(g, states):
    acc = states[-1]
    for state in reversed(states[:-1]):
        acc = hk.compose(g, state, acc)
    return acc


def random_chain(g, length, rng):
    """A composable chain of random states with random endpoint objects."""
    objs = [rng.integers(g.n_objects)]
    for _ in range(length):
        objs.append(rng.integers(g.n_objects))
    states = []
    for to_obj, from_obj in zip(objs[:-1], objs[1:]):
        raw = rng.random(len(g.mor[to_obj][from_obj]))
        states.append(hk.BoundaryState(g, int(to_obj), int(from_obj), raw / raw.sum()))
    return states


class TestValidation:
    def test_builtin_groupoids_pass(self, groupoids):
        for name, g in groupoids.items():
            report = hk.validate_groupoid(g)
            assert report.passed, f"{name}: {report}"

    def test_one_object_ghj_passes(self, tables):
        g = hk.from_hypergroup(tables["ghj"])
        assert hk.validate_groupoid(g).passed

    def test_one_object_ising_passes(self, rings):
        g = hk.from_hypergroup(hk.from_fusion_ring(rings["ising"]))
        assert hk.validate_groupoid(g).passed

    def test_broken_convexity_detected(self, tables):
        base = hk.from_hypergroup(tables["ghj"])
        lam = np.array(base.comp[0][0][0])
        lam[1, 1] = lam[1, 1] * 0.9  # row sums to 0.9
        broken = hk.Hypergroupoid(
            base.objects, base.mor, (((lam,),),), base.star, base.units
        )
        report = hk.validate_groupoid(broken)
        assert not report.passed
        assert any(v.axiom == "convexity" for v in report.violations)

    def test_broken_star_detected(self, tables):
        base = hk.from_hypergroup(tables["z3"])
        broken = hk.Hypergroupoid(
            base.objects, base.mor, base.comp, (((0, 1, 2),),), base.units
        )
        report = hk.validate_groupoid(broken)
        assert any(v.axiom in ("involution", "endo:involution") for v in report.violations)

    def test_endo_defect_reported_once(self, groupoids):
        base = groupoids["two-object"]
        comp = [[list(row) for row in plane] for plane in base.comp]
        raised = np.array(comp[1][1][1])
        raised[1, 1, 1] += 0.25
        comp[1][1][1] = raised
        broken = hk.Hypergroupoid(base.objects, base.mor, comp, base.star, base.units)
        report = hk.validate_groupoid(broken)
        convexity = [v for v in report.violations if v.axiom.endswith("convexity")]
        assert [(v.axiom, v.indices) for v in convexity] == [("convexity", (1, 1, 1, 1, 1))]
        assert not [v for v in report.violations if v.axiom.startswith("endo:")]

    def test_endo_unit_defect_reported_once(self, groups):
        g = hk.double_coset_groupoid(groups["d4"], order_two_subgroup(groups["d4"]))
        u = g.units[1]
        c = 1 if u == 0 else 0
        raised = np.array(g.comp[1][1][1])
        raised[u, u, c] += 0.25
        report = hk.validate_groupoid(with_changes(g, comp={(1, 1, 1): raised}))
        unit = [v.indices for v in report.violations if v.axiom == "unit"]
        assert unit == [(1, 1, u, u, c)]

    def test_endo_star_defect_reported_once(self, groupoids):
        g = groupoids["two-object"]
        star = list(g.star[0][0])
        a, b = [i for i in range(len(star)) if star[i] == i and i != g.units[0]][:2]
        star[a] = b  # star(star(a)) = b
        report = hk.validate_groupoid(with_changes(g, star={(0, 0): star}))
        permutation = [
            (v.axiom, v.indices) for v in report.violations if v.axiom != "involution"
        ]
        assert permutation == [("star-involution", (0, 0, a))]

    def test_weight_symmetry_reported_per_object(self, tables):
        lam = np.array(tables["z3"].lam)
        lam[1, 2] = (0.5, 0.0, 0.5)  # unit coefficient of k1 k2 no longer matches k2 k1
        g = hk.from_hypergroup(hk.HypergroupTable(("e", "a", "b"), 0, (0, 2, 1), lam))
        report = hk.validate_groupoid(g)
        symmetry = [v for v in report.violations if v.axiom == "weight-symmetry"]
        assert [(v.indices, v.magnitude) for v in symmetry] == [((0, 1, 2), 0.5)]

    def test_associativity_matches_einsum_reference(self, groups):
        g = hk.double_coset_groupoid(groups["d4"], order_two_subgroup(groups["d4"]))
        rng = np.random.default_rng(9)
        changes = {}
        for x, y, z in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)):
            t = np.array(g.comp[x][y][z])
            a, b = rng.integers(t.shape[0]), rng.integers(t.shape[1])
            row = rng.random(t.shape[2])
            t[a, b] = row / row.sum()
            changes[x, y, z] = t
        broken = with_changes(g, comp=changes)
        reference = oracles.groupoid_associativity_reference(broken, hk.DEFAULT_TOL)
        found = [
            (v.indices, v.magnitude)
            for v in hk.validate_groupoid(broken).violations
            if v.axiom == "associativity"
        ]
        assert reference
        assert [idx for idx, _ in found] == [idx for idx, _ in reference]
        assert np.allclose([m for _, m in found], [m for _, m in reference], rtol=0, atol=1e-12)

    def test_defect_in_one_object_quadruple(self, tables):
        # two hypergroups side by side with no arrows between them; the
        # second is broken, so only quadruple (1, 1, 1, 1) fails associativity
        first, second = tables["ghj"], tables["conj-s3"]
        lam = np.array(second.lam)
        lam[1, 2] = (1.0, 0.0, 0.0)
        labels = (first.labels, second.labels)
        mor = tuple(tuple(labels[x] if x == y else () for y in range(2)) for x in range(2))
        comp = [
            [
                [np.zeros((len(mor[x][y]), len(mor[y][z]), len(mor[x][z]))) for z in range(2)]
                for y in range(2)
            ]
            for x in range(2)
        ]
        comp[0][0][0], comp[1][1][1] = first.lam, lam
        star = ((first.involution, ()), ((), second.involution))
        broken = hk.Hypergroupoid(("A", "B"), mor, comp, star, (first.unit, second.unit))
        reference = oracles.groupoid_associativity_reference(broken, hk.DEFAULT_TOL)
        found = [
            (v.indices, v.magnitude)
            for v in hk.validate_groupoid(broken).violations
            if v.axiom == "associativity"
        ]
        assert reference
        assert {idx[:4] for idx, _ in reference} == {(1, 1, 1, 1)}
        assert [idx for idx, _ in found] == [idx for idx, _ in reference]
        assert np.allclose([m for _, m in found], [m for _, m in reference], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fault", ["nan-entry", "repeated-label"])
    def test_malformed_groupoid_is_structural(self, groupoids, fault):
        g = groupoids["two-object"]
        mor, comp = g.mor, g.comp
        if fault == "nan-entry":
            t = np.array(comp[1][1][1])
            t[0, 0, 0] = np.nan
            comp = [[list(row) for row in plane] for plane in comp]
            comp[1][1][1] = t
        else:
            mor = ((mor[0][0], ("u0", "u0", "u2")), mor[1])
        with pytest.raises(hk.StructureError):
            hk.Hypergroupoid(g.objects, mor, comp, g.star, g.units)

    @pytest.mark.parametrize("change", ["short", "long"])
    @pytest.mark.parametrize(
        "field, level",
        [(field, level) for field, depth in GRIDS.items() for level in range(depth)],
    )
    def test_every_grid_level_holds_one_entry_per_object(self, groupoids, field, level, change):
        g = groupoids["two-object"]
        parts = {name: getattr(g, name) for name in GRIDS}
        parts[field] = as_lists(parts[field], GRIDS[field])
        node = parts[field]
        for _ in range(level):
            node = node[-1]
        if change == "short":
            node.pop()
        else:
            node.append(node[-1])
        with pytest.raises(hk.StructureError):
            hk.Hypergroupoid(g.objects, **parts)

    def test_ragged_tensor_is_structural(self, groupoids):
        g = groupoids["two-object"]
        comp = as_lists(g.comp, 3)
        comp[1][1][1] = np.array(comp[1][1][1]).tolist()
        comp[1][1][1][0][0].pop()
        with pytest.raises(hk.StructureError):
            hk.Hypergroupoid(g.objects, g.mor, comp, g.star, g.units)

    @pytest.mark.parametrize("field", ["star", "units"])
    @pytest.mark.parametrize("index", ["a", None, 1.5j])
    def test_non_numeric_index_is_structural(self, groupoids, field, index):
        g = groupoids["two-object"]
        star, units = as_lists(g.star, 3), list(g.units)
        if field == "star":
            star[0][1][0] = index
        else:
            units[1] = index
        with pytest.raises(hk.StructureError):
            hk.Hypergroupoid(g.objects, g.mor, g.comp, star, units)

    def test_endo_restrictions_validate(self, groupoids):
        for g in groupoids.values():
            for x in range(g.n_objects):
                assert hk.validate(g.endo_table(x)).passed


class TestCompose:
    def test_unit_law(self, groupoids):
        for g in groupoids.values():
            for x in range(g.n_objects):
                for y in range(g.n_objects):
                    for a in range(len(g.mor[x][y])):
                        state = hk.point_state(g, x, y, a)
                        out = hk.compose(g, hk.unit_state(g, x), state)
                        assert np.allclose(out.coeffs, state.coeffs, atol=1e-12)
                        out = hk.compose(g, state, hk.unit_state(g, y))
                        assert np.allclose(out.coeffs, state.coeffs, atol=1e-12)

    def test_ising_dual_dual(self, groupoids):
        g = groupoids["ising"]
        dual = hk.point_state(g, 0, 0, "dual")
        out = hk.compose(g, dual, dual)
        assert np.allclose(out.coeffs, (0.5, 0.5, 0.0), atol=1e-9)

    def test_ising_dual_fermionic(self, groupoids):
        g = groupoids["ising"]
        dual = hk.point_state(g, 0, 0, "dual")
        ferm = hk.point_state(g, 0, 0, "fermionic")
        out = hk.compose(g, dual, ferm)
        assert np.allclose(out.coeffs, (0.0, 0.0, 1.0), atol=1e-9)

    def test_star_partner_hits_unit(self, groupoids):
        for g in groupoids.values():
            for x in range(g.n_objects):
                for y in range(g.n_objects):
                    for a in range(len(g.mor[x][y])):
                        left = hk.point_state(g, x, y, a)
                        right = hk.point_state(g, y, x, g.star[x][y][a])
                        out = hk.compose(g, left, right)
                        assert out.coeffs[g.units[x]] > 1e-9

    def test_object_mismatch_rejected(self, groupoids):
        g = groupoids["two-object"]
        u = hk.point_state(g, 0, 1, 0)
        with pytest.raises(hk.PreconditionError):
            hk.compose(g, u, u)

    def test_foreign_state_rejected(self, groupoids, tables):
        other = hk.from_hypergroup(tables["z2"])
        state = hk.unit_state(other, 0)
        with pytest.raises(hk.PreconditionError):
            hk.compose(groupoids["ghj"], state, state)

    def test_one_object_compose_matches_mixture_product(self, tables):
        rng = np.random.default_rng(11)
        for name in ("ghj", "conj-s3", "s3-group"):
            table = tables[name]
            g = hk.from_hypergroup(table)
            for _ in range(25):
                raw = rng.random((2, table.n))
                p, q = raw[0] / raw[0].sum(), raw[1] / raw[1].sum()
                via_groupoid = hk.compose(
                    g, hk.BoundaryState(g, 0, 0, p), hk.BoundaryState(g, 0, 0, q)
                )
                via_table = hk.multiply_mixtures(
                    table, hk.Mixture(table, p), hk.Mixture(table, q)
                )
                assert np.array_equal(via_groupoid.coeffs, via_table.coeffs)


class TestChains:
    def test_identity_chain(self, groupoids):
        g = groupoids["ising"]
        out = hk.juxtapose_chain(g, [hk.unit_state(g, 0)] * 4)
        assert np.allclose(out.coeffs, hk.unit_state(g, 0).coeffs, atol=1e-12)

    def test_ising_triple_dual(self, groupoids):
        g = groupoids["ising"]
        dual = hk.point_state(g, 0, 0, "dual")
        out = hk.juxtapose_chain(g, [dual, dual, dual])
        assert np.allclose(out.coeffs, (0.0, 0.0, 1.0), atol=1e-9)

    def test_ghj_pair(self, groupoids):
        g = groupoids["ghj"]
        a1 = hk.point_state(g, 0, 0, "a1")
        out = hk.juxtapose_chain(g, [a1, a1])
        assert np.allclose(out.coeffs, (2 - SQRT3, SQRT3 - 1), atol=1e-9)

    def test_fold_order_independence(self, groupoids):
        rng = np.random.default_rng(23)
        for g in groupoids.values():
            for length in (1, 2, 3, 4):
                states = random_chain(g, length, rng)
                left = hk.juxtapose_chain(g, states)
                right = right_fold(g, states)
                assert left.to_object == right.to_object
                assert left.from_object == right.from_object
                assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-7

    def test_empty_chain_rejected(self, groupoids):
        with pytest.raises(hk.PreconditionError):
            hk.juxtapose_chain(groupoids["ising"], [])

    def test_mismatched_chain_rejected(self, groupoids):
        g = groupoids["two-object"]
        u = hk.point_state(g, 0, 1, 0)
        with pytest.raises(hk.PreconditionError):
            hk.juxtapose_chain(g, [u, u])

    def test_steps_are_the_partial_folds(self, groupoids):
        rng = np.random.default_rng(29)
        for g in groupoids.values():
            states = random_chain(g, 4, rng)
            steps = list(hk.juxtapose_steps(g, iter(states)))
            assert len(steps) == len(states)
            for length, step in enumerate(steps, start=1):
                fold = hk.juxtapose_chain(g, states[:length])
                assert (step.to_object, step.from_object) == (fold.to_object, fold.from_object)
                assert np.array_equal(step.coeffs, fold.coeffs)

    def test_steps_stop_at_the_mismatch(self, groupoids):
        g = groupoids["two-object"]
        u = hk.point_state(g, 0, 1, 0)
        steps = hk.juxtapose_steps(g, [u, u])
        assert next(steps) is u
        with pytest.raises(hk.PreconditionError, match="chain mismatch at step 1"):
            next(steps)


class TestTwoObjectExample:
    def test_shape(self, groupoids):
        g = groupoids["two-object"]
        assert g.objects == ("X0", "X1")
        sizes = [[len(g.mor[x][y]) for y in range(2)] for x in range(2)]
        assert sizes == [[6, 3], [3, 2]]

    def test_endo_spaces(self, groupoids, tables):
        g = groupoids["two-object"]
        assert hk.table_isomorphism(g.endo_table(0), tables["s3-group"]) is not None
        assert hk.table_isomorphism(g.endo_table(1), tables["s3-double-coset"]) is not None

    def test_cross_space_roundtrip_mixes(self, groupoids):
        # X0 -> X1 -> X0 passes through the subgroup average and
        # spreads over the fiber
        g = groupoids["two-object"]
        u = hk.point_state(g, 0, 1, 0)
        v = hk.point_state(g, 1, 0, g.star[0][1][0])
        out = hk.compose(g, u, v)
        assert out.to_object == 0 and out.from_object == 0
        assert out.coeffs[g.units[0]] > 1e-9
        assert np.isclose(out.coeffs.sum(), 1.0, atol=1e-12)
        assert np.count_nonzero(out.coeffs) > 1

    def test_composition_against_pair_count_oracle(self, groups):
        for name in ("s3", "s4", "d4", "q8"):
            group = groups[name]
            for sub in oracles.cyclic_subgroups(group):
                g = hk.double_coset_groupoid(group, sorted(sub))
                want = oracles.double_coset_groupoid_comp_oracle(group, sub)
                for x in range(2):
                    for y in range(2):
                        for z in range(2):
                            assert np.array_equal(g.comp[x][y][z], want[x][y][z]), (name, sub)

    def test_not_a_subgroup_rejected(self, groups):
        with pytest.raises(hk.StructureError):
            hk.double_coset_groupoid(groups["s3"], (0, 3))

    def test_peak_of_build_is_two_grids(self, groups):
        # the constructor copies every comp block, so the blocks are held
        # twice; the build from tuple partitions peaked 20.7 KiB above that
        # on Z2 x S4, and the part-label vectors must add nothing to it
        group = oracles.direct_product(groups["z2"], groups["s4"])
        sub = order_two_subgroup(group)
        hk.double_coset_groupoid(group, sub)
        tracemalloc.start()
        try:
            g = hk.double_coset_groupoid(group, sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = sum(t.nbytes for plane in g.comp for row in plane for t in row)
        assert peak <= 2 * grid + 21 * 2**10


class TestFromHypergroup:
    def test_wraps_basis_and_unit(self, tables):
        g = hk.from_hypergroup(tables["conj-s3"], "gauge")
        assert g.objects == ("gauge",)
        assert g.mor[0][0] == tables["conj-s3"].labels
        assert g.units[0] == tables["conj-s3"].unit
        assert np.array_equal(g.comp[0][0][0], tables["conj-s3"].lam)

    def test_endo_table_round_trips(self, tables):
        g = hk.from_hypergroup(tables["ghj"])
        assert hk.tables_equal(g.endo_table(0), tables["ghj"], tol=0.0)


@pytest.mark.parametrize(
    "star, units",
    [([[(0, "1")]], (0,)), ([[(0.0, 1)]], (0,)), ([[(0, True)]], (0,)), ([[(0, 1)]], (0.5,)),
     ([[(0, 1)]], (True,)), ([[(0, 1)]], ("0",))],
    ids=["string-star", "float-star", "bool-star", "float-unit", "bool-unit", "string-unit"],
)
def test_groupoid_indices_must_be_integers(tables, star, units):
    g = hk.from_hypergroup(tables["z2"])
    with pytest.raises(hk.StructureError, match="star|unit of object"):
        hk.Hypergroupoid(g.objects, g.mor, g.comp, star, units)


@pytest.mark.parametrize(
    "to_object, coeffs",
    [(0, [math.nan, 1.0]), (0, [math.inf, 0.0]), (0, [[1.0], 0.0]), (0, ["x", 1.0]),
     (0, ["1", "0"]), (0, [True, False]), (0.5, [1.0, 0.0]), ("0", [1.0, 0.0])],
    ids=["nan", "inf", "ragged", "non-numeric", "numeric-string", "bool", "float-object",
         "string-object"],
)
def test_boundary_state_fields_are_checked(tables, to_object, coeffs):
    g = hk.from_hypergroup(tables["z2"])
    with pytest.raises(hk.StructureError, match="boundary state"):
        hk.BoundaryState(g, to_object, 0, coeffs)


@pytest.mark.parametrize(
    "to_object, arrow",
    [(0, True), (0, np.bool_(True)), (0, 1.5), (0, np.float64(0.0)), (0, np.array(0.0)),
     (0, None), (True, 0), (0.0, 0)],
    ids=["bool-arrow", "numpy-bool-arrow", "float-arrow", "numpy-float-arrow",
         "0d-float-array-arrow", "none-arrow", "bool-object", "float-object"],
)
def test_point_state_indices_must_be_integers(groupoids, to_object, arrow):
    with pytest.raises(hk.StructureError, match="arrow index|boundary state objects"):
        hk.point_state(groupoids["two-object"], to_object, 0, arrow)


def test_point_state_arrow_range_and_names(groupoids):
    g = groupoids["two-object"]
    n = len(g.mor[0][0])
    for arrow in (-1, n):
        with pytest.raises(IndexError):
            hk.point_state(g, 0, 0, arrow)
    state = hk.point_state(g, 0, 0, np.int64(1))
    assert state.coeffs.tolist() == [float(i == 1) for i in range(n)]
    assert hk.point_state(g, 0, 0, g.mor[0][0][1]).coeffs.tolist() == state.coeffs.tolist()
