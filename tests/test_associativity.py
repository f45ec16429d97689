"""Associativity: the per-slice kernel and the generator certificate.

Every kernel case compares the kernel with the per-slice reference
(``oracles.associativity_kernel_reference``: same lists, order and
magnitudes, bit for bit) and with the n^4 einsum check
(``oracles.associativity_reference``: same lists and order, magnitudes
within 1e-12, since einsum sums in another order).  The matrix products
the certificate computes are recorded to tell how many generators it
tested.  The certificate works on one integer ring, a table or a fusion
ring; a groupoid takes its group's proof or the quadruple pass, and its
report is compared with ``oracles.groupoid_associativity_reference``.
"""

import contextlib
import dataclasses
import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperkit as hk
import oracles
from hyperkit import core
from test_constructions import assert_associativity_matches_reference, su2_ring, unital_tensors
from test_constructions import verlinde_dims
from test_core import assert_matches_reference, associativity_found, su2_table
from test_golden import DIGESTS


def relabel(lam, perm):
    """``lam`` with basis element i renamed perm[i]."""
    out = np.empty_like(lam)
    out[np.ix_(perm, perm, perm)] = lam
    return out


def commutative_base(k, seed):
    """SU(2)_k with its basis shuffled, so the unit is rarely slice 0."""
    return relabel(su2_table(k).lam, np.random.default_rng(seed).permutation(k + 1))


def raise_pair(lam, i, j, l, amount):
    """Raise lam[i, j, l] and lam[j, i, l] alike: the table stays commutative."""
    lam[i, j, l] += amount
    lam[j, i, l] = lam[i, j, l]


@contextlib.contextmanager
def recorded_products():
    """Record the output shape of every ``np.matmul`` call made inside."""
    shapes = []
    matmul = np.matmul

    def recording(x, y, out=None):
        shapes.append(out.shape)
        return matmul(x, y, out=out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core.np, "matmul", recording)
        yield shapes


def kernel_run(lam, tol):
    """Violations of the kernel on (lam, lam, lam, lam)."""
    vios = []
    core._associativity_violations(lam, lam, lam, lam, (), tol, vios)
    return [(v.indices, v.magnitude) for v in vios]


def assert_kernel_matches(lam, tol, einsum=True):
    """Kernel == its per-slice reference (== einsum) == ``validate``; returns the violations."""
    kernel = oracles.associativity_kernel_reference(lam, lam, lam, lam, tol)
    found = kernel_run(lam, tol)
    assert found == kernel
    if einsum:
        assert_matches_reference(found, oracles.associativity_reference(lam, tol))
    table = hk.HypergroupTable(tuple(map(str, range(len(lam)))), 0, range(len(lam)), lam)
    report = hk.validate(table, tol)
    assert [(v.indices, v.magnitude) for v in report.violations if v.axiom == "associativity"] == kernel
    return found


def deviations(lam):
    """|(ab)c - a(bc)|, by einsum."""
    left = np.einsum("abm,mcp->abcp", lam, lam)
    return np.abs(left - np.einsum("bcq,aqp->abcp", lam, lam))


class TestScreenedKernel:
    def test_commutative_table_that_passes_is_screened_only(self):
        for k in (15, 24):
            assert assert_kernel_matches(su2_table(k).lam, hk.DEFAULT_TOL) == []

    def test_small_tables_are_not_screened(self):
        assert assert_kernel_matches(su2_table(14).lam, hk.DEFAULT_TOL) == []

    def test_symmetric_perturbation_fails_and_resumes_at_first_failing_slice(self):
        for seed in range(6):
            lam = commutative_base(17, seed)
            rng = np.random.default_rng(seed)
            raise_pair(lam, *rng.integers(18, size=3), 1e-3)
            assert assert_kernel_matches(lam, hk.DEFAULT_TOL)

    def test_resume_from_the_first_slice(self):
        lam = commutative_base(17, 0)
        n = len(lam)
        j, l = next((j, l) for j in range(1, n) for l in range(1, n) if lam[0, j, l] > 0.1)
        raise_pair(lam, 0, j, l, 1e-4)
        found = assert_kernel_matches(lam, hk.DEFAULT_TOL)
        assert any(idx[0] == 0 for idx, _ in found)

    def test_non_commutative_table_skips_the_screen(self):
        # x * b = alpha_b x and b * x = 0: violations only in the last slice
        base = su2_table(16)
        n = base.n + 1
        lam = np.zeros((n, n, n))
        lam[:-1, :-1, :-1] = base.lam
        lam[-1, :, -1] = np.linspace(0.5, 1.5, n)
        found = assert_kernel_matches(lam, hk.DEFAULT_TOL)
        assert found and {idx[0] for idx, _ in found} == {n - 1}


def certificate(N, unit=0, conj=None):
    """``core._generator_certificate`` on the integer tensor N, with
    conjugation ``conj`` (the identity if None)."""
    return core._generator_certificate(N, unit, tuple(range(len(N))) if conj is None else conj)


def certificate_products(n, generators):
    """The products of ``core._generator_certificate``: two a row block, one
    or (from ``core._CERTIFY_MIN_N`` elements on) two blocks a generator."""
    rows = n if n < core._CERTIFY_MIN_N else -(-n // 2)
    blocks = [m for m in (rows, n - rows) if m]
    return [shape for m in blocks for shape in ((m, n * n), (m, n, n))] * generators


class TestFusionRingScreen:
    def check(self, N):
        """The violations found in building the ring equal both references.

        Returns them and the shapes of the matrix products it made."""
        n = len(N)
        Nf = N.astype(float)
        reference = oracles.associativity_reference(Nf, 0.0)
        assert oracles.associativity_kernel_reference(Nf, Nf, Nf, Nf, 0.0) == reference
        with recorded_products() as shapes, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a raised pair breaks Frobenius symmetry
            try:
                hk.FusionRing(tuple(f"j{i}" for i in range(n)), 0, range(n), N)
                found = []
            except hk.AxiomError as exc:
                found = [(v.indices, v.magnitude) for v in exc.report.violations]
        assert found == reference
        return found, shapes

    def test_commutative_ring_is_screened_exactly(self):
        N = oracles.su2_fusion_tensor(17)
        # validate_fusion_ring certifies it from the generator j1 alone, without the kernel
        assert self.check(N) == ([], certificate_products(18, 1))
        assert kernel_run(N.astype(float), 0.5) == []

    def test_commutative_non_associative_rings(self):
        for i, j, l in ((1, 2, 3), (5, 5, 6), (16, 3, 17), (2, 9, 11)):
            N = oracles.su2_fusion_tensor(17).copy()
            raise_pair(N, i, j, l, 1)
            found, shapes = self.check(N)
            # the generator j1 fails its middle law, and the kernel runs
            head = certificate_products(18, 1)
            assert shapes[: len(head)] == head
            assert found and len(shapes) > len(head)

    def test_non_commutative_ring_takes_no_exact_screen(self, groups):
        group = groups["s4"]
        n = group.order
        N = np.zeros((n, n, n))
        N[np.arange(n)[:, None], np.arange(n)[None, :], group.mul] = 1.0
        assert kernel_run(N, 0.5) == oracles.associativity_kernel_reference(N, N, N, N, 0.5) == []


def group_ring(group):
    """The group ring: ``N[a, b, ab] = 1``, conjugation the inverse."""
    n = group.order
    N = np.zeros((n, n, n), dtype=np.int64)
    N[np.arange(n)[:, None], np.arange(n)[None, :], group.mul] = 1
    return N, hk.constructions.inverses(group)


def rescaled_lam(ring):
    """``N[a, b, c] d_c / (d_a d_b)``, rounded as ``from_fusion_ring`` rounds it."""
    dims = hk.pf_dimensions(ring).dims
    return ring.N * dims[None, None, :] / (dims[:, None, None] * dims[None, :, None])


def rescaled_reference(ring, tol=hk.DEFAULT_TOL):
    """``from_fusion_ring`` with the full ``validate``: its table, or its AxiomError's report."""
    table = hk.HypergroupTable(ring.labels, ring.unit, ring.conj, rescaled_lam(ring))
    report = hk.validate(table, max(tol, 1e-9))
    return table if report.passed else report


def rescaled_outcome(rescale, ring):
    """``rescale(ring)``: a table or a report, or the type of the error it raised."""
    try:
        return rescale(ring)
    except hk.AxiomError as exc:
        return exc.report
    except (hk.PreconditionError, hk.NumericalError) as exc:
        return type(exc)


def moved(N, i, j, l, to):
    """N with one multiplicity of l in ``f_i f_j`` (and in ``f_j f_i``) moved to ``to``.

    With ``d_l == d_to`` the dimensions still obey the fusion rules."""
    N = N.copy()
    for a, b in {(i, j), (j, i)}:
        N[a, b, l] -= 1
        N[a, b, to] += 1
    return N


class TestGeneratorCertificate:
    """``validate_fusion_ring`` and ``from_fusion_ring`` certify associativity from generators.

    A ring the certificate cannot prove associative goes to the kernel,
    so every outcome, message and report is the kernel's.
    """

    @pytest.fixture(scope="class")
    def group_rings(self, groups):
        pairs = (("z2", "s4"), ("z2", "d4"), ("z2", "q8"), ("z4", "z4"))
        products = [oracles.direct_product(groups[a], groups[b]) for a, b in pairs]
        rings = [group_ring(g) for g in (*groups.values(), *products)]
        assert all(g.identity == 0 for g in (*groups.values(), *products))
        return rings

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_violations_equal_the_reference(self, group_rings, data):
        if data.draw(st.booleans(), label="su2"):
            k = data.draw(st.integers(min_value=15, max_value=40), label="k")
            N, conj = oracles.su2_fusion_tensor(k).copy(), tuple(range(k + 1))
        else:
            N, conj = data.draw(st.sampled_from(group_rings), label="group ring")
            N = N.copy()
        n = len(N)
        if n > 1 and data.draw(st.booleans(), label="raised"):
            off_unit = st.integers(min_value=1, max_value=n - 1)  # both laws still hold
            i, j, l = (data.draw(off_unit, label=name) for name in "ijl")
            raise_pair(N, i, j, l, 1)
        assert_associativity_matches_reference(N, conj)

    def elementary_abelian_ring(self):
        """The group ring of Z2^5: ``N[a, b, a ^ b] = 1``, every element its own inverse.

        Every element is invertible, and each generator only doubles the
        subgroup certified so far, so the certificate needs five generators
        against its budget of n / 8 = 4 and gives up before a fifth.
        """
        n = 32
        N = np.zeros((n, n, n), dtype=np.int64)
        N[np.arange(n)[:, None], np.arange(n)[None, :], np.arange(n)[:, None] ^ np.arange(n)] = 1
        return N

    def test_ring_without_triangular_steps_falls_back_to_the_kernel(self):
        N = self.elementary_abelian_ring()
        n = len(N)
        with recorded_products() as shapes:
            assert not certificate(N.astype(float))
        assert shapes == certificate_products(n, n // 8)
        with recorded_products() as shapes:
            ring = hk.FusionRing(tuple(f"g{i}" for i in range(n)), 0, range(n), N)
        head = certificate_products(n, 4)
        assert shapes[: len(head)] == head
        assert len(shapes) > len(head)  # the kernel ran
        with recorded_products() as shapes:
            table = hk.from_fusion_ring(ring)
        assert shapes == []
        assert hk.tables_equal(table, rescaled_reference(ring), tol=0.0)
        for i, j, l in ((1, 2, 3), (4, 4, 6), (20, 9, 30)):
            raised = N.copy()
            raise_pair(raised, i, j, l, 1)
            assert_associativity_matches_reference(raised, tuple(range(n)))

    def test_level_order_su2_needs_one_generator(self):
        # the generator is j1, the least element after the unit
        for k in (12, 15, 36, 60):
            labels = tuple(f"j{i}" for i in range(k + 1))
            with recorded_products() as shapes:
                hk.FusionRing(labels, 0, range(k + 1), oracles.su2_fusion_tensor(k))
            assert shapes == certificate_products(k + 1, 1)

    def test_rescaled_ring_skips_the_kernel(self, groups, monkeypatch):
        rings = [su2_ring(k) for k in (15, 40)]
        for group in (groups["s4"], oracles.direct_product(groups["z2"], groups["s4"])):
            # within the certificate's budget of n / 8 generators
            assert len(oracles.greedy_generators(group.mul, 0)) <= group.order // 8
            N, conj = group_ring(group)
            rings.append(hk.FusionRing(tuple(map(str, range(len(N)))), 0, conj, N))
        want = [rescaled_reference(ring) for ring in rings]

        def kernel(*args, **kwargs):
            raise AssertionError("the associativity kernel ran")

        monkeypatch.setattr(core, "_associativity_violations", kernel)
        found = [hk.from_fusion_ring(ring) for ring in rings]
        assert all(hk.tables_equal(t, w, tol=0.0) for t, w in zip(found, want))

    def test_kernel_runs_when_the_margin_reaches_tol(self, monkeypatch):
        ring, calls = su2_ring(20), []
        kernel = core._associativity_violations

        def recording(*args, **kwargs):
            calls.append(args[0].shape)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(core, "_associativity_violations", recording)
        hk.from_fusion_ring(ring)
        assert calls == []
        for module in (core, hk.constructions):  # the rescaled-ring certificate shares it
            monkeypatch.setattr(module, "_rescaling_margin", lambda n, big, delta: 1e-9)
        hk.from_fusion_ring(ring)
        assert calls == [(21, 21, 21)]

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.one_of(
            unital_tensors(),
            st.integers(1, 40).map(lambda k: (oracles.su2_fusion_tensor(k), tuple(range(k + 1)))),
        )
    )
    def test_rescaling_trusts_the_ring(self, data):
        """``from_fusion_ring`` runs neither the kernel nor the certificate, at any size."""
        N, conj = data
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # Frobenius asymmetry is only a warning
            try:
                ring = hk.FusionRing(tuple(f"f{i}" for i in range(len(N))), 0, conj, N)
            except hk.AxiomError:
                assume(False)  # not associative
        want = rescaled_outcome(rescaled_reference, ring)

        def check_again(*args, **kwargs):
            raise AssertionError("the ring was checked again")

        with pytest.MonkeyPatch.context() as mp:
            for module in (core, hk.constructions):
                mp.setattr(module, "_associativity_violations", check_again)
                mp.setattr(module, "_generator_certificate", check_again)
            found = rescaled_outcome(hk.from_fusion_ring, ring)
        if isinstance(want, hk.HypergroupTable):
            assert hk.tables_equal(found, want, tol=0.0)
        else:
            assert found == want

    def test_non_associative_ring_is_refused_when_built(self, groups):
        # SU(2)_17: d_1 == d_16; Z2 x D4: every dimension is 1
        z2_d4 = oracles.direct_product(groups["z2"], groups["d4"])
        ab = int(z2_d4.mul[3, 5])
        assert ab not in (0, 7)  # the unit and conjugation laws still hold
        N, inverses = group_ring(z2_d4)
        cases = [
            (moved(oracles.su2_fusion_tensor(17), 2, 3, 1, 16), tuple(range(18))),
            (moved(N, 3, 5, ab, 7), inverses),
        ]
        for N, conj in cases:
            labels = tuple(f"f{i}" for i in range(len(N)))
            with pytest.raises(hk.AxiomError), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # moving a multiplicity breaks Frobenius symmetry
                hk.FusionRing(labels, 0, conj, N)


@contextlib.contextmanager
def generators_tested():
    """The generators g the certificate tests inside, with a kernel that
    fails the test if it runs."""
    tested = []
    middle_law = core._middle_law

    def recording(N, g, work):
        tested.append(g)
        return middle_law(N, g, work)

    def kernel(*args):
        raise AssertionError("the associativity kernel ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_middle_law", recording)
        for module in (core, hk.constructions):
            mp.setattr(module, "_associativity_violations", kernel)
        yield tested


class TestGeneratorChoice:
    """The certificate proves rings and tables in any basis order: its first
    generator is the arrow g whose ``g g*`` holds the fewest arrows but more
    than the unit, and later ones are invertible arrows first."""

    @pytest.mark.parametrize("k", [15, 20, 31, 40, 60, 100])
    def test_shuffled_su2_needs_at_most_two_generators(self, k):
        # j1 or j(k-1) comes first; j(k-1) leaves the invertible j(k) for a second
        N, table = oracles.su2_fusion_tensor(k), hk.from_fusion_ring(su2_ring(k))
        labels = tuple(f"j{i}" for i in range(k + 1))
        for seed in range(20):
            perm = np.random.default_rng(seed).permutation(k + 1)
            with generators_tested() as by_ring:
                hk.FusionRing(labels, int(perm[0]), range(k + 1), relabel(N, perm))
            with generators_tested() as by_table:
                assert hk.validate(oracles.relabel(table, perm)).passed
            assert 1 <= len(by_ring) <= 2 and 1 <= len(by_table) <= 2, seed
            first = {int(perm[1]), int(perm[k - 1])}
            assert by_ring[0] in first and by_table[0] in first

    def test_s5_double_cosets_in_level_order_and_shuffled(self):
        s5 = hk.registry.symmetric_group(5)
        table = hk.double_coset_hypergroup(s5, [s5.identity, 1])
        assert table.n == 33
        with generators_tested() as tested:
            assert hk.validate(table).passed
        assert len(tested) == 3
        for seed in range(20):
            shuffled = oracles.relabel(table, np.random.default_rng(seed).permutation(table.n))
            with generators_tested():
                assert hk.validate(shuffled).passed


class TestGroupoidScreen:
    def test_only_violations_in_a_screened_endo_quadruple(self, tables):
        first = hk.HypergroupTable(
            tuple(map(str, range(18))), 0, range(18), np.array(su2_table(17).lam)
        )
        lam = np.array(first.lam)
        raise_pair(lam, 2, 3, 4, 1e-3)
        second = tables["ghj"]
        labels = (first.labels, second.labels)
        mor = tuple(tuple(labels[x] if x == y else () for y in range(2)) for x in range(2))
        comp = [
            [
                [np.zeros((len(mor[x][y]), len(mor[y][z]), len(mor[x][z]))) for z in range(2)]
                for y in range(2)
            ]
            for x in range(2)
        ]
        comp[0][0][0], comp[1][1][1] = lam, second.lam
        star = ((first.involution, ()), ((), second.involution))
        g = hk.Hypergroupoid(("A", "B"), mor, comp, star, (first.unit, second.unit))
        reference = oracles.groupoid_associativity_reference(g, hk.DEFAULT_TOL)
        endo = g.comp[0][0][0]
        kernel = oracles.associativity_kernel_reference(endo, endo, endo, endo, hk.DEFAULT_TOL)
        found = [
            (v.indices, v.magnitude)
            for v in hk.validate_groupoid(g).violations
            if v.axiom == "associativity"
        ]
        assert reference and {idx[:4] for idx, _ in reference} == {(0, 0, 0, 0)}
        assert found == [((0, 0, 0, 0, *idx), m) for idx, m in kernel]
        assert_matches_reference(found, reference)


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=15, max_value=18),
    seed=st.integers(min_value=0, max_value=2**16),
    kind=st.sampled_from(["associative", "symmetric", "asymmetric", "random"]),
    size=st.floats(min_value=-14.0, max_value=-2.0),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_commutative_tables_match_the_unscreened_kernel(k, seed, kind, size, tol):
    """The kernel on shuffled SU(2)_k, raised or not, and on random commutative tables."""
    rng = np.random.default_rng(seed)
    n = k + 1
    lam = commutative_base(k, seed)
    if kind == "symmetric":
        for i, j, l in rng.integers(n, size=(3, 3)):
            raise_pair(lam, i, j, l, 10.0**size)
    elif kind == "asymmetric":
        i, j, l = rng.integers(n, size=3)
        lam[i, j, l] += 10.0**size
    elif kind == "random":
        lam = rng.random((n, n, n))
        lam = (lam + lam.transpose(1, 0, 2)) / 2
        lam /= lam.sum(axis=2, keepdims=True)
    # einsum rounds differently from the kernel, so a deviation within
    # round-off of tol (10**size == tol times a unit coefficient, say) may
    # fall on either side of it; only draws clear of that band compare
    clear = np.all(np.abs(deviations(lam) - tol) > 1e-14)
    assert_kernel_matches(lam, tol, einsum=clear)


def group_table(group, seed):
    """The group as a hypergroup, relabeled: point masses, star = inverse."""
    table = hk.group_hypergroup(group)
    return oracles.relabel(table, np.random.default_rng(seed).permutation(table.n))


def star_pair(table, seed, amount):
    """``table.lam`` with ``lam[a, b, c]`` and ``lam[b*, a*, c*]`` raised alike.

    The star law still holds exactly.
    """
    n, inv = table.n, table.involution
    rng = np.random.default_rng(seed)
    a, b = next(
        (a, b) for a, b in rng.integers(n, size=(50, 2))
        if (a, b) != (inv[b], inv[a]) and table.unit not in (a, b)
    )
    c = int(np.argmax(table.lam[a, b]))
    lam = np.array(table.lam)
    lam[a, b, c] += amount
    lam[inv[b], inv[a], inv[c]] += amount
    return lam


def obeys_star_law(lam, star):
    """Whether ``lam[a, b, c] == lam[b*, a*, c*]`` exactly."""
    return np.array_equal(lam, lam[np.ix_(star, star, star)].transpose(1, 0, 2))


class TestStarScreen:
    """Non-commutative tables: the kernel against its reference and ``validate``."""

    @pytest.fixture(scope="class")
    def group_tables(self, groups):
        z2_s4 = oracles.direct_product(groups["z2"], groups["s4"])
        return [group_table(group, seed) for group in (groups["s4"], z2_s4) for seed in (1, 2)]

    def check(self, table, lam, tol=hk.DEFAULT_TOL):
        """Kernel == its per-slice reference == ``validate``; returns the violations."""
        reference = oracles.associativity_kernel_reference(lam, lam, lam, lam, tol)
        found = kernel_run(lam, tol)
        assert found == reference
        broken = hk.HypergroupTable(table.labels, table.unit, table.involution, lam)
        report = hk.validate(broken, tol)
        assert associativity_found(report) == reference
        return found

    def test_group_tables_are_screened_only(self, group_tables):
        for table in group_tables:
            assert not hk.is_commutative(table)
            assert table.involution != tuple(range(table.n))
            lam = np.array(table.lam)
            assert obeys_star_law(lam, table.involution)
            assert self.check(table, lam) == []

    def test_one_raised_entry(self, group_tables):
        for seed, table in enumerate(group_tables):
            n = table.n
            rng = np.random.default_rng(seed)
            a, b = rng.integers(n, size=2)
            c = int(np.argmax(table.lam[a, b]))
            for amount, tol in ((1e-3, hk.DEFAULT_TOL), (1e-12, hk.DEFAULT_TOL), (1e-12, 1e-13)):
                lam = np.array(table.lam)
                lam[a, b, c] += amount  # breaks the star law by amount
                found = self.check(table, lam, tol)
                assert bool(found) == (amount > tol)

    def test_star_symmetric_raised_pair(self, group_tables):
        for seed, table in enumerate(group_tables):
            lam = star_pair(table, seed, 1e-4)
            assert obeys_star_law(lam, table.involution)
            assert self.check(table, lam)

    def test_non_involutive_star_skips_the_screen(self, group_tables):
        # x* = g x^-1 g^-1 for g of order 3 obeys the star law, but x** = g^2 x g^-2
        table = group_tables[0]
        n, inv, lam = table.n, table.involution, np.array(table.lam)
        mul = np.argmax(lam, axis=2)
        g = next(g for g in range(n) if g != table.unit and mul[g, mul[g, g]] == table.unit)
        star = [int(mul[mul[g, inv[x]], inv[g]]) for x in range(n)]
        assert obeys_star_law(lam, star)
        assert any(star[star[x]] != x for x in range(n))
        assert kernel_run(lam, hk.DEFAULT_TOL) == []
        report = hk.validate(hk.HypergroupTable(table.labels, table.unit, star, lam))
        assert [v.indices for v in report.violations if v.axiom == "involution-permutation"] == [
            (x,) for x in range(n) if star[star[x]] != x
        ]
        assert not [v for v in report.violations if v.axiom == "associativity"]

    def test_non_commutative_ring_screens_exactly(self, groups):
        group = oracles.direct_product(groups["z2"], groups["s4"])
        n = group.order
        inv = hk.group_hypergroup(group).involution
        N = np.zeros((n, n, n), dtype=np.int64)
        N[np.arange(n)[:, None], np.arange(n)[None, :], group.mul] = 1
        ring = hk.FusionRing(tuple(f"g{i}" for i in range(n)), group.identity, inv, N)
        with recorded_products() as shapes:
            hk.validate_fusion_ring(ring)
        # certified from its greedy generators, without the kernel
        generators = oracles.greedy_generators(group.mul, group.identity)
        assert shapes == certificate_products(n, len(generators))
        Nf = N.astype(float)
        assert kernel_run(Nf, 0.5) == oracles.associativity_kernel_reference(Nf, Nf, Nf, Nf, 0.5) == []


def proof_groupoid(group):
    """``double_coset_groupoid`` over the first subgroup of order 2, as built."""
    subgroup = next(s for s in oracles.cyclic_subgroups(group) if len(s) == 2)
    return hk.double_coset_groupoid(group, subgroup)


def rebuilt(g):
    """``g`` through the public constructor, which keeps no record of a group."""
    return hk.Hypergroupoid(g.objects, g.mor, g.comp, g.star, g.units)


def coset_groupoid(group, seed=None):
    """``proof_groupoid``, the group relabeled by a seeded permutation unless
    ``seed`` is None, rebuilt through the public constructor: without the
    group's record, ``validate_groupoid`` takes the quadruple pass."""
    from test_constructions import relabel_group

    if seed is not None:
        group = relabel_group(group, np.random.default_rng(seed).permutation(group.order))
    return rebuilt(proof_groupoid(group))


def groupoid_run(g, tol=hk.DEFAULT_TOL):
    """``validate_groupoid``'s associativity violations, the quadruples its
    kernel checked and the results of its certificate calls.

    The violations must equal the einsum reference and the unskipped
    per-quadruple kernel, in order."""
    checked, certified = [], []
    kernel, certificate = hk.groupoid._associativity_violations, core._generator_certificate

    def checking(ab, mc, bc, aq, prefix, *args, **kwargs):
        checked.append(prefix)
        return kernel(ab, mc, bc, aq, prefix, *args, **kwargs)

    def certifying(*args):
        certified.append(certificate(*args))
        return certified[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hk.groupoid, "_associativity_violations", checking)
        mp.setattr(core, "_generator_certificate", certifying)
        report = hk.validate_groupoid(g, tol)
    found = [(v.indices, v.magnitude) for v in report.violations if v.axiom == "associativity"]
    assert_matches_reference(found, oracles.groupoid_associativity_reference(g, tol))
    c = g.comp
    kernel_found = [
        ((x, y, z, w, *idx), m)
        for x, y, z, w in itertools.product(range(g.n_objects), repeat=4)
        for idx, m in oracles.associativity_kernel_reference(
            c[x][y][z], c[x][z][w], c[y][z][w], c[x][y][w], tol
        )
    ]
    assert found == kernel_found
    return found, checked, certified


def perturbed_groupoid(g, changes):
    """``g`` with ``comp[x][y][z][idx]`` raised by ``amount`` for each
    ``((x, y, z, idx), amount)`` in ``changes``."""
    comp = [[[np.array(t) for t in row] for row in grid] for grid in g.comp]
    for (x, y, z, idx), amount in changes:
        comp[x][y][z][idx] += amount
    return hk.Hypergroupoid(g.objects, g.mor, comp, g.star, g.units)


class TestMirroredQuadruples:
    """Defects of a quadruple and of its mirror ``(w, z, y, x)``, each reported in its turn."""

    @pytest.fixture(scope="class")
    def base(self, groups):
        return coset_groupoid(groups["s4"], 7)

    @pytest.fixture(scope="class")
    def bases(self, base, groups):
        """The S4 groupoid (24, 12 and 8 arrows) and Z2 x D4's (16, 8 and 6)."""
        return [base, coset_groupoid(oracles.direct_product(groups["z2"], groups["d4"]))]

    def run(self, g, tol=hk.DEFAULT_TOL):
        """Associativity violations of ``validate_groupoid`` and the quadruples it checked."""
        found, checked, _ = groupoid_run(g, tol)
        return found, checked

    def perturbed(self, g, changes):
        return perturbed_groupoid(g, changes)

    def star_image(self, g, x, y, z, a, b, c):
        """Where the star law sends comp[x][y][z][a, b, c]: comp[z][y][x][b*, a*, c*]."""
        s = g.star
        return z, y, x, (s[y][z][b], s[x][y][a], s[x][z][c])

    def star_pair(self, g, a, b, c, amount):
        """Raise comp[0][0][1][a, b, c] and its star image comp[1][0][0][b*, a*, c*] alike."""
        return [((0, 0, 1, (a, b, c)), amount), (self.star_image(g, 0, 0, 1, a, b, c), amount)]

    def deviation(self, g, q):
        x, y, z, w = q
        c = g.comp
        left = np.einsum("abm,mcp->abcp", c[x][y][z], c[x][z][w])
        return np.abs(left - np.einsum("bcq,aqp->abcp", c[y][z][w], c[x][y][w]))

    def test_one_path_reports_the_reference(self, bases, groups):
        # no certificate call, and exactly the einsum reference's report
        z2_s4 = coset_groupoid(oracles.direct_product(groups["z2"], groups["s4"]))
        for g in (*bases, z2_s4):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "_generator_certificate", lambda *args: pytest.fail("certified"))
                report = hk.validate_groupoid(g)
            found = associativity_found(report)
            assert found == oracles.groupoid_associativity_reference(g, hk.DEFAULT_TOL)

    def test_violations_in_one_member_only(self, base):
        # comp[0][0][1] raised alone deviates (0, 0, 0, 1) by twice the amount,
        # and comp[1][0][0] raised alone its mirror (1, 0, 0, 0); every other
        # quadruple by at most the amount.  With tol between them the other
        # member passes, but the star law breaks by the amount, so the margin
        # must keep a passing earlier member from skipping the later one
        for amount in (1e-6, 1e-9):
            for raised, hit in (((0, 0, 1), (0, 0, 0, 1)), ((1, 0, 0), (1, 0, 0, 0))):
                g = self.perturbed(base, [((*raised, (0, 0, 0)), amount)])
                found, checked = self.run(g, 1.5 * amount)
                assert {idx[:4] for idx, _ in found} == {hit}
                assert checked.index((0, 0, 0, 1)) < checked.index((1, 0, 0, 0))

    def test_star_symmetric_pair_in_both_members(self, base):
        g = self.perturbed(base, self.star_pair(base, 5, 2, 1, 1e-4))
        found, checked = self.run(g)
        hit = {idx[:4] for idx, _ in found}
        assert (0, 0, 0, 1) in hit and (1, 0, 0, 0) in hit
        assert all(q in checked for q in hit)

    def test_first_member_inside_the_margin_runs_the_mirror(self, base):
        # a star-symmetric pair makes both members deviate by 1e-6; 1e-9 more
        # in comp[1][0][0] (star law off by 1e-9) deepens only (1, 0, 0, 0).
        # With tol between the two, the earlier member (0, 0, 0, 1) passes but
        # lies within the margin of tol, so its mirror must still run
        deeper = self.star_image(base, 0, 0, 1, 0, 1, 8)
        g = self.perturbed(base, [*self.star_pair(base, 5, 2, 1, 1e-6), (deeper, 1e-9)])
        first, second = self.deviation(g, (0, 0, 0, 1)).max(), self.deviation(g, (1, 0, 0, 0)).max()
        assert second - first > 0.5e-9
        tol = (first + second) / 2
        found, checked = self.run(g, tol)
        assert {idx[:4] for idx, _ in found} == {(1, 0, 0, 0)}
        assert checked.index((0, 0, 0, 1)) < checked.index((1, 0, 0, 0))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_raised_entries_match_the_references(self, bases, data):
        g = data.draw(st.sampled_from(bases), label="groupoid")
        x, y, z = data.draw(st.tuples(*[st.integers(0, 1)] * 3), label="tensor")
        shape = g.comp[x][y][z].shape
        idx = data.draw(st.tuples(*(st.integers(0, n - 1) for n in shape)), label="entry")
        amount = 10.0 ** data.draw(st.floats(-12.0, -3.0), label="log10 amount")
        changes = [((x, y, z, idx), amount)]
        if data.draw(st.booleans(), label="star-symmetric"):
            changes.append((self.star_image(g, x, y, z, *idx), amount))
        g = self.perturbed(g, changes)
        deviations = [self.deviation(g, q) for q in itertools.product(range(2), repeat=4)]
        levels = sorted({float(d.max()) for d in deviations if d.max() > 1e-13})
        level = data.draw(st.sampled_from(levels or [hk.DEFAULT_TOL]), label="level")
        log2_factor = st.one_of(st.floats(-1.9, -0.05), st.floats(0.05, 1.9))
        tol = level * 2.0 ** data.draw(log2_factor, label="log2 factor")
        # einsum rounds differently from the kernel: keep tol clear of every deviation
        assume(all(np.all(np.abs(d - tol) > 1e-14) for d in deviations))
        self.run(g, tol)


class TestGroupoidCertificate:
    """``validate_groupoid`` has no certificate: a groupoid without its
    group's record, parsed or rebuilt, takes the quadruple pass, in order.

    So every report is the quadruple pass's own.
    """

    @pytest.fixture(scope="class")
    def groupoids(self, groups):
        """Double-coset groupoids: S4 (24, 12 and 8 arrows), Z2 x S4 (48, 24
        and 14) and Z2 x D4 (16, 8 and 6)."""
        z2 = groups["z2"]
        return {
            "s4": coset_groupoid(groups["s4"], 7),
            "z2 x s4": coset_groupoid(oracles.direct_product(z2, groups["s4"])),
            "z2 x d4": coset_groupoid(oracles.direct_product(z2, groups["d4"])),
        }

    def test_rebuilt_groupoids_take_the_kernel(self, groupoids):
        quadruples = list(itertools.product(range(2), repeat=4))
        for name in ("s4", "z2 x s4"):
            assert groupoid_run(groupoids[name]) == ([], quadruples, []), name

    def test_budget_below_two_generators_a_hom_space_skips_recognition(self, groupoids):
        g = groupoids["z2 x d4"]
        found, checked, certified = groupoid_run(g)
        assert (found, certified) == ([], [])
        assert checked
        # on one object the certificate's budget of n / 8 generators covers
        # two from validate's cut-off of 16 elements on
        for n in range(2, 40):
            assert (n // 8 >= 2) == (n >= core._CERTIFY_MIN_N)

    def test_non_associative_rescaled_grid(self, groupoids):
        # in the group Mor(X0 -> X0) of S4 the point mass a b moves to another
        # element c: rows stay point masses, N stays nonnegative and unital
        # and the grid stays its own rescaling, but the group law breaks
        g = groupoids["s4"]
        comp = [[[np.array(t) for t in row] for row in grid] for grid in g.comp]
        t, unit, star = comp[0][0][0], g.units[0], g.star[0][0]
        a, b = next(
            (a, b) for a, b in itertools.product(range(len(t)), repeat=2)
            if unit not in (a, b) and b != star[a]
        )
        ab = int(np.argmax(t[a, b]))
        c = next(c for c in range(len(t)) if c not in (ab, unit))
        t[a, b, ab], t[a, b, c] = 0.0, 1.0
        broken = hk.Hypergroupoid(g.objects, g.mor, comp, g.star, g.units)
        found, checked, certified = groupoid_run(broken)
        assert found and checked
        assert certified == []

    def test_margin_not_the_distance_decides(self, groupoids):
        # one entry raised by 5e-10 puts the grid 5e-10 from its rescaling,
        # within tol, but the margin 2 n (2 M delta + delta^2) is about 5e-8:
        # the quadruple pass runs, and the certificate does not
        g = groupoids["s4"]
        n = max(len(arrows) for row in g.mor for arrows in row)
        assert core._rescaling_margin(n, 1.0, 5e-10) > 10 * hk.DEFAULT_TOL
        raised = perturbed_groupoid(g, [((0, 0, 1, (0, 0, 0)), 5e-10)])
        found, checked, certified = groupoid_run(raised)
        assert checked and certified == []

    def test_empty_hom_spaces(self):
        # SU(2)_17 and SU(2)_3 as two objects with no arrows between them
        tables = [su2_table(17), su2_table(3)]
        labels = tuple(t.labels for t in tables)
        mor = tuple(tuple(labels[x] if x == y else () for y in range(2)) for x in range(2))

        def groupoid(first):
            comp = [
                [
                    [np.zeros((len(mor[x][y]), len(mor[y][z]), len(mor[x][z]))) for z in range(2)]
                    for y in range(2)
                ]
                for x in range(2)
            ]
            comp[0][0][0], comp[1][1][1] = first, tables[1].lam
            star = ((tables[0].involution, ()), ((), tables[1].involution))
            return hk.Hypergroupoid(("A", "B"), mor, comp, star, (0, 0))

        quadruples = list(itertools.product(range(2), repeat=4))
        assert groupoid_run(groupoid(tables[0].lam)) == ([], quadruples, [])
        lam = np.array(tables[0].lam)
        raise_pair(lam, 2, 3, 4, 1e-3)
        found, checked, certified = groupoid_run(groupoid(lam))
        assert found and checked and certified == []


class TestGroupProof:
    """A groupoid built by ``double_coset_groupoid`` carries its group's
    associativity: ``validate_groupoid`` runs neither the certificate nor
    the quadruple pass on it, and reports as its rebuild does.

    A copy, a parsed document, a block opened for writing or a tol at or
    below the round-off margin takes the rebuild's path.
    """

    @pytest.fixture(scope="class")
    def built(self, groups):
        """The groupoids of S3, S4, Dic3, D8, S3 x S3, Dic10 and Z2 x S4 over
        every cyclic subgroup."""
        s3, s4 = groups["s3"], groups["s4"]
        family = [
            s3, s4, oracles.dicyclic_group(3), oracles.dihedral_group(8),
            oracles.direct_product(s3, s3), oracles.dicyclic_group(10),
            oracles.direct_product(groups["z2"], s4),
        ]
        return [
            hk.double_coset_groupoid(group, sorted(sub))
            for group in family
            for sub in oracles.cyclic_subgroups(group)
        ]

    def recorded(self, g, tol=hk.DEFAULT_TOL):
        """``validate_groupoid``'s report and the names of the certificate and
        kernel calls it made."""
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for module, name in (
                (core, "_generator_certificate"), (hk.groupoid, "_associativity_violations")
            ):
                def recording(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)

                mp.setattr(module, name, recording)
            report = hk.validate_groupoid(g, tol)
        return report, calls

    def fails_closed(self, g, tol=hk.DEFAULT_TOL):
        """``g``'s report, which must come from the certificate or the
        quadruple pass and equal its rebuild's and the einsum reference
        (``groupoid_run``)."""
        _, checked, certified = groupoid_run(g, tol)
        assert checked or certified
        report = hk.validate_groupoid(g, tol)
        assert report == hk.validate_groupoid(rebuilt(g), tol)
        return report

    def test_built_groupoids_take_no_certificate_or_kernel(self, built):
        assert len(built) > 50
        for g in built:
            report, calls = self.recorded(g)
            assert calls == []
            assert report.passed and report == hk.validate_groupoid(rebuilt(g))

    def test_tol_below_the_margin(self, groups):
        g = proof_groupoid(groups["s4"])
        n = max(len(arrows) for row in g.mor for arrows in row)
        assert core._rescaling_margin(n, 1.0, core._RHO * 1.0) > 1e-18
        self.fails_closed(g, 1e-18)

    def test_raised_entry_in_a_replaced_copy(self, groups):
        g = proof_groupoid(groups["s4"])
        assert not dataclasses.replace(g)._from_group
        comp = [[[np.array(t) for t in row] for row in grid] for grid in g.comp]
        comp[0][0][1][0, 0, 0] += 1e-6
        report = self.fails_closed(dataclasses.replace(g, comp=comp))
        assert associativity_found(report)

    def test_raised_entry_in_a_block_opened_for_writing(self, groups):
        g = proof_groupoid(groups["s4"])
        block = g.comp[0][0][1]
        block.setflags(write=True)
        block[0, 0, 0] += 1e-6
        assert g._from_group
        report = self.fails_closed(g)
        assert associativity_found(report)

    def test_two_object_builtin_carries_the_record(self, groupoids):
        g = groupoids["two-object"]
        text = hk.serialize_groupoid(g)
        assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS["groupoid", "two-object"]
        parsed = hk.parse_groupoid(text)
        assert g._from_group and not parsed._from_group
        report, calls = self.recorded(g)
        assert calls == []
        assert report.passed and report == hk.validate_groupoid(parsed)


def reference_report(table, tol):
    """``validate``'s report from its parts, in its order: the other axioms
    around the kernel reference's associativity violations."""
    lam = table.lam
    others = core._report(table, tol, False).violations
    first = [v for v in others if v.axiom in ("nonnegativity", "convexity", "unit")]
    later = [v for v in others if v.axiom not in ("nonnegativity", "convexity", "unit")]
    found = oracles.associativity_kernel_reference(lam, lam, lam, lam, tol)
    vios = (*first, *(hk.Violation("associativity", idx, m) for idx, m in found), *later)
    return hk.ValidationReport(not vios, vios)


@contextlib.contextmanager
def recorded_calls():
    """The results of the kernel and certificate calls ``core`` makes inside, by name."""
    calls = {"_associativity_violations": [], "_generator_certificate": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, results in calls.items():
            def recording(*args, _fn=getattr(core, name), _results=results, **kwargs):
                _results.append(_fn(*args, **kwargs))
                return _results[-1]

            mp.setattr(core, name, recording)
        yield calls


class TestRescaledRing:
    """``validate`` skips the kernel on a table within its margin of a rescaled associative ring.

    Anything else runs the kernel, so every report is the kernel's.
    """

    @pytest.fixture(scope="class")
    def families(self, groups):
        z2_s4 = oracles.direct_product(groups["z2"], groups["s4"])
        s5 = hk.registry.symmetric_group(5)
        return {
            "groups": [hk.group_hypergroup(g) for g in (groups["s4"], z2_s4)],
            "double cosets": [hk.double_coset_hypergroup(s5, [s5.identity, 1])],
        }

    def check(self, table, tol=hk.DEFAULT_TOL):
        """``validate``'s report, which must equal the reference, and the calls it made."""
        with recorded_calls() as calls:
            report = hk.validate(table, tol)
        assert report == reference_report(table, tol)
        return report, calls

    def kernel_only(self, table, tol=hk.DEFAULT_TOL):
        """``check``'s report, asserting that the kernel ran and the certificate did not."""
        report, calls = self.check(table, tol)
        assert calls["_generator_certificate"] == []
        assert len(calls["_associativity_violations"]) == 1
        return report

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_report_equals_the_references(self, families, data):
        family = data.draw(st.sampled_from(["su2", "groups", "double cosets"]), label="family")
        if family == "su2":
            table = su2_table(data.draw(st.integers(min_value=15, max_value=40), label="k"))
        else:
            table = data.draw(st.sampled_from(families[family]), label="table")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        table = oracles.relabel(table, rng.permutation(table.n))
        n, inv, lam = table.n, table.involution, np.array(table.lam)
        amount = 10.0 ** data.draw(st.floats(min_value=-14.0, max_value=-2.0), label="log amount")
        kind = data.draw(st.sampled_from(["clean", "one", "pair", "row"]), label="kind")
        if kind == "row":  # a whole row raised: its defects add up to several amounts
            lam[int(rng.integers(n)), int(rng.integers(n))] += amount
        elif kind != "clean":
            a, b = (int(x) for x in rng.integers(n, size=2))
            support = np.flatnonzero(lam[a, b]) if rng.random() < 0.8 else np.arange(n)
            c = int(rng.choice(support))
            lam[a, b, c] += amount
            if kind == "pair":  # the star law still holds
                lam[inv[b], inv[a], inv[c]] = lam[a, b, c]
        # the defects are a few amounts, the margin about 4 n amounts: tol
        # is drawn around either
        margin = core._rescaling_margin(n, float(np.abs(lam).max()), amount)
        centre = data.draw(st.sampled_from([amount, margin]), label="tol centre")
        tol = centre * 2.0 ** data.draw(st.floats(min_value=-3.0, max_value=3.0), label="log2 tol")
        self.check(hk.HypergroupTable(table.labels, table.unit, inv, lam), tol)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the kernel's inf - inf
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
    def test_entry_that_is_not_finite_after_scaling(self, value):
        table = su2_table(20)
        lam = np.array(table.lam)
        lam[2, 3, 5] = value
        self.kernel_only(oracles.unchecked_table(table, lam))

    def test_zero_unit_coefficient(self):
        table = su2_table(20)
        lam = np.array(table.lam)
        lam[3, 3, 0] = 0.0
        report = self.kernel_only(hk.HypergroupTable(table.labels, 0, table.involution, lam))
        assert ("involution", (3, 3)) in [(v.axiom, v.indices) for v in report.violations]

    def test_margin_not_the_distance_decides(self):
        # a whole row raised by 1e-6 puts the table 1e-6 from its rescaling,
        # but its defects reach 3.9e-6: at tol 2e-6 only the margin, about
        # 8e-5 here, sends it to the kernel
        table = su2_table(20)
        lam = np.array(table.lam)
        lam[1, 1] += 1e-6
        report = self.kernel_only(hk.HypergroupTable(table.labels, 0, table.involution, lam), 2e-6)
        assert associativity_found(report)

    def test_unit_law_of_the_rounded_ring(self, families):
        # S4 with g, not the identity, as its unit and b with a b = g as a's
        # involute: every weight is 1 and the table its own rounding, whose
        # unit row is a permutation, not the identity
        group = families["groups"][0]
        lam = group.lam
        g = int(np.flatnonzero(np.argmax(lam, axis=2)[0] != 0)[0])
        involution = tuple(int(np.argmax(lam[a, :, g])) for a in range(group.n))
        self.kernel_only(hk.HypergroupTable(group.labels, g, involution, lam))

    def test_non_integral_rescaling(self):
        # lam[2, 3, 5] d_2 d_3 / d_5 is N[2, 3, 5] + 0.3: N rounds back, but the
        # table is 0.3 d_5 / (d_2 d_3) from its rescaling, far beyond the margin
        table = su2_table(20)
        d = np.sqrt(hk.weights(table))
        lam = np.array(table.lam)
        lam[2, 3, 5] += 0.3 * d[5] / (d[2] * d[3])
        report = self.kernel_only(hk.HypergroupTable(table.labels, 0, table.involution, lam))
        assert associativity_found(report)

    def test_rescaled_non_associative_ring(self):
        # SU(2)_17 with one multiplicity of f_1 in f_2 f_3 moved to f_16 (d_1 == d_16)
        N, d = moved(oracles.su2_fusion_tensor(17), 2, 3, 1, 16), verlinde_dims(17)
        lam = N * d[None, None, :] / (d[:, None, None] * d[None, :, None])
        table = hk.HypergroupTable(tuple(map(str, range(18))), 0, range(18), lam)
        report, calls = self.check(table)
        assert associativity_found(report)
        assert calls["_generator_certificate"] == [False]
        assert len(calls["_associativity_violations"]) == 1

    def test_parsed_and_dual_tables_take_no_kernel(self, families):
        tables = [hk.from_fusion_ring(su2_ring(k)) for k in (15, 40, 60)]
        texts = [hk.serialize_hypergroup(t) for t in tables]
        chars = [hk.characters(t) for t in tables]
        cosets = families["double cosets"][0]
        with recorded_calls() as calls:
            for table, text, ct in zip(tables, texts, chars):
                assert hk.tables_equal(hk.parse_hypergroup(text), table, tol=0.0)
                hk.dual_hypergroup(table, chars=ct)
            assert hk.validate(cosets).passed
        assert calls == {"_associativity_violations": [], "_generator_certificate": [True] * 7}

    def test_certificate_gives_up_below_eight_elements_before_allocating(self):
        def allocation(*args, **kwargs):
            raise AssertionError("the certificate allocated")

        for k in range(1, 7):
            N = oracles.su2_fusion_tensor(k).astype(float)
            with recorded_products() as shapes, pytest.MonkeyPatch.context() as mp:
                mp.setattr(core.np, "empty", allocation)
                assert not certificate(N)
            assert shapes == []
        assert certificate(np.ones((1, 1, 1)))


class TestScreenMemory:
    def peak(self, table):
        hk.validate(table)
        tracemalloc.start()
        try:
            report = hk.validate(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        return peak

    def test_peak_of_validate_groupoid_is_two_blocks(self, groups):
        # the quadruple pass forms its products one first index at a time,
        # into two buffers of at most the largest block's size
        g = coset_groupoid(oracles.direct_product(groups["z2"], groups["s4"]))
        largest = max(t.nbytes for grid in g.comp for row in grid for t in row)
        hk.validate_groupoid(g)
        tracemalloc.start()
        try:
            report = hk.validate_groupoid(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 2 * largest + 128 * 2**10

    def test_peak_of_validate_is_two_cubes(self, groups):
        # the kernel and the certificate read views of the table: no n^3 copy
        group = oracles.direct_product(groups["z2"], groups["s4"])
        for table in (su2_table(40), group_table(group, 3)):
            assert self.peak(table) <= 2 * table.n**3 * 8 + 128 * 2**10

