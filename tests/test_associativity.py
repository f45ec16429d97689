"""The commutative screen of the associativity kernel.

Every case compares the screened kernel with the unscreened per-slice
kernel (``oracles.associativity_kernel_reference``: same lists, order
and magnitudes, bit for bit) and with the n^4 einsum check
(``oracles.associativity_reference``: same lists and order, magnitudes
within 1e-12, since einsum sums in another order).  The matrix products
the kernel computes are recorded to tell which path it took: a screened
slice writes its ``a(bc)`` half into a 3-d buffer, a full slice into an
(n^2, n) matrix.
"""

import contextlib
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
from test_constructions import assert_associativity_matches_reference, su2_ring
from test_core import assert_matches_reference, associativity_found, su2_table

EPS = np.finfo(np.float64).eps


def relabel(lam, perm):
    """``lam`` with basis element i renamed perm[i]."""
    out = np.empty_like(lam)
    out[np.ix_(perm, perm, perm)] = lam
    return out


def commutative_base(k, seed):
    """SU(2)_k with its basis shuffled, so the unit is rarely slice 0."""
    return relabel(su2_table(k).lam, np.random.default_rng(seed).permutation(k + 1))


def integer_spins():
    """The integer spins of SU(2)_31: 16 elements, commutative and associative.

    No element but the unit is invertible, so off the unit row and
    column every coefficient is at most 0.75.
    """
    return np.array(su2_table(31).lam[::2, ::2, ::2])


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


def paths(shapes, n):
    """(screened slices, full slices) among the recorded products.

    Either no slice is screened and all n are full, or all n are
    screened and clean, or the first failing screened slice is the
    first full one: at most two products more than without the screen.
    """
    screened = sum(len(s) == 3 for s in shapes)
    full = sum(s == (n * n, n) for s in shapes)
    assert len(shapes) == 2 * (screened + full)
    assert (screened, full) in ((0, n), (n, 0)) or full == n - screened + 1
    return screened, full


def kernel_run(lam, tol, exact=False):
    """Violations of the kernel on (lam, lam, lam, lam) and its (screened, full) slices."""
    vios = []
    with recorded_products() as shapes:
        core._associativity_violations(lam, lam, lam, lam, (), tol, vios, exact=exact)
    return [(v.indices, v.magnitude) for v in vios], paths(shapes, len(lam))


def assert_kernel_matches(lam, tol, einsum=True):
    """Screened kernel == unscreened kernel (== einsum); returns (found, screened, full)."""
    kernel = oracles.associativity_kernel_reference(lam, lam, lam, lam, tol)
    found, (screened, full) = kernel_run(lam, tol)
    assert found == kernel
    if einsum:
        assert_matches_reference(found, oracles.associativity_reference(lam, tol))
    table = hk.HypergroupTable(tuple(map(str, range(len(lam)))), 0, range(len(lam)), lam)
    report = hk.validate(table, tol)
    assert [(v.indices, v.magnitude) for v in report.violations if v.axiom == "associativity"] == kernel
    return found, screened, full


def deviations(lam):
    """|(ab)c - a(bc)| and the screened |S| (c >= a, zero elsewhere), by einsum."""
    n = len(lam)
    left = np.einsum("abm,mcp->abcp", lam, lam)
    dev = np.abs(left - np.einsum("bcq,aqp->abcp", lam, lam))
    screened = np.abs(left - np.einsum("cbq,aqp->abcp", lam, lam))
    upper = np.arange(n)[None, None, :, None] >= np.arange(n)[:, None, None, None]
    return dev, np.where(upper, screened, 0.0)


def margin_of(lam):
    """``5 n M delta + 2 e``, computed here from the documented formula."""
    n = len(lam)
    delta = np.max(np.abs(lam - lam.transpose(1, 0, 2)))
    big = np.max(np.abs(lam))
    gamma = n * EPS / (1 - n * EPS)
    e = 2 * (gamma + EPS) * (1 + gamma) * n * big**2
    return 5 * n * big * delta + 2 * e


class TestScreenCut:
    def test_margin_formula(self):
        rng = np.random.default_rng(3)
        for k in (15, 20, 30):
            lam = commutative_base(k, k)
            lam[1, 2, 3] += 1e-12  # delta = 1e-12
            for tol in (1e-9, 1e-6):
                cut = core._screen_cut(lam, tol, False, np.empty_like(lam))
                assert cut == pytest.approx(tol - margin_of(lam), rel=0, abs=1e-24)
            lam = rng.random((k + 1, k + 1, k + 1))
            assert core._screen_cut(lam, 1e-9, False, np.empty_like(lam)) is None

    def test_exact_path_needs_a_commutative_ring(self):
        N = oracles.su2_fusion_tensor(15).astype(float)
        assert core._screen_cut(N, 0.0, True, np.empty_like(N)) == 0.0
        assert core._screen_cut(N, 0.0, False, np.empty_like(N)) is None
        N[1, 2, 3] += 1.0  # delta = 1
        assert core._screen_cut(N, 0.0, True, np.empty_like(N)) is None

    def test_delta_just_below_and_above_the_cut_off(self):
        tol = 1e-9
        base = commutative_base(16, 5)
        n = len(base)
        i, j, l = next(e for e in zip(*np.nonzero((base > 0) & (base < 0.5))) if e[0] != e[1])
        big = np.max(base)
        critical = (tol - margin_of(base)) / (5 * n * big)  # base is commutative: 2 e only
        for factor, screens in ((0.99, True), (1.01, False)):
            lam = base.copy()
            lam[i, j, l] += factor * critical
            assert np.max(lam) == big
            cut = core._screen_cut(lam, tol, False, np.empty_like(lam))
            assert (cut is not None) == screens
            found, screened, full = assert_kernel_matches(lam, tol)
            assert found == []
            assert (screened > 0) == screens


class TestScreenedKernel:
    def test_commutative_table_that_passes_is_screened_only(self):
        for k in (15, 24):
            found, screened, full = assert_kernel_matches(su2_table(k).lam, hk.DEFAULT_TOL)
            assert (found, screened, full) == ([], k + 1, 0)

    def test_small_tables_are_not_screened(self):
        n = core._SCREEN_MIN_N - 1
        found, screened, full = assert_kernel_matches(su2_table(n - 1).lam, hk.DEFAULT_TOL)
        assert (found, screened, full) == ([], 0, n)

    def test_symmetric_perturbation_fails_and_resumes_at_first_failing_slice(self):
        for seed in range(6):
            lam = commutative_base(17, seed)
            rng = np.random.default_rng(seed)
            raise_pair(lam, *rng.integers(18, size=3), 1e-3)
            found, screened, full = assert_kernel_matches(lam, hk.DEFAULT_TOL)
            assert found
            first = min(idx[0] for idx, _ in found)
            # slices before the first violating one are screened and clean
            assert screened == first + 1 and full == 18 - first

    def test_resume_from_the_first_slice(self):
        lam = commutative_base(17, 0)
        n = len(lam)
        j, l = next((j, l) for j in range(1, n) for l in range(1, n) if lam[0, j, l] > 0.1)
        raise_pair(lam, 0, j, l, 1e-4)
        found, screened, full = assert_kernel_matches(lam, hk.DEFAULT_TOL)
        assert any(idx[0] == 0 for idx, _ in found)
        assert (screened, full) == (1, n)

    def test_resume_from_the_last_slice(self):
        # the unit moved last and its left law raised by eps: the screen of
        # the last slice sees eps, every other slice at most 0.75 eps, so
        # with tol between them only the last slice is scanned in full
        lam = relabel(integer_spins(), np.roll(np.arange(16), 1))
        n = len(lam)
        lam[n - 1, 3, 5] += 1e-11
        _, screened_dev = deviations(lam)
        per_slice = screened_dev.reshape(n, -1).max(axis=1)
        assert per_slice[-1] > 1.2 * per_slice[:-1].max()
        tol = margin_of(lam) + (per_slice[-1] + per_slice[:-1].max()) / 2
        assert assert_kernel_matches(lam, tol) == ([], n, 1)

    def test_worst_deviation_inside_the_margin_falls_back_and_passes(self):
        lam = commutative_base(16, 2)
        raise_pair(lam, 3, 5, 7, 1e-7)
        lam[4, 6, 8] += 1e-10  # delta > 0 widens the margin
        dev, screened_dev = deviations(lam)
        margin = margin_of(lam)
        worst = max(dev.max(), screened_dev.max())
        assert 2 * margin < worst
        tol = worst + margin / 2  # worst lies in [tol - margin, tol]
        found, screened, full = assert_kernel_matches(lam, tol)
        assert found == [] and full >= 1 and screened + full == len(lam) + 1

    def test_margin_covers_the_mirror_of_a_cleared_slice(self):
        # a symmetric defect, then a small asymmetric one that deepens the
        # mirror (c, b, a, p) of the worst screened entry (a, b, c, p): the
        # mirror now exceeds every screened deviation, so a tol between them
        # is caught only through the margin
        n = 16
        upper = np.arange(n)[None, None, :, None] >= np.arange(n)[:, None, None, None]
        for i, j, l in ((3, 5, 7), (2, 6, 9), (4, 8, 11), (1, 9, 12)):
            lam = integer_spins()
            raise_pair(lam, i, j, l, 1e-6)
            left = np.einsum("abm,mcp->abcp", lam, lam)
            signed = left - np.einsum("bcq,aqp->abcp", lam, lam)
            a, b, c, p = np.unravel_index(np.argmax(np.abs(signed) * upper), signed.shape)
            q = np.argmax(lam[c, :, p])
            lam[b, a, q] -= np.sign(signed[c, b, a, p]) * 1e-9  # raises |D[c, b, a, p]|
            dev, screened_dev = deviations(lam)
            if dev.max() > screened_dev.max() + 1e-11 > 2 * margin_of(lam):
                break
        else:
            pytest.fail("no defect in the list puts a mirror above every screened deviation")
        tol = (dev.max() + screened_dev.max()) / 2
        found, screened, full = assert_kernel_matches(lam, tol)
        assert found and full > 0

    def test_non_commutative_table_skips_the_screen(self):
        # x * b = alpha_b x and b * x = 0: violations only in the last slice
        base = su2_table(16)
        n = base.n + 1
        lam = np.zeros((n, n, n))
        lam[:-1, :-1, :-1] = base.lam
        lam[-1, :, -1] = np.linspace(0.5, 1.5, n)
        found, screened, full = assert_kernel_matches(lam, hk.DEFAULT_TOL)
        assert found and {idx[0] for idx, _ in found} == {n - 1}
        assert (screened, full) == (0, n)


def certificate_products(n, generators):
    """The products of ``constructions._generator_certificate``: two per generator."""
    return [(n, n * n), (n, n, n)] * generators


class TestFusionRingScreen:
    def check(self, N):
        """``validate_fusion_ring``'s violations equal both references.

        Returns them and the shapes of the matrix products it made."""
        n = len(N)
        Nf = N.astype(float)
        reference = oracles.associativity_reference(Nf, 0.0)
        assert oracles.associativity_kernel_reference(Nf, Nf, Nf, Nf, 0.0) == reference
        ring = hk.FusionRing(tuple(f"j{i}" for i in range(n)), 0, range(n), N)
        with recorded_products() as shapes, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a raised pair breaks Frobenius symmetry
            try:
                hk.validate_fusion_ring(ring)
                found = []
            except hk.AxiomError as exc:
                found = [(v.indices, v.magnitude) for v in exc.report.violations]
        assert found == reference
        return found, shapes

    def test_commutative_ring_is_screened_exactly(self):
        N = oracles.su2_fusion_tensor(17)
        # validate_fusion_ring certifies it from the generator j1 alone, without the kernel
        assert self.check(N) == ([], certificate_products(18, 1))
        assert kernel_run(N.astype(float), 0.0, exact=True) == ([], (18, 0))

    def test_commutative_non_associative_rings(self):
        for i, j, l in ((1, 2, 3), (5, 5, 6), (16, 3, 17), (2, 9, 11)):
            N = oracles.su2_fusion_tensor(17).copy()
            raise_pair(N, i, j, l, 1)
            found, shapes = self.check(N)
            # the generator j1 fails its middle law, and the kernel runs
            assert shapes[:2] == certificate_products(18, 1)
            screened, full = paths(shapes[2:], 18)
            assert found and screened >= 1 and full == 18 - screened + 1

    def test_non_commutative_ring_takes_no_exact_screen(self, groups):
        group = groups["s4"]
        n = group.order
        N = np.zeros((n, n, n))
        N[np.arange(n)[:, None], np.arange(n)[None, :], group.mul] = 1.0
        assert kernel_run(N, 0.0, exact=True) == ([], (0, n))


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

    def odd_levels_first(self):
        """SU(2)_31 with the odd levels 3, 5, ..., 31 listed right after the unit.

        A product of two odd levels from 3 up holds only even levels, two
        or more of them nonzero, so the products of the unit and the first
        n / 8 = 4 greedy generators (levels 3, 5, 7, 9) certify nothing new,
        and the certificate gives up before a fifth.
        """
        order = [0, *range(3, 32, 2), 1, *range(2, 32, 2)]
        return relabel(oracles.su2_fusion_tensor(31), np.argsort(order))

    def test_ring_without_triangular_steps_falls_back_to_the_kernel(self):
        N = self.odd_levels_first()
        n = len(N)
        with recorded_products() as shapes:
            assert not hk.constructions._generator_certificate(N.astype(float), 0)
        assert shapes == certificate_products(n, n // 8)
        ring = hk.FusionRing(tuple(f"j{i}" for i in range(n)), 0, range(n), N)
        with recorded_products() as shapes:
            hk.validate_fusion_ring(ring)
        assert shapes[:8] == certificate_products(n, 4)
        assert paths(shapes[8:], n) == (n, 0)
        with recorded_products() as shapes:
            table = hk.from_fusion_ring(ring)
        assert shapes[:8] == certificate_products(n, 4)
        assert paths(shapes[8:], n) == (n, 0)
        assert hk.tables_equal(table, rescaled_reference(ring), tol=0.0)
        for i, j, l in ((1, 2, 3), (4, 4, 6), (20, 9, 30)):
            raised = N.copy()
            raise_pair(raised, i, j, l, 1)
            assert_associativity_matches_reference(raised, tuple(range(n)))

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
        monkeypatch.setattr(hk.constructions, "_dot_error", lambda n, big: 1e-9)
        hk.from_fusion_ring(ring)
        assert calls == [(21, 21, 21)]

    def moved(self, N, i, j, l, to):
        """N with one multiplicity of l in ``f_i f_j`` (and in ``f_j f_i``) moved to ``to``.

        With ``d_l == d_to`` the dimensions still obey the fusion rules."""
        N = N.copy()
        for a, b in {(i, j), (j, i)}:
            N[a, b, l] -= 1
            N[a, b, to] += 1
        return N

    def test_unchecked_non_associative_ring_gets_the_kernels_report(self, groups):
        # SU(2)_17: d_1 == d_16; Z2 x D4: every dimension is 1
        z2_d4 = oracles.direct_product(groups["z2"], groups["d4"])
        ab = int(z2_d4.mul[3, 5])
        assert ab not in (0, 7)  # the unit and conjugation laws still hold
        N, inverses = group_ring(z2_d4)
        cases = [
            (self.moved(oracles.su2_fusion_tensor(17), 2, 3, 1, 16), tuple(range(18))),
            (self.moved(N, 3, 5, ab, 7), inverses),
        ]
        for N, conj in cases:
            labels = tuple(f"f{i}" for i in range(len(N)))
            ring = hk.FusionRing(labels, 0, conj, N)
            with pytest.raises(hk.AxiomError), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # moving a multiplicity breaks Frobenius symmetry
                hk.validate_fusion_ring(ring)
            want = rescaled_reference(ring)
            with recorded_products() as shapes, pytest.raises(hk.AxiomError) as info:
                hk.from_fusion_ring(ring)
            assert info.value.report == want
            assert shapes[:2] == certificate_products(len(N), 1)  # the first generator fails
            lam = rescaled_lam(ring)
            kernel = oracles.associativity_kernel_reference(lam, lam, lam, lam, 1e-9)
            assert associativity_found(info.value.report) == kernel != []


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
        with recorded_products() as shapes:
            hk.validate_groupoid(g)
        # the 18-element endo quadruple is screened; ghj's 2 elements are not
        assert sum(len(s) == 3 for s in shapes) >= 1


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=15, max_value=18),
    seed=st.integers(min_value=0, max_value=2**16),
    kind=st.sampled_from(["associative", "symmetric", "asymmetric", "random"]),
    size=st.floats(min_value=-14.0, max_value=-2.0),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_commutative_tables_match_the_unscreened_kernel(k, seed, kind, size, tol):
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
    clear = np.all(np.abs(deviations(lam)[0] - tol) > 1e-14)
    assert_kernel_matches(lam, tol, einsum=clear)


def star_kernel_run(lam, star, tol):
    """The kernel on (lam, lam, lam, lam) under ``star``.

    Returns its violations, the output shapes of its matrix products and
    the slices it scanned in full, read off the ``lam[a]`` operand of
    each full slice's ``a(bc)`` product.
    """
    n = len(lam)
    vios, shapes, full = [], [], []
    matmul = np.matmul

    def recording(x, y, out=None):
        shapes.append(out.shape)
        if out.shape == (n * n, n):
            full.append((y.ctypes.data - lam.ctypes.data) // y.nbytes)
        return matmul(x, y, out=out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core.np, "matmul", recording)
        core._associativity_violations(lam, lam, lam, lam, (), tol, vios, star=star)
    return [(v.indices, v.magnitude) for v in vios], shapes, full


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


def star_law_defect(lam, star):
    return core._star_defect(lam, lam, (star, star, star), np.empty(lam.size), np.empty(lam.size))


class TestStarScreen:
    """Non-commutative tables screen through their involution, ``lam[a,b,c] == lam[b*,a*,c*]``."""

    @pytest.fixture(scope="class")
    def group_tables(self, groups):
        z2_s4 = oracles.direct_product(groups["z2"], groups["s4"])
        return [group_table(group, seed) for group in (groups["s4"], z2_s4) for seed in (1, 2)]

    def check(self, table, lam, tol=hk.DEFAULT_TOL):
        """Kernel under the table's star == unscreened kernel == ``validate``.

        Returns the violations, the (screened, full) counts and the full slices.
        """
        reference = oracles.associativity_kernel_reference(lam, lam, lam, lam, tol)
        found, shapes, full_slices = star_kernel_run(lam, table.involution, tol)
        screened, full = paths(shapes, len(lam))
        assert found == reference
        broken = hk.HypergroupTable(table.labels, table.unit, table.involution, lam)
        report = hk.validate(broken, tol)
        assert associativity_found(report) == reference
        return found, screened, full, full_slices

    def test_star_defect_against_a_loop(self):
        rng = np.random.default_rng(11)
        for na, nb, nc in ((5, 5, 5), (3, 4, 6), (7, 2, 1)):
            t, u = rng.random((na, nb, nc)), rng.random((nb, na, nc))
            stars = [rng.permutation(size) for size in (na, nb, nc)]
            want = max(
                abs(t[a, b, c] - u[stars[1][b], stars[0][a], stars[2][c]])
                for a in range(na) for b in range(nb) for c in range(nc)
            )
            got = core._star_defect(t, u, stars, np.empty(t.size), np.empty(t.size))
            assert got == want

    def test_group_tables_are_screened_only(self, group_tables):
        for table in group_tables:
            assert not hk.is_commutative(table)
            assert table.involution != tuple(range(table.n))
            lam = np.array(table.lam)
            assert star_law_defect(lam, table.involution) == 0.0
            assert self.check(table, lam) == ([], table.n, 0, [])
            # the identity star is the commutative screen, which these tables fail
            found, shapes, _ = star_kernel_run(lam, None, hk.DEFAULT_TOL)
            assert (found, paths(shapes, table.n)) == ([], (0, table.n))

    def test_one_raised_entry(self, group_tables):
        for seed, table in enumerate(group_tables):
            n, inv = table.n, table.involution
            rng = np.random.default_rng(seed)
            a, b = rng.integers(n, size=2)
            c = int(np.argmax(table.lam[a, b]))
            for amount, tol in ((1e-3, hk.DEFAULT_TOL), (1e-12, hk.DEFAULT_TOL), (1e-12, 1e-13)):
                lam = np.array(table.lam)
                lam[a, b, c] += amount  # breaks the star law by amount
                buffers = np.empty_like(lam), np.array(inv), np.empty(lam.size)
                cut = core._screen_cut(lam, tol, False, *buffers)
                found, screened, full, _ = self.check(table, lam, tol)
                # a wide margin declines the screen; a narrow one clears every step
                assert (screened, full) == ((n, 0) if cut is not None else (0, n))
                assert bool(found) == (amount > tol)

    def test_star_symmetric_raised_pair(self, group_tables):
        for seed, table in enumerate(group_tables):
            n, inv = table.n, table.involution
            lam = star_pair(table, seed, 1e-4)
            assert star_law_defect(lam, inv) == 0.0
            found, screened, full, full_slices = self.check(table, lam)
            assert found and screened >= 1 and full == n - screened + 1
            # step i screens slice inv[i], so these are the slices not cleared
            assert full_slices == sorted(a for a in range(n) if inv[a] >= screened - 1)

    def test_each_step_screens_the_starred_slice(self):
        # step i covers the columns c >= i of slice star[i], where S = D exactly
        rng = np.random.default_rng(5)
        n = 20
        lam = rng.random((n, n, n))
        star = np.arange(n)
        pairs = rng.permutation(n)[:12].reshape(6, 2)
        star[pairs[:, 0]], star[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        dev = np.abs(np.einsum("abm,mcp->abcp", lam, lam) - np.einsum("bcq,aqp->abcp", lam, lam))
        per_step = np.array([dev[star[i], :, i:].max() for i in range(n)])
        levels = np.sort(per_step)
        assert np.min(np.diff(levels)) > 1e-9
        for cut in (*(levels[:-1] + levels[1:]) / 2, levels[-1] + 1.0):
            want = next((i for i in range(n) if per_step[i] > cut), n)
            buffers = np.empty((n, n * n)), np.empty((n * n, n))
            got = core._first_failing_step(lam, cut, *buffers, star)
            assert got == want, cut

    def test_full_scan_takes_the_slices_of_the_later_steps(self, group_tables, monkeypatch):
        table = group_tables[2]
        n, inv = table.n, table.involution
        for first_failing in (0, 1, n // 2, n - 1):
            monkeypatch.setattr(core, "_first_failing_step", lambda *args: first_failing)
            _, _, full = star_kernel_run(np.array(table.lam), inv, hk.DEFAULT_TOL)
            assert full == sorted(a for a in range(n) if inv[a] >= first_failing)

    def test_non_involutive_star_skips_the_screen(self, group_tables):
        # x* = g x^-1 g^-1 for g of order 3 obeys the star law, but x** = g^2 x g^-2
        table = group_tables[0]
        n, inv, lam = table.n, table.involution, np.array(table.lam)
        mul = np.argmax(lam, axis=2)
        g = next(g for g in range(n) if g != table.unit and mul[g, mul[g, g]] == table.unit)
        star = [int(mul[mul[g, inv[x]], inv[g]]) for x in range(n)]
        assert star_law_defect(lam, star) == 0.0
        assert any(star[star[x]] != x for x in range(n))
        found, shapes, full = star_kernel_run(lam, star, hk.DEFAULT_TOL)
        assert (found, paths(shapes, n), full) == ([], (0, n), list(range(n)))
        report = hk.validate(hk.HypergroupTable(table.labels, table.unit, star, lam))
        assert [v.indices for v in report.violations if v.axiom == "involution-permutation"] == [
            (x,) for x in range(n) if star[star[x]] != x
        ]
        assert not [v for v in report.violations if v.axiom == "associativity"]

    def test_identity_star_takes_no_gather(self, monkeypatch):
        def gather(*args):
            raise AssertionError("the identity star needs no gather")

        monkeypatch.setattr(core, "_star_defect", gather)
        table = su2_table(20)  # its involution is the identity tuple
        with recorded_products() as shapes:
            assert hk.validate(table).passed
        assert paths(shapes, table.n) == (table.n, 0)

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
        Nf, vios = N.astype(float), []
        with recorded_products() as shapes:
            core._associativity_violations(Nf, Nf, Nf, Nf, (), 0.0, vios, exact=True, star=inv)
        assert (vios, paths(shapes, n)) == ([], (n, 0))


class TestMirroredQuadruples:
    """``validate_groupoid`` skips the later mirror ``(w, z, y, x)`` of a clean quadruple."""

    @pytest.fixture(scope="class")
    def base(self, groups):
        from test_constructions import relabel_group

        group = relabel_group(groups["s4"], np.random.default_rng(7).permutation(24))
        subgroup = next(s for s in oracles.cyclic_subgroups(group) if len(s) == 2)
        return hk.double_coset_groupoid(group, subgroup)

    @pytest.fixture(scope="class")
    def bases(self, base, groups):
        """The S4 groupoid (24, 12 and 8 arrows) and Z2 x D4's (16, 8 and 6)."""
        group = oracles.direct_product(groups["z2"], groups["d4"])
        subgroup = next(s for s in oracles.cyclic_subgroups(group) if len(s) == 2)
        return [base, hk.double_coset_groupoid(group, subgroup)]

    def run(self, g, tol=hk.DEFAULT_TOL):
        """Associativity violations of ``validate_groupoid`` and the quadruples it checked."""
        checked = []
        kernel = hk.groupoid._associativity_violations

        def recording(ab, mc, bc, aq, prefix, *args, **kwargs):
            checked.append(prefix)
            return kernel(ab, mc, bc, aq, prefix, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hk.groupoid, "_associativity_violations", recording)
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
        return found, checked

    def perturbed(self, g, changes):
        comp = [[[np.array(t) for t in row] for row in grid] for grid in g.comp]
        for (x, y, z, idx), amount in changes:
            comp[x][y][z][idx] += amount
        return hk.Hypergroupoid(g.objects, g.mor, comp, g.star, g.units)

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

    def test_clean_groupoid_checks_one_member_of_each_pair(self, base):
        found, checked = self.run(base)
        assert found == []
        assert checked == sorted(checked)  # quadruple order
        sizes = [[len(m) for m in row] for row in base.mor]
        assert max(map(max, sizes)) >= core._SCREEN_MIN_N
        for q in itertools.product(range(2), repeat=4):
            mirror = q[::-1]
            x, y, z, w = q
            big = max(sizes[x][y], sizes[y][z], sizes[z][w], sizes[x][z], sizes[y][w], sizes[x][w])
            if mirror == q or big < core._SCREEN_MIN_N:
                assert checked.count(q) == 1
            elif q < mirror:
                assert (checked.count(q), checked.count(mirror)) == (1, 0)
        assert len(checked) < 16

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

    def test_peak_of_validate_is_two_cubes(self, groups):
        # the screen reads views of the table, under any star: no n^3 copy
        group = oracles.direct_product(groups["z2"], groups["s4"])
        for table in (su2_table(40), group_table(group, 3)):
            assert self.peak(table) <= 2 * table.n**3 * 8 + 128 * 2**10

