import math

import pytest

import hyperkit as hk

GOLDEN = (3 + math.sqrt(5)) / 2


class TestSpectrum:
    def test_first_values(self):
        spec = hk.jones_spectrum(6)
        assert spec.discrete[0] == pytest.approx(1.0)
        assert spec.discrete[1] == pytest.approx(2.0)
        assert spec.discrete[2] == pytest.approx(GOLDEN)
        assert spec.discrete[3] == pytest.approx(3.0)

    def test_strictly_increasing_below_four(self):
        spec = hk.jones_spectrum(200)
        assert all(a < b for a, b in zip(spec.discrete, spec.discrete[1:]))
        assert spec.discrete[0] == pytest.approx(1.0)
        assert spec.discrete[-1] < 4.0
        assert spec.continuum_start == 4.0

    def test_cutoff_too_small(self):
        with pytest.raises(hk.PreconditionError):
            hk.jones_spectrum(2)

    def test_membership(self):
        assert hk.jones_index_of(GOLDEN) == 5
        assert hk.jones_index_of(3.0) == 6
        assert hk.jones_index_of(2 + math.sqrt(3) + 0.01) is None

    def test_ghj_dimension(self):
        assert hk.check_ghj_dimension()


class TestEnumeration:
    def test_bound_two(self):
        result = hk.enumerate_admissible(2.0)
        assert [round(v, 9) for v in result.values] == [1.0, 2.0]

    def test_bound_four(self):
        result = hk.enumerate_admissible(4.0)
        values = [round(v, 9) for v in result.values]
        assert values == [1.0, 2.0, 3.0, round((5 + math.sqrt(5)) / 2, 9), 4.0]
        non_integers = [v for v in result.values if abs(v - round(v)) > 1e-9]
        assert len(non_integers) == 1
        assert abs(non_integers[0] - (5 + math.sqrt(5)) / 2) < 1e-9

    @pytest.mark.parametrize("n_max", [5, 20, 100])
    def test_unique_non_integer_below_four(self, n_max):
        result = hk.enumerate_admissible(4.0, n_max=n_max)
        non_integers = [v for v in result.values if abs(v - round(v)) > 1e-9]
        assert len(non_integers) == 1

    def test_bound_five_extras(self):
        result = hk.enumerate_admissible(5.0, n_max=12)
        values = result.values
        assert any(abs(v - (1 + 1 + GOLDEN)) < 1e-9 for v in values)  # 4.618...
        assert any(abs(v - (1 + hk.jones_value(7))) < 1e-9 for v in values)
        assert any(abs(v - (1 + hk.jones_value(8))) < 1e-9 for v in values)
        assert result.continuum_from == 5.0

    def test_continuum_only_from_five(self):
        assert hk.enumerate_admissible(4.0).continuum_from is None
        assert hk.enumerate_admissible(6.0).continuum_from == 5.0

    def test_witness_reconstruction(self):
        result = hk.enumerate_admissible(5.0, n_max=40)
        for entry in result.entries:
            total = 1.0 + sum(hk.jones_value(n) for n in entry.witness)
            assert abs(total - entry.value) <= 1e-9
            assert all(n >= 3 for n in entry.witness)

    def test_monotone_in_bound(self):
        small = hk.enumerate_admissible(3.0, n_max=30).values
        large = hk.enumerate_admissible(4.5, n_max=30).values
        for v in small:
            assert any(abs(v - w) < 1e-9 for w in large)

    def test_monotone_in_cutoff(self):
        small = hk.enumerate_admissible(4.8, n_max=10).values
        large = hk.enumerate_admissible(4.8, n_max=50).values
        assert len(large) >= len(small)
        for v in small:
            assert any(abs(v - w) < 1e-9 for w in large)

    def test_values_sorted_and_deduplicated(self):
        result = hk.enumerate_admissible(5.0, n_max=60)
        values = result.values
        assert all(b - a > 1e-9 for a, b in zip(values, values[1:]))

    def test_bad_bound(self):
        with pytest.raises(hk.PreconditionError):
            hk.enumerate_admissible(1.0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound(self, bound):
        # NaN passes no comparison; an infinite bound would recurse without end
        with pytest.raises(hk.PreconditionError, match="finite"):
            hk.enumerate_admissible(bound)
