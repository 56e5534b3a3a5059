"""Degree distributions, ensembles, rate and graphical complexity."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import poly_eval_by_hand
from ldpc_forge import (
    DegreeDistribution,
    Ensemble,
    NegativeCoefficient,
    RateOutOfRange,
    SumNotOne,
    graphical_complexity,
    rate,
)


def simplex_dists(min_deg=2, max_deg=20, max_terms=5):
    """Strategy producing valid degree distributions."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_terms))
        degs = draw(
            st.lists(st.integers(min_deg, max_deg), min_size=n, max_size=n, unique=True)
        )
        raw = draw(
            st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)
        )
        total = sum(raw)
        return DegreeDistribution({d: w / total for d, w in zip(degs, raw)})

    return build()


class TestDegreeDistribution:
    def test_single_degree_is_valid(self):
        DegreeDistribution({2: 1.0}).validate()

    def test_sum_above_one_rejected_with_actual_value(self):
        with pytest.raises(SumNotOne) as exc:
            DegreeDistribution({2: 0.5, 3: 0.6}).validate()
        assert exc.value.actual == pytest.approx(1.1, abs=1e-12)

    def test_negative_coefficient_rejected(self):
        d = DegreeDistribution({2: -0.1, 3: 1.1})
        with pytest.raises(NegativeCoefficient) as exc:
            d.validate()
        assert exc.value.degree == 2

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            DegreeDistribution({1: 1.0})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DegreeDistribution({})

    def test_published_rows_pass_with_loose_sum(self, fixtures):
        # stored tables are rounded to four decimals; their sums can be off
        # by a few 1e-4 and must still validate under the published flag
        for fx in fixtures:
            fx.ensemble.validate()

    def test_rounded_sum_fails_without_published_flag(self):
        coeffs = {2: 0.2888, 3: 0.1681, 4: 0.0628, 5: 0.1206, 16: 0.3598}
        assert abs(sum(coeffs.values()) - 1.0) > 1e-9
        with pytest.raises(SumNotOne):
            DegreeDistribution(coeffs).validate()
        DegreeDistribution(coeffs, published=True).validate()

    def test_eval_monomial(self):
        rho = DegreeDistribution({8: 1.0})
        assert rho.eval(0.5) == pytest.approx(0.0078125, abs=1e-15)

    def test_eval_matches_termwise_sum(self, rng):
        coeffs = {2: 0.3, 5: 0.25, 9: 0.45}
        d = DegreeDistribution(coeffs)
        for x in rng.uniform(0.0, 1.0, size=20):
            assert d.eval(float(x)) == pytest.approx(
                poly_eval_by_hand(coeffs, float(x)), rel=1e-14
            )

    def test_eval_deriv_matches_central_difference(self):
        d = DegreeDistribution({2: 0.4, 7: 0.6})
        h = 1e-6
        for x in (0.1, 0.5, 0.9):
            num = (d.eval(x + h) - d.eval(x - h)) / (2 * h)
            assert d.eval_deriv(x) == pytest.approx(num, rel=1e-8)

    @given(simplex_dists())
    def test_eval_at_one_is_one(self, d):
        assert d.eval(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_eval_is_vectorized_and_scalar_safe(self):
        d = DegreeDistribution({2: 0.5, 3: 0.5})
        xs = np.array([0.0, 0.25, 1.0])
        out = d.eval(xs)
        assert out.shape == xs.shape
        assert isinstance(d.eval(0.25), float)

    def test_integral(self):
        d = DegreeDistribution({3: 1.0})
        assert d.integral() == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_trim_drops_zero_terms(self):
        d = DegreeDistribution({2: 0.5, 3: 0.5, 9: 0.0})
        assert d.degrees == (2, 3)

    def test_dense_layout_is_exponent_indexed(self):
        d = DegreeDistribution({2: 0.25, 5: 0.75})
        dense = d.dense
        assert dense[1] == 0.25 and dense[4] == 0.75
        assert dense[0] == 0.0

    def test_dense_is_read_only(self):
        d = DegreeDistribution({2: 1.0})
        with pytest.raises(ValueError):
            d.dense[0] = 5.0

    def test_renormalized_restores_unit_sum(self):
        d = DegreeDistribution({2: 0.2673, 3: 0.2107, 16: 0.5220})
        r = d.renormalized()
        r.validate()
        assert sum(r.coeffs.values()) == pytest.approx(1.0, abs=1e-15)

    def test_renormalized_drops_round_off_dust_only(self):
        clean = {2: 0.2076, 3: 0.2730, 16: 0.5194}
        dusty = DegreeDistribution({**clean, 5: 1.5e-8, 9: 2e-30, 12: 4e-30})
        got = dusty.renormalized().coeffs
        # 1.5e-8 is far above 2**-53 of the total and stays
        assert set(got) == {2, 3, 5, 16}
        want = DegreeDistribution({**clean, 5: 1.5e-8}).renormalized().coeffs
        assert got == want

    def test_renormalized_rejects_materially_negative(self):
        d = DegreeDistribution({2: -0.05, 3: 1.05})
        with pytest.raises(NegativeCoefficient):
            d.renormalized()

    def test_json_round_trip(self):
        d = DegreeDistribution({2: 0.2673, 3: 0.2107, 16: 0.5220}, published=True)
        back = DegreeDistribution.from_json_dict(d.to_json_dict(), published=True)
        assert back == d


class TestEnsembleAndRate:
    def test_regular_3_6_rate(self):
        e = Ensemble(lam=DegreeDistribution({3: 1.0}), rho=DegreeDistribution({6: 1.0}))
        assert rate(e) == pytest.approx(0.5, abs=1e-15)

    def test_published_rate_optimal_row(self):
        lam = DegreeDistribution({2: 0.2673, 3: 0.2107, 16: 0.5220}, published=True)
        e = Ensemble(lam=lam, rho=DegreeDistribution({8: 1.0}))
        assert rate(e) == pytest.approx(0.4714, abs=5e-4)

    def test_rate_decreases_when_lambda_mass_moves_to_higher_degree(self):
        # R = 1 - I(rho)/I(lam) grows with I(lam) = sum(lam_d / d); pushing
        # mass upward shrinks I(lam), so the rate must drop
        rho = DegreeDistribution({8: 1.0})
        lo = Ensemble(lam=DegreeDistribution({2: 0.6, 8: 0.4}), rho=rho)
        hi = Ensemble(lam=DegreeDistribution({2: 0.4, 8: 0.6}), rho=rho)
        assert rate(hi) < rate(lo)

    def test_regular_rate_drops_with_variable_degree(self):
        rho = DegreeDistribution({6: 1.0})
        r3 = rate(Ensemble(lam=DegreeDistribution({3: 1.0}), rho=rho))
        r4 = rate(Ensemble(lam=DegreeDistribution({4: 1.0}), rho=rho))
        assert r4 < r3

    def test_ensemble_json_round_trip(self):
        e = Ensemble(
            lam=DegreeDistribution({2: 0.5, 3: 0.5}),
            rho=DegreeDistribution({7: 0.5330, 8: 0.4670}, published=True),
        )
        back = Ensemble.from_json_dict(json.loads(e.to_json()), published=True)
        assert back == e
        assert json.loads(e.to_json())["lambda"] == e.lam.to_json_dict()


class TestGraphicalComplexity:
    def test_monomial_check_degree_eight(self):
        assert graphical_complexity(DegreeDistribution({8: 1.0}), 0.5) == pytest.approx(
            8.0, abs=1e-12
        )

    def test_monomial_check_degree_six(self):
        assert graphical_complexity(DegreeDistribution({6: 1.0}), 0.5) == pytest.approx(
            6.0, abs=1e-12
        )

    def test_mixed_check_profile_by_hand(self):
        rho = DegreeDistribution({7: 0.5330, 8: 0.4670}, published=True)
        integral = 0.5330 / 7 + 0.4670 / 8
        expect = (1 - 0.5) / (0.5 * integral)
        assert graphical_complexity(rho, 0.5) == pytest.approx(expect, rel=1e-12)

    def test_strictly_decreasing_in_rate(self):
        rho = DegreeDistribution({8: 1.0})
        values = [graphical_complexity(rho, r) for r in (0.3, 0.4, 0.5, 0.6, 0.7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_rate_outside_open_interval_rejected(self, bad):
        with pytest.raises(RateOutOfRange):
            graphical_complexity(DegreeDistribution({8: 1.0}), bad)


def test_fixture_rates_match_stored_expectations(fixtures):
    checked = 0
    for fx in fixtures:
        if fx.rate_expected is None:
            continue
        r = rate(fx.ensemble)
        assert r == pytest.approx(fx.rate_expected, abs=1e-3), fx.name
        checked += 1
    assert checked >= 15


def test_fixture_set_lookup(fixtures):
    fx = fixtures.get("x7_poc")
    assert fx.ensemble.rho.degrees == (8,)
    with pytest.raises(KeyError):
        fixtures.get("no_such_fixture")
