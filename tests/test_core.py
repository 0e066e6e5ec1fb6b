import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from mafia_odds.core import (
    BoundaryRule,
    GameState,
    _product,
    double_factorial,
    falling_product,
    log_double_factorial,
)


class TestDoubleFactorial:
    def test_conventions_and_small_values(self):
        assert double_factorial(0) == 1
        assert double_factorial(-1) == 1
        assert double_factorial(1) == 1
        assert double_factorial(2) == 2
        assert double_factorial(6) == 48
        assert double_factorial(7) == 105
        assert double_factorial(9) == 945

    @pytest.mark.parametrize("k", [-2, -3, -10])
    def test_rejects_below_minus_one(self, k):
        with pytest.raises(ValueError):
            double_factorial(k)

    @given(st.integers(min_value=1, max_value=500))
    def test_downward_recursion(self, k):
        assert double_factorial(k) == k * double_factorial(k - 2)

    def test_downward_recursion_through_every_split(self):
        for k in range(1, 3001):
            assert double_factorial(k) == k * double_factorial(k - 2), k


class TestProduct:
    def test_equals_math_prod_for_every_length(self):
        # starts 2L and 2L+1 stay positive; starts L and L+1 reach 0 or cross it
        for length in range(301):
            for start in (2 * length, 2 * length + 1, length, length + 1):
                factors = range(start, start - 2 * length, -2)
                assert len(factors) == length
                assert _product(factors) == math.prod(factors), (start, length)


class TestLogDoubleFactorial:
    def test_matches_exact_values(self):
        for k in range(-1, 60):
            assert math.isclose(
                log_double_factorial(k),
                math.log(double_factorial(k)),
                rel_tol=1e-12,
                abs_tol=1e-12,
            )

    def test_large_argument_is_finite_and_cheap(self):
        assert math.isfinite(log_double_factorial(10**7))

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            log_double_factorial(-2)


class TestFallingProduct:
    def test_examples(self):
        assert falling_product(4, 1, 0) == 1
        assert falling_product(4, 1, 1) == Fraction(3, 4)
        assert falling_product(4, 2, 2) == 0

    def test_rejects_bad_domains(self):
        with pytest.raises(ValueError):
            falling_product(4, 3, 1)  # 2t > N
        with pytest.raises(ValueError):
            falling_product(-1, 0, 0)
        with pytest.raises(ValueError):
            falling_product(4, -1, 0)
        with pytest.raises(ValueError):
            falling_product(4, 1, -1)

    def test_cache_is_bounded(self):
        assert falling_product.cache_info().maxsize == 1024

    def test_negative_value_when_factors_cross_zero(self):
        # (4-3)/4 * (2-3)/2 = -1/8: odd i past the zero factor flips sign
        assert falling_product(4, 2, 3) == Fraction(-1, 8)

    @given(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=80),
    )
    def test_equals_double_factorial_ratio(self, N, t, i):
        assume(2 * t <= N and i <= N - 2 * t)
        expected = Fraction(
            double_factorial(N - 2 * t) * double_factorial(N - i),
            double_factorial(N) * double_factorial(N - 2 * t - i),
        )
        assert falling_product(N, t, i) == expected

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=60),
    )
    def test_weakly_decreasing_in_t(self, N, t, i):
        assume(2 * t <= N and i <= N - 2 * t)
        assert falling_product(N, t, i) <= falling_product(N, t - 1, i)


class TestGameState:
    def test_fields_and_citizens(self):
        s = GameState(9, 3)
        assert (s.n, s.m, s.citizens) == (9, 3, 6)

    def test_builds_by_keyword_and_as_a_tuple(self):
        s = GameState(n=9, m=3)
        assert s == GameState(9, 3) == (9, 3)
        n, m = s
        assert (n, m) == (9, 3)
        assert repr(s) == "GameState(n=9, m=3)"

    def test_replace_checks_the_new_state(self):
        assert GameState(9, 3)._replace(m=4) == GameState(9, 4)
        with pytest.raises(ValueError):
            GameState(9, 3)._replace(m=12)
        with pytest.raises(ValueError):
            GameState._make((3, 4))

    @pytest.mark.parametrize("n,m", [(3, 4), (-1, 0), (2, -1)])
    def test_rejects_invalid_states(self, n, m):
        with pytest.raises(ValueError):
            GameState(n, m)


class TestBoundaryRule:
    def test_strict_needs_true_majority(self):
        rule = BoundaryRule.STRICT_MAJORITY
        assert not rule.mafia_wins(4, 2)
        assert rule.mafia_wins(4, 3)
        assert rule.mafia_wins(0, 1)  # transient state reached by the recurrence
        assert not rule.mafia_wins(0, 0)

    def test_ties_award_parity(self):
        rule = BoundaryRule.TIES
        assert rule.mafia_wins(4, 2)
        assert not rule.mafia_wins(5, 2)
        assert not rule.mafia_wins(0, 0)

    @pytest.mark.parametrize("rule", list(BoundaryRule))
    def test_first_win_is_the_smallest_winning_mafia(self, rule):
        strict = rule is BoundaryRule.STRICT_MAJORITY
        for n in range(0, 61):
            m = rule.first_win(n)
            assert m >= 1 and rule.mafia_wins(n, m), n
            assert not any(rule.mafia_wins(n, k) for k in range(1, m)), n
            assert all(rule.mafia_wins(n, k) for k in range(m, n + 3)), n
            for k in range(0, n + 3):
                literal = 2 * k > n if strict else k > 0 and 2 * k >= n
                assert rule.mafia_wins(n, k) == literal, (n, k)
            assert rule.lynch_days(n) == m - 1, n
            assert rule.lynch_days(n) == (n // 2 if strict else max(n - 1, 0) // 2), n

    def test_cli_facing_values(self):
        assert BoundaryRule("strict") is BoundaryRule.STRICT_MAJORITY
        assert BoundaryRule("ties") is BoundaryRule.TIES
