import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from mafia_odds.evolution import (
    discrete_path,
    evolve_discrete,
    integrate_continuous,
    mean_continuous,
    mean_discrete,
    peak_time,
    pm_closed,
    pm_continuous,
    win_chance_continuous,
    win_chance_continuous_linearized,
)
from mafia_odds.winchance import win_chance_recurrence

from oracles import ternary_argmax

# (N, M) pairs with room for at least one full turn
initial_states = st.integers(min_value=1, max_value=24).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(min_value=0, max_value=N // 2))
)


def windows(state):
    N, M = state
    return st.integers(min_value=0, max_value=(N - M) // 2)


class TestEvolveDiscrete:
    def test_initial_condition(self):
        dist = evolve_discrete(4, 1, 0)
        assert dist.probs == (Fraction(0), Fraction(1))

    def test_one_hand_applied_step(self):
        dist = evolve_discrete(4, 1, 1)
        assert dist.probs == (Fraction(1, 4), Fraction(3, 4))

    def test_rejects_time_outside_validity_window(self):
        with pytest.raises(ValueError):
            evolve_discrete(4, 1, 2)
        with pytest.raises(ValueError):
            evolve_discrete(4, 1, -1)

    def test_rejects_bad_initial_state(self):
        with pytest.raises(ValueError):
            evolve_discrete(0, 0, 0)
        with pytest.raises(ValueError):
            evolve_discrete(4, 5, 0)

    def test_integer_path_equals_stepwise_and_closed_forms(self):
        N, M = 23, 5
        path = list(discrete_path(N, M, (N - M) // 2))
        assert [t for t, _, _ in path] == list(range((N - M) // 2 + 1))
        for t, den, q in path:
            assert den == math.prod(range(N, N - 2 * t, -2))
            assert all(isinstance(x, int) for x in q)
            probs = tuple(Fraction(x, den) for x in q)
            assert probs == evolve_discrete(N, M, t).probs
            assert probs == tuple(pm_closed(N, M, m, t) for m in range(M + 1))

    def test_path_stops_at_the_first_turn_outside_the_window(self):
        path = discrete_path(9, 2, 6)
        assert [t for t, _, _ in itertools.islice(path, 4)] == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="t=4"):
            next(path)
        assert list(discrete_path(9, 2, -1)) == []

    @given(st.data())
    def test_mass_and_moment_are_exact(self, data):
        N, M = data.draw(initial_states)
        t = data.draw(windows((N, M)))
        dist = evolve_discrete(N, M, t)
        assert sum(dist.probs) == 1
        assert dist.mean == mean_discrete(N, M, t)
        assert all(p >= 0 for p in dist.probs)


class TestPmClosed:
    def test_examples(self):
        assert pm_closed(4, 1, 1, 1) == Fraction(3, 4)
        assert pm_closed(4, 1, 0, 1) == Fraction(1, 4)
        assert pm_closed(32, 4, 4, 0) == 1
        assert pm_closed(0, 0, 0, 0) == 1  # the empty game: nobody to lynch

    def test_more_mafia_than_started_is_impossible(self):
        assert pm_closed(10, 3, 4, 1) == 0

    def test_defined_past_the_window_up_to_the_endgame(self):
        # 2t = N is fine; one more step is not
        assert pm_closed(4, 2, 0, 2) == Fraction(1, 4)
        with pytest.raises(ValueError):
            pm_closed(4, 2, 0, 3)

    @given(st.data())
    def test_matches_stepwise_evolution(self, data):
        N, M = data.draw(initial_states)
        t = data.draw(windows((N, M)))
        dist = evolve_discrete(N, M, t)
        for m in range(M + 1):
            assert pm_closed(N, M, m, t) == dist.probs[m]


class TestMeanDiscrete:
    def test_examples(self):
        assert mean_discrete(4, 1, 1) == Fraction(3, 4)
        assert mean_discrete(32, 4, 0) == 4
        assert mean_discrete(32, 4, 1) == Fraction(31, 8)

    def test_rejects_time_outside_window(self):
        with pytest.raises(ValueError):
            mean_discrete(4, 2, 2)


class TestPmContinuous:
    def test_initial_condition_is_a_point_mass(self):
        for m in range(5):
            assert pm_continuous(32, 4, m, 0.0) == (1.0 if m == 4 else 0.0)

    def test_all_mafia_dead_at_the_far_boundary(self):
        assert pm_continuous(32, 4, 0, 16.0) == 1.0

    def test_halfway_value(self):
        assert math.isclose(pm_continuous(8, 2, 1, 3.0), 0.5, rel_tol=1e-12)

    def test_rejects_time_outside_range(self):
        with pytest.raises(ValueError):
            pm_continuous(8, 2, 1, -0.1)
        with pytest.raises(ValueError):
            pm_continuous(8, 2, 1, 4.1)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_normalization_and_moment(self, N, M, frac):
        assume(M <= N)
        t = frac * N / 2
        total = sum(pm_continuous(N, M, m, t) for m in range(M + 1))
        assert abs(total - 1.0) < 1e-12
        moment = sum(m * pm_continuous(N, M, m, t) for m in range(M + 1))
        assert abs(moment - mean_continuous(N, M, t)) < 1e-12


class TestPeakTime:
    def test_reference_configuration(self):
        assert peak_time(32, 4, 4) == 0.0
        assert peak_time(32, 4, 3) == pytest.approx(7.0)
        assert peak_time(32, 4, 2) == pytest.approx(12.0)
        assert peak_time(32, 4, 1) == pytest.approx(15.0)

    def test_rejects_out_of_range_m(self):
        with pytest.raises(ValueError):
            peak_time(32, 4, 0)
        with pytest.raises(ValueError):
            peak_time(32, 4, 5)

    def test_numerical_maximization_agrees(self):
        for m in range(1, 5):
            found = ternary_argmax(
                lambda t: pm_continuous(32, 4, m, t), 0.0, 16.0
            )
            assert abs(found - peak_time(32, 4, m)) < 1e-6, m


class TestMeanContinuous:
    def test_boundary_values(self):
        assert mean_continuous(32, 4, 0.0) == 4.0
        assert mean_continuous(32, 4, 16.0) == 0.0
        assert math.isclose(mean_continuous(32, 4, 12.0), 2.0, rel_tol=1e-12)

    def test_rejects_time_outside_range(self):
        with pytest.raises(ValueError):
            mean_continuous(32, 4, 16.5)


class TestIntegrateContinuous:
    def test_zero_time_returns_the_point_mass(self):
        dist = integrate_continuous(32, 4, 0.0, 1e-3)
        assert dist.probs == (0.0, 0.0, 0.0, 0.0, 1.0)

    def test_agrees_with_closed_form(self):
        # RK4 global error scales as step^4; 1e-2 already lands near 1e-9
        dist = integrate_continuous(32, 4, 15.0, 1e-2)
        for m in range(5):
            assert abs(dist.probs[m] - pm_continuous(32, 4, m, 15.0)) < 1e-6

    def test_conserves_mass(self):
        dist = integrate_continuous(32, 4, 15.0, 1e-2)
        assert abs(sum(dist.probs) - 1.0) < 1e-10

    def test_rejects_singularity_grazing(self):
        with pytest.raises(ValueError):
            integrate_continuous(32, 4, 15.999, 1e-3)
        with pytest.raises(ValueError):
            integrate_continuous(32, 4, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_continuous(32, 4, 1.0, -1e-3)
        with pytest.raises(ValueError):
            integrate_continuous(20, 3, math.nan, 0.01)
        with pytest.raises(ValueError):
            integrate_continuous(20, 3, 1.0, math.nan)


class TestWinChanceContinuous:
    def test_examples(self):
        assert win_chance_continuous(100, 0) == 0.0
        assert math.isclose(win_chance_continuous(100, 1), 0.1, rel_tol=1e-12)
        assert math.isclose(win_chance_continuous(4, 1), 0.5, rel_tol=1e-12)

    def test_linearized_form(self):
        assert math.isclose(
            win_chance_continuous_linearized(100, 3), 0.3, rel_tol=1e-12
        )
        # the two agree to first order in m/sqrt(n)
        assert math.isclose(
            win_chance_continuous(10**8, 2),
            win_chance_continuous_linearized(10**8, 2),
            rel_tol=1e-3,
        )


class TestWinChanceAtTheEndgame:
    @given(
        st.integers(min_value=0, max_value=30).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
        )
    )
    def test_one_minus_p0_at_the_endgame_is_the_recurrence(self, state):
        n, m = state
        assert 1 - pm_closed(n, m, 0, n // 2) == win_chance_recurrence(n, m)
