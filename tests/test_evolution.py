import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from mafia_odds.evolution import (
    _continuous_rows,
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

    @pytest.mark.parametrize("N, M", [(23, 5), (9, 2), (8, 8), (1, 0)])
    def test_path_defaults_to_the_whole_window(self, N, M):
        assert list(discrete_path(N, M)) == list(discrete_path(N, M, (N - M) // 2))

    def test_path_refuses_a_turn_outside_the_window_before_its_first_turn(self):
        with pytest.raises(ValueError, match="t=4"):
            discrete_path(9, 2, 6)
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

    def test_negative_time_is_refused(self):
        with pytest.raises(ValueError, match=r"^need 0 <= 2t <= N, got N=8, t=-1$"):
            pm_closed(8, 2, 3, -1)

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

    def test_more_mafia_than_started_has_probability_zero(self):
        assert pm_continuous(32, 4, 5, 3.0) == 0.0

    def test_rejects_negative_m(self):
        for pm in (pm_closed, pm_continuous):
            with pytest.raises(ValueError, match=r"^need m >= 0, got m=-1$"):
                pm(32, 4, -1, 3)

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


class TestContinuousRows:
    # the last case reaches the refused sample 2001/1000 only after rounding
    # t_max = 1e306 down to N and scaling it back up by spu
    @pytest.mark.parametrize(
        "t_max, spu, first_invalid", [(100.0, 10, 2.1), (1e308, 10, 2.1), (1e306, 1000, 2.001)]
    )
    def test_the_first_sample_past_n_over_2_is_refused_at_the_call(
        self, monkeypatch, t_max, spu, first_invalid
    ):
        from mafia_odds import evolution

        def never(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(evolution, "_pm_row", never)
        with pytest.raises(ValueError) as refusal:
            _continuous_rows(4, 1, t_max, spu)
        assert str(refusal.value) == f"need 0 <= t <= N/2, got N=4, t={first_invalid}"

    # j/spu = 9007199254740993/2 rounds to N/2 = 2**52, so its float would
    # read as a time inside the window
    def test_a_sample_that_rounds_to_n_over_2_is_named_exactly(self, monkeypatch):
        from mafia_odds import evolution

        def never(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(evolution, "_pm_row", never)
        with pytest.raises(ValueError) as refusal:
            _continuous_rows(9007199254740992, 1, 1e300, 2)
        assert str(refusal.value) == (
            "need 0 <= t <= N/2, got N=9007199254740992, t=9007199254740993/2"
        )

    # the rows are float laws in N and C(M, m); at N = 2**1024 N / 2 is still a float
    @pytest.mark.parametrize("N, M", [(2**1024, 1), (2000, 1100)], ids=["N", "C(M, m)"])
    def test_an_integer_past_float_range_is_refused_at_the_call(self, N, M):
        with pytest.raises(OverflowError):
            _continuous_rows(N, M, 0.0, 1)

    @pytest.mark.parametrize("N, M, spu", [(40, 7, 3), (23, 23, 1), (9, 0, 8)])
    def test_rows_default_to_n_over_2(self, N, M, spu):
        assert list(_continuous_rows(N, M, None, spu)) == list(_continuous_rows(N, M, N / 2, spu))

    @pytest.mark.parametrize("N, M, spu", [(40, 7, 3), (23, 23, 1), (9, 0, 8)])
    def test_rows_are_the_library_values(self, N, M, spu):
        rows = list(_continuous_rows(N, M, N / 2, spu))
        assert [t for t, _ in rows] == [j / spu for j in range(N * spu // 2 + 1)]
        for t, values in rows:
            p = [pm_continuous(N, M, m, t) for m in range(M + 1)]
            assert values == [*p, mean_continuous(N, M, t)]

    def test_a_negative_t_max_gives_no_sample(self):
        assert list(_continuous_rows(4, 1, -0.05, 10)) == []


class TestIntegrateContinuous:
    def test_zero_time_returns_the_point_mass(self):
        dist = integrate_continuous(32, 4, 0.0, 1e-3)
        assert dist.probs == (0.0, 0.0, 0.0, 0.0, 1.0)

    def test_an_end_time_below_half_a_step_still_takes_one_step(self):
        # t_end < step/2 rounds to no steps; one step of t_end is taken instead
        dist = integrate_continuous(32, 4, 1e-4, 1e-3)
        for m in range(5):
            assert abs(dist.probs[m] - pm_continuous(32, 4, m, 1e-4)) < 1e-12

    def test_agrees_with_closed_form(self):
        # RK4 global error scales as step^4; 1e-2 already lands near 1e-9
        dist = integrate_continuous(32, 4, 15.0, 1e-2)
        for m in range(5):
            assert abs(dist.probs[m] - pm_continuous(32, 4, m, 15.0)) < 1e-6

    def test_mean_matches_the_closed_form(self):
        assert integrate_continuous(32, 4, 0.0, 1e-3).mean == 4.0
        dist = integrate_continuous(32, 4, 8.0, 1e-3)
        assert abs(dist.mean - mean_continuous(32, 4, 8.0)) < 1e-12

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
