import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mafia_odds import evolution, winchance
from mafia_odds.core import BoundaryRule, GameState, double_factorial
from mafia_odds.winchance import (
    optimal_mafia_approx,
    optimal_mafia_asymptotic,
    optimal_mafia_numeric,
    optimal_mafia_rows,
    parity_ratio,
    verify_monotonicity,
    win_chance_asymptotic,
    win_chance_closed,
    win_chance_leading_term,
    win_chance_limit,
    win_chance_recurrence,
    win_chance_rows,
    win_chance_single,
)

from launcher import finish, launch
from oracles import brute_force_win_chance, double_factorial_rows

STRICT = BoundaryRule.STRICT_MAJORITY
TIES = BoundaryRule.TIES

states = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
)


class TestRecurrence:
    def test_known_values(self):
        assert win_chance_recurrence(2, 1) == Fraction(1, 2)
        assert win_chance_recurrence(7, 0) == 0
        assert win_chance_recurrence(5, 2) == Fraction(13, 15)
        assert win_chance_recurrence(9, 1) == Fraction(128, 315)

    def test_rejects_more_mafia_than_players(self):
        with pytest.raises(ValueError):
            win_chance_recurrence(3, 4)

    @pytest.mark.parametrize("boundary", [STRICT, TIES])
    def test_agrees_with_game_tree_oracle(self, boundary):
        for n in range(0, 15):
            for m in range(0, n + 1):
                assert win_chance_recurrence(n, m, boundary) == brute_force_win_chance(
                    n, m, boundary
                ), (n, m, boundary)

    @given(states)
    def test_range_and_boundaries(self, state):
        n, m = state
        w = win_chance_recurrence(n, m)
        assert 0 <= w <= 1
        if m == 0:
            assert w == 0
        if STRICT.mafia_wins(n, m):
            assert w == 1

    @given(states)
    def test_more_mafia_never_hurts(self, state):
        n, m = state
        if m >= 1:
            assert win_chance_recurrence(n, m) >= win_chance_recurrence(n, m - 1)

    def test_tie_boundary_lifts_the_chance(self):
        assert win_chance_recurrence(2, 1, TIES) == 1
        assert win_chance_recurrence(4, 2, TIES) == 1
        for n in range(1, 12):
            for m in range(1, n + 1):
                assert win_chance_recurrence(n, m, TIES) >= win_chance_recurrence(
                    n, m, STRICT
                )


def ladder_scale(n: int, boundary: BoundaryRule) -> int:
    """The scale L_n that ``winchance._ladder`` documents for row n."""
    k = n // 2
    if n % 2:
        return n * math.comb(2 * k, k)
    if boundary is TIES:
        return 1 if n <= 2 else k << (n - 2)
    return 1 << n


ORACLE_ROWS = {
    boundary: list(win_chance_rows(14, boundary)) for boundary in (STRICT, TIES)
}


class TestRows:
    @pytest.mark.parametrize("boundary", [STRICT, TIES])
    @given(st.integers(min_value=0, max_value=14))
    def test_rows_agree_with_game_tree_oracle(self, boundary, n):
        row_n, den, row = ORACLE_ROWS[boundary][n]
        assert row_n == n and den == ladder_scale(n, boundary)
        assert [Fraction(value, den) for value in row] == [
            brute_force_win_chance(n, m, boundary) for m in range(n + 1)
        ]

    # the O(n)-bit scale against the plain n!! ladder, whose steps never divide
    @pytest.mark.parametrize("boundary", [STRICT, TIES])
    def test_rows_agree_with_the_double_factorial_ladder(self, boundary):
        pairs = zip(win_chance_rows(400, boundary), double_factorial_rows(400, boundary))
        for (n, den, row), (_, dfact, want) in pairs:
            assert den == ladder_scale(n, boundary), n
            assert [Fraction(v, den) for v in row] == [Fraction(W, dfact) for W in want], n

    def test_rows_agree_with_closed_form(self):
        for n, den, row in win_chance_rows(60):
            assert [Fraction(value, den) for value in row] == [
                win_chance_closed(n, m) for m in range(n + 1)
            ], n

    def test_rows_are_complete_and_integer(self):
        rows = list(win_chance_rows(9, TIES))
        assert [n for n, _, _ in rows] == list(range(10))
        for n, den, row in rows:
            assert len(row) == n + 1
            assert all(isinstance(value, int) for value in row)
        assert list(win_chance_rows(0)) == [(0, 1, [0])]

    def test_a_changed_row_leaves_later_rows_alone(self):
        expected = list(win_chance_rows(12))
        for (n, _, row), (_, _, want) in zip(win_chance_rows(12), expected):
            assert row == want, n
            row[:] = [0] * len(row)

    def test_rejects_negative_max_n(self):
        with pytest.raises(ValueError):
            list(win_chance_rows(-1))

    def test_deep_single_state_equals_closed_form(self):
        assert win_chance_recurrence(2000, 200) == win_chance_closed(2000, 200)

    def test_single_state_keeps_only_two_short_rows(self):
        tracemalloc.start()
        try:
            win_chance_recurrence(1000, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestSingleMafia:
    def test_known_values(self):
        assert win_chance_single(1) == 1
        assert win_chance_single(3) == Fraction(2, 3)
        assert win_chance_single(4) == Fraction(3, 8)

    def test_exhausted_pool_convention(self):
        assert win_chance_single(0) == 1

    def test_rejects_negative_players(self):
        with pytest.raises(ValueError):
            win_chance_single(-1)

    @given(st.integers(min_value=1, max_value=300))
    def test_double_factorial_ratio(self, n):
        assert win_chance_single(n) * double_factorial(n) == double_factorial(n - 1)

    @given(st.integers(min_value=1, max_value=120))
    def test_matches_recurrence(self, n):
        assert win_chance_single(n) == win_chance_recurrence(n, 1)

    @given(st.integers(min_value=1, max_value=300))
    def test_geometric_mean_identity(self, n):
        assert n * win_chance_single(n) * win_chance_single(n - 1) == 1


class TestClosedForm:
    def test_known_values(self):
        assert win_chance_closed(4, 2) == Fraction(3, 4)
        assert win_chance_closed(6, 0) == 0
        assert win_chance_closed(9, 1) == Fraction(128, 315)
        assert win_chance_closed(0, 0) == 0

    @given(states)
    def test_tie_boundary_equals_ladder_and_game_tree(self, state):
        n, m = state
        closed = win_chance_closed(n, m, TIES)
        assert closed == win_chance_recurrence(n, m, TIES)
        assert closed == brute_force_win_chance(n, m, TIES)

    def test_tie_rule_changes_nothing_at_odd_n(self):
        for n in range(1, 40, 2):
            for m in range(n + 1):
                assert win_chance_closed(n, m, TIES) == win_chance_closed(n, m), (n, m)

    def test_rejects_more_mafia_than_players(self):
        with pytest.raises(ValueError):
            win_chance_closed(2, 3)

    @given(states)
    def test_equals_recurrence(self, state):
        n, m = state
        assert win_chance_closed(n, m) == win_chance_recurrence(n, m)

    def test_mafia_majority_states_still_agree(self):
        # the sum has to collapse to 1 even past the midpoint
        for n in range(1, 20):
            for m in range(n // 2 + 1, n + 1):
                assert win_chance_closed(n, m) == 1, (n, m)


class TestDecidedStates:
    @pytest.mark.parametrize("boundary", [STRICT, TIES])
    def test_both_methods_answer_every_decided_state_without_a_walk(self, monkeypatch, boundary):
        # no mafia, or a mafia the rule has already given the game
        def walk(*args, **kwargs):
            raise AssertionError("a decided state started a walk")

        monkeypatch.setattr(winchance, "_ladder", walk)
        monkeypatch.setattr(evolution, "pm_closed", walk)
        for n in range(41):
            for m in range(n + 1):
                if m == 0 or boundary.mafia_wins(n, m):
                    expected = brute_force_win_chance(n, m, boundary)
                    assert win_chance_recurrence(n, m, boundary) == expected, (n, m)
                    assert win_chance_closed(n, m, boundary) == expected, (n, m)

    @pytest.mark.parametrize("solver", [win_chance_recurrence, win_chance_closed])
    @pytest.mark.parametrize(
        "n,m,w", [(20000, 15000, 1), (10**20, 0, 0), (10**20, 10**20 - 1, 1)]
    )
    def test_large_decided_states_answer_at_once(self, solver, n, m, w):
        # a walk took 384 s at (20000, 15000) and never ended at n = 10**20,
        # so a child process bounds the wait
        code = (
            "import time\n"
            "from mafia_odds import winchance\n"
            "start = time.perf_counter()\n"
            f"w = winchance.{solver.__name__}({n}, {m})\n"
            "print(w, time.perf_counter() - start)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=20, check=True)
        value, seconds = proc.stdout.split()
        assert Fraction(value.decode()) == w
        assert float(seconds) < 1.0


class TestAsymptotics:
    def test_even_and_odd_reference_points(self):
        assert math.isclose(
            win_chance_asymptotic(100, 1), math.sqrt(2 / math.pi) / 10, rel_tol=1e-12
        )
        assert math.isclose(
            win_chance_asymptotic(101, 1),
            math.sqrt(math.pi / 2) / math.sqrt(101),
            rel_tol=1e-12,
        )

    def test_proportional_to_m_and_zero_at_zero(self):
        assert win_chance_asymptotic(50, 0) == 0.0
        assert math.isclose(
            win_chance_asymptotic(50, 3), 3 * win_chance_asymptotic(50, 1)
        )

    def test_within_a_percent_of_exact_at_moderate_n(self):
        for n in (100, 101):
            exact = float(win_chance_single(n))
            assert abs(win_chance_asymptotic(n, 1) / exact - 1) < 0.01

    def test_within_a_percent_of_exact_at_large_n(self):
        for n in (1000, 1001, 5000, 5001):
            exact = win_chance_leading_term(n, 1)
            assert abs(win_chance_asymptotic(n, 1) / exact - 1) < 0.01

    def test_leading_term_tracks_exact_ratio(self):
        for n in (4, 9, 100, 10001):
            if n <= 100:
                exact = float(win_chance_single(n))
                assert math.isclose(win_chance_leading_term(n, 1), exact, rel_tol=1e-12)
        assert (
            abs(
                win_chance_leading_term(10001, 1)
                / float(win_chance_single(10001))
                - 1
            )
            < 1e-3
        )

    def test_single_parity_shortcut(self):
        assert math.isclose(win_chance_asymptotic(100, 1), math.sqrt(2 / math.pi) / 10)
        assert math.isclose(win_chance_asymptotic(2, 1), math.sqrt(2 / math.pi) / math.sqrt(2))

    def test_rejects_no_players(self):
        with pytest.raises(ValueError):
            win_chance_asymptotic(0, 1)


def _limit_error(n, exact):
    return max(
        abs(win_chance_limit(n, m) - float(exact(n, m)))
        for m in range(1, math.isqrt(4 * n) + 1)
    )


class TestLimitLaw:
    def test_within_a_hundredth_of_exact_at_1600(self):
        # the closed form equals the recurrence (criterion 02) and answers
        # each state without walking the ladder of 800 rows
        for n in (1600, 1601):
            assert _limit_error(n, win_chance_closed) < 0.01, n

    def test_error_shrinks_with_n(self):
        for small, large in ((400, 1600), (401, 1601)):
            assert _limit_error(large, win_chance_closed) < _limit_error(
                small, win_chance_recurrence
            )

    def test_near_the_optimum_within_three_thousandths_at_ten_thousand(self):
        # m = round(optimal) +- 3 only: the full m <= 2 sqrt(n) sweep takes ~5 s
        def near_optimum_error(n):
            centre = round(optimal_mafia_asymptotic(n))
            return max(
                abs(win_chance_limit(n, m) - float(win_chance_closed(n, m)))
                for m in range(centre - 3, centre + 4)
            )

        for small, large in ((1600, 10**4), (1601, 10**4 + 1)):
            error = near_optimum_error(large)
            assert error < 0.003, large
            assert error < near_optimum_error(small), large

    def test_half_roots_solve_their_law(self):
        # perfect squares of both parities, so m / sqrt(n) gives back c_p
        for n in (1, 4, 9, 16):
            m_half = optimal_mafia_asymptotic(n)
            assert abs(win_chance_limit(n, m_half) - 0.5) < 1e-12, n

    def test_first_order_term_is_the_paper_approximation(self):
        for parity in (0, 1):
            gaps = [
                abs(win_chance_limit(n, 1) / win_chance_asymptotic(n, 1) - 1)
                for n in (10**2 + parity, 10**4 + parity, 10**6 + parity, 10**8 + parity)
            ]
            assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
            assert gaps[-1] < 1e-3

    def test_rises_from_zero_to_one(self):
        for n in (400, 401):
            values = [win_chance_limit(n, m) for m in range(0, 101)]
            assert values[0] == 0.0
            assert all(a < b for a, b in zip(values, values[1:]))
            assert values[-1] > 0.999999

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            win_chance_limit(0, 1)
        with pytest.raises(ValueError):
            win_chance_limit(10, -1)
        with pytest.raises(ValueError):
            win_chance_limit(11, math.inf)
        with pytest.raises(ValueError):
            win_chance_asymptotic(10, math.nan)
        with pytest.raises(ValueError):
            win_chance_leading_term(10, math.nan)
        for n in (math.nan, math.inf, 10.5):
            with pytest.raises(TypeError):
                win_chance_limit(n, 1)
            with pytest.raises(TypeError):
                win_chance_asymptotic(n, 1)


class TestParityRatio:
    def test_exact_small_values(self):
        assert parity_ratio(1) == Fraction(4, 3)
        assert parity_ratio(2) == Fraction(64, 45)

    def test_equals_single_mafia_ratio(self):
        for k in range(1, 30):
            assert parity_ratio(k) == win_chance_single(2 * k + 1) / win_chance_single(
                2 * k
            )

    def test_equals_the_wallis_partial_product(self):
        # the double-factorial form, a route independent of win_chance_single
        for k in range(1, 100):
            even, odd = double_factorial(2 * k), double_factorial(2 * k - 1)
            assert parity_ratio(k) == Fraction(even * even, odd * odd * (2 * k + 1))

    @given(st.integers(min_value=1, max_value=200))
    def test_increasing_and_below_limit(self, k):
        assert parity_ratio(k + 1) > parity_ratio(k)
        assert float(parity_ratio(k)) < math.pi / 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parity_ratio(0)


class TestOptimalMafia:
    def test_known_optima(self):
        assert optimal_mafia_numeric(2) == 1
        assert optimal_mafia_numeric(3) == 1
        # |w(16,3) - 1/2| = 623/8192 beats |w(16,2) - 1/2| = 1757/16384
        assert optimal_mafia_numeric(16) == 3

    def test_exact_ties_break_to_smaller_m(self):
        # w(1,0)=0 and w(1,1)=1 sit symmetrically around 1/2
        assert optimal_mafia_numeric(1) == 0

    def test_matches_unpruned_scan(self):
        half = Fraction(1, 2)
        for n in range(1, 40):
            gaps = [
                abs(win_chance_recurrence(n, m) - half) for m in range(n + 1)
            ]
            assert gaps[optimal_mafia_numeric(n)] == min(gaps), n

    @pytest.mark.parametrize("boundary", [STRICT, TIES])
    def test_row_scan_matches_single_query(self, boundary):
        # the first smallest gap |2 w - 1| L_n of each complete, uncapped row
        expected = []
        for n, den, row in win_chance_rows(400, boundary):
            gaps = [abs(2 * value - den) for value in row]
            expected.append((n, gaps.index(min(gaps))))
        assert list(optimal_mafia_rows(400, boundary)) == expected[1:]
        for n, m_opt in expected[1:201]:
            assert optimal_mafia_numeric(n, boundary) == m_opt, n

    @pytest.mark.parametrize("boundary", [STRICT, TIES])
    def test_every_row_crosses_one_half_by_the_proven_cap(self, boundary):
        # the column at which optimal_mafia_rows proves w(n, m) >= 1/2
        for n, den, row in win_chance_rows(400, boundary):
            cap = math.isqrt(2 * n) + 1
            if cap <= n:
                assert 2 * row[cap] >= den, n

    def test_an_empty_sweep_and_a_negative_one(self):
        assert list(optimal_mafia_rows(0)) == []
        with pytest.raises(ValueError, match="max_n >= 0"):
            list(optimal_mafia_rows(-1))

    def test_approx_reference_points(self):
        assert math.isclose(optimal_mafia_approx(100), 6.2666, rel_tol=1e-4)
        assert math.isclose(optimal_mafia_approx(101), 4.0095, rel_tol=1e-4)
        assert math.isclose(optimal_mafia_approx(4), 1.2533, rel_tol=1e-4)

    def test_asymptotic_reference_points(self):
        assert math.isclose(optimal_mafia_asymptotic(100), 6.7449, rel_tol=1e-4)
        assert math.isclose(optimal_mafia_asymptotic(101), 4.9706, rel_tol=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_mafia_numeric(0)
        with pytest.raises(ValueError):
            optimal_mafia_approx(0)
        with pytest.raises(ValueError):
            optimal_mafia_asymptotic(0)
        for n in (math.nan, math.inf, 10.5):
            with pytest.raises(TypeError):
                optimal_mafia_approx(n)
            with pytest.raises(TypeError):
                optimal_mafia_asymptotic(n)


class TestMonotonicity:
    def test_small_regions_are_clean(self):
        assert verify_monotonicity(3).ok
        report = verify_monotonicity(20)
        assert report.max_n == 20
        assert report.violations == []

    # each edit copies the value across one strict inequality, which then
    # fails at exactly one state while the other four families still hold
    BROKEN = [
        ((5, 0), (5, 1), "w(n,m) > w(n,m-1)", GameState(5, 1)),
        ((6, 1), (8, 1), "w(n+2,m) < w(n,m)", GameState(6, 1)),
        ((8, 2), (6, 1), "w(n+2,m+1) > w(n,m)", GameState(6, 1)),
        ((7, 2), (6, 2), "w(n+1,m) > w(n,m), n even", GameState(6, 2)),
        ((1, 0), (1, 1), "sandwich differences share a sign", GameState(3, 1)),
    ]

    # scaled: row n and its scale both times n + 1, so a comparison that
    # crossed the wrong scales would misread w
    @pytest.mark.parametrize("scaled", [False, True], ids=["scale-1", "scale-n+1"])
    @pytest.mark.parametrize("cell,source,label,state", BROKEN)
    def test_each_family_reports_its_violation(
        self, monkeypatch, cell, source, label, state, scaled
    ):
        w = {
            (n, m): Fraction(value, den)
            for n, den, row in win_chance_rows(8)
            for m, value in enumerate(row)
        }
        w[cell] = w[source]

        def rows(max_n, boundary):
            for n in range(max_n + 1):
                scale = n + 1 if scaled else 1
                yield n, scale, [scale * w[n, m] for m in range(n + 1)]

        monkeypatch.setattr(winchance, "win_chance_rows", rows)
        assert verify_monotonicity(6).violations == [(label, state)]

    def test_ties_report_family_d_at_even_n_and_c_at_half(self):
        # under ties w(n+1, m) < w(n, m) at every even n, and at m = n/2 both
        # w(n, m) and w(n+2, m+1) are already 1
        expected = []
        for n in range(2, 61, 2):
            for m in range(1, n // 2 + 1):
                if m == n // 2:
                    expected.append(("w(n+2,m+1) > w(n,m)", GameState(n, m)))
                expected.append(("w(n+1,m) > w(n,m), n even", GameState(n, m)))
        assert len(expected) == 495
        assert verify_monotonicity(60, TIES).violations == expected

    def test_a_deep_sweep_under_both_rules(self):
        # every state to n_max = 400, past criterion 05's strict n <= 50: the
        # strict report is empty, and under ties only the two families known
        # to fail there appear, (d) at even n and (c) at m = n/2
        assert verify_monotonicity(400, STRICT).violations == []
        for label, (n, m) in verify_monotonicity(400, TIES).violations:
            assert (label == "w(n+1,m) > w(n,m), n even" and n % 2 == 0) or (
                label == "w(n+2,m+1) > w(n,m)" and 2 * m == n
            ), (label, n, m)

    def test_the_sweep_keeps_five_rows(self):
        # in a fresh small process, since pytest's high-water mark would hide
        # any growth: holding every row grew max RSS by 21 MB
        code = (
            "import resource\n"
            "from mafia_odds.winchance import verify_monotonicity\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert verify_monotonicity(800).ok\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        growth_mb = int(finish(launch("-c", code))[0]) / 1024
        assert growth_mb < 5, f"max RSS grew by {growth_mb:.1f} MB"

    def test_the_ninth_player_helps_the_lone_mafioso(self):
        assert win_chance_recurrence(9, 1) > win_chance_recurrence(8, 1)

    def test_rejects_tiny_region(self):
        with pytest.raises(ValueError):
            verify_monotonicity(2)
