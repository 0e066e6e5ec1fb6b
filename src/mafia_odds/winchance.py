"""Mafia winning-chance w(n, m): exact recurrence, exact closed form, asymptotics.

Model: each full turn the town lynches a uniformly random player (kills a
mafioso with probability m/n) and the mafia then kills a citizen by night, so

    w(n, m) = ((n - m)/n) w(n-2, m) + (m/n) w(n-2, m-1)

with w = 0 once the mafia is extinct and w = 1 once the boundary rule declares
a mafia win.  The closed form is 1 - p_0 at the endgame
t = ``boundary.lynch_days(n)``, read from the one signed-binomial sum
``evolution.pm_closed``, and w(n, 1) is the i = 1 term of that sum; the
asymptotic forms trade exactness for O(1) evaluation.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .core import (
    BoundaryRule,
    GameState,
    check_approx_state,
    check_state,
    double_factorial,
    falling_product,
    log_double_factorial,
)
from .evolution import pm_closed

__all__ = [
    "MonotonicityReport",
    "optimal_mafia_approx",
    "optimal_mafia_asymptotic",
    "optimal_mafia_numeric",
    "optimal_mafia_rows",
    "parity_ratio",
    "verify_monotonicity",
    "win_chance_asymptotic",
    "win_chance_closed",
    "win_chance_leading_term",
    "win_chance_limit",
    "win_chance_recurrence",
    "win_chance_rows",
    "win_chance_single",
]


def _ladder(
    top: int, boundary: BoundaryRule, cap: int | None = None
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (n, n!!, row) for n = top % 2, top % 2 + 2, ..., top.

    row[m] = W(n, m) = n!! w(n, m), an integer, because every step of the
    recurrence divides by the live population only:

        W(n, m) = (n - m) W(n-2, m) + m W(n-2, m-1),

    with W = 0 at m = 0 and W = n!! once the boundary rule gives the mafia
    the game, which also answers transient states with m > n - 2.  Every
    row is complete: m = 0..n, or m = 0..cap if a cap is given, with n!!
    filled in from its first boundary column on.  Only the previous row is
    kept.
    """
    dfact, stay = 1, []
    for n in range(top % 2, top + 1, 2):
        dfact *= max(n, 1)  # 0!! = 1
        width = n + 1 if cap is None else cap + 1
        last = min(boundary.first_win(n), width)
        row = [0] + [(n - m) * stay[m] + m * stay[m - 1] for m in range(1, last)]
        row += [dfact] * (width - last)
        # the ladder's own copy, so the caller may keep or change the row;
        # the strict step to n = 2 reads W(0, 1) = 0!! past n = 0's row
        stay = row + [dfact]
        yield n, dfact, row


def win_chance_rows(
    max_n: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (n, n!!, row) for n = 0, 1, ..., max_n with row[m] = n!! w(n, m).

    Every row is complete, 0 <= m <= n, and holds integers; w(n, m) is
    ``Fraction(row[m], n!!)``.  Both parity ladders advance together, so
    the whole sweep fills each of its O(max_n^2) cells once.
    """
    if max_n < 0:
        raise ValueError(f"need max_n >= 0, got max_n={max_n}")
    yield from _both_ladders(max_n, boundary)


def _both_ladders(max_n: int, boundary: BoundaryRule, cap: int | None = None):
    """The two parity ladders, merged into n = 0, 1, ..., max_n."""
    return heapq.merge(_ladder(max_n, boundary, cap), _ladder(max_n - 1, boundary, cap))


def win_chance_recurrence(
    n: int, m: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> Fraction:
    """Exact w(n, m) from the integer recurrence ladder, columns 0..m only."""
    check_state(n, m)
    for _, dfact, row in _ladder(n, boundary, cap=m):
        pass
    return Fraction(row[m], dfact)


def win_chance_single(n: int) -> Fraction:
    """Exact w(n, 1) = (n-1)!!/n!!: one mafioso dodging n//2 lynch votes.

    n = 0 is the exhausted-pool state reached from (2, 1) when the lynch
    misses: nobody is left to vote, the mafioso has won, w(0, 1) = 1.  The
    double factorials agree, (-1)!!/0!! = 1, which keeps the identity
    n w(n, 1) w(n-1, 1) = 1 valid all the way down to n = 1.  The ratio is
    the i = 1 term ``falling_product(n, n//2, 1)`` of the closed sum.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    return falling_product(n, n // 2, 1)


def win_chance_closed(
    n: int, m: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> Fraction:
    """Exact w(n, m) as a closed sum, no recurrence.

    w(n, m) = 1 - p_0(d) = 1 - sum_{i=0}^{m} C(m, i) (-1)^i
    falling_product(n, d, i) with d = ``boundary.lynch_days(n)``: the mafia
    wins unless it is extinct after the last lynch that can still decide
    the game, n//2 under the strict rule and (n-1)//2 under ties.  For odd n
    the two agree, so both rules give the same w there.
    """
    return 1 - pm_closed(n, m, 0, boundary.lynch_days(n))


def win_chance_leading_term(n: int, m: int) -> float:
    """The still-exactish intermediate approximation m (n-1)!!/n!!.

    Computed in log space so n in the millions costs the same as n = 10.
    """
    check_approx_state(n, m)
    return m * math.exp(log_double_factorial(n - 1) - log_double_factorial(n))


def win_chance_asymptotic(n: int, m: int) -> float:
    """The paper's parity-aware approximation (pi/2)^((n mod 2) - 1/2) m/sqrt(n).

    This is m times the large-n form of w(n, 1): the first-order term for
    m << sqrt(n), reproduced from the paper.  It is linear in m, so at
    m ~ sqrt(n) it overshoots the true w(n, m), which bends below the line;
    ``win_chance_limit`` is the large-n law there, and its slope at
    m/sqrt(n) -> 0 is exactly this function.
    """
    check_approx_state(n, m)
    return (math.pi / 2) ** ((n % 2) - 0.5) * m / math.sqrt(n)


def _limit_law(c: float, odd: bool) -> float:
    """lim w(n, c sqrt(n)) as n -> infinity through one parity class."""
    if odd:
        return (
            1.0
            - math.exp(-c * c / 2)
            + c * math.sqrt(math.pi / 2) * math.erfc(c / math.sqrt(2))
        )
    return math.erf(c / math.sqrt(2))


def win_chance_limit(n: int, m: float) -> float:
    """Large-n limit law of w(n, m) at m = c sqrt(n), strict boundary.

    Even n:  w -> erf(c/sqrt(2)).
    Odd n:   w -> 1 - exp(-c^2/2) + c sqrt(pi/2) erfc(c/sqrt(2)).

    Derivation from the closed form 1 - w = sum_i (-1)^i C(m, i) F_i with
    F_i = falling_product(n, n//2, i).  Writing k = n//2, the product is a
    ratio of Gamma functions:

      even n:  F_i = Gamma(k+1-i/2) / (Gamma(1-i/2) Gamma(k+1))
                   ~ k^(-i/2) / Gamma(1-i/2),
      odd n:   F_i = Gamma(k+3/2-i/2) Gamma(3/2) / (Gamma(3/2-i/2) Gamma(k+3/2))
                   ~ k^(-i/2) Gamma(3/2) / Gamma(3/2-i/2).

    With C(m, i) ~ m^i / i!, m = c sqrt(n) and k ~ n/2, the i-th term tends
    to (-z)^i / (i! Gamma(b - i/2)) with z = c sqrt(2) and b = 1 (even) or
    3/2 (odd, times Gamma(3/2)).  Term by term these are Wright functions
    W_b(-z) = sum_i (-z)^i / (i! Gamma(b - i/2)), and W_1(-z) = erfc(z/2)
    gives the even law.  Differentiating the series shows
    d/dz W_{3/2}(-z) = -W_1(-z), so W_{3/2}(-z) = 1/Gamma(3/2) minus the
    integral of erfc(s/2) over [0, z], which gives the odd law.

    Both laws rise from 0 to 1 in c.  Their slopes at c -> 0 are
    sqrt(2/pi) and sqrt(pi/2), the constants of ``win_chance_asymptotic``,
    so the paper's linear approximation is the first-order term of this
    law.  The error against the exact w is O(1/sqrt(n)): about 0.015 at
    n = 400 and 0.0075 at n = 1600 over m <= 2 sqrt(n).
    """
    check_approx_state(n, m)
    return _limit_law(m / math.sqrt(n), n % 2 == 1)


def _half_root(odd: bool) -> float:
    """The c at which the limit law equals 1/2, by bisection to the last bit."""
    lo, hi = 0.0, 2.0  # both laws exceed 1/2 at c = 2
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return lo
        if _limit_law(mid, odd) < 0.5:
            lo = mid
        else:
            hi = mid


_HALF_ROOTS = (_half_root(False), _half_root(True))


def parity_ratio(k: int) -> Fraction:
    """Exact w(2k+1, 1)/w(2k, 1) = ((2k)!!/(2k-1)!!)^2 / (2k+1).

    These are the partial products of the Wallis product: strictly increasing
    in k with limit pi/2, which is why one extra (odd) player helps the lone
    mafioso by almost a constant factor.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    even = double_factorial(2 * k)
    odd = double_factorial(2 * k - 1)
    return Fraction(even * even, odd * odd * (2 * k + 1))


def _closest_to_half(dfact: int, row: list[int]) -> int:
    """The m whose w = row[m]/n!! is closest to 1/2; ties go to smaller m."""
    # w rises with m and ends past 1/2: the first c with 2 row[c] >= n!!, or c - 1
    c = bisect.bisect_left(row, (dfact + 1) // 2)
    return c - (dfact - 2 * row[c - 1] <= 2 * row[c] - dfact)


def optimal_mafia_rows(
    max_n: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> Iterator[tuple[int, int]]:
    """Yield (n, m_opt) for n = 1..max_n: the m in 0..n with w(n, m) closest to 1/2.

    Ties go to smaller m.  The ladders stop at column isqrt(2 max_n) + 1,
    which is safe: F_k = ``falling_product(n, boundary.lynch_days(n), k)``,
    the chance that k given mafiosi survive every lynch, has F_2 <= F_1^2,
    so by Bonferroni w(n, m) >= m F_1 - C(m, 2) F_1^2, which is >= 1/2 at
    m = ceil(1/F_1) <= isqrt(2n) + 1, as F_1 >= 1/sqrt(2n) (Wallis).  Past
    the 1/2 crossing w only grows, so no later m is fairer.
    """
    if max_n < 0:
        raise ValueError(f"need max_n >= 0, got max_n={max_n}")
    for n, dfact, row in _both_ladders(max_n, boundary, math.isqrt(2 * max_n) + 1):
        if n >= 1:
            yield n, _closest_to_half(dfact, row)


def optimal_mafia_numeric(
    n: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> int:
    """The m in 0..n whose exact w(n, m) is closest to 1/2; ties go to smaller m."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    # n's parity ladder only, at the cap that ``optimal_mafia_rows`` proves
    for _, dfact, row in _ladder(n, boundary, math.isqrt(2 * n) + 1):
        pass
    return _closest_to_half(dfact, row)


def optimal_mafia_approx(n: int) -> float:
    """The paper's square-root formula (1/2) (pi/2)^(1/2 - (n mod 2)) sqrt(n).

    It solves the first-order term ``win_chance_asymptotic(n, m) = 1/2``,
    which holds only for m << sqrt(n); it is reproduced from the paper, not
    the large-n optimum.  Its constants 0.62666 (even) and 0.39894 (odd)
    are below the true ones of ``optimal_mafia_asymptotic``, so its gap to
    the exact optimum grows like sqrt(n).
    """
    check_approx_state(n, 0)
    return 0.5 * (math.pi / 2) ** (0.5 - (n % 2)) * math.sqrt(n)


def optimal_mafia_asymptotic(n: int) -> float:
    """Large-n optimum c_p sqrt(n), where ``win_chance_limit`` crosses 1/2.

    c_even = sqrt(2) erfinv(1/2) = 0.674490 and c_odd = 0.494589 are the
    roots of the two parity laws, found by bisection; neither is fitted to
    the exact optimum.
    """
    check_approx_state(n, 0)
    return _HALF_ROOTS[n % 2] * math.sqrt(n)


class MonotonicityReport(NamedTuple):
    """Outcome of sweeping the qualitative inequalities over a state region."""

    max_n: int
    violations: list[tuple[str, GameState]]

    @property
    def ok(self) -> bool:
        return not self.violations


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def verify_monotonicity(
    n_max: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> MonotonicityReport:
    """Check five inequality families over all states with n <= n_max, n-m >= m >= 1.

    For each in-region state (n, m):

      a. one more mafioso helps:        w(n, m)   > w(n, m-1)
      b. two more players hurt:         w(n+2, m) < w(n, m)
      c. an extra citizen and mafioso:  w(n+2, m+1) > w(n, m)
      d. one extra (odd) player helps:  w(n+1, m) > w(n, m) for even n
      e. the three pairwise differences among w(n-2, m), w(n, m) and
         w(n-2, m-1) share a sign (the convex-combination sandwich).

    Returns a report whose violation list is expected to be empty.
    """
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got n_max={n_max}")
    rows = [
        [Fraction(value, dfact) for value in row]
        for _, dfact, row in win_chance_rows(n_max + 2, boundary)
    ]

    def w(n: int, m: int) -> Fraction:
        return rows[n][m]

    violations: list[tuple[str, GameState]] = []
    for n in range(2, n_max + 1):
        # the region n - m >= m >= 1 is exactly 1 <= m <= n // 2
        for m in range(1, n // 2 + 1):
            state = GameState(n, m)
            if not w(n, m) > w(n, m - 1):
                violations.append(("w(n,m) > w(n,m-1)", state))
            if not w(n + 2, m) < w(n, m):
                violations.append(("w(n+2,m) < w(n,m)", state))
            if not w(n + 2, m + 1) > w(n, m):
                violations.append(("w(n+2,m+1) > w(n,m)", state))
            if n % 2 == 0 and not w(n + 1, m) > w(n, m):
                violations.append(("w(n+1,m) > w(n,m), n even", state))
            if m <= n - 2:
                d_stay = w(n - 2, m) - w(n, m)
                d_drop = w(n, m) - w(n - 2, m - 1)
                d_span = w(n - 2, m) - w(n - 2, m - 1)
                if not _sign(d_stay) == _sign(d_drop) == _sign(d_span):
                    violations.append(("sandwich differences share a sign", state))
    return MonotonicityReport(n_max, violations)
