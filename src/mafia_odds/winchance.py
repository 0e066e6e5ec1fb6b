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
import math
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .core import (
    BoundaryRule,
    GameState,
    check_approx_state,
    check_count,
    check_state,
    falling_product,
    log_double_factorial,
)

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
    top: int, boundary: BoundaryRule, cap: int | None = None, step: int = 2
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (n, L_n, row) for n = top % step, top % step + step, ..., top.

    row[m] = V(n, m) = L_n w(n, m), an integer, for a scale L_n of O(n) bits:

        strict rule, even n = 2k:      L_n = 4^k;
        ties rule, even n = 2k >= 4:   L_n = k 4^(k-1)  (L_n = 1 for n <= 2);
        odd n = 2k + 1, either rule:   L_n = n C(2k, k).

    Then L_n / (n L_(n-2)) = 2/d with d = k (k - 1 for ties at even n), so
    the recurrence steps as

        V(n, m) = 2 ((n - m) V(n-2, m) + m V(n-2, m-1)) // d,

    with V = 0 at m = 0 and V = L_n once the boundary rule gives the mafia
    the game, which also answers transient states with m > n - 2.  The
    division is exact because w(n, m) = -sum_{1 <= i <= m} C(m, i) (-1)^i F_i
    with F_i = ``falling_product(n, boundary.lynch_days(n), i)``, and
    L_n F_i is an integer for every i <= m < ``boundary.first_win(n)``.
    With S(a, b) = (2a)! (2b)! / (a! b! (a+b)!), the super Catalan numbers,
    which are integers (Gessel 1992), multiplying out the factors of F_i
    gives, for a >= 0:

        strict, n = 2k:  F_(2a+1) = +-S(a, k-a) / 4^k, and F_(2a) = 0 for a >= 1;
        odd n = 2k + 1:  F_1 = 4^k / L_n, F_(2a) = +-S(a-1, k-a+1) / L_n for
                         a >= 1, and F_(2a+1) = 0 for a >= 1;
        ties, n = 2k:    F_1 = k C(2k-1, k-1) / L_n, F_2 = 1/k,
                         F_(2a+1) = +-S(a-1, k-a) / L_n for a >= 1, and
                         F_(2a) = 0 for a >= 2.

    Every row is complete: m = 0..n, or m = 0..cap if a cap is given, with
    L_n filled in from its first boundary column on.  Row n steps from row
    n - 2, so the walk keeps the last row and L of each parity: step = 2
    walks top's parity alone, step = 1 every n <= top.
    """
    ties = boundary is BoundaryRule.TIES
    back = [(1, []), (1, [])]
    for n in range(top % step, top + 1, step):
        d = n // 2 - (ties and n % 2 == 0)
        den, stay = back[n % 2]
        den = 2 * n * den // d if d > 0 else 1  # L_n = 2n L_(n-2) / d; 1 while d <= 0
        width = n + 1 if cap is None else cap + 1
        last = min(boundary.first_win(n), width)
        row = [0] + [2 * ((n - m) * stay[m] + m * stay[m - 1]) // d for m in range(1, last)]
        row += [den] * (width - last)
        # the ladder's own copy, so the caller may keep or change the row;
        # the strict step to n = 2 reads V(0, 1) = L_0 past n = 0's row
        back[n % 2] = den, row + [den]
        yield n, den, row


def win_chance_rows(
    max_n: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (n, L_n, row) for n = 0, 1, ..., max_n with row[m] = L_n w(n, m).

    Every row is complete, 0 <= m <= n, and holds integers; w(n, m) is
    ``Fraction(row[m], L_n)``, where L_n is the O(n)-bit scale that
    ``_ladder`` proves makes every row integral.  One walk over every n fills
    each of the sweep's O(max_n^2) cells once.
    """
    check_count("max_n", max_n, 0)
    yield from _ladder(max_n, boundary, step=1)


def _decided(n: int, m: int, boundary: BoundaryRule) -> Fraction | None:
    """w = 0 with no mafia, w = 1 once the rule gives the mafia the game, else None.

    A state decided before the first lynch needs no walk, whatever n is.
    """
    if m == 0 or boundary.mafia_wins(n, m):
        return Fraction(int(m > 0))
    return None


def win_chance_recurrence(
    n: int, m: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> Fraction:
    """Exact w(n, m) from the integer recurrence ladder, columns 0..m only."""
    check_state(n, m)
    if (decided := _decided(n, m, boundary)) is not None:
        return decided
    for _, den, row in _ladder(n, boundary, cap=m):
        pass
    return Fraction(row[m], den)


def win_chance_single(n: int) -> Fraction:
    """Exact w(n, 1) = (n-1)!!/n!!: one mafioso dodging n//2 lynch votes.

    n = 0 is the exhausted-pool state reached from (2, 1) when the lynch
    misses: nobody is left to vote, the mafioso has won, w(0, 1) = 1.  The
    double factorials agree, (-1)!!/0!! = 1, which keeps the identity
    n w(n, 1) w(n-1, 1) = 1 valid all the way down to n = 1.  The ratio is
    the i = 1 term ``falling_product(n, n//2, 1)`` of the closed sum.
    """
    check_count("n", n, 0)
    return falling_product(n, n // 2, 1)


def _single_mafia_rows(max_n: int) -> Iterator[tuple[int, int, int]]:
    """Yield (n, num, den) with w(n, 1) = num/den in lowest terms, n = 1..max_n.

    Each row steps the last one by n w(n, 1) w(n-1, 1) = 1, from w(0, 1) = 1.
    """
    num, den = 1, 1  # w(n-1, 1)
    for n in range(1, max_n + 1):
        # w(n, 1) = den/(n num), and gcd(num, den) = 1 leaves only gcd(den, n)
        g = math.gcd(den, n)
        num, den = den // g, n // g * num
        yield n, num, den


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
    from .evolution import pm_closed

    check_state(n, m)
    if (decided := _decided(n, m, boundary)) is not None:
        return decided
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
    check_count("k", k, 1)
    return win_chance_single(2 * k + 1) / win_chance_single(2 * k)


def _closest_to_half(den: int, row: list[int]) -> int:
    """The m whose w = row[m]/den is closest to 1/2; ties go to smaller m."""
    # w rises with m and ends past 1/2: the first c with 2 row[c] >= den, or c - 1
    c = bisect.bisect_left(row, (den + 1) // 2)
    return c - (den - 2 * row[c - 1] <= 2 * row[c] - den)


def optimal_mafia_rows(
    max_n: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> Iterator[tuple[int, int]]:
    """Yield (n, m_opt) for n = 1..max_n: the m in 0..n with w(n, m) closest to 1/2.

    Ties go to smaller m.  The walk stops at column isqrt(2 max_n) + 1,
    which is safe: F_k = ``falling_product(n, boundary.lynch_days(n), k)``,
    the chance that k given mafiosi survive every lynch, has F_2 <= F_1^2,
    so by Bonferroni w(n, m) >= m F_1 - C(m, 2) F_1^2, which is >= 1/2 at
    m = ceil(1/F_1) <= isqrt(2n) + 1, as F_1 >= 1/sqrt(2n) (Wallis).  Past
    the 1/2 crossing w only grows, so no later m is fairer.
    """
    check_count("max_n", max_n, 0)
    for n, den, row in _ladder(max_n, boundary, math.isqrt(2 * max_n) + 1, step=1):
        if n >= 1:
            yield n, _closest_to_half(den, row)


def optimal_mafia_numeric(
    n: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> int:
    """The m in 0..n whose exact w(n, m) is closest to 1/2; ties go to smaller m."""
    check_count("n", n, 1)
    # n's parity ladder only, at the cap that ``optimal_mafia_rows`` proves
    for _, den, row in _ladder(n, boundary, math.isqrt(2 * n) + 1):
        pass
    return _closest_to_half(den, row)


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

    Under the strict rule the violation list is expected to be empty, as it
    is for every n_max <= 400.  Under ties it holds every even-n state of
    family d, which holds reversed there (w(n+1, m) < w(n, m)), and family c
    at m = n/2, where both sides are 1.  The comparisons read the integer
    rows V = L w of ``win_chance_rows``: w(a, b) - w(c, d) has the sign of
    V(a, b) L_c - V(c, d) L_a.  Those reads span rows n - 2 .. n + 2, so
    the sweep keeps five rows, O(n_max^2) bits, and no more.
    """
    check_count("n_max", n_max, 3)
    window: dict[int, tuple[int, list[int]]] = {}  # (L_a, row a) for a = n-2 .. n+2

    def sign(a: int, b: int, c: int, d: int) -> int:
        """The sign of w(a, b) - w(c, d): -1, 0 or 1."""
        (den_a, row_a), (den_c, row_c) = window[a], window[c]
        x = row_a[b] * den_c - row_c[d] * den_a
        return (x > 0) - (x < 0)

    violations: list[tuple[str, GameState]] = []
    for top, den, row in win_chance_rows(n_max + 2, boundary):
        window[top] = den, row
        window.pop(top - 5, None)
        n = top - 2  # the states at n read rows n - 2 .. n + 2, all in the window
        # the region n - m >= m >= 1 is exactly 1 <= m <= n // 2
        for m in range(1, n // 2 + 1):
            state = GameState(n, m)
            if sign(n, m, n, m - 1) != 1:
                violations.append(("w(n,m) > w(n,m-1)", state))
            if sign(n + 2, m, n, m) != -1:
                violations.append(("w(n+2,m) < w(n,m)", state))
            if sign(n + 2, m + 1, n, m) != 1:
                violations.append(("w(n+2,m+1) > w(n,m)", state))
            if n % 2 == 0 and sign(n + 1, m, n, m) != 1:
                violations.append(("w(n+1,m) > w(n,m), n even", state))
            if m <= n - 2 and not (
                sign(n - 2, m, n, m) == sign(n, m, n - 2, m - 1) == sign(n - 2, m, n - 2, m - 1)
            ):
                violations.append(("sandwich differences share a sign", state))
    return MonotonicityReport(n_max, violations)
