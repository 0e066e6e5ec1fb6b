"""Independent reference implementations the tests check the package against.

Nothing here may import from the modules it oracles beyond plain domain
types: the whole point is structural independence.
"""

from fractions import Fraction
from functools import lru_cache

from mafia_odds.core import BoundaryRule


def brute_force_win_chance(
    n: int, m: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY
) -> Fraction:
    """Exact mafia win probability by expanding the full game tree.

    Day and night are separate eliminations with terminal checks after each,
    mirroring the simulator's bookkeeping rather than the two-at-a-time
    recurrence, so agreement between the two is meaningful.
    """

    @lru_cache(maxsize=None)
    def before_day(n: int, m: int) -> Fraction:
        if m == 0:
            return Fraction(0)
        if boundary.mafia_wins(n, m):
            return Fraction(1)
        lynch_mafia = Fraction(m, n)
        return lynch_mafia * before_night(n - 1, m - 1) + (
            1 - lynch_mafia
        ) * before_night(n - 1, m)

    @lru_cache(maxsize=None)
    def before_night(n: int, m: int) -> Fraction:
        if m == 0:
            return Fraction(0)
        if boundary.mafia_wins(n, m):
            return Fraction(1)
        return before_day(n - 1, m)  # the mafia kills a citizen

    return before_day(n, m)


def double_factorial_rows(max_n: int, boundary: BoundaryRule = BoundaryRule.STRICT_MAJORITY):
    """Yield (n, n!!, row) for n = 0..max_n with row[m] = n!! w(n, m), an integer.

    The plain integer ladder: W(n, m) = (n - m) W(n-2, m) + m W(n-2, m-1),
    W = 0 at m = 0 and W = n!! once the boundary rule gives the mafia the
    game.  Every row is scaled by the full double factorial, so no step
    divides; the package's ladder uses a smaller scale and an exact division.
    """
    rows, dfacts = {}, {-2: 1, -1: 1}

    def W(k: int, m: int) -> int:
        # a state past row k's end (W(0, 1)) is one the mafia has already won
        return dfacts[k] if boundary.mafia_wins(k, m) else rows[k][m]

    for n in range(max_n + 1):
        dfacts[n] = max(n, 1) * dfacts[n - 2]
        rows[n] = [
            0 if m == 0 else dfacts[n] if boundary.mafia_wins(n, m)
            else (n - m) * W(n - 2, m) + m * W(n - 2, m - 1)
            for m in range(n + 1)
        ]
        rows.pop(n - 4, None)
        yield n, dfacts[n], rows[n]


def ternary_argmax(fn, lo: float, hi: float, iterations: int = 200) -> float:
    """Argmax of a unimodal function on [lo, hi]; handles boundary maxima."""
    for _ in range(iterations):
        third = (hi - lo) / 3.0
        a = lo + third
        b = hi - third
        if fn(a) < fn(b):
            lo = a
        else:
            hi = b
    return 0.5 * (lo + hi)
