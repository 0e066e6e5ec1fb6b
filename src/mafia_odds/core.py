"""Exact-arithmetic primitives shared by every solver in the package.

The game model removes two players per full turn (one lynched by day, one
killed by night), so double factorials and products over every-other-integer
show up everywhere.  Counts are integers (a non-integer raises TypeError), and
the exact kernels work in integers over a scale, building one ``Fraction`` at
the API edge; floats only appear in operations whose contract says float.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "BoundaryRule",
    "GameState",
    "double_factorial",
    "falling_product",
    "log_double_factorial",
]

_LN2 = math.log(2.0)


def check_count(name: str, value: int, low: int) -> None:
    """Refuse a count ``name`` below ``low``; a non-integer raises TypeError, as in ``range``."""
    if operator.index(value) < low:
        raise ValueError(f"need {name} >= {low}, got {name}={value}")


def check_state(n: int, m: int) -> None:
    """Refuse a population outside 0 <= m <= n: n players, m of them mafia."""
    if operator.index(n) < operator.index(m) or m < 0:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")


def check_initial(N: int, M: int) -> None:
    """Refuse a starting population that is empty or outside 0 <= M <= N."""
    check_count("N", N, 1)
    check_state(N, M)


def check_approx_state(n: int, m: int) -> None:
    """Refuse n < 1 or a non-finite or negative m; these float laws allow m > n."""
    check_count("n", n, 1)
    if not 0 <= m < math.inf:
        raise ValueError(f"need m >= 0, got m={m}")


def check_window(N: int, M: int, t: int) -> None:
    """Refuse a population as ``check_initial`` does, then a turn t outside 0 <= 2t <= N - M."""
    check_initial(N, M)
    if N - M < 2 * operator.index(t) or t < 0:
        raise ValueError(f"need 0 <= 2t <= N - M, got N={N}, M={M}, t={t}")


class _Population(NamedTuple):
    n: int
    m: int


class GameState(_Population):
    """A living population: ``n`` players total, ``m`` of them mafia."""

    __slots__ = ()

    def __new__(cls, n: int, m: int) -> GameState:
        check_state(n, m)
        return super().__new__(cls, n, m)

    @classmethod
    def _make(cls, iterable) -> GameState:  # ``_replace`` builds through it
        return cls(*iterable)

    @property
    def citizens(self) -> int:
        return self.n - self.m


class BoundaryRule(enum.Enum):
    """When does the mafia win outright?

    ``STRICT_MAJORITY`` (the default) requires more mafia than citizens;
    ``TIES`` already awards the game at parity, since the mafia can force a
    stalemate of the vote and still kills by night.
    """

    STRICT_MAJORITY = "strict"
    TIES = "ties"

    def mafia_wins(self, n: int, m: int) -> bool:
        """Terminal test for a population of ``n`` players with ``m`` mafia."""
        return m >= self.first_win(n)

    def first_win(self, n: int) -> int:
        """The smallest mafia count that wins at n players; every larger one wins too.

        Strict: 2m > n.  Ties: 2m >= n with m >= 1.  A non-integer n raises TypeError.
        """
        if self is _STRICT:
            return operator.index(n) // 2 + 1
        return max(1, (operator.index(n) + 1) // 2)

    def lynch_days(self, n: int) -> int:
        """Day lynches that decide a game from n players: ``first_win(n) - 1``.

        A full turn removes two players, so it lowers ``first_win`` by
        exactly one until it reaches 1.  A lone mafioso has won once
        ``first_win`` is 1, so it faces one lynch per turn before that; and a
        mafia that holds its winning share keeps it through every later turn.
        """
        return self.first_win(n) - 1


# a module global is read faster than a member looked up through the class
_STRICT = BoundaryRule.STRICT_MAJORITY


def _product(factors: range) -> int:
    """``math.prod(factors)``, split in halves so big products multiply balanced operands."""
    if len(factors) <= 64:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ... down to 2 or 1; by convention 0!! = (-1)!! = 1.

    Rejects a non-integer k and ``k < -1``: more deeply negative double
    factorials are never needed because ratios that would produce them are
    computed as :func:`falling_product` instead.
    """
    check_count("k", k, -1)
    return _product(range(k, 1, -2))


def log_double_factorial(k: int) -> float:
    """ln(k!!) for an integer k >= -1, computed via lgamma so huge k stays cheap.

    Splitting on parity: (2j)!! = 2^j j!, and (2j+1)!! = (2j+1)!/(2^j j!).
    """
    check_count("k", k, -1)
    if k <= 0:
        return 0.0
    j = k // 2
    if k % 2 == 0:
        return j * _LN2 + math.lgamma(j + 1)
    return math.lgamma(2 * j + 2) - j * _LN2 - math.lgamma(j + 1)


@lru_cache(maxsize=1024, typed=True)  # a float key never meets an int's entry
def falling_product(N: int, t: int, i: int) -> Fraction:
    """Exact value of ``prod_{j=0}^{t-1} (N - 2j - i) / (N - 2j)``.

    This product is the normative form of the double-factorial ratio
    (N-2t)!! (N-i)!! / (N!! (N-2t-i)!!): when a factor hits zero the whole
    product is zero (which is how 1/(negative even)!! terms vanish), and when
    factors cross zero for odd ``i`` the product carries the sign, so no
    extension of !! to negative arguments is ever required.  Numerator and
    denominator are integer products; one ``Fraction`` normalises them.
    Integer counts only, with t, i >= 0 and 2t <= N, on every call, cached or not.

    For 1 < i < 2t the factors N - i ... N - 2t + 2 (N - 2t + 1 for odd i)
    appear on both sides and are >= 1, so they cancel: with p = i % 2, i
    leaves ``prod_{j < i//2} (N - p - 2t - 2j) / (N - p - 2j)``, times
    ``falling_product(N, t, 1)`` for an odd i.
    """
    check_count("t", t, 0)
    check_count("i", i, 0)
    if 2 * t > operator.index(N):
        raise ValueError(f"need 2t <= N, got N={N}, t={t}")
    if t > sys.maxsize:  # the products' ranges could not take their len()
        raise ValueError(f"need t <= sys.maxsize, got N={N}, t={t}")
    if i == 1 or i >= 2 * t:
        return Fraction(
            _product(range(N - i, N - i - 2 * t, -2)), _product(range(N, N - 2 * t, -2))
        )
    p = i % 2
    return (falling_product(N, t, 1) if p else 1) * Fraction(
        _product(range(N - p - 2 * t, N - 2 * t - i, -2)), _product(range(N - p, N - i, -2))
    )
