"""Exact-arithmetic primitives shared by every solver in the package.

The game model removes two players per full turn (one lynched by day, one
killed by night), so double factorials and products over every-other-integer
show up everywhere.  All exact values are ``fractions.Fraction``; floats only
appear in operations whose contract says float.
"""

from __future__ import annotations

import enum
import math
import operator
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


def check_state(n: int, m: int) -> None:
    """Refuse a population outside 0 <= m <= n: n players, m of them mafia."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")


def check_initial(N: int, M: int) -> None:
    """Refuse a starting population that is empty or outside 0 <= M <= N."""
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    check_state(N, M)


def check_approx_state(n: int, m: int) -> None:
    """Refuse n < 1 or a non-finite or negative m; these float laws allow m > n."""
    if operator.index(n) < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0 <= m < math.inf:
        raise ValueError(f"need m >= 0, got m={m}")


def check_window(N: int, M: int, t: int) -> None:
    """Refuse a turn t outside the validity window 0 <= 2t <= N - M."""
    if not 0 <= 2 * t <= N - M:
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

        Strict: 2m > n.  Ties: 2m >= n with m >= 1.
        """
        if self is _STRICT:
            return n // 2 + 1
        return max(1, (n + 1) // 2)

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

    Rejects ``k < -1``: more deeply negative double factorials are never
    needed because ratios that would produce them are computed as
    :func:`falling_product` instead.
    """
    if k < -1:
        raise ValueError(f"double_factorial undefined for k={k}")
    return _product(range(k, 1, -2))


def log_double_factorial(k: int) -> float:
    """ln(k!!) for k >= -1, computed via lgamma so huge k stays cheap.

    Splitting on parity: (2j)!! = 2^j j!, and (2j+1)!! = (2j+1)!/(2^j j!).
    """
    if k < -1:
        raise ValueError(f"log_double_factorial undefined for k={k}")
    if k <= 0:
        return 0.0
    j = k // 2
    if k % 2 == 0:
        return j * _LN2 + math.lgamma(j + 1)
    return math.lgamma(2 * j + 2) - j * _LN2 - math.lgamma(j + 1)


@lru_cache(maxsize=1024)
def falling_product(N: int, t: int, i: int) -> Fraction:
    """Exact value of ``prod_{j=0}^{t-1} (N - 2j - i) / (N - 2j)``.

    This product is the normative form of the double-factorial ratio
    (N-2t)!! (N-i)!! / (N!! (N-2t-i)!!): when a factor hits zero the whole
    product is zero (which is how 1/(negative even)!! terms vanish), and when
    factors cross zero for odd ``i`` the product carries the sign, so no
    extension of !! to negative arguments is ever required.  Numerator and
    denominator are integer products; one ``Fraction`` normalises them.
    """
    if N < 0 or t < 0 or i < 0:
        raise ValueError(f"need N, t, i >= 0, got N={N}, t={t}, i={i}")
    if 2 * t > N:
        raise ValueError(f"need 2t <= N, got N={N}, t={t}")
    return Fraction(
        _product(range(N - i, N - i - 2 * t, -2)), _product(range(N, N - 2 * t, -2))
    )
