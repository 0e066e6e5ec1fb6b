"""Distribution of the mafia count over time, exactly and in a continuous limit.

Write p_m(t) for the probability that m of the initial M mafia are alive
after t full turns of a game that started with N players.  Each turn the
population shrinks by two and the lynch kills a mafioso with probability
m/alive, giving the exact update

    p_m(t+1) = ((N - 2t - m)/(N - 2t)) p_m(t) + ((m+1)/(N - 2t)) p_{m+1}(t).

Treating t as continuous turns the update into a linear ODE system whose
solution is binomial with survival amplitude s(t) = sqrt(1 - 2t/N).  The
exact path works in integers over the common denominator N (N-2) ... and
returns rationals; the continuous path works in floats, with a fixed-step
Runge-Kutta integrator as an independent numerical check.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate, islice
from typing import NamedTuple

from .core import (
    check_approx_state,
    check_count,
    check_initial,
    check_state,
    check_window,
    falling_product,
)

__all__ = [
    "ContinuousDistribution",
    "Distribution",
    "discrete_path",
    "evolve_discrete",
    "integrate_continuous",
    "mean_continuous",
    "mean_discrete",
    "peak_time",
    "pm_closed",
    "pm_continuous",
    "win_chance_continuous",
    "win_chance_continuous_linearized",
]


class Distribution(NamedTuple):
    """Exact state distribution after ``t`` full turns: probs[m] = p_m(t)."""

    N: int
    M: int
    t: int
    probs: tuple[Fraction, ...]

    @property
    def mean(self) -> Fraction:
        return sum((m * p for m, p in enumerate(self.probs)), Fraction(0))


class ContinuousDistribution(NamedTuple):
    """Float-valued distribution of the continuous-time approximation."""

    N: int
    M: int
    t: float
    probs: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(m * p for m, p in enumerate(self.probs))


def discrete_path(N: int, M: int, t_max: int | None = None) -> Iterator[tuple[int, int, list[int]]]:
    """An iterator of (t, D_t, q) for t = 0, 1, ..., t_max with q[m] = D_t p_m(t).

    D_t = N (N-2) ... (N-2t+2) is the product of the populations the lynches
    have drawn from, so the exact update becomes the integer step

        q[m] <- (alive - m) q[m] + (m+1) q[m+1],    alive = N - 2t,

    and p_m(t) = ``Fraction(q[m], D_t)``.  Each step is O(M), so the whole
    path costs O(t_max M).  The default t_max = None is the whole validity
    window 2t <= N - M, (N - M)//2 turns.  A t_max past it is refused at the
    call, before any turn, with a ValueError naming the first turn outside
    it; a negative t_max yields nothing.
    """
    t_max = (N - M) // 2 if t_max is None else t_max
    # the population, and the first turn past the window where t_max reaches it
    check_window(N, M, max(min(t_max, (N - M) // 2 + 1), 0))
    turns = accumulate(range(N, N - 2 * t_max, -2), _discrete_step, initial=(0, 1, [0] * M + [1]))
    return islice(turns, max(t_max + 1, 0))


def _discrete_step(turn: tuple[int, int, list[int]], alive: int) -> tuple[int, int, list[int]]:
    """The turn after ``turn`` = (t, D_t, q), whose lynch draws from ``alive`` players."""
    t, den, q = turn
    prev = q + [0]  # p_{M+1} = 0
    q = [(alive - m) * prev[m] + (m + 1) * prev[m + 1] for m in range(len(q))]
    return t + 1, den * alive, q


def evolve_discrete(N: int, M: int, t: int) -> Distribution:
    """Apply t exact update steps starting from the point mass at M.

    Only turns with a citizen guaranteed alive are modeled, so t must stay
    within the validity window 2t <= N - M; outside it the update's
    coefficients stop describing a real game and the call is refused.
    """
    check_window(N, M, t)
    for _, den, q in discrete_path(N, M, t):
        pass
    return Distribution(N=N, M=M, t=t, probs=tuple(Fraction(x, den) for x in q))


def pm_closed(N: int, M: int, m: int, t: int) -> Fraction:
    """Closed form for p_m(t), bypassing the step-by-step evolution.

    p_m(t) = sum_{i=m}^{M} C(M, i) C(i, m) (-1)^(i-m) falling_product(N, t, i).

    Agrees with ``evolve_discrete`` on the whole validity window, and stays
    defined up to 2t = N: the endgame t = n//2 gives the win chance
    w(n, m) = 1 - p_0, which is how ``win_chance_closed`` reads this sum.
    N = 0 is allowed, so that w(0, 0) = 0 too.
    """
    check_state(N, M)
    check_count("m", m, 0)
    if t < 0 or 2 * t > N:
        raise ValueError(f"need 0 <= 2t <= N, got N={N}, t={t}")
    total = Fraction(0)
    for i in range(m, M + 1):
        term = math.comb(M, i) * math.comb(i, m) * falling_product(N, t, i)
        total += -term if (i - m) % 2 else term
    return total


def mean_discrete(N: int, M: int, t: int) -> Fraction:
    """Exact mean mafia count after t turns: M prod_{i<t} (N-2i-1)/(N-2i).

    The product is ``falling_product(N, t, 1)``, the same one that
    ``win_chance_single`` reads at t = N//2.
    """
    check_window(N, M, t)
    return M * falling_product(N, t, 1)


def _survival(N: int, t: float) -> float:
    """s(t) = sqrt(1 - 2t/N) for real t in [0, N/2]."""
    if not 0.0 <= t <= N / 2:
        raise ValueError(f"need 0 <= t <= N/2, got N={N}, t={t}")
    return math.sqrt(1.0 - 2.0 * t / N)


def pm_continuous(N: int, M: int, m: int, t: float) -> float:
    """Continuous-time p_m(t) = C(M, m) (1 - s)^(M-m) s^m with s = sqrt(1 - 2t/N).

    Binomial in shape: each mafioso independently "survives to time t" with
    amplitude s.  Defined for real t in [0, N/2]; m > M simply gives 0.
    """
    check_initial(N, M)
    check_count("m", m, 0)
    row = _pm_row(N, M, t, [(m, math.comb(M, m))] if m <= M else ())
    return row[0] if row else 0.0


def _pm_row(N: int, M: int, t: float, binomials: Iterable[tuple[int, float]]) -> list[float]:
    """``pm_continuous(N, M, m, t)`` for each pair (m, C(M, m)) with m <= M, one s for all."""
    s = _survival(N, t)
    r = 1.0 - s
    return [c * r ** (M - m) * s**m for m, c in binomials]


def peak_time(N: int, M: int, m: int) -> float:
    """Time at which p_m(t) of the continuous approximation is maximal.

    t_m = (N/2)(1 - (m/M)^2), from setting the derivative of the binomial
    closed form to zero.  The interior-maximum derivation needs 1 <= m <= M;
    m = 0 grows right up to the boundary t = N/2 and is refused.
    """
    check_initial(N, M)
    if not 1 <= m <= M:
        raise ValueError(f"need 1 <= m <= M, got M={M}, m={m}")
    return (N / 2) * (1.0 - (m / M) ** 2)


def mean_continuous(N: int, M: int, t: float) -> float:
    """Mean of the continuous approximation: M sqrt(1 - 2t/N)."""
    check_initial(N, M)
    return M * _survival(N, t)


def _continuous_rows(N: int, M: int, t_max: float | None, spu: int) -> Iterator[tuple[float, list]]:
    """An iterator of (t, [p_0(t), ..., p_M(t), mean(t)]) at t = j/spu, j = 0, 1, ... <= t_max.

    The default t_max = None is N/2, as a float.  t_max is bounded to [-1, N],
    so the count cannot overflow; a negative one gives no sample.  Every
    refusal comes at the call, before any sample: a t_max that reaches the
    first sample past N/2, j = N spu // 2 + 1, named as j/spu where that float
    rounds into the window (N spu past 2**53), then an N or a C(M, m) past
    float range, which the float law cannot take.
    """
    last = math.floor(min(max(N / 2 if t_max is None else t_max, -1.0), N) * spu)
    past = N * spu // 2 + 1
    if last >= past:
        t = past / spu
        raise ValueError(f"need 0 <= t <= N/2, got N={N}, t={t if 2 * t > N else f'{past}/{spu}'}")
    float(N)  # refuses an N past float range, as each row would
    binomials = [(m, float(math.comb(M, m))) for m in range(M + 1)]
    times = (j / spu for j in range(last + 1))
    return ((t, [*_pm_row(N, M, t, binomials), mean_continuous(N, M, t)]) for t in times)


def integrate_continuous(
    N: int, M: int, t_end: float, step: float
) -> ContinuousDistribution:
    """Integrate the continuous-time ODE system with fixed-step classic RK4.

        dp_m/dt = (-m p_m + (m+1) p_{m+1}) / (N - 2t)

    from the point mass at M.  Entirely independent of the closed form, so it
    serves as the numerical oracle for ``pm_continuous``.  The rate blows up
    at t = N/2; t_end must keep at least 10 steps of clearance.  The step is
    nudged to the nearest value that divides t_end evenly.
    """
    check_initial(N, M)
    if not step > 0.0:
        raise ValueError(f"need step > 0, got step={step}")
    if not 0.0 <= t_end <= N / 2 - 10.0 * step:
        raise ValueError(
            f"need 0 <= t_end <= N/2 - 10*step, got N={N}, t_end={t_end}, step={step}"
        )

    def rate(p: list[float], t: float) -> list[float]:
        alive = N - 2.0 * t
        out = [0.0] * (M + 1)
        for m in range(M + 1):
            flow = -m * p[m]
            if m < M:
                flow += (m + 1) * p[m + 1]
            out[m] = flow / alive
        return out

    probs = [0.0] * (M + 1)
    probs[M] = 1.0
    steps = max(1, round(t_end / step)) if t_end > 0.0 else 0
    h = t_end / steps if steps else 0.0
    t = 0.0
    size = M + 1
    for _ in range(steps):
        k1 = rate(probs, t)
        k2 = rate([probs[i] + 0.5 * h * k1[i] for i in range(size)], t + 0.5 * h)
        k3 = rate([probs[i] + 0.5 * h * k2[i] for i in range(size)], t + 0.5 * h)
        k4 = rate([probs[i] + h * k3[i] for i in range(size)], t + h)
        probs = [
            probs[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(size)
        ]
        t += h
    return ContinuousDistribution(N=N, M=M, t=t_end, probs=tuple(probs))


def win_chance_continuous(n: int, m: int) -> float:
    """Win-chance read off the continuous approximation: 1 - (1 - 1/sqrt(n))^m.

    This evaluates 1 - p_0 at the endgame time (n-1)/2.  It is deliberately
    coarse for small n (it says 1/2 where the exact answer for one mafioso in
    four players is 3/8) but has the right large-n shape.
    """
    check_approx_state(n, m)
    return 1.0 - (1.0 - 1.0 / math.sqrt(n)) ** m


def win_chance_continuous_linearized(n: int, m: int) -> float:
    """First-order version of ``win_chance_continuous``: simply m/sqrt(n)."""
    check_approx_state(n, m)
    return m / math.sqrt(n)

