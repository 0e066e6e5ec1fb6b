"""Seeded Monte Carlo play-through of the random-lynch game.

Two layers:

* :func:`simulate_game` plays a single game step by step against any
  ``random.Random``-style stream and returns the full trajectory.  This is
  the readable reference implementation of the rules.
* :func:`estimate_win_chance` and :func:`estimate_distribution` run millions
  of games vectorized over fixed-size chunks.  Trial ``i`` lives in chunk
  ``i // 65536``; chunk ``j`` draws from ``PCG64(SeedSequence(seed,
  spawn_key=(j,)))`` a row-major matrix of uniform floats, one row of
  ``draws_per_trial`` values per trial.  The per-trial stream is therefore a
  pure function of (seed, trial index), so results never depend on how many
  workers execute the chunks.  A day lynch kills a mafioso when the trial's
  next uniform u satisfies u * alive < m; rounding makes that probability
  differ from m/alive by at most 2^-52, far below any tolerance used here.

One kernel, no per-trial bookkeeping.  The game is a pure death process: a
full turn lowers ``boundary.first_win(alive)`` by one (until it reaches 1)
and m by at most one, so once the mafia holds its winning share,
m >= first_win, it keeps it through every later turn; and m = 0 stays 0,
since u * alive < 0 never holds.  The winner is therefore a function of the
final mafia count alone.
:func:`_mafia_chunk` runs nothing but the lynch step for a fixed number of
days and returns the histogram of that count: ``boundary.lynch_days(n)``
days for :func:`estimate_win_chance`, which counts every trial with m > 0 as
a mafia win, and t days for :func:`estimate_distribution`.  A trial whose
game ended earlier still has its later uniforms drawn, but they cannot
change its winner, so every per-trial stream, and the seeding contract, is
unchanged.  A game decided before the first lynch (m = 0, or m >=
first_win(n)), like a distribution at t = 0, needs no day at all: every
trial ends at m, so that histogram is returned without drawing a uniform,
after the same argument checks as any other call.  The kernel turns each
uniform into a lynch level min(floor(u * alive), m), a small unsigned
integer; for an integer count mafia <= m, u * alive < mafia exactly when
the level is below mafia, so the day loop over contiguous rows of levels
counts what the float test would.

Memory and workers.  A chunk's trials run in level groups of about
``_LEVEL_VALUES`` one-byte levels.  PCG64 fills row-major, so each group
draws its rows from the chunk's one generator in blocks of at most
``_BLOCK_VALUES`` uniforms (1 MiB of float64), and the blocks are, bit for
bit, the rows of one whole-chunk draw.  Each block is scaled while it is
still in cache and cut straight into its columns of the group, one pass
that transposes it; the day loop runs once per group.  A chunk's memory
(about 5 MiB at n = 1000) is therefore flat in n while one trial row fits
in a block, n//2 + 1 <= ``_BLOCK_VALUES``; past that a block is one row,
and a chunk grows by about 9 bytes per player (4.6 MiB for 2 trials at
n = 2**19).
A call whose work (trials x draws) is below ``_PARALLEL_MIN_VALUES``
uniforms runs in-process, because starting a worker pool costs more than
it saves there.  Above it the pool has the fewest workers of four
limits, each of which can only lower the count: the CPUs the process may
run on, ``threads``, MAFIA_ODDS_THREADS and the chunk count.  numpy is
imported on first use, so importing the package (and every exact CLI
command, and every decided state) does not pay for it.
The package never calls BLAS, so :func:`_numpy` imports numpy with
OPENBLAS_NUM_THREADS=1 and restores the environment afterwards; a caller
who imported numpy first, or set that variable, keeps their BLAS threads.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import sys
from typing import TYPE_CHECKING, NamedTuple

from .core import BoundaryRule, GameState, check_count, check_state, check_window

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EmpiricalDistribution",
    "SimulationReport",
    "Trajectory",
    "Winner",
    "estimate_distribution",
    "estimate_win_chance",
    "simulate_game",
]

# trials per vectorized chunk; part of the seeding contract, do not change
CHUNK_TRIALS = 1 << 16

# uniforms per drawn block of trial rows (1 MiB of float64, small enough to
# stay in cache from draw through scale and cut)
_BLOCK_VALUES = 1 << 17
# lynch levels per level group (4 MiB of one-byte levels), the trials the
# day loop runs over at once; with the block size, it sets a chunk's memory
_LEVEL_VALUES = 1 << 22
# trials x draws below which a call runs its chunks in-process, without a
# pool: measured on 2 CPUs with 131,072 trials (11 interleaved pairs each,
# quartiles), one process wins 11 of 11 at 8.0e6 uniforms (55-63 ms vs pool
# 81-102 ms) and a two-worker pool 8 of 11 at 1.85e7 (103-159 vs 132-254 ms);
# from 9.3e6 to 1.59e7 the winner changes from run to run with the pool's
# start-up
_PARALLEL_MIN_VALUES = 10 << 20

_MAX_SEED = 1 << 64


class Winner(enum.Enum):
    MAFIA = "mafia"
    CITIZENS = "citizens"


class Trajectory(NamedTuple):
    """One played game: the visited states and who ended up winning.

    Consecutive states differ by a full turn (two eliminations, n -> n-2,
    m -> m or m-1) except for a possibly truncated final step when the game
    ends right after the day lynch.
    """

    states: tuple[GameState, ...]
    winner: Winner


class SimulationReport(NamedTuple):
    n: int
    m: int
    trials: int
    seed: int
    mafia_wins: int
    estimate: float
    std_error: float


class EmpiricalDistribution(NamedTuple):
    """Observed mafia-count frequencies after t full turns."""

    N: int
    M: int
    t: int
    trials: int
    seed: int
    counts: tuple[int, ...]
    probs: tuple[float, ...]


def simulate_game(
    n: int, m: int, boundary: BoundaryRule, rng
) -> Trajectory:
    """Play one game, drawing every lynch from ``rng.randrange``.

    Terminal conditions are checked after every single elimination: a game
    can end right after the day lynch (mafia extinct, or mafia reaching the
    boundary rule's winning share before night), in which case the final
    recorded state reflects only that one elimination.
    """
    check_state(n, m)
    states = [GameState(n, m)]
    while m and not boundary.mafia_wins(n, m):
        # day: lynch a uniformly random living player
        if rng.randrange(n) < m:
            m -= 1
        n -= 1
        # night: the mafia kills a citizen, unless the lynch ended the game
        if m and not boundary.mafia_wins(n, m):
            n -= 1
        states.append(GameState(n, m))
    return Trajectory(tuple(states), Winner.MAFIA if m else Winner.CITIZENS)


def _numpy():
    """numpy, imported the first time with one OpenBLAS thread.

    Loading numpy starts an OpenBLAS server thread per extra CPU, which spins
    for about 0.1 s, and the package never calls BLAS.  Unless numpy is
    already loaded or the caller set OPENBLAS_NUM_THREADS, the variable is
    "1" for the import only: forked workers inherit the one thread, and
    processes started later see the caller's environment unchanged.
    """
    if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" in os.environ:
        import numpy
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
    return numpy


def _mafia_chunk(
    seed: int, chunk_index: int, rows: int, n: int, m: int, days: int, draws: int
) -> np.ndarray:
    """Histogram of the mafia count after ``days`` turns, one chunk of trials.

    Trial rows hold ``draws`` uniforms each; day ``day`` reads column ``day``
    and lynches among the ``n - 2*day`` living players.  The trials run in
    level groups of ``width`` trials.  Each group draws its rows in blocks
    of at most ``_BLOCK_VALUES`` uniforms into one reused buffer; a block is
    scaled in place by those counts (0 in the columns no day reads), and
    its day columns are cut, transposed, straight into the group's columns
    as lynch levels in the smallest unsigned dtype that holds m, so that
    each day reads one contiguous row of the group.  The day loop then runs
    once per group.
    """
    np = _numpy()

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    generator = np.random.Generator(np.random.PCG64(ss))
    level_type = np.min_scalar_type(m)
    alive = np.zeros(draws)
    alive[:days] = np.arange(n, n - 2 * days, -2)
    step = max(1, _BLOCK_VALUES // draws)
    width = max(1, _LEVEL_VALUES // max(days, 1))
    uniforms = np.empty((min(rows, step), draws))
    by_day = np.empty((days, min(rows, width)), level_type)
    counts = np.zeros(m + 1, dtype=np.int64)
    for start in range(0, rows, width):
        group = by_day[:, : min(width, rows - start)]
        for at in range(0, group.shape[1], step):
            block = uniforms[: min(step, group.shape[1] - at)]
            generator.random(out=block)
            np.multiply(block, alive, out=block)
            np.minimum(block[:, :days].T, m, out=group[:, at : at + len(block)], casting="unsafe")
        mafia = np.full(group.shape[1], m, dtype=level_type)
        for level_row in group:
            mafia -= level_row < mafia
        counts += np.bincount(mafia, minlength=m + 1)
    return counts


def _worker_count(threads: int | None, chunks: int) -> int:
    """The fewest of: CPUs, ``threads``, MAFIA_ODDS_THREADS and ``chunks``.

    ``threads`` None or 0, and MAFIA_ODDS_THREADS empty, unset or 0, mean
    one worker per CPU the process may run on.  A non-integer ``threads``
    raises TypeError; a negative one, or a cap of anything but digits, ValueError.
    """
    if threads is not None:
        check_count("threads", threads, 0)
    cap = os.environ.get("MAFIA_ODDS_THREADS", "")
    if cap and not cap.isdecimal():
        raise ValueError(f"MAFIA_ODDS_THREADS must be a non-negative integer, got {cap!r}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, threads or cpus, int(cap or 0) or cpus, chunks))


def _count_mafia(
    n: int, m: int, days: int, draws: int, trials: int, seed: int, threads: int | None
) -> list[int]:
    """Histogram of the mafia count after ``days`` turns over ``trials`` seeded games.

    With m = 0 or no days, every trial ends at m and nothing is drawn, once
    the arguments have been checked.  Otherwise a row wider than sys.maxsize
    draws is refused, and the chunks run in a worker pool only if
    ``trials * draws`` uniforms pay for its start-up.
    """
    # operator.index raises TypeError for a non-integer, drawn state or not
    if not 0 <= operator.index(seed) < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit value, got {seed}")
    check_count("trials", trials, 1)
    workers = _worker_count(threads, (trials - 1) // CHUNK_TRIALS + 1)
    if m == 0 or days == 0:
        return [0] * m + [trials]
    if draws > sys.maxsize:  # numpy cannot index a wider row
        raise ValueError(f"need draws <= sys.maxsize, got n={n}, draws={draws}")
    chunks = [
        (seed, j, min(CHUNK_TRIALS, trials - start), n, m, days, draws)
        for j, start in enumerate(range(0, trials, CHUNK_TRIALS))
    ]
    if workers == 1 or trials * draws < _PARALLEL_MIN_VALUES:
        return sum(_mafia_chunk(*chunk) for chunk in chunks).tolist()
    import multiprocessing

    _numpy()  # imported once here, forked workers inherit it
    with multiprocessing.Pool(workers) as pool:
        return sum(pool.starmap(_mafia_chunk, chunks)).tolist()


def estimate_win_chance(
    n: int,
    m: int,
    boundary: BoundaryRule,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> SimulationReport:
    """Estimate w(n, m) from ``trials`` independent seeded games.

    The report is a pure function of (n, m, boundary, trials, seed): the
    chunked stream construction in the module docstring makes the outcome
    independent of ``threads`` and of the MAFIA_ODDS_THREADS cap.
    """
    check_state(n, m)
    # a game the mafia has already won needs no lynch
    days = 0 if boundary.mafia_wins(n, m) else boundary.lynch_days(n)
    # the row width n//2 + 1 is part of the seeding contract; a decided game's
    # histogram is a point mass at m, of which only whether m is 0 is read
    counts = _count_mafia(n, m if days else min(m, 1), days, n // 2 + 1, trials, seed, threads)
    wins = trials - counts[0]
    estimate = wins / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SimulationReport(n, m, trials, seed, wins, estimate, std_error)


def estimate_distribution(
    N: int,
    M: int,
    t: int,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> EmpiricalDistribution:
    """Empirical counterpart of ``evolve_discrete`` at turn t.

    Within the validity window 2t <= N - M no trajectory can run out of
    citizens, so the t lynch draws are performed unconditionally; a trial
    whose mafia is already extinct just keeps m = 0.
    """
    check_window(N, M, t)
    counts = tuple(_count_mafia(N, M, t, max(t, 1), trials, seed, threads))
    probs = tuple(c / trials for c in counts)
    return EmpiricalDistribution(
        N=N, M=M, t=t, trials=trials, seed=seed, counts=counts, probs=probs
    )
