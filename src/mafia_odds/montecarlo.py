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
full turn changes 2m - alive by 0 or +2, so once the mafia holds its winning
share (m > alive/2, or m >= alive/2 under ties) it keeps it, with m >= 1,
through every later turn; and m = 0 stays 0, since u * alive < 0 never
holds.  The winner is therefore a function of the final mafia count alone.
:func:`_mafia_chunk` runs nothing but the lynch step for a fixed number of
days and returns the histogram of that count: ``boundary.lynch_days(n)``
days for :func:`estimate_win_chance`, which counts every trial with m > 0 as
a mafia win, and t days for :func:`estimate_distribution`.  A trial whose
game ended earlier still has its later uniforms drawn, but they cannot
change its winner, so every per-trial stream, and the seeding contract, is
unchanged.  The kernel turns each uniform into a lynch level
min(floor(u * alive), m), a small unsigned integer; for an integer count
mafia <= m, u * alive < mafia exactly when the level is below mafia, so
the day loop over contiguous rows of levels counts what the float test
would.

Memory and workers.  PCG64 fills row-major, so a chunk is drawn in row
sub-blocks of at most ``_BLOCK_VALUES`` uniforms (16 MiB of float64) that
are, bit for bit, the rows of one whole-chunk draw: a chunk's memory stays
bounded whatever n is.  A call whose work (trials x draws) is below
``_PARALLEL_MIN_VALUES`` uniforms runs in-process, because starting a worker
pool costs more than it saves there.  numpy is imported on first use, so
importing the package (and every exact CLI command) does not pay for it.
"""

from __future__ import annotations

import enum
import math
import os
from collections.abc import Iterator
from typing import TYPE_CHECKING, NamedTuple

from .core import BoundaryRule, GameState, check_initial, check_state, check_window

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

# uniforms per row sub-block of a chunk (16 MiB of float64): a chunk's memory
_BLOCK_VALUES = 1 << 21
# trials x draws below which a call runs its chunks in-process, without a
# pool: measured on 2 CPUs with 131,072 trials, one process wins at 8.0e6
# uniforms (serial 79-81 ms vs pool 84-157 ms) and a two-worker pool at
# 1.3e7 (109-112 vs 118-125 ms); from 9.3e6 to 1.06e7 the winner changes
# from run to run with the pool's start-up
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
    while True:
        if m == 0:
            return Trajectory(tuple(states), Winner.CITIZENS)
        if boundary.mafia_wins(n, m):
            return Trajectory(tuple(states), Winner.MAFIA)
        # day: lynch a uniformly random living player
        if rng.randrange(n) < m:
            m -= 1
        n -= 1
        if m == 0 or boundary.mafia_wins(n, m):
            states.append(GameState(n, m))
            continue
        # night: the mafia kills a citizen
        n -= 1
        states.append(GameState(n, m))


def _blocks(seed: int, chunk_index: int, rows: int, draws: int) -> Iterator[np.ndarray]:
    """Yield chunk ``chunk_index``'s (rows, draws) uniforms as row sub-blocks.

    Each block holds at most ``_BLOCK_VALUES`` values (at least one row) and
    is a view of one reused buffer, valid until the next block is drawn.
    """
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    generator = np.random.Generator(np.random.PCG64(ss))
    step = max(1, _BLOCK_VALUES // draws)
    buffer = np.empty((min(rows, step), draws))
    for start in range(0, rows, step):
        block = buffer[: min(step, rows - start)]
        generator.random(out=block)
        yield block


def _mafia_chunk(
    seed: int, chunk_index: int, rows: int, n: int, m: int, days: int, draws: int
) -> np.ndarray:
    """Histogram of the mafia count after ``days`` turns, one chunk of trials.

    Trial rows hold ``draws`` uniforms each; day ``day`` reads column ``day``
    and lynches among the ``n - 2*day`` living players.  Each sub-block is
    scaled in place by those counts (0 in the columns no day reads), cut to
    lynch levels in the smallest unsigned dtype that holds m, and copied
    transposed, so that each day reads one contiguous row of levels.
    """
    import numpy as np

    level_type = np.min_scalar_type(m)
    alive = np.zeros(draws)
    alive[:days] = range(n, n - 2 * days, -2)
    counts = np.zeros(m + 1, dtype=np.int64)
    for uniforms in _blocks(seed, chunk_index, rows, draws):
        np.multiply(uniforms, alive, out=uniforms)
        levels = np.empty(uniforms.shape, level_type)
        np.minimum(uniforms, m, out=levels, casting="unsafe")
        mafia = np.full(len(levels), m, dtype=level_type)
        for level_row in np.ascontiguousarray(levels[:, :days].T):
            mafia -= level_row < mafia
        counts += np.bincount(mafia, minlength=m + 1)
    return counts


def _worker_count(threads: int | None, chunks: int) -> int:
    """Requested workers, capped by MAFIA_ODDS_THREADS (0 = auto) and chunk count.

    An empty MAFIA_ODDS_THREADS counts as unset; anything but a non-negative
    integer, there or in ``threads``, raises ValueError.
    """
    if threads is not None and threads < 0:
        raise ValueError(f"threads must be a non-negative integer, got {threads!r}")
    if hasattr(os, "sched_getaffinity"):
        auto = len(os.sched_getaffinity(0))
    else:
        auto = os.cpu_count() or 1
    request = threads or auto
    cap_env = os.environ.get("MAFIA_ODDS_THREADS", "")
    if cap_env:
        if not cap_env.isdecimal():
            raise ValueError(
                f"MAFIA_ODDS_THREADS must be a non-negative integer, got {cap_env!r}"
            )
        cap = int(cap_env)
        request = min(request, auto if cap == 0 else cap)
    return max(1, min(request, chunks))


def _chunk_layout(trials: int) -> list[tuple[int, int]]:
    full, rest = divmod(trials, CHUNK_TRIALS)
    layout = [(j, CHUNK_TRIALS) for j in range(full)]
    if rest:
        layout.append((full, rest))
    return layout


def _map_chunks(fn, args_list, threads: int | None, values: int):
    """Run ``fn`` over the chunks, in a pool only if ``values`` uniforms pay for it."""
    workers = _worker_count(threads, len(args_list))
    if workers == 1 or values < _PARALLEL_MIN_VALUES:
        return [fn(*args) for args in args_list]
    import multiprocessing

    import numpy  # noqa: F401 -- imported once here, forked workers inherit it

    with multiprocessing.Pool(workers) as pool:
        return pool.starmap(fn, args_list)


def _count_mafia(
    n: int, m: int, days: int, draws: int, trials: int, seed: int, threads: int | None
) -> np.ndarray:
    """Histogram of the mafia count after ``days`` turns over ``trials`` seeded games."""
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit value, got {seed}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    args = [(seed, j, rows, n, m, days, draws) for j, rows in _chunk_layout(trials)]
    return sum(_map_chunks(_mafia_chunk, args, threads, trials * draws))


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
    days = boundary.lynch_days(n)
    # the row width n//2 + 1 is part of the seeding contract
    counts = _count_mafia(n, m, days, n // 2 + 1, trials, seed, threads)
    wins = trials - int(counts[0])
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
    check_initial(N, M)
    check_window(N, M, t)
    counts = _count_mafia(N, M, t, max(t, 1), trials, seed, threads)
    counts = tuple(int(c) for c in counts)
    probs = tuple(c / trials for c in counts)
    return EmpiricalDistribution(
        N=N, M=M, t=t, trials=trials, seed=seed, counts=counts, probs=probs
    )
