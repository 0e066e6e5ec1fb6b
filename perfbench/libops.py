"""Library-call operations of the benchmark, each run as its own process.

    python3 perfbench/libops.py grid VARIANT [THREADS]
    python3 perfbench/libops.py chunk

``grid`` estimates w(n, m) for every state with n <= 9 at 1e5 trials each,
one seeded call per state: the pattern of acceptance criterion 08 and
``scripts/simulation_accuracy.py``.  ``chunk`` runs one 65,536-trial chunk
at (1000, 15) in a single process.  Both print one line per report, so
their stdout is byte-stable for a given variant.
"""

from __future__ import annotations

import sys

from mafia_odds import montecarlo
from mafia_odds.core import BoundaryRule

GRID_MAX_N = 9
GRID_TRIALS = 100_000


def _print(report) -> None:
    print(f"{report.n},{report.m},{report.trials},{report.seed},{report.mafia_wins}")


def grid(variant: int, threads: int | None = None) -> None:
    for n in range(1, GRID_MAX_N + 1):
        for m in range(n + 1):
            seed = 1000 * n + m + 100_000 * variant
            _print(
                montecarlo.estimate_win_chance(
                    n, m, BoundaryRule.STRICT_MAJORITY, GRID_TRIALS, seed, threads
                )
            )


def chunk() -> None:
    _print(
        montecarlo.estimate_win_chance(
            1000, 15, BoundaryRule.STRICT_MAJORITY, montecarlo.CHUNK_TRIALS, 0, 1
        )
    )


def run(args: list[str]) -> None:
    """Dispatch ``grid VARIANT [THREADS]`` or ``chunk``."""
    if args[0] == "grid":
        grid(int(args[1]), int(args[2]) if len(args) > 2 else None)
    elif args == ["chunk"]:
        chunk()
    else:
        raise SystemExit(f"libops: unknown operation {args!r}")


if __name__ == "__main__":
    run(sys.argv[1:])
