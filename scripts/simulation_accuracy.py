"""Stress the Monte Carlo engine against the exact recurrence.

Runs a seeded estimate for every state with n <= --max-n and reports each
deviation in standard-error units.  Everything beyond 4 sigma is flagged;
with a correct engine and these sample sizes, flags should be absent and
the worst z-score should hover around 2-3.
"""

import argparse
import time

from mafia_odds import BoundaryRule, estimate_win_chance, win_chance_rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--boundary",
        choices=[rule.value for rule in BoundaryRule],
        default=BoundaryRule.STRICT_MAJORITY.value,
    )
    args = parser.parse_args()
    boundary = BoundaryRule(args.boundary)

    start = time.perf_counter()
    print("n,m,exact,estimate,std_error,z")
    worst = 0.0
    flags = 0
    # one sweep of the recurrence gives every exact w(n, m) = row[m] / n!!
    for n, dfact, row in win_chance_rows(args.max_n, boundary):
        if n == 0:
            continue  # the report starts at n = 1
        for m in range(0, n + 1):
            # one independent substream per state
            report = estimate_win_chance(
                n, m, boundary, args.trials, seed=args.seed + 1000 * n + m
            )
            exact = row[m] / dfact
            diff = abs(report.estimate - exact)
            z = diff / report.std_error if report.std_error else 0.0
            worst = max(worst, z)
            flags += z > 4.0
            print(
                f"{n},{m},{exact:.6f},{report.estimate:.6f},"
                f"{report.std_error:.6f},{z:.2f}"
            )
    elapsed = time.perf_counter() - start
    print(f"# worst z {worst:.2f}; {flags} states beyond 4 sigma; {elapsed:.1f}s")


if __name__ == "__main__":
    main()
