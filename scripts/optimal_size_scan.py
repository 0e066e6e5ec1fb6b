"""Scan the fairest mafia size: exact optimum vs the two square-root formulas.

For each n in [--min-n, --max-n], print the m whose exact win chance sits
closest to 1/2, the paper's first-order formula
(1/2)(pi/2)^(1/2 - n mod 2) sqrt(n), the large-n optimum c_p sqrt(n) where
the limit law of w(n, m) crosses 1/2, and the gap of each to the exact
optimum.  One summary line per formula reports the largest gap and the share
of n where it lands within one seat; the paper formula drifts at odd n.
The exact optima come from ``optimal_mafia_rows``, whose ladders stop at the
column isqrt(2 max_n) + 1 that each row provably crosses 1/2 by.
"""

import argparse

from mafia_odds import optimal_mafia_approx, optimal_mafia_asymptotic, optimal_mafia_rows


def _summary(name: str, diffs: list[float]) -> str:
    within_one = sum(d <= 1.0 for d in diffs)
    return (
        f"# {name}: max diff {max(diffs):.4f}; within one seat "
        f"{within_one}/{len(diffs)} = {within_one / len(diffs):.1%}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=10)
    parser.add_argument("--max-n", type=int, default=200)
    args = parser.parse_args()

    print("n,m_opt,approx,diff,asymptotic,asymptotic_diff")
    diffs, asymptotic_diffs = [], []
    for n, numeric in optimal_mafia_rows(args.max_n):
        if n < args.min_n:
            continue
        approx = optimal_mafia_approx(n)
        asymptotic = optimal_mafia_asymptotic(n)
        diffs.append(abs(approx - numeric))
        asymptotic_diffs.append(abs(asymptotic - numeric))
        print(
            f"{n},{numeric},{approx:.4f},{diffs[-1]:.4f},"
            f"{asymptotic:.4f},{asymptotic_diffs[-1]:.4f}"
        )

    print(_summary("approx", diffs))
    print(_summary("asymptotic", asymptotic_diffs))


if __name__ == "__main__":
    main()
