"""Compare every win-chance method on a grid of states.

For each state (n, m) with 1 <= n <= --max-n and 0 <= m <= n, print the
exact probability next to the closed-form, large-n asymptotic, continuous
and linearized approximations, plus each approximation's absolute error.
CSV on stdout; pipe it wherever.
"""

import argparse

from mafia_odds import (
    win_chance_asymptotic,
    win_chance_continuous,
    win_chance_continuous_linearized,
    win_chance_rows,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=30)
    args = parser.parse_args()

    print("n,m,exact,asymptotic,continuous,linearized,err_asym,err_cont,err_lin")
    for n, dfact, row in win_chance_rows(args.max_n):
        if n < 1:
            continue
        for m, value in enumerate(row):
            exact = value / dfact
            approx = (
                win_chance_asymptotic(n, m),
                win_chance_continuous(n, m),
                win_chance_continuous_linearized(n, m),
            )
            cells = [str(n), str(m), format(exact, ".6f")]
            cells += [format(a, ".6f") for a in approx]
            cells += [format(abs(a - exact), ".6f") for a in approx]
            print(",".join(cells))


if __name__ == "__main__":
    main()
