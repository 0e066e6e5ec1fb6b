"""Track how fast the parity-aware approximation closes on exact w(n, 1).

Prints, for a geometric ladder of n, the exact single-mafia win chance,
the approximation (pi/2)^((n mod 2) - 1/2)/sqrt(n), their ratio, and the
Wallis-style parity ratio that drives the parity split.  The ratio column
converging to 1 (and the parity column to pi/2 = 1.570796...) is the whole
story.
"""

import argparse
import math

from mafia_odds import parity_ratio, win_chance_asymptotic, win_chance_single


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=4096)
    args = parser.parse_args()

    print(f"{'n':>6}  {'exact':>12}  {'approx':>12}  {'ratio':>10}  {'parity(n//2)':>12}")
    n = 4
    while n <= args.max_n:
        for probe in (n, n + 1):  # one even, one odd rung per ladder step
            exact = float(win_chance_single(probe))
            approx = win_chance_asymptotic(probe, 1)
            parity = float(parity_ratio(probe // 2))
            print(
                f"{probe:>6}  {exact:>12.6e}  {approx:>12.6e}"
                f"  {approx / exact:>10.6f}  {parity:>12.8f}"
            )
        n *= 2
    print(f"\npi/2 = {math.pi / 2:.8f}")


if __name__ == "__main__":
    main()
