"""Profile one game's mafia-count distribution four independent ways.

For a starting state (--players, --mafia) and every integer turn t in the
validity window, print the exact stepwise distribution next to the closed
continuous approximation, the RK4 integration of the continuous system,
and a seeded Monte Carlo estimate.  Agreement across columns is the point:
the first column is exact, the rest should shadow it.
"""

import argparse

from mafia_odds import (
    discrete_path,
    estimate_distribution,
    integrate_continuous,
    pm_continuous,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--players", "-n", type=int, default=32)
    parser.add_argument("--mafia", "-m", type=int, default=4)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--step", type=float, default=1e-3)
    args = parser.parse_args()
    if not args.step > 0:
        parser.error(f"need --step > 0, got {args.step}")

    N, M = args.players, args.mafia
    print(f"state ({N}, {M}), {args.trials} trials, seed {args.seed}")
    print(f"{'t':>3} {'m':>3}  {'exact':>10}  {'continuous':>10}  {'rk4':>10}  {'empirical':>10}")
    # one walk of the exact evolution: p_m(t) = q[m] / D_t
    for t, den, q in discrete_path(N, M):
        try:  # the integrator refuses a t without clearance below the t = N/2 blow-up
            rk4 = integrate_continuous(N, M, float(t), args.step)
        except ValueError:
            rk4 = None
        empirical = estimate_distribution(N, M, t, args.trials, args.seed)
        for m in range(M + 1):
            rk4_cell = f"{rk4.probs[m]:>10.6f}" if rk4 else f"{'-':>10}"
            print(
                f"{t:>3} {m:>3}  {q[m] / den:>10.6f}"
                f"  {pm_continuous(N, M, m, float(t)):>10.6f}"
                f"  {rk4_cell}  {empirical.probs[m]:>10.6f}"
            )
        print()


if __name__ == "__main__":
    main()
