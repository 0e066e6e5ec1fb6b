"""Acceptance gate: ten numbered criteria, one printed line each.

Each criterion pins a numeric check and a wall-clock budget; exceeding
either fails it.  Run with ``pytest -s tests/test_acceptance.py`` to see
every line (plain pytest only shows the lines of failing criteria).
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

from oracles import ternary_argmax

from mafia_odds import (
    BoundaryRule,
    estimate_win_chance,
    evolve_discrete,
    integrate_continuous,
    mean_discrete,
    optimal_mafia_approx,
    optimal_mafia_asymptotic,
    optimal_mafia_numeric,
    parity_ratio,
    peak_time,
    pm_closed,
    pm_continuous,
    verify_monotonicity,
    win_chance_closed,
    win_chance_recurrence,
    win_chance_single,
)

STRICT = BoundaryRule.STRICT_MAJORITY


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} {detail} ({elapsed:.2f}s, budget {budget:g}s)")


def test_criterion_01_point_values():
    budget = 1.0
    expected = {
        (2, 1): Fraction(1, 2),
        (3, 1): Fraction(2, 3),
        (4, 1): Fraction(3, 8),
        (9, 1): Fraction(128, 315),
    }
    start = time.perf_counter()
    bad = [
        (n, m)
        for (n, m), w in expected.items()
        if win_chance_recurrence(n, m) != w or win_chance_closed(n, m) != w
    ]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < budget
    _report(1, ok, "known point values exact via recurrence and closed form", elapsed, budget)
    assert ok, f"mismatched states: {bad}, elapsed {elapsed:.2f}s"


def test_criterion_02_cross_method_equivalence():
    budget = 10.0
    start = time.perf_counter()
    mismatches = [
        (n, m, boundary.value)
        for boundary in BoundaryRule
        for n in range(0, 61)
        for m in range(0, n + 1)
        if win_chance_closed(n, m, boundary) != win_chance_recurrence(n, m, boundary)
    ]
    checked = sum(n + 1 for n in range(0, 61))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < budget
    _report(2, ok, f"closed form equals recurrence on all {checked} states with n <= 60, both rules", elapsed, budget)
    assert ok, f"mismatches: {mismatches[:5]}, elapsed {elapsed:.2f}s"


def test_criterion_03_geometric_mean_identity():
    budget = 1.0
    start = time.perf_counter()
    bad = [
        n
        for n in range(1, 501)
        if n * win_chance_single(n) * win_chance_single(n - 1) != 1
    ]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < budget
    _report(3, ok, "n w(n,1) w(n-1,1) = 1 exactly for n = 1..500", elapsed, budget)
    assert ok, f"identity fails at n = {bad[:5]}, elapsed {elapsed:.2f}s"


def test_criterion_04_wallis_convergence():
    budget = 5.0
    start = time.perf_counter()
    values = [parity_ratio(k) for k in (1, 10, 100, 1000)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    limit_error = abs(float(values[-1]) * 2.0 / math.pi - 1.0)
    elapsed = time.perf_counter() - start
    ok = increasing and limit_error < 1e-3 and elapsed < budget
    _report(
        4,
        ok,
        f"parity ratio increasing on k in (1,10,100,1000), limit error {limit_error:.2e} < 1e-3",
        elapsed,
        budget,
    )
    assert ok, f"increasing={increasing}, limit error {limit_error:.2e}, elapsed {elapsed:.2f}s"


def test_criterion_05_monotonicity_sweep():
    budget = 10.0
    start = time.perf_counter()
    report = verify_monotonicity(50, STRICT)
    elapsed = time.perf_counter() - start
    ok = report.ok and elapsed < budget
    _report(
        5,
        ok,
        f"five inequality families hold on n <= 50 ({len(report.violations)} violations)",
        elapsed,
        budget,
    )
    assert ok, f"violations: {report.violations[:5]}, elapsed {elapsed:.2f}s"


def test_criterion_06_discrete_evolution():
    budget = 30.0
    start = time.perf_counter()
    bad = []
    for N in range(1, 25):
        for M in range(0, N // 2 + 1):
            for t in range(0, (N - M) // 2 + 1):
                dist = evolve_discrete(N, M, t)
                if any(dist.probs[m] != pm_closed(N, M, m, t) for m in range(M + 1)):
                    bad.append(("closed", N, M, t))
                if sum(dist.probs) != 1:
                    bad.append(("mass", N, M, t))
                if dist.mean != mean_discrete(N, M, t):
                    bad.append(("moment", N, M, t))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < budget
    _report(
        6,
        ok,
        "stepwise distribution equals closed form, unit mass, exact mean for N <= 24",
        elapsed,
        budget,
    )
    assert ok, f"failures: {bad[:5]}, elapsed {elapsed:.2f}s"


def test_criterion_07_continuous_evolution():
    budget = 60.0
    N, M = 32, 4
    start = time.perf_counter()

    numeric = integrate_continuous(N, M, t_end=15.0, step=1e-3)
    sup_err = max(
        abs(numeric.probs[m] - pm_continuous(N, M, m, 15.0)) for m in range(M + 1)
    )

    peak_err = max(
        abs(ternary_argmax(lambda t, m=m: pm_continuous(N, M, m, t), 0.0, N / 2) - peak_time(N, M, m))
        for m in range(1, M + 1)
    )
    expected_peaks = {4: 0.0, 3: 7.0, 2: 12.0, 1: 15.0}
    peaks_match = all(peak_time(N, M, m) == v for m, v in expected_peaks.items())

    dots_err = max(
        abs(float(pm_closed(N, M, m, t)) - pm_continuous(N, M, m, t))
        for m in range(M + 1)
        for t in range(0, 15)
    )

    elapsed = time.perf_counter() - start
    ok = sup_err < 1e-6 and peak_err < 1e-6 and peaks_match and dots_err < 0.1 and elapsed < budget
    _report(
        7,
        ok,
        f"(32,4): RK4 vs closed {sup_err:.1e} < 1e-6, peak times off by {peak_err:.1e}, "
        f"discrete vs continuous {dots_err:.3f} < 0.1",
        elapsed,
        budget,
    )
    assert ok, (
        f"sup_err={sup_err:.2e}, peak_err={peak_err:.2e}, peaks_match={peaks_match}, "
        f"dots_err={dots_err:.3f}, elapsed {elapsed:.2f}s"
    )


def test_criterion_08_monte_carlo():
    budget = 120.0
    start = time.perf_counter()

    headline = estimate_win_chance(9, 1, STRICT, 1_000_000, seed=42)
    headline_diff = abs(headline.estimate - 128 / 315)
    headline_ok = headline_diff <= 4.0 * headline.std_error

    worst_z = 0.0
    grid_ok = True
    for n in range(1, 13):
        for m in range(0, n + 1):
            report = estimate_win_chance(n, m, STRICT, 100_000, seed=1000 * n + m)
            diff = abs(report.estimate - float(win_chance_recurrence(n, m)))
            if report.std_error == 0.0:
                grid_ok = grid_ok and diff == 0.0
            else:
                worst_z = max(worst_z, diff / report.std_error)
    grid_ok = grid_ok and worst_z <= 4.0

    elapsed = time.perf_counter() - start
    ok = headline_ok and grid_ok and elapsed < budget
    _report(
        8,
        ok,
        f"(9,1) at 1e6 trials off by {headline_diff / headline.std_error:.2f} sigma; "
        f"grid n <= 12 at 1e5 worst {worst_z:.2f} sigma (4 allowed)",
        elapsed,
        budget,
    )
    assert ok, (
        f"headline diff {headline_diff:.2e} vs 4*SE {4 * headline.std_error:.2e}, "
        f"grid worst z {worst_z:.2f}, elapsed {elapsed:.2f}s"
    )


def test_criterion_09_optimal_mafia_agreement():
    # The square-root optimum c_p sqrt(n) of the large-n limit law must land
    # within one seat of the exact optimum on 90% of n; the paper's
    # first-order formula, whose constants are too small, within two seats.
    budget = 30.0
    start = time.perf_counter()
    numeric = {n: optimal_mafia_numeric(n) for n in range(10, 201)}
    diffs = [abs(optimal_mafia_asymptotic(n) - m) for n, m in numeric.items()]
    paper_diffs = [abs(optimal_mafia_approx(n) - m) for n, m in numeric.items()]
    max_diff = max(diffs)
    within_one = sum(d <= 1.0 for d in diffs)
    share = within_one / len(diffs)
    paper_max = max(paper_diffs)
    paper_within_one = sum(d <= 1.0 for d in paper_diffs)
    elapsed = time.perf_counter() - start
    ok = max_diff <= 2.0 and share >= 0.90 and paper_max <= 2.0 and elapsed < budget
    _report(
        9,
        ok,
        f"optimum vs numeric on n in [10,200]: limit law max diff {max_diff:.3f} (<= 2), "
        f"within 1 for {within_one}/{len(diffs)} = {share:.1%} (needs >= 90%); "
        f"paper formula max diff {paper_max:.3f} (<= 2), "
        f"within 1 for {paper_within_one}/{len(diffs)} = {paper_within_one / len(diffs):.1%}",
        elapsed,
        budget,
    )
    assert ok, (
        f"max diff {max_diff:.3f}, within-1 share {share:.4f} (threshold 0.90), "
        f"paper formula max diff {paper_max:.3f}, elapsed {elapsed:.2f}s"
    )


def test_criterion_10_cli_golden_runs():
    budget = 30.0
    commands = [
        ("table", "--max-n", "10"),
        ("single-mafia", "--max-n", "20"),
        ("simulate", "-n", "9", "-m", "1", "--trials", "50000", "--seed", "123"),
    ]
    start = time.perf_counter()
    stable = True
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "mafia_odds", *argv],
                capture_output=True,
                timeout=60,
            )
            for _ in range(2)
        ]
        stable = stable and all(p.returncode == 0 for p in runs)
        stable = stable and runs[0].stdout == runs[1].stdout and runs[0].stdout
    elapsed = time.perf_counter() - start
    ok = bool(stable) and elapsed < budget
    _report(10, ok, "table, single-mafia and seeded simulate are byte-identical across runs", elapsed, budget)
    assert ok, f"stable={bool(stable)}, elapsed {elapsed:.2f}s"
