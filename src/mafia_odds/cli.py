"""Command-line front end: machine-readable tables for every solver.

Output contract (versioned; tests pin it):

* CSV (default): header row, comma-separated numeric fields, LF endings,
  floats rendered with 12 significant digits so files are byte-stable
  across platforms.  Exact values carry numerator/denominator columns,
  left empty for float-only methods.
* JSON: single top-level object (winchance, simulate) or array (the table
  emitters), stable key order, full round-trip floats, exact values as
  "_num"/"_den" integer fields with null where not applicable.

Exit codes: 0 success, 1 computation-domain error (e.g. the closed form
under the tie boundary, or an evolution time outside the validity window),
2 argument error (including a non-finite --t-max and an --output path that
cannot be written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import evolution, montecarlo, winchance
from .core import BoundaryRule

__all__ = [
    "cmd_evolve",
    "cmd_optimal",
    "cmd_simulate",
    "cmd_single_mafia",
    "cmd_table",
    "cmd_winchance",
    "main",
]


class _ArgumentError(Exception):
    """Flag-level problem; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _csv(header: str, rows: list[list[str]]) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _boundary(args: argparse.Namespace) -> BoundaryRule:
    return BoundaryRule(args.boundary)


def _check_state_flags(n: int, m: int) -> None:
    if n < 0 or m < 0 or m > n:
        raise _ArgumentError(f"need 0 <= m <= n, got --players {n} --mafia {m}")


def _exact_record(n: int, m: int, value: Fraction):
    return {
        "n": n,
        "m": m,
        "w_num": value.numerator,
        "w_den": value.denominator,
        "w_float": float(value),
    }


def _float_record(n: int, m: int, value: float):
    return {"n": n, "m": m, "w_num": None, "w_den": None, "w_float": value}


_WINCHANCE_HEADER = "n,m,w_num,w_den,w_float"


def _winchance_row(record) -> list[str]:
    num = "" if record["w_num"] is None else str(record["w_num"])
    den = "" if record["w_den"] is None else str(record["w_den"])
    return [str(record["n"]), str(record["m"]), num, den, _fmt(record["w_float"])]


def cmd_winchance(args: argparse.Namespace) -> str:
    _check_state_flags(args.players, args.mafia)
    n, m = args.players, args.mafia
    boundary = _boundary(args)
    if args.method == "recurrence":
        record = _exact_record(n, m, winchance.win_chance_recurrence(n, m, boundary))
    elif args.method == "closed":
        record = _exact_record(n, m, winchance.win_chance_closed(n, m, boundary))
    elif args.method == "asymptotic":
        record = _float_record(n, m, winchance.win_chance_asymptotic(n, m))
    else:  # continuous
        record = _float_record(n, m, evolution.win_chance_continuous(n, m))
    if args.format == "json":
        return _json_text(record)
    return _csv(_WINCHANCE_HEADER, [_winchance_row(record)])


def cmd_table(args: argparse.Namespace) -> str:
    if args.max_n < 1:
        raise _ArgumentError(f"need --max-n >= 1, got {args.max_n}")
    boundary = _boundary(args)
    records = [
        _exact_record(n, m, Fraction(value, dfact))
        for n, dfact, row in winchance.win_chance_rows(args.max_n, boundary)
        if n >= 1
        for m, value in enumerate(row)
    ]
    if args.format == "json":
        return _json_text(records)
    return _csv(_WINCHANCE_HEADER, [_winchance_row(r) for r in records])


def cmd_single_mafia(args: argparse.Namespace) -> str:
    if args.max_n < 1:
        raise _ArgumentError(f"need --max-n >= 1, got {args.max_n}")
    records = []
    for n in range(1, args.max_n + 1):
        exact = winchance.win_chance_single(n)
        records.append(
            {
                "n": n,
                "w_exact_num": exact.numerator,
                "w_exact_den": exact.denominator,
                "w_exact_float": float(exact),
                "approx_parity_aware": winchance.approx_single_parity(n),
            }
        )
    if args.format == "json":
        return _json_text(records)
    rows = [
        [
            str(r["n"]),
            str(r["w_exact_num"]),
            str(r["w_exact_den"]),
            _fmt(r["w_exact_float"]),
            _fmt(r["approx_parity_aware"]),
        ]
        for r in records
    ]
    return _csv("n,w_exact_num,w_exact_den,w_exact_float,approx_parity_aware", rows)


def _evolve_discrete_records(N: int, M: int, t_max: int):
    for t, den, q in evolution.discrete_path(N, M, t_max):
        for m, x in enumerate(q):
            p = Fraction(x, den)
            yield {
                "mode": "discrete",
                "kind": "p",
                "t": t,
                "m": m,
                "value": float(p),
                "value_num": p.numerator,
                "value_den": p.denominator,
            }
        mean = Fraction(sum(m * x for m, x in enumerate(q)), den)
        yield {
            "mode": "discrete",
            "kind": "mean",
            "t": t,
            "m": None,
            "value": float(mean),
            "value_num": mean.numerator,
            "value_den": mean.denominator,
        }


def _evolve_continuous_records(N: int, M: int, t_max: float, clamp: bool, spu: int):
    count = int(t_max * spu)
    for j in range(count + 1):
        t = j / spu
        if clamp:
            t = min(t, N / 2)
        for m in range(M + 1):
            yield {
                "mode": "continuous",
                "kind": "p",
                "t": t,
                "m": m,
                "value": evolution.pm_continuous(N, M, m, t),
                "value_num": None,
                "value_den": None,
            }
        yield {
            "mode": "continuous",
            "kind": "mean",
            "t": t,
            "m": None,
            "value": evolution.mean_continuous(N, M, t),
            "value_num": None,
            "value_den": None,
        }


def cmd_evolve(args: argparse.Namespace) -> str:
    N, M = args.players, args.mafia
    _check_state_flags(N, M)
    if N < 1:
        raise _ArgumentError(f"need --players >= 1, got {N}")
    if args.samples_per_unit < 1:
        raise _ArgumentError(f"need --samples-per-unit >= 1, got {args.samples_per_unit}")
    if args.t_max is not None and not math.isfinite(args.t_max):
        raise _ArgumentError(f"need a finite --t-max, got {args.t_max}")
    records = []
    if args.mode in ("discrete", "both"):
        # default: sweep the whole validity window
        t_max = (N - M) // 2 if args.t_max is None else int(args.t_max)
        records.extend(_evolve_discrete_records(N, M, t_max))
    if args.mode in ("continuous", "both"):
        clamp = args.t_max is None  # guard the defaulted endpoint against float dust
        t_max = N / 2 if args.t_max is None else args.t_max
        records.extend(
            _evolve_continuous_records(N, M, t_max, clamp, args.samples_per_unit)
        )
    if args.format == "json":
        return _json_text(records)
    rows = []
    for r in records:
        t_text = str(r["t"]) if isinstance(r["t"], int) else _fmt(r["t"])
        m_text = "" if r["m"] is None else str(r["m"])
        rows.append([r["mode"], r["kind"], t_text, m_text, _fmt(r["value"])])
    return _csv("mode,kind,t,m,value", rows)


def cmd_optimal(args: argparse.Namespace) -> str:
    if args.max_n < 2:
        raise _ArgumentError(f"need --max-n >= 2, got {args.max_n}")
    records = [
        {
            "n": n,
            "m_opt_numeric": winchance.optimal_mafia_from_row(dfact, row),
            "m_opt_approx": winchance.optimal_mafia_approx(n),
        }
        for n, dfact, row in winchance.win_chance_rows(args.max_n)
        if n >= 2
    ]
    if args.format == "json":
        return _json_text(records)
    rows = [
        [str(r["n"]), str(r["m_opt_numeric"]), _fmt(r["m_opt_approx"])]
        for r in records
    ]
    return _csv("n,m_opt_numeric,m_opt_approx", rows)


def cmd_simulate(args: argparse.Namespace) -> str:
    _check_state_flags(args.players, args.mafia)
    if args.trials < 1:
        raise _ArgumentError(f"need --trials >= 1, got {args.trials}")
    if not 0 <= args.seed < 1 << 64:
        raise _ArgumentError(f"--seed must be a 64-bit value, got {args.seed}")
    report = montecarlo.estimate_win_chance(
        args.players, args.mafia, _boundary(args), args.trials, args.seed
    )
    record = {
        "n": report.n,
        "m": report.m,
        "trials": report.trials,
        "seed": report.seed,
        "mafia_wins": report.mafia_wins,
        "estimate": report.estimate,
        "std_error": report.std_error,
    }
    if args.format == "json":
        return _json_text(record)
    row = [
        str(record["n"]),
        str(record["m"]),
        str(record["trials"]),
        str(record["seed"]),
        str(record["mafia_wins"]),
        _fmt(record["estimate"]),
        _fmt(record["std_error"]),
    ]
    return _csv("n,m,trials,seed,mafia_wins,estimate,std_error", [row])


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", metavar="PATH", default=None, help="write to a file instead of stdout")


def _add_boundary_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--boundary", choices=("strict", "ties"), default="strict")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mafia-odds",
        description="Win chances and population dynamics of the Mafia party game "
        "under uniformly random lynching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("winchance", help="mafia winning-chance for one starting state")
    p.add_argument("-n", "--players", type=int, required=True)
    p.add_argument("-m", "--mafia", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("recurrence", "closed", "asymptotic", "continuous"),
        default="recurrence",
    )
    _add_boundary_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_winchance)

    p = sub.add_parser("table", help="w(n, m) for every state up to --max-n")
    p.add_argument("--max-n", type=int, default=10)
    _add_boundary_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser(
        "single-mafia", help="exact and approximate w(n, 1) for n up to --max-n"
    )
    p.add_argument("--max-n", type=int, default=20)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_single_mafia)

    p = sub.add_parser(
        "evolve", help="mafia-count distribution over turns, exact and/or continuous"
    )
    p.add_argument("-n", "--players", type=int, required=True)
    p.add_argument("-m", "--mafia", type=int, required=True)
    p.add_argument("--mode", choices=("discrete", "continuous", "both"), default="both")
    p.add_argument(
        "--t-max",
        type=float,
        default=None,
        help="last turn to emit (default: the full valid range of each mode)",
    )
    p.add_argument(
        "--samples-per-unit",
        type=int,
        default=8,
        help="continuous-mode sampling density per unit of time",
    )
    _add_output_flags(p)
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser(
        "optimal", help="mafia size bringing w(n, m) closest to a coin flip"
    )
    p.add_argument("--max-n", type=int, default=100)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_optimal)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of w(n, m)")
    p.add_argument("-n", "--players", type=int, required=True)
    p.add_argument("-m", "--mafia", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_boundary_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except _ArgumentError as exc:
        print(f"mafia-odds: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"mafia-odds: {exc}", file=sys.stderr)
        return 1
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            message = f"mafia-odds: cannot write --output {args.output}: {exc.strerror}"
            print(message, file=sys.stderr)
            return 2
    return 0
