"""Command-line front end: machine-readable tables for every solver.

Output contract (versioned; tests pin it):

* CSV (default): header row, comma-separated numeric fields, LF endings,
  floats rendered with 12 significant digits so files are byte-stable
  across platforms.  Exact values carry numerator/denominator columns,
  left empty for float-only methods.
* JSON: single top-level object (winchance, simulate) or array (the table
  emitters), stable key order, full round-trip floats, exact values as
  "_num"/"_den" integer fields with null where not applicable.  The bytes
  are those of ``json.dumps(records, indent=2)``.  Each command declares
  its field names once and yields rows of values in that order; each batch
  of rows is encoded in one C-encoder call and laid out by one per-row
  template, so a command holds about its output's size in memory.  The
  whole output is rendered before anything is written.

Exit codes: 0 success, 1 computation-domain error (e.g. an evolution time
outside the validity window, a malformed MAFIA_ODDS_THREADS, or an integer
past float range where a float law needs it) or a failed write to stdout
(silent when the reader has closed the pipe), 2 argument error (including a
non-finite --t-max and an --output path that cannot be written, which is
refused before anything is computed).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain, islice

# Each handler imports the modules it runs, so --help and a command load
# only what they use.  A solver is looked up on its module at call time,
# so a wrapper put on the module attribute (a tracer, a test) sees the call.

__all__ = ["main"]


class _ArgumentError(ValueError):
    """Flag-level problem; maps to exit code 2."""


# the CSV cell of each value type a row holds
_CELL = {type(None): lambda _: "", float: "{:.12g}".format, int: str, str: str}

_BATCH = 4096  # rows turned into one piece of text, so one batch's values are held


def _emit(fmt: str, fields: tuple[str, ...], rows, width: int | None = None):
    """Yield a handler's rows as pieces of text: JSON objects keyed by ``fields``, or CSV.

    ``rows`` is one tuple (winchance, simulate) or an iterable of tuples of
    scalars, each in the order of ``fields``.  CSV writes the first
    ``width`` fields of each row, all of them by default.
    """
    if fmt == "json":
        import json
    if isinstance(rows, tuple):
        if fmt == "json":
            yield json.dumps(dict(zip(fields, rows)), indent=2) + "\n"
            return
        rows = [rows]
    rows = iter(rows)
    batches = iter(lambda: list(islice(rows, _BATCH)), [])
    if fmt == "json":
        # indent=2 would take the pure-Python encoder; the C one encodes a
        # batch's flat values, and JSON escapes "\n" inside strings, so it splits them
        keys = [json.dumps(key).replace("%", "%%") for key in fields]
        record = "  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }"
        lead = "[\n"
        for batch in batches:
            values = json.dumps([v for row in batch for v in row], separators=("\n", ":"))
            yield lead + ",\n".join([record] * len(batch)) % tuple(values[1:-1].split("\n"))
            lead = ",\n"
        yield "[]\n" if lead == "[\n" else "\n]\n"
        return
    yield ",".join(fields[:width]) + "\n"
    for batch in batches:
        lines = [",".join([_CELL[type(v)](v) for v in row[:width]]) for row in batch]
        yield "\n".join(lines) + "\n"


def _state(args: argparse.Namespace) -> tuple[int, int]:
    from .core import check_state

    try:
        check_state(args.players, args.mafia)
    except ValueError as exc:
        raise _ArgumentError(exc) from None
    return args.players, args.mafia


def _need_max_n(args: argparse.Namespace, low: int) -> None:
    if args.max_n < low:
        raise _ArgumentError(f"need --max-n >= {low}, got {args.max_n}")


def _exact(num: int, den: int) -> tuple[int, int, float]:
    """num/den in lowest terms, and its float (int / int rounds correctly)."""
    if num == den:  # the n!! boundary cells of table rows
        return 1, 1, 1.0
    g = math.gcd(num, den)
    return num // g, den // g, num / den


_W_FIELDS = ("n", "m", "w_num", "w_den", "w_float")

_METHODS = ("recurrence", "closed", "asymptotic", "continuous")


def cmd_winchance(args: argparse.Namespace):
    from fractions import Fraction

    from . import evolution, winchance
    from .core import BoundaryRule

    n, m = _state(args)
    boundary = BoundaryRule(args.boundary)
    if args.method == "recurrence":
        value = winchance.win_chance_recurrence(n, m, boundary)
    elif args.method == "closed":
        value = winchance.win_chance_closed(n, m, boundary)
    elif args.method == "asymptotic":
        value = winchance.win_chance_asymptotic(n, m)
    else:
        value = evolution.win_chance_continuous(n, m)
    if type(value) is Fraction:
        return _W_FIELDS, (n, m, *_exact(value.numerator, value.denominator))
    return _W_FIELDS, (n, m, None, None, float(value))


def cmd_table(args: argparse.Namespace):
    from . import winchance
    from .core import BoundaryRule

    _need_max_n(args, 1)
    boundary = BoundaryRule(args.boundary)
    rows = (
        (n, m, *_exact(value, dfact))
        for n, dfact, row in winchance.win_chance_rows(args.max_n, boundary)
        if n >= 1
        for m, value in enumerate(row)
    )
    return _W_FIELDS, rows


def cmd_single_mafia(args: argparse.Namespace):
    from . import winchance

    _need_max_n(args, 1)
    fields = ("n", "w_exact_num", "w_exact_den", "w_exact_float", "approx_parity_aware")
    rows = (
        (n, num, den, num / den, winchance.win_chance_asymptotic(n, 1))
        for n, num, den in winchance._single_mafia_rows(args.max_n)
    )
    return fields, rows


def _evolve_discrete_rows(N: int, M: int, t_max: int):
    from . import evolution

    for t, den, q in evolution.discrete_path(N, M, t_max):
        for m, x in enumerate(q):
            num, d, value = _exact(x, den)
            yield "discrete", "p", t, m, value, num, d
        num, d, value = _exact(sum(m * x for m, x in enumerate(q)), den)
        yield "discrete", "mean", t, None, value, num, d


def _evolve_continuous_rows(N: int, M: int, t_max: float, spu: int):
    from . import evolution

    # bound t_max to [-1, N] so the count cannot overflow: the first sample past
    # N/2 is still refused, and a negative t_max still gives no sample
    for j in range(math.floor(min(max(t_max, -1.0), N) * spu) + 1):
        t = j / spu
        for m, p in enumerate(evolution._pm_row(N, M, t, range(M + 1))):
            yield "continuous", "p", t, m, p, None, None
        mean = evolution.mean_continuous(N, M, t)
        yield "continuous", "mean", t, None, mean, None, None


def cmd_evolve(args: argparse.Namespace):
    N, M = _state(args)
    if N < 1:
        raise _ArgumentError(f"need --players >= 1, got {N}")
    if args.samples_per_unit < 1:
        raise _ArgumentError(f"need --samples-per-unit >= 1, got {args.samples_per_unit}")
    if args.t_max is not None and not math.isfinite(args.t_max):
        raise _ArgumentError(f"need a finite --t-max, got {args.t_max}")
    rows = []
    if args.mode in ("discrete", "both"):
        # default: sweep the whole validity window
        t_max = (N - M) // 2 if args.t_max is None else math.floor(args.t_max)
        rows.append(_evolve_discrete_rows(N, M, t_max))
    if args.mode in ("continuous", "both"):
        t_max = N / 2 if args.t_max is None else args.t_max
        rows.append(_evolve_continuous_rows(N, M, t_max, args.samples_per_unit))
    # CSV keeps the first five fields; the exact pair is JSON-only
    fields = ("mode", "kind", "t", "m", "value", "value_num", "value_den")
    return fields, chain.from_iterable(rows), 5


def cmd_optimal(args: argparse.Namespace):
    from . import winchance

    _need_max_n(args, 2)
    rows = (
        (n, m, winchance.optimal_mafia_approx(n))
        for n, m in winchance.optimal_mafia_rows(args.max_n)
        if n >= 2
    )
    return ("n", "m_opt_numeric", "m_opt_approx"), rows


def cmd_simulate(args: argparse.Namespace):
    from . import montecarlo
    from .core import BoundaryRule

    n, m = _state(args)
    if args.trials < 1:
        raise _ArgumentError(f"need --trials >= 1, got {args.trials}")
    if not 0 <= args.seed < 1 << 64:
        raise _ArgumentError(f"--seed must be a 64-bit value, got {args.seed}")
    report = montecarlo.estimate_win_chance(
        n, m, BoundaryRule(args.boundary), args.trials, args.seed
    )
    return report._fields, tuple(report)


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
    p.add_argument("--method", choices=_METHODS, default="recurrence")
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


def _fail(message: str, code: int) -> int:
    print(f"mafia-odds: {message}", file=sys.stderr)
    return code


def _silence_stdout() -> None:
    """After a failed write to the process's own stdout, point its descriptor
    at devnull, so the flush of what is left buffered at exit cannot fail
    again; a stream a caller put in place of stdout is left alone."""
    if sys.stdout is not sys.__stdout__:
        return
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    """Run one command; exact integers parse and print at any size.

    CPython's int-to-str digit limit (Python >= 3.10.7) is lifted for the
    command only: the caller's limit is back when ``main`` returns.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(digit_limit)


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    path = args.output
    if path is not None:
        # refuse an unwritable path before computing anything; appending opens
        # it for writing without touching an existing file's bytes. The path
        # as given is checked, so a pipe such as /dev/stdout counts as existing.
        # A file the probe creates is removed at once by its resolved name:
        # removing the path of a dangling symlink would delete the link. A file
        # another process creates between the check and the probe is removed
        # too; the window is two system calls wide.
        existed = os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            return _fail(f"cannot write --output {path}: {exc.strerror}", 2)
        if not existed:
            os.remove(os.path.realpath(path))
    try:
        # render everything before writing, so a failure writes nothing
        pieces = list(_emit(args.format, *args.handler(args)))
    except (ValueError, OverflowError) as exc:
        return _fail(str(exc), 2 if isinstance(exc, _ArgumentError) else 1)
    if path is None:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as exc:
            _silence_stdout()
            if isinstance(exc, BrokenPipeError):  # the reader has gone
                return 1
            return _fail(f"cannot write stdout: {exc.strerror}", 1)
        return 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        return _fail(f"cannot write --output {path}: {exc.strerror}", 2)
    return 0
