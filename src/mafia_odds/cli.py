"""Command-line front end: machine-readable tables for every solver.

Output contract (versioned; tests pin it):

* CSV (default): header row, comma-separated numeric fields, LF endings,
  floats rendered with 12 significant digits so files are byte-stable
  across platforms.  Exact values carry numerator/denominator columns,
  left empty for float-only methods; ``evolve``'s CSV keeps five fields.
* JSON: single top-level object (winchance, simulate) or array (the table
  emitters), stable key order, full round-trip floats, exact values as
  "_num"/"_den" integer fields with null where not applicable.  The bytes
  are those of ``json.dumps(records, indent=2)``.

Each command declares its field names once and yields groups of records (a
single record is a group of one), which one loop renders in one frame per
format: the CSV header, a JSON array's brackets or a JSON record's braces.
A value all of a group's records share is written once into its template,
and each other column is one typed %-code (``%d``, ``%.12g``, ``%r``,
``%s``) that converts every cell once.  Output is opened once the first
group has rendered and each piece is written as it comes: a refusal, or a
failure in the first group, leaves stdout and --output as they were, and a
later failure leaves the groups already written.

Exit codes: 0 success, 1 computation-domain error (e.g. an evolution time
outside the validity window, refused as its path is made, a malformed
MAFIA_ODDS_THREADS, an integer past float range where a float law needs it,
an n whose products or rows pass sys.maxsize, or a failed allocation) or a
failed write to stdout or to --output (silent when the reader of stdout has
closed the pipe), 2 argument error, refused before anything is computed
(including a non-finite --t-max, --method asymptotic or continuous with
--boundary ties, whose laws hold for the strict rule only, and an --output
path that cannot be opened).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from importlib import import_module
from itertools import chain, islice, repeat
from operator import floordiv, mul, truediv

# Each handler imports the modules it runs, so --help and a command load
# only what they use.  A solver is looked up on its module at call time,
# so a wrapper put on the module attribute (a tracer, a test) sees the call.

__all__ = ["main"]


class _ArgumentError(ValueError):
    """Flag-level problem; maps to exit code 2."""


# the CSV cell of a value in a column of mixed types; any other type is its str
_CELL = {type(None): lambda _: "", float: "{:.12g}".format}

_GROUP = 256  # records per group where a handler transposes rows of scalars


def _groups(rows):
    """Transpose rows of scalars into groups of at most ``_GROUP`` records."""
    rows = iter(rows)
    return (tuple(map(list, zip(*batch))) for batch in iter(lambda: list(islice(rows, _GROUP)), []))


def _emit(fmt: str, fields: tuple[str, ...], groups, width: int | None = None):
    """Yield a handler's records as pieces of text: JSON objects keyed by ``fields``, or CSV.

    ``groups`` is an iterable of groups, tuples aligned with ``fields`` whose
    items are columns (a list or tuple, one value per record) or scalars all
    the group's records share, or one record of scalars (winchance, simulate):
    a one-record group.  A group is one %-template: a shared value is written
    into it once, a column is one typed code that the single % pass applies to
    each value.  A tuple or scalar that recurs, the same object, at its
    position reuses its encoding.  CSV writes ``width`` fields.
    """
    column, single = _encoder(fmt), isinstance(groups, tuple)
    groups = [groups] if single else groups
    # the frame: text before the first group, between records, after the last, and of none
    if fmt == "json":  # one record is the top-level object, a table an array of objects
        import json

        pad = "" if single else "  "
        heads = [f"{pad}  {json.dumps(key)}: ".replace("%", "%%") for key in fields]
        comma, open_, close = ",\n", pad + "{\n", "\n" + pad + "}"
        lead, sep, end, empty = ("", ",\n", "\n", "{}\n") if single else ("[\n", ",\n", "\n]\n", "[]\n")
    else:
        heads, comma, open_, close = [""] * len(fields[:width]), ",", "", ""
        lead = empty = ",".join(fields[:width]) + "\n"
        sep = end = "\n"
    seen = [(object(),)] * len(heads)  # per position: last item, its part and column
    for group in groups:
        for i, (head, item) in enumerate(zip(heads, group)):
            if item is not seen[i][0] or type(item) is list:
                many = type(item) in (list, tuple)
                code, values = column(item if many else [item])
                part = head + (code if many else (code % values[0]).replace("%", "%%"))
                seen[i] = item, part, values if many else None
        parts, columns = [s[1] for s in seen], [s[2] for s in seen if s[2] is not None]
        count = next((len(item) for item in group if type(item) in (list, tuple)), 1)
        if count:
            text = sep.join([open_ + comma.join(parts) + close] * count)
            yield lead + text % tuple(chain.from_iterable(zip(*columns)))
            lead = sep
    yield end if lead is sep else empty  # lead is sep once a group is out


def _encoder(fmt: str):
    """A function giving a column's %-code and the values that code formats.

    A column of one type gets a typed code: ``%d`` for int, ``%.12g`` for a
    CSV float, ``%r`` (the JSON encoder's text) for a JSON float while all
    are finite, ``%s`` for a str, quoted by the encoder's own call in JSON.
    Any other column gets ``%s`` and each value's text: its CSV cell, or its
    ``json.dumps``.
    """
    codes = {int: "%d", float: "%.12g" if fmt == "csv" else "%r", str: "%s"}
    if fmt == "csv":
        quote, other = None, lambda values: [_CELL.get(type(v), str)(v) for v in values]
    else:
        import json
        from json.encoder import encode_basestring_ascii as quote

        other = lambda values: list(map(json.dumps, values))

    def column(values) -> tuple[str, list]:
        kinds = set(map(type, values))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind not in codes or kind is float and quote and not all(map(math.isfinite, values)):
            return "%s", other(values) if values else []
        return codes[kind], list(map(quote, values)) if kind is str and quote else values

    return column


def _state(args: argparse.Namespace) -> tuple[int, int]:
    from .core import check_state

    try:
        check_state(args.players, args.mafia)
    except ValueError as exc:
        raise _ArgumentError(exc) from None
    return args.players, args.mafia


def _need(flag: str, value: int, low: int) -> None:
    if value < low:
        raise _ArgumentError(f"need {flag} >= {low}, got {value}")


def _exact(nums: list[int], den: int) -> tuple[list[int], list[int], list[float]]:
    """Each num/den in lowest terms, a column each, and its float (int / int rounds correctly)."""
    gcds = list(map(math.gcd, nums, repeat(den)))
    dens = list(map(floordiv, repeat(den), gcds))
    return list(map(floordiv, nums, gcds)), dens, list(map(truediv, nums, repeat(den)))


_W_FIELDS = ("n", "m", "w_num", "w_den", "w_float")

# each winchance method: the module and name of its solver, and whether its
# value is exact; only an exact solver has a law for --boundary ties
_METHODS = {
    "recurrence": ("winchance", "win_chance_recurrence", True),
    "closed": ("winchance", "win_chance_closed", True),
    "asymptotic": ("winchance", "win_chance_asymptotic", False),
    "continuous": ("evolution", "win_chance_continuous", False),
}


def cmd_winchance(args: argparse.Namespace):
    from .core import BoundaryRule

    n, m = _state(args)
    module, solver, exact = _METHODS[args.method]
    if not exact and args.boundary == "ties":
        raise _ArgumentError(f"--method {args.method} has no law for --boundary ties")
    solve = getattr(import_module(f".{module}", __package__), solver)
    if exact:
        value = solve(n, m, BoundaryRule(args.boundary))
        return _W_FIELDS, (n, m, value.numerator, value.denominator, float(value))
    return _W_FIELDS, (n, m, None, None, float(solve(n, m)))


def _table_groups(max_n: int, rule: str):
    from . import winchance
    from .core import BoundaryRule

    boundary = BoundaryRule(rule)
    for n, den, row in winchance.win_chance_rows(max_n, boundary):
        if n >= 1:
            # the cells below the first winning mafia count, then the ones equal to den: w = 1
            last = min(boundary.first_win(n), n + 1)
            yield n, list(range(last)), *_exact(row[:last], den)
            yield n, list(range(last, n + 1)), 1, 1, 1.0


def cmd_table(args: argparse.Namespace):
    _need("--max-n", args.max_n, 1)
    return _W_FIELDS, _table_groups(args.max_n, args.boundary)


def cmd_single_mafia(args: argparse.Namespace):
    from . import winchance

    _need("--max-n", args.max_n, 1)
    fields = ("n", "w_exact_num", "w_exact_den", "w_exact_float", "approx_parity_aware")
    rows = (
        (n, num, den, num / den, winchance.win_chance_asymptotic(n, 1))
        for n, num, den in winchance._single_mafia_rows(args.max_n)
    )
    return fields, _groups(rows)


def _evolve_discrete_groups(path, kinds: tuple, ms: tuple, exact: bool):
    for t, den, q in path:
        cells = [*q, sum(map(mul, range(len(q)), q))]
        # CSV prints the floats alone; only JSON reduces each cell to lowest terms
        num, d, value = _exact(cells, den) if exact else (None, None, [c / den for c in cells])
        yield "discrete", kinds, t, ms, value, num, d


def cmd_evolve(args: argparse.Namespace):
    from . import evolution

    N, M = _state(args)
    _need("--players", N, 1)
    spu = args.samples_per_unit
    _need("--samples-per-unit", spu, 1)
    if args.t_max is not None and not math.isfinite(args.t_max):
        raise _ArgumentError(f"need a finite --t-max, got {args.t_max}")
    # one group per turn or sample: its p records for m = 0..M, then its mean
    kinds, ms, groups = ("p",) * (M + 1) + ("mean",), (*range(M + 1), None), []
    if args.mode in ("discrete", "both"):
        # each path defaults to its whole window and refuses a time past it as it is made
        path = evolution.discrete_path(N, M, None if args.t_max is None else math.floor(args.t_max))
        groups.append(_evolve_discrete_groups(path, kinds, ms, args.format == "json"))
    if args.mode in ("continuous", "both"):
        rows = evolution._continuous_rows(N, M, args.t_max, spu)
        groups.append(("continuous", kinds, t, ms, values, None, None) for t, values in rows)
    # CSV keeps the first five fields; the exact pair is JSON-only
    fields = ("mode", "kind", "t", "m", "value", "value_num", "value_den")
    return fields, chain.from_iterable(groups), 5


def cmd_optimal(args: argparse.Namespace):
    from . import winchance

    _need("--max-n", args.max_n, 2)
    rows = (
        (n, m, winchance.optimal_mafia_approx(n))
        for n, m in winchance.optimal_mafia_rows(args.max_n)
        if n >= 2
    )
    return ("n", "m_opt_numeric", "m_opt_approx"), _groups(rows)


def cmd_simulate(args: argparse.Namespace):
    from . import montecarlo
    from .core import BoundaryRule

    n, m = _state(args)
    _need("--trials", args.trials, 1)
    if not 0 <= args.seed < montecarlo._MAX_SEED:
        raise _ArgumentError(f"--seed must be a 64-bit value, got {args.seed}")
    report = montecarlo.estimate_win_chance(
        n, m, BoundaryRule(args.boundary), args.trials, args.seed
    )
    return report._fields, tuple(report)


def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-n", "--players", type=int, required=True)
    sub.add_argument("-m", "--mafia", type=int, required=True)


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
    _add_state_flags(p)
    p.add_argument("--method", choices=_METHODS, default="recurrence")
    _add_boundary_flag(p)
    p.set_defaults(handler=cmd_winchance)

    p = sub.add_parser("table", help="w(n, m) for every state up to --max-n")
    p.add_argument("--max-n", type=int, default=10)
    _add_boundary_flag(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser(
        "single-mafia", help="exact and approximate w(n, 1) for n up to --max-n"
    )
    p.add_argument("--max-n", type=int, default=20)
    p.set_defaults(handler=cmd_single_mafia)

    p = sub.add_parser(
        "evolve", help="mafia-count distribution over turns, exact and/or continuous"
    )
    _add_state_flags(p)
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
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser(
        "optimal", help="mafia size bringing w(n, m) closest to a coin flip"
    )
    p.add_argument("--max-n", type=int, default=100)
    p.set_defaults(handler=cmd_optimal)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of w(n, m)")
    _add_state_flags(p)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_boundary_flag(p)
    p.set_defaults(handler=cmd_simulate)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", metavar="PATH", default=None, help="write to a file instead of stdout")
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
    where = "stdout" if path is None else f"--output {path}"
    try:
        # the first piece comes after every refusal and the first group, so a
        # failure up to there writes nothing; each later piece is written as it comes
        pieces = _emit(args.format, *args.handler(args))
        first = next(pieces)
        with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(first)
            fh.writelines(pieces)
            fh.flush()
    except (ValueError, OverflowError) as exc:
        return _fail(str(exc), 2 if isinstance(exc, _ArgumentError) else 1)
    except MemoryError:  # numpy's failed allocations subclass it
        return _fail("out of memory", 1)
    except OSError as exc:
        if path is None:
            _silence_stdout()
            if isinstance(exc, BrokenPipeError):  # the reader has gone
                return 1
        return _fail(f"cannot write {where}: {exc.strerror}", 1)
    return 0
