"""In-memory spans around the package's public functions, and their self times.

A :class:`Tracer` replaces a function at the attribute its callers look up
(``winchance.falling_product``, not ``core.falling_product``) with a wrapper
that records ``[name, start, end, parent, attrs]``, times in perf_counter
nanoseconds.  ``parent`` is the index of the enclosing span in the same
process, or ``None``; one process runs one operation, so its spans share
that operation's id, which the caller stores beside them.  Nothing is written
while the program runs; the caller dumps :attr:`Tracer.spans` at the end and
calls :meth:`Tracer.restore`, which puts every original back.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``attrs(result)`` may return a JSON value stored with the span; it
        runs after the span has closed, so its cost is not timed.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped function, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _fraction_bits(value) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _discrete_steps(dist) -> int:
    return dist.t


def _estimate_work(report) -> dict:
    from mafia_odds.montecarlo import CHUNK_TRIALS

    return {
        "trials": report.trials,
        "draws": report.trials * (report.n // 2 + 1),
        "chunks": -(-report.trials // CHUNK_TRIALS),
    }


def install(tracer: Tracer) -> None:
    """Wrap every measured layer function at the name its callers use."""
    from mafia_odds import cli, evolution, montecarlo, winchance

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(winchance, "falling_product", "core.falling_product")
    tracer.wrap(evolution, "falling_product", "core.falling_product")
    tracer.wrap(winchance, "win_chance_recurrence", "winchance.recurrence", _fraction_bits)
    tracer.wrap(winchance, "win_chance_closed", "winchance.closed", _fraction_bits)
    tracer.wrap(winchance, "win_chance_single", "winchance.single", _fraction_bits)
    tracer.wrap(winchance, "optimal_mafia_numeric", "winchance.optimal")
    tracer.wrap(evolution, "evolve_discrete", "evolution.discrete", _discrete_steps)
    tracer.wrap(evolution, "mean_discrete", "evolution.mean_discrete")
    tracer.wrap(evolution, "pm_continuous", "evolution.continuous")
    tracer.wrap(evolution, "mean_continuous", "evolution.continuous")
    tracer.wrap(montecarlo, "estimate_win_chance", "montecarlo.estimate", _estimate_work)


def self_times(spans: list[list]) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result
