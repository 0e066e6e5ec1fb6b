"""Closed-loop benchmark of the mafia-odds command line (see README.md).

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One client runs the workload's
operations one after another, each a fresh ``python -m mafia_odds`` process
or one library process, and starts the next only when the previous one has
exited.  Sessions of operations repeat for as long as another one fits in
``--seconds``; there is always at least one.
Every operation's stdout must equal the bytes recorded in ``goldens.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced sessions with sessions whose operations run under
``traced_op.py`` and prints the per-layer metrics.  The last stdout line is
one JSON object; the lines before it are a readable summary, and the full
record of the run goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_runs"
GOLDENS = BENCH / "goldens.json"

# A seed picks one of VARIANTS input variants: variant % 4 players are added
# to every CLI operation's n, and the variant is the Monte Carlo seed.
# goldens.json holds the recorded stdout digest of every variant's operations.
VARIANTS = 16
SETUP_REPEATS = 7

# The machines this runs on are shared, and their speed drifts by up to 2x
# within minutes.  Every reported time is therefore in reference seconds:
# measured seconds x REFERENCE_S / the median wall time of a fresh
# interpreter running REFERENCE_CODE, timed just before each operation of
# the run (for setup_s, just before each --help).  REFERENCE_CODE
# does the same kinds of work as the package (interpreter start, numpy
# import, Fraction arithmetic in a dict, a numpy block) but never imports
# it, so a change to the package cannot move the reference.  REFERENCE_S is
# about its wall time on the 2-CPU machine of the README's baseline.
REFERENCE_S = 0.2
REFERENCE_CODE = """
from fractions import Fraction
import numpy
rows = {}
for n in range(1, 100):
    for m in range(0, n + 1, 2):
        rows[n, m] = (Fraction(n - m, n) * rows.get((n - 2, m), 1)
                      + Fraction(m, n) * rows.get((n - 2, m - 1), 0))
numpy.random.default_rng(len(rows)).random((8192, 64)).argmax(axis=1)
"""


def _exact_deep(shift: int, variant: int) -> list[str]:
    return [
        f"cli winchance -n {600 + shift} -m 60",
        f"cli winchance -n {500 + shift} -m 50 --boundary ties",
        f"cli winchance -n {1200 + shift} -m 120 --method closed",
        f"cli optimal --max-n {300 + shift}",
        f"cli evolve -n {200 + shift} -m 20 --mode discrete",
    ]


def _exact_wide(shift: int, variant: int) -> list[str]:
    return [
        f"cli table --max-n {300 + shift}",
        f"cli table --max-n {200 + shift} --boundary ties --format json",
        f"cli single-mafia --max-n {1500 + shift}",
        f"cli evolve -n {400 + shift} -m 30 --mode continuous --format json",
    ]


def _mc(shift: int, variant: int) -> list[str]:
    return [
        f"cli simulate -n {1000 + shift} -m 15 --trials 131072 --seed {variant}",
        f"cli simulate -n {600 + shift} -m 12 --trials 131072 --boundary ties"
        f" --seed {variant}",
        f"grid {variant}",
    ]


WORKLOADS = {"exact-deep": _exact_deep, "exact-wide": _exact_wide, "mc": _mc}


def workload_ops(workload: str, seed: int) -> list[str]:
    variant = seed % VARIANTS
    return WORKLOADS[workload](variant % 4, variant)


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` first on the path and
    MAFIA_ODDS_THREADS unset, so Monte Carlo runs at the package default."""
    env = dict(os.environ)
    env.pop("MAFIA_ODDS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def scratch(name: str) -> Path:
    """This process's file ``name`` in WORK, so that runs never share one."""
    return WORK / f"{os.getpid()}.{name}"


@dataclass
class OpResult:
    op: str
    wall: float
    cpu: float
    rss_mb: float
    out_bytes: int
    rows: int
    digest: str
    error: str | None
    trace: dict | None = field(default=None, repr=False)
    ref: float = 0.0


def _count_rows(op: str, data: bytes) -> int:
    """Data records in a CLI output: CSV lines after the header, or JSON items."""
    if "--format json" in op:
        payload = json.loads(data)
        return len(payload) if isinstance(payload, list) else 1
    return max(data.count(b"\n") - 1, 0)


def run_op(
    op: str, env: dict[str, str], golden: str | None, traced: bool, op_id: int = 0
) -> OpResult:
    """Run one operation to completion and check its stdout against ``golden``."""
    kind, *args = op.split()
    out_path, err_path, record_path = scratch("out"), scratch("err"), scratch("trace.json")
    if traced:
        record_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "traced_op.py"), str(record_path), str(op_id),
                kind, *args]
    elif kind == "cli":
        argv = [sys.executable, "-m", "mafia_odds", *args]
    else:
        argv = [sys.executable, str(BENCH / "libops.py"), kind, *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = out_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    error = None
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        error = f"exit code {proc.returncode}: {' '.join(tail)}"
    elif golden is None:
        error = "no recorded output for this operation"
    elif digest != golden:
        error = "stdout differs from the recorded bytes"
    ran = proc.returncode == 0
    return OpResult(
        op=op,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        out_bytes=len(data),
        rows=_count_rows(op, data) if traced and ran and kind == "cli" else 0,
        digest=digest,
        error=error,
        trace=json.loads(record_path.read_text()) if traced and ran else None,
    )


def reference_s(env: dict[str, str]) -> float:
    """Wall time of one fresh interpreter running REFERENCE_CODE."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_CODE], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_session(ops, env, goldens, traced: bool, reference: bool) -> list[OpResult]:
    """Run each operation once, with a reference run before each if asked."""
    results = []
    for i, op in enumerate(ops):
        ref = reference_s(env) if reference else 0.0
        results.append(run_op(op, env, goldens.get(op), traced, i))
        results[-1].ref = ref
    return results


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(sessions: list[list[OpResult]], setup: list[tuple[float, float]]) -> dict:
    """Medians over sessions, in reference seconds; ``setup`` holds
    (help wall, reference) pairs, each pair measured back to back."""
    scale = REFERENCE_S / statistics.median(r.ref for s in sessions for r in s)
    wall = statistics.median(sum(r.wall for r in s) for s in sessions)
    cpu = statistics.median(sum(r.cpu for r in s) for s in sessions)
    return {
        "wall_s": _metric(wall * scale, "s"),
        "cpu_s": _metric(cpu * scale, "s"),
        "peak_rss_mb": _metric(
            statistics.median(max(r.rss_mb for r in s) for s in sessions), "MB"
        ),
        "setup_s": _metric(
            statistics.median(wall / ref for wall, ref in setup) * REFERENCE_S, "s"
        ),
    }


# Count metrics: they must repeat exactly from session to session.
COUNTS = (
    "core.falling_product.calls",
    "core.falling_product.cache_entries",
    "winchance.recurrence.calls",
    "winchance.result_bits",
    "evolution.discrete.calls",
    "evolution.discrete.steps",
    "evolution.continuous.calls",
    "montecarlo.estimate.calls",
    "montecarlo.trials",
    "montecarlo.draws",
    "montecarlo.chunks",
    "cli.rows",
    "cli.out_bytes",
)


def layer_values(session: list[OpResult]) -> dict[str, float]:
    """Per-layer numbers of one traced session: summed self time and counts."""
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    v = dict.fromkeys(
        ("bits", "steps", "trials", "draws", "chunks", "large_trials", "large_s",
         "cache_entries", "worker_cpu_s", "rows", "out_bytes"), 0
    )
    small_ms, import_s = [], []
    for result in session:
        record = result.trace
        if record is None:
            continue
        v["worker_cpu_s"] += record["worker_cpu_s"]
        v["cache_entries"] = max(v["cache_entries"], record["cache_entries"])
        is_cli = result.op.startswith("cli ")
        if is_cli:
            import_s.append(record["import_s"])
            v["rows"] += result.rows
            v["out_bytes"] += result.out_bytes
        spans = record["spans"]
        for (name, start, end, _, attrs), self_ns in zip(spans, self_times(spans)):
            own[name] = own.get(name, 0.0) + self_ns / 1e9
            calls[name] = calls.get(name, 0) + 1
            if name in ("winchance.recurrence", "winchance.closed", "winchance.single"):
                v["bits"] = max(v["bits"], attrs)
            elif name == "evolution.discrete":
                v["steps"] += attrs
            elif name == "montecarlo.estimate":
                for key in ("trials", "draws", "chunks"):
                    v[key] += attrs[key]
                if is_cli:
                    v["large_trials"] += attrs["trials"]
                    v["large_s"] += (end - start) / 1e9
                else:
                    small_ms.append((end - start) / 1e6)
    recurrence_calls = calls.get("winchance.recurrence", 0)
    return {
        "core.falling_product.s": own.get("core.falling_product", 0.0),
        "core.falling_product.calls": calls.get("core.falling_product", 0),
        "core.falling_product.cache_entries": v["cache_entries"],
        "winchance.recurrence.s": own.get("winchance.recurrence", 0.0),
        "winchance.recurrence.calls": recurrence_calls,
        "winchance.recurrence.us_per_call": (
            own.get("winchance.recurrence", 0.0) / recurrence_calls * 1e6
            if recurrence_calls else 0.0
        ),
        "winchance.closed.s": own.get("winchance.closed", 0.0),
        "winchance.optimal.s": own.get("winchance.optimal", 0.0),
        "winchance.single.s": own.get("winchance.single", 0.0),
        "winchance.result_bits": v["bits"],
        "evolution.discrete.s": own.get("evolution.discrete", 0.0),
        "evolution.discrete.calls": calls.get("evolution.discrete", 0),
        "evolution.discrete.steps": v["steps"],
        "evolution.mean_discrete.s": own.get("evolution.mean_discrete", 0.0),
        "evolution.continuous.s": own.get("evolution.continuous", 0.0),
        "evolution.continuous.calls": calls.get("evolution.continuous", 0),
        "montecarlo.estimate.s": own.get("montecarlo.estimate", 0.0),
        "montecarlo.estimate.calls": calls.get("montecarlo.estimate", 0),
        "montecarlo.trials": v["trials"],
        "montecarlo.draws": v["draws"],
        "montecarlo.chunks": v["chunks"],
        "montecarlo.large.trials_per_s": (
            v["large_trials"] / v["large_s"] if v["large_s"] else 0.0
        ),
        "montecarlo.small.call_ms": statistics.median(small_ms) if small_ms else 0.0,
        "montecarlo.worker_cpu_s": v["worker_cpu_s"],
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.rows": v["rows"],
        "cli.out_bytes": v["out_bytes"],
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
    }


LAYER_UNITS = {
    "core.falling_product.s": "s",
    "core.falling_product.calls": "count",
    "core.falling_product.cache_entries": "count",
    "winchance.recurrence.s": "s",
    "winchance.recurrence.calls": "count",
    "winchance.recurrence.us_per_call": "us",
    "winchance.closed.s": "s",
    "winchance.optimal.s": "s",
    "winchance.single.s": "s",
    "winchance.result_bits": "bit",
    "evolution.discrete.s": "s",
    "evolution.discrete.calls": "count",
    "evolution.discrete.steps": "count",
    "evolution.mean_discrete.s": "s",
    "evolution.continuous.s": "s",
    "evolution.continuous.calls": "count",
    "montecarlo.estimate.s": "s",
    "montecarlo.estimate.calls": "count",
    "montecarlo.trials": "count",
    "montecarlo.draws": "count",
    "montecarlo.chunks": "count",
    "montecarlo.large.trials_per_s": "1/s",
    "montecarlo.small.call_ms": "ms",
    "montecarlo.small.serial_call_ms": "ms",
    "montecarlo.worker_cpu_s": "s",
    "montecarlo.rss_per_chunk_mb": "MB",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.out_bytes": "B",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer(traced, untraced, serial: OpResult, chunk: OpResult) -> tuple[dict, str | None]:
    """Median of each per-layer time over the traced sessions, the counts
    (which must agree between sessions), the reference probes and the
    tracing overhead.  Returns the metrics and an error if a count differed."""
    values = [layer_values(s) for s in traced]
    merged = {
        name: values[0][name] if name in COUNTS else statistics.median(v[name] for v in values)
        for name in values[0]
    }
    error = None
    for name in COUNTS:
        if len({v[name] for v in values}) > 1:
            error = f"count {name} differs between traced sessions"
    serial_ms = [
        (span[2] - span[1]) / 1e6
        for span in (serial.trace or {"spans": []})["spans"]
        if span[0] == "montecarlo.estimate"
    ]
    merged["montecarlo.small.serial_call_ms"] = statistics.median(serial_ms or [0.0])
    merged["montecarlo.rss_per_chunk_mb"] = (chunk.trace or {}).get("rss_growth_mb", 0.0)
    traced_wall = statistics.median(sum(r.wall for r in s) for s in traced)
    untraced_wall = statistics.median(sum(r.wall for r in s) for s in untraced)
    merged["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    metrics = {name: _metric(merged[name], unit) for name, unit in LAYER_UNITS.items()}
    return metrics, error


def machine_record(args) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "variant": args.seed % VARIANTS,
        "child_env": "MAFIA_ODDS_THREADS unset (package default: os.cpu_count() workers)",
        "machine_settings": "none changed: no cache drops, no CPU pinning, no priority changes",
    }


def setup(env) -> list[tuple[float, float]]:
    """(wall time of ``python -m mafia_odds --help``, reference time) pairs,
    after one warm-up of each."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        ref = reference_s(env)
        with open(scratch("out"), "wb") as out:
            start = time.perf_counter()
            code = subprocess.call(
                [sys.executable, "-m", "mafia_odds", "--help"],
                stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT,
            )
            elapsed = time.perf_counter() - start
        if code != 0 or not scratch("out").read_bytes().startswith(b"usage:"):
            raise RuntimeError(f"`python -m mafia_odds --help` failed with exit code {code}")
        if i:
            times.append((elapsed, ref))
    return times


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="mafia-odds closed-loop benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _summary(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = _quartiles(values)
    return f"# {name}: median {q2:.4f} {unit} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mafia_odds" / "__init__.py").is_file() or not GOLDENS.is_file():
        print("perfbench: run from a source checkout with src/mafia_odds and "
              "perfbench/goldens.json", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = child_env()
    goldens = json.loads(GOLDENS.read_text())
    ops = workload_ops(args.workload, args.seed)
    try:
        setup_times = setup(env)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2

    machine = machine_record(args)
    print("# machine " + json.dumps(machine))
    print("# operations: " + " | ".join(ops))
    results: list[OpResult] = []
    untraced, traced = [], []
    probes = []
    if args.trace:
        variant = args.seed % VARIANTS
        probes = [
            run_op(op, env, goldens.get(key), traced=True)
            for op, key in ((f"grid {variant} 1", f"grid {variant}"), ("chunk", "chunk"))
        ]
        results += probes
    start = time.perf_counter()
    durations = []
    while not durations or (
        time.perf_counter() - start + statistics.median(durations) <= args.seconds
    ):
        began = time.perf_counter()
        untraced.append(run_session(ops, env, goldens, False, reference=not args.trace))
        results += untraced[-1]
        if args.trace:
            traced.append(run_session(ops, env, goldens, True, reference=False))
            results += traced[-1]
        durations.append(time.perf_counter() - began)

    failures = [r for r in results if r.error]
    for r in failures:
        print(f"# FAILED {r.op}: {r.error}")
    correct = not failures
    if args.trace:
        metrics, error = per_layer(traced, untraced, *probes)
        if error:
            print(f"# FAILED {error}")
            correct = False
    else:
        metrics = end_to_end(untraced, setup_times)

    print(f"# sessions {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(results)} operations")
    print(f"# failed_frac: {len(failures)}/{len(results)} = "
          f"{len(failures) / len(results):.4f} ratio")
    walls = [sum(r.wall for r in s) for s in untraced]
    print(_summary("measured session wall", walls, "s"))
    if traced:
        print(_summary("measured traced session wall",
                       [sum(r.wall for r in s) for s in traced], "s"))
    else:
        print(_summary("measured session cpu", [sum(r.cpu for r in s) for s in untraced], "s"))
        print(_summary("reference run", [r.ref for s in untraced for r in s], "s"))
    print(_summary("measured --help", [wall for wall, _ in setup_times], "s"))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")

    record = {
        "machine": machine,
        "operations": ops,
        "setup_s": setup_times,
        "sessions": [[vars(r) | {"trace": None} for r in s] for s in untraced],
        "traced_sessions": [[vars(r) | {"trace": None} for r in s] for s in traced],
        "failures": [(r.op, r.error) for r in failures],
        "metrics": metrics,
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for name in ("out", "err", "trace.json"):
        scratch(name).unlink(missing_ok=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
