"""Run one benchmark operation in this process with every layer traced.

    python3 perfbench/traced_op.py RECORD_PATH OP_ID cli ARGV...
    python3 perfbench/traced_op.py RECORD_PATH OP_ID grid VARIANT [THREADS]
    python3 perfbench/traced_op.py RECORD_PATH OP_ID chunk

``cli`` calls ``mafia_odds.cli.main(ARGV)``; ``grid`` and ``chunk`` are the
library operations of ``libops``.  Stdout is the operation's own output.
When the operation ends, its spans, OP_ID and process counters go to
RECORD_PATH as one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_traced(kind: str, args: list[str]) -> tuple[int, dict]:
    """Run one operation with spans on; return its exit code and record."""
    start = time.perf_counter()
    import mafia_odds.cli

    import_s = time.perf_counter() - start
    import libops
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    cpu_before = _child_cpu_s()
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        if kind == "cli":
            code = mafia_odds.cli.main(args)
        else:
            libops.run([kind, *args])
            code = 0
    finally:
        tracer.restore()
    sys.stdout.flush()
    record = {
        "import_s": import_s,
        "worker_cpu_s": _child_cpu_s() - cpu_before,
        "rss_growth_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before)
        / 1024,
        "cache_entries": mafia_odds.core.falling_product.cache_info().currsize,
        "spans": tracer.spans,
    }
    return code, record


def main(argv: list[str]) -> int:
    code, record = run_traced(argv[2], argv[3:])
    record["op_id"] = int(argv[1])
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
