"""Record the stdout digest of every operation of every input variant.

    python3 perfbench/record_goldens.py

Run it from the root of a checkout whose outputs are known to be right;
it rewrites ``perfbench/goldens.json``, which ``run.py`` checks every
operation against.  It takes a few minutes.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    env = run.child_env()
    ops = {op for w in run.WORKLOADS for v in range(run.VARIANTS) for op in run.workload_ops(w, v)}
    goldens = {}
    for op in sorted(ops | {"chunk"}):
        result = run.run_op(op, env, None, traced=False)
        if result.error.startswith("exit code"):
            print(f"{op}: {result.error}", file=sys.stderr)
            return 1
        goldens[op] = result.digest
        print(f"{result.wall:7.2f} s  {op}", flush=True)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
