"""Smoke tests of the benchmark itself, at sizes that run in seconds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import spans
import traced_op

sys.path.insert(0, str(run.ROOT / "src"))

TINY = "cli winchance -n 12 -m 3 --method closed"


@pytest.fixture(scope="module")
def env():
    run.WORK.mkdir(exist_ok=True)
    yield run.child_env()
    for name in ("out", "err", "trace.json"):
        run.scratch(name).unlink(missing_ok=True)


def test_changed_output_byte_counts_as_failure(env):
    first = run.run_op(TINY, env, None, traced=False)
    assert first.error == "no recorded output for this operation"
    assert run.run_session([TINY], env, {TINY: first.digest}, False, False)[0].error is None

    changed = bytearray(run.scratch("out").read_bytes())
    changed[-2] ^= 1
    goldens = {TINY: run.hashlib.sha256(changed).hexdigest()}
    session = run.run_session([TINY, TINY], env, goldens, False, False)
    assert [r.error for r in session] == ["stdout differs from the recorded bytes"] * 2


def test_failed_exit_code_counts_as_failure(env):
    result = run.run_op("cli winchance -n 3 -m 4", env, "0" * 64, traced=False)
    assert result.error.startswith("exit code 2")


def test_self_time_is_span_time_minus_child_span_time():
    recorded = [
        ["outer", 0, 100, None, None],
        ["child", 10, 30, 0, None],
        ["grandchild", 15, 20, 1, None],
        ["child", 40, 65, 0, None],
        ["leaf", 70, 70, None, None],
    ]
    assert spans.self_times(recorded) == [55, 15, 5, 25, 0]


def test_traced_closed_form_self_time_excludes_falling_product(capsys):
    code, record = traced_op.run_traced("cli", TINY.split()[1:])
    assert code == 0
    assert capsys.readouterr().out.startswith("n,m,w_num,w_den,w_float\n12,3,")
    recorded = record["spans"]
    names = [s[0] for s in recorded]
    assert names[:2] == ["cli.main", "winchance.closed"]
    assert names[2:] == ["core.falling_product"] * 4
    closed = recorded[1]
    children = sum(end - start for _, start, end, parent, _ in recorded if parent == 1)
    expected = closed[2] - closed[1] - children
    assert spans.self_times(recorded)[1] == expected
    assert closed[4] > 0


def _wrapped_targets():
    tracer = spans.Tracer()
    spans.install(tracer)
    targets = list(tracer._patched)
    tracer.restore()
    return targets


@pytest.mark.parametrize(
    "argv",
    [TINY.split()[1:], ["evolve", "-n", "8", "-m", "2"], ["winchance", "--bogus"]],
)
def test_traced_run_puts_every_wrapped_function_back(argv, capsys):
    targets = _wrapped_targets()
    assert len(targets) == 12
    try:
        traced_op.run_traced("cli", argv)
    except SystemExit:
        pass  # argparse rejects the bogus flag; the wrappers must still go
    for owner, attr, original in targets:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    result = run.OpResult("op", 1.0, 1.0, 1.0, 0, 0, "", None, ref=run.REFERENCE_S)
    e2e = run.end_to_end([[result]], [(1.0, run.REFERENCE_S)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in e2e.items()
    }
