"""Tests of the benchmark itself: golden gate, budget kill, metric names.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def relcay(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import relcay
    import relcay.cli

    return relcay


def test_golden_gate_rejects_a_tampered_report(relcay):
    from worker import run_op

    op = next(o for o in workloads.workload_ops("invariants_ladder") if o.label == "invariants.D32")
    text, _ = run_op(relcay, op)
    goldens = workloads.load_goldens()
    assert workloads.output_matches(op.label, text, goldens)
    tampered = text.replace("diameter: ", "diameter: 1", 1)
    assert tampered != text
    assert not workloads.output_matches(op.label, tampered, goldens)
    assert not workloads.output_matches(op.label, text + "\n", goldens)
    assert not workloads.output_matches("invariants.C64", text, goldens)


def test_budget_kill_stops_an_operation_over_budget():
    sleeper = (
        "import time\n"
        "print('@bench {\"event\": \"start\", \"op\": 0}', flush=True)\n"
        "time.sleep(60)\n"
    )
    begun = time.monotonic()
    child = run.run_child([sys.executable, "-c", sleeper], {0: 0.5}, begun + 30)
    assert child.timed_out
    assert child.running == 0
    assert child.returncode == -signal.SIGKILL
    assert time.monotonic() - begun < 10


def test_declared_metrics_match_the_emitted_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    with pytest.raises(KeyError):
        run.result_line(True, 1, 0, {"undeclared": 1.0}, workloads.END_TO_END)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_audit_replay_emits_every_declared_layer_metric(relcay, parallelism):
    import replay

    tracer = replay.Tracer()
    audit = replay.trace_audit(tracer, ("C4",), parallelism)
    metrics = replay.layer_metrics(tracer, audit)
    assert set(metrics) == set(workloads.per_layer_metrics())
    assert metrics["audit.instances"] == metrics["graphs.build_relcay_calls"] > 0
    assert (metrics["audit.pool_efficiency"] > 0) == (parallelism > 1)


def test_invariants_replay_emits_every_declared_layer_metric(relcay):
    import replay

    tracer = replay.Tracer()
    ops = [o for o in workloads.workload_ops("invariants_ladder") if o.label == "invariants.D32"]
    replay.trace_invariants(tracer, ops)
    metrics = replay.layer_metrics(tracer, None)
    assert set(metrics) == set(workloads.per_layer_metrics())
    assert metrics["oracles.min_dominating_set_calls"] == 1
