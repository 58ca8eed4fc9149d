"""Worker process of the benchmark: a fresh interpreter for each timed run.

    python3 bench/worker.py ROOT WORKLOAD [--ops 0,1,...] [--setup-only]
                            [--trace SPANS_PATH]

The worker imports relcay from ROOT/src, times set-up (the import plus
``make_group`` for every group the workload uses), then runs the listed
operations one after another.  It reports through lines on stdout that
start with ``@bench `` followed by one JSON object:

    {"event": "setup", "seconds": s}
    {"event": "start", "op": i}
    {"event": "done", "op": i, "seconds": s, "ok": b, "instances": k, "error": e}
    {"event": "exit", "rss_mb": m}
    {"event": "trace", "metrics": {...}, "timed_region_s": s}

The runner enforces the per-operation budgets by killing this process.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, load_goldens, output_matches, workload_ops

PREFIX = "@bench "


def emit(stream, **event) -> None:
    stream.write(PREFIX + json.dumps(event) + "\n")
    stream.flush()


def run_op(relcay, op) -> tuple[str, int]:
    """Run one operation; return its checked output and instance count."""
    if op.kind == "audit":
        catalog, parallelism, keep_records = op.args
        report = relcay.run_audit(catalog, parallelism=parallelism, keep_records=keep_records)
        return report.to_json(), sum(entry["instances"] for entry in report.catalog)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = relcay.cli.execute_command(["invariants", *op.args])
    if code != 0:
        raise RuntimeError(f"invariants exited {code}: {err.getvalue().strip()}")
    return out.getvalue(), 1


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the audit's pool workers.
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--ops", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args(argv)
    out = sys.stdout
    ops = workload_ops(args.workload)
    src = (args.root / "src").resolve()

    started = time.perf_counter()
    sys.path.insert(0, str(src))
    import relcay
    import relcay.cli

    if src not in Path(relcay.__file__).resolve().parents:
        print(f"relcay was imported from {relcay.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.trace is not None:
        # The replay builds the groups itself, inside spans, from cold caches.
        import replay

        tracer = replay.Tracer()
        audit = None
        if ops[0].kind == "audit":
            catalog, parallelism, _ = ops[0].args
            audit = replay.trace_audit(tracer, catalog, parallelism)
        else:
            replay.trace_invariants(tracer, ops)
        emit(
            out,
            event="trace",
            metrics=replay.layer_metrics(tracer, audit),
            timed_region_s=replay.timed_region_seconds(tracer),
        )
        tracer.write(args.trace)
        emit(out, event="exit", rss_mb=peak_rss_mb())
        return 0

    for spec in WORKLOADS[args.workload]:
        relcay.make_group(spec)
    emit(out, event="setup", seconds=time.perf_counter() - started)
    if args.setup_only:
        return 0

    goldens = load_goldens()
    for index in map(int, filter(None, args.ops.split(","))):
        op = ops[index]
        emit(out, event="start", op=index)
        begun = time.perf_counter()
        try:
            text, instances = run_op(relcay, op)
        except Exception as err:  # a failed operation is counted, not fatal
            emit(out, event="done", op=index, seconds=time.perf_counter() - begun,
                 ok=False, instances=0, error=f"{type(err).__name__}: {err}")
            continue
        seconds = time.perf_counter() - begun
        ok = output_matches(op.label, text, goldens)
        emit(out, event="done", op=index, seconds=seconds, ok=ok, instances=instances,
             error=None if ok else "output differs from the golden digest")
    emit(out, event="exit", rss_mb=peak_rss_mb())
    return 0


if __name__ == "__main__":
    sys.exit(main())
