"""The relcay benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it benchmarks the relcay sources in
``src/`` there and exits with status 2 if there are none.

Each workload is a closed loop with one caller: an operation (one
``run_audit`` call, or one ``relcay invariants`` call) starts when the
previous one returns.  Every timed repetition runs in a fresh interpreter,
so relcay's process-wide caches start cold, and the run repeats the
workload until ``--seconds`` is spent, reporting medians.  Set-up (import
plus group construction) is timed in several fresh interpreters.  An
operation that outlives its budget is killed and counted as failed, as is
one that raises or whose output digest differs from ``golden.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once as a traced replay (see ``replay.py``)
and reports the per-layer metrics.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the machine and every repetition, goes
to ``.bench_out/``.  No workload's inputs depend on ``--seed``: the audits
take their whole input from the catalog, and why the invariants calls are
fixed is noted in ``workloads.py``.  The seed is recorded.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from worker import PREFIX
from workloads import END_TO_END, WORKLOADS, per_layer_metrics, workload_ops

BENCH_DIR = Path(__file__).resolve().parent
RUN_DEADLINE_S = 170.0  # every run ends, killed work included, inside 180 s
SETUP_SAMPLES = 7  # set-up-only interpreters per run, besides the repetitions
MIN_REPS = 2  # one repetition alone carries 15-25% noise on a shared 2-vCPU VM
STEAL_NOISY = 0.02  # share of CPU ticks stolen during a repetition


# --------------------------------------------------------------------------
# Machine record


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def cpu_sample() -> dict:
    """Load average and CPU ticks (total, stolen) from /proc, if present."""
    try:
        with open("/proc/loadavg") as loadavg:
            load1 = float(loadavg.read().split()[0])
        with open("/proc/stat") as stat:
            ticks = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError, IndexError):
        return {}
    return {"load1": load1, "ticks": sum(ticks), "steal": ticks[7] if len(ticks) > 7 else 0}


def steal_share(before: dict, after: dict) -> float | None:
    if not before or not after or after["ticks"] <= before["ticks"]:
        return None
    return (after["steal"] - before["steal"]) / (after["ticks"] - before["ticks"])


# --------------------------------------------------------------------------
# Worker processes


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line.rstrip("\n"))
    lines.put(None)


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a worker's whole process group (the audit's pool workers
    too), reap the worker and wait until no member of the group is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


@dataclass
class ChildRun:
    events: list
    running: int | None  # operation started but not finished
    timed_out: bool
    returncode: int


def run_child(cmd: list[str], budgets: dict[int, float], deadline: float) -> ChildRun:
    """Run one worker, following its event lines.  The worker is killed when
    the operation it runs exceeds its budget or the run its deadline."""
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    lines: queue.Queue = queue.Queue()
    pump = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    pump.start()
    events, running, limit, timed_out = [], None, deadline, False
    try:
        while True:
            try:
                line = lines.get(timeout=max(0.0, limit - time.monotonic()))
            except queue.Empty:
                timed_out = True
                break
            if line is None:
                break
            if not line.startswith(PREFIX):
                continue
            event = json.loads(line[len(PREFIX):])
            events.append(event)
            if event["event"] == "start":
                running = event["op"]
                limit = min(deadline, time.monotonic() + budgets[running])
            elif event["event"] == "done":
                running, limit = None, deadline
    finally:
        if not timed_out:
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                timed_out = True
        _kill_group(proc)
        pump.join()
        proc.stdout.close()
    return ChildRun(events, running, timed_out, proc.returncode)


def worker_cmd(workload: str, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "worker.py"), str(Path.cwd()), workload, *extra]


# --------------------------------------------------------------------------
# Repetitions


@dataclass
class OpResult:
    ok: bool
    seconds: float
    instances: int
    error: str | None


@dataclass
class Rep:
    setup_s: float | None = None
    rss_mb: float = 0.0
    ops: dict[int, OpResult] = field(default_factory=dict)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops.values())

    @property
    def instances(self) -> int:
        return sum(op.instances for op in self.ops.values())

    @property
    def noisy(self) -> bool:
        # Flagged on steal only: the load average also counts this
        # benchmark's own previous repetition and pool workers.
        share = steal_share(self.before, self.after)
        return share is not None and share >= STEAL_NOISY

    def as_dict(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "rss_mb": self.rss_mb,
            "steal_share": steal_share(self.before, self.after),
            "load1_before": self.before.get("load1"),
            "load1_after": self.after.get("load1"),
            "noisy": self.noisy,
            "ops": {i: vars(op) for i, op in sorted(self.ops.items())},
        }


def run_rep(workload: str, deadline: float) -> Rep:
    """One repetition of the workload's operations in fresh workers.  After
    a kill or crash the remaining operations go to a new worker."""
    ops = workload_ops(workload)
    budgets = {i: op.budget_s for i, op in enumerate(ops)}
    rep = Rep(before=cpu_sample())
    pending = list(range(len(ops)))
    while pending:
        if time.monotonic() >= deadline:
            for i in pending:
                rep.ops[i] = OpResult(False, 0.0, 0, "run deadline reached before the operation")
            break
        child = run_child(worker_cmd(workload, "--ops", ",".join(map(str, pending))), budgets, deadline)
        for event in child.events:
            if event["event"] == "setup" and rep.setup_s is None:
                rep.setup_s = event["seconds"]
            elif event["event"] == "done":
                rep.ops[event["op"]] = OpResult(
                    event["ok"], event["seconds"], event["instances"], event["error"]
                )
            elif event["event"] == "exit":
                rep.rss_mb = max(rep.rss_mb, event["rss_mb"])
        pending = [i for i in pending if i not in rep.ops]
        if not pending:
            break
        reason = "over budget, killed" if child.timed_out else f"worker exited with {child.returncode}"
        if child.running is None:  # died outside any operation: nothing left to try
            for i in pending:
                rep.ops[i] = OpResult(False, 0.0, 0, reason)
            break
        rep.ops[child.running] = OpResult(False, budgets[child.running], 0, reason)
        pending.remove(child.running)
    rep.after = cpu_sample()
    return rep


def setup_sample(workload: str, deadline: float) -> float | None:
    child = run_child(worker_cmd(workload, "--setup-only"), {}, deadline)
    return next((e["seconds"] for e in child.events if e["event"] == "setup"), None)


def measure(workload: str, seconds: float, deadline: float) -> tuple[list[Rep], list[float]]:
    """Repeat the workload at least ``MIN_REPS`` times, and again while
    another repetition is expected to finish within ``seconds``."""
    setup_sample(workload, deadline)  # uncounted: leaves compiled bytecode behind
    setups = [s for s in (setup_sample(workload, deadline) for _ in range(SETUP_SAMPLES)) if s]
    reps: list[Rep] = []
    begun = time.monotonic()
    while True:
        reps.append(run_rep(workload, deadline))
        elapsed = time.monotonic() - begun
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    setups += [rep.setup_s for rep in reps if rep.setup_s is not None]
    return reps, setups


# --------------------------------------------------------------------------
# Results


def end_to_end_metrics(reps: list[Rep], setups: list[float]) -> dict[str, float]:
    walls = [rep.wall_s for rep in reps]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(walls),
        "instances_per_s": statistics.median(
            rep.instances / rep.wall_s if rep.wall_s else 0.0 for rep in reps
        ),
        "peak_rss_mb": statistics.median(rep.rss_mb for rep in reps),
    }


def traced_metrics(workload: str, deadline: float, spans_path: Path) -> tuple[dict, Rep, bool]:
    """Per-layer metrics: one untraced repetition for wall and per-call
    times, then one traced replay in its own fresh worker."""
    rep = run_rep(workload, deadline)
    child = run_child(worker_cmd(workload, "--trace", str(spans_path)), {}, deadline)
    trace = next((e for e in child.events if e["event"] == "trace"), None)
    if trace is None or child.returncode != 0 or child.timed_out:
        return dict.fromkeys(per_layer_metrics(), 0.0), rep, False
    metrics = trace["metrics"]
    wall = rep.wall_s
    ops = workload_ops(workload)
    if ops[0].kind == "invariants":
        for i, op in enumerate(ops):
            metrics[f"cli.{op.label}_s"] = rep.ops[i].seconds
        # Derived: CLI time the replayed layers leave unexplained.
        metrics["cli.overhead_s"] = wall - trace["timed_region_s"]
    metrics["trace.coverage"] = trace["timed_region_s"] / wall if wall else 0.0
    return metrics, rep, True


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "relcay" / "__init__.py").is_file():
        print(f"no relcay sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "machine": machine_record()}
    print("machine: " + json.dumps(record))

    if args.trace:
        metrics, rep, traced_ok = traced_metrics(args.workload, deadline, out_dir / f"{stem}.spans.json")
        reps, units = [rep], per_layer_metrics()
        attempted = len(rep.ops) + 1
        failed = sum(not op.ok for op in rep.ops.values()) + (not traced_ok)
    else:
        reps, setups = measure(args.workload, args.seconds, deadline)
        metrics, units = end_to_end_metrics(reps, setups), END_TO_END
        attempted = sum(len(rep.ops) for rep in reps)
        failed = sum(not op.ok for rep in reps for op in rep.ops.values())
        record["setup_samples"] = setups

    for number, rep in enumerate(reps, 1):
        share = steal_share(rep.before, rep.after)
        print(
            f"rep {number}: wall {rep.wall_s:.3f} s, setup {rep.setup_s or 0:.3f} s, "
            f"rss {rep.rss_mb:.1f} MB, load {rep.before.get('load1')} -> {rep.after.get('load1')}, "
            f"steal {share if share is None else f'{share:.1%}'}" + (" [noisy]" if rep.noisy else "")
        )
        for i, op in sorted(rep.ops.items()):
            if not op.ok:
                print(f"  operation {i} failed: {op.error}")
    for name, value in metrics.items():
        derived = " (derived)" if name in ("audit.dispatch_s", "cli.overhead_s") else ""
        print(f"{name} = {value:.6g} {units[name]}{derived}")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")

    record |= {"reps": [rep.as_dict() for rep in reps], "metrics": metrics,
               "attempted": attempted, "failed": failed}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
