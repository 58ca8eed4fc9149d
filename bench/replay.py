"""Traced replay: the per-layer half of the benchmark.

A traced run replays a workload's instances through relcay's public
functions, one span around each call, and reduces the spans to per-layer
self times and counts.  Spans live in memory and are written out once at
the end.  The program itself is not instrumented: every span boundary is
in this file.
"""
from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from contextlib import contextmanager

import relcay
from relcay.cli import parse_elements
from relcay.oracles import DEFAULT_EDGE_COLOR_CUTOFF

from workloads import GROUP_CORE, ORACLES, THEOREMS, per_layer_metrics

# The forbidden-structure kinds the audit's checks evaluate per instance.
FORBIDDEN_KINDS = (
    "claw_free",
    "forest",
    "tree",
    "triangle_free",
    "square_free_as_printed",
    "bipartite_sufficient",
)
# Spans whose work also happens inside a workload's timed region; the
# others (group construction in set-up, the scans the replay stands in
# for, CSV export) stay out of trace.coverage.
_TIMED_REGION = {
    "graphs": None,
    "oracles": None,
    "theorems": None,
    "group_core": ("generated_subgroup",),
    "audit": ("shrink_counterexample", "to_json"),
}


class Tracer:
    """In-memory spans: (layer, name, start, end, parent index, instance)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str, instance=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([layer, name, time.perf_counter(), None, parent, instance])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    def call(self, layer: str, fn, *args, instance=None, **kwargs):
        with self.span(layer, fn.__name__, instance):
            return fn(*args, **kwargs)

    def self_times(self) -> tuple[Counter, Counter]:
        """Per (layer, name): summed self time and span count.  Self time is
        a span's duration minus that of its children, which never overlap."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for layer, name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (layer, name, start, end, _, _), inner in zip(self.spans, child_time):
            seconds[layer, name] += end - start - inner
            calls[layer, name] += 1
        return seconds, calls

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump(
                {
                    "fields": ["layer", "name", "start", "end", "parent", "instance"],
                    "spans": self.spans,
                },
                out,
            )


# --------------------------------------------------------------------------
# Replays


def _replay_audit_instance(tracer: Tracer, group, h_members, c_members, limits, iid):
    """The oracle and predictor calls the audit's 34 checks make on one
    instance (everything but domination and edge colouring)."""
    call = tracer.call
    h = relcay.Subgroup(group, h_members)
    c = relcay.ConnectionSet(group, c_members)
    graph = call("graphs", relcay.build_relcay, group, h, c, instance=iid)
    n, adj = graph.n, graph.adjacency
    call("oracles", relcay.structure_flags, graph, instance=iid)
    call("oracles", relcay.diameter_components, graph, instance=iid)
    for fn in (
        relcay.max_clique,
        relcay.max_independent_set,
        relcay.max_matching,
        relcay.min_vertex_cover,
        relcay.min_edge_cover,
        relcay.chromatic_number,
    ):
        call("oracles", fn, n, adj, instance=iid)
    call("theorems", relcay.predict_valencies, group, h, c, instance=iid)
    call("theorems", relcay.predict_connectivity, group, h, c, instance=iid)
    try:
        call("theorems", relcay.predict_clique, group, h, c, instance=iid)
    except relcay.InternalConsistencyError:
        # The audit falls back to the unverified C^3 bound, and so do we.
        tracer.errors["predict_clique"] += 1
        call("theorems", relcay.predict_clique, group, h, c, instance=iid,
             verify_c_cubed=False)
    call("theorems", relcay.predict_alpha_beta, group, h, c, instance=iid)
    call("theorems", relcay.predict_chromatic, group, h, c, instance=iid,
         partition_cap=limits.chromatic_ii_cap)
    for kind in FORBIDDEN_KINDS:
        call("theorems", relcay.predict_forbidden, group, h, c, kind, instance=iid)
    if not c.difference(h):
        return  # the class-one check is not applicable and colours nothing
    try:
        call("theorems", relcay.build_class_one_coloring, graph, instance=iid)
    except relcay.InternalConsistencyError:
        tracer.errors["build_class_one_coloring"] += 1


def trace_audit(tracer: Tracer, catalog, parallelism: int) -> dict[str, float]:
    """Scan with records kept, replay every instance, then shrink the
    mismatches and serialize.  Returns the audit-level measurements."""
    limits = relcay.Limits()
    groups = {}
    for spec in catalog:
        groups[spec] = tracer.call("group_core", relcay.make_group, spec)
        tracer.call("group_core", relcay.enumerate_subgroups, groups[spec])
    if parallelism > 1:
        # Parallel scan first, so the serial scan below starts from the same
        # cold per-process caches the forked workers start from.
        with tracer.span("audit", "parallel_scan"):
            relcay.run_audit(catalog, parallelism=parallelism, keep_records=True,
                             shrink=False)
    with tracer.span("audit", "scan"):
        report = relcay.run_audit(catalog, keep_records=True, shrink=False)
    instances = list(dict.fromkeys(
        (r.group, r.h_indices, r.c_indices) for r in report.records
    ))
    expected = sum(entry["instances"] for entry in report.catalog)
    if len(instances) != expected:
        raise RuntimeError(f"replay found {len(instances)} instances, expected {expected}")
    for iid, (spec, h_members, c_members) in enumerate(instances):
        with tracer.span("audit", "instance", iid):
            _replay_audit_instance(tracer, groups[spec], h_members, c_members, limits, iid)
    for entry in report.mismatches:
        tracer.call("audit", relcay.shrink_counterexample, entry.original, limits)
    if parallelism == 1:
        # Totals-only workloads serialize no records and cannot export CSV.
        report = dataclasses.replace(report, records=None)
    with tracer.span("audit", "to_json"):
        text = report.to_json()
    if report.records is not None:
        with tracer.span("audit", "to_csv"):
            report.to_csv()
    return {
        "instances": expected,
        "mismatches": len(report.mismatches),
        "report_bytes": len(text.encode()),
    }


def trace_invariants(tracer: Tracer, ops) -> None:
    """Replay each ``relcay invariants`` call through the functions the
    command runs: group, subgroup closure, graph, every oracle, flags."""
    for iid, op in enumerate(ops):
        spec, _, subgroup_text, _, conn_text = op.args
        with tracer.span("cli", "instance", iid):
            group = tracer.call("group_core", relcay.make_group, spec, instance=iid)
            gens = parse_elements(group, subgroup_text)
            h = tracer.call("group_core", relcay.generated_subgroup,
                            relcay.ElementSet(group, gens), instance=iid)
            c = relcay.ConnectionSet(group, parse_elements(group, conn_text))
            graph = tracer.call("graphs", relcay.build_relcay, group, h, c, instance=iid)
            n, adj = graph.n, graph.adjacency
            tracer.call("oracles", relcay.diameter_components, graph, instance=iid)
            for fn in (
                relcay.max_clique,
                relcay.max_independent_set,
                relcay.max_matching,
                relcay.min_dominating_set,
                relcay.min_vertex_cover,
                relcay.min_edge_cover,
                relcay.chromatic_number,
            ):
                tracer.call("oracles", fn, n, adj, instance=iid)
            tracer.call("oracles", relcay.edge_chromatic_number, n, adj,
                        DEFAULT_EDGE_COLOR_CUTOFF, instance=iid)
            tracer.call("oracles", relcay.structure_flags, graph, instance=iid)


def layer_metrics(tracer: Tracer, audit: dict[str, float] | None) -> dict[str, float]:
    """Reduce spans to the per-layer metrics that need no untraced run;
    every name of ``per_layer_metrics`` not produced here reads 0 until the
    runner fills it in."""
    seconds, calls = tracer.self_times()
    metrics = dict.fromkeys(per_layer_metrics(), 0.0)
    for fn in GROUP_CORE:
        metrics[f"group_core.{fn}_s"] = seconds["group_core", fn]
    metrics["graphs.build_relcay_s"] = seconds["graphs", "build_relcay"]
    metrics["graphs.build_relcay_calls"] = calls["graphs", "build_relcay"]
    for fn in ORACLES:
        metrics[f"oracles.{fn}_s"] = seconds["oracles", fn]
        metrics[f"oracles.{fn}_calls"] = calls["oracles", fn]
    for fn in THEOREMS:
        metrics[f"theorems.{fn}_s"] = seconds["theorems", fn]
        metrics[f"theorems.{fn}_calls"] = calls["theorems", fn]
        metrics[f"theorems.{fn}_errors"] = tracer.errors[fn]
    if audit is not None:
        scan = seconds["audit", "scan"]
        replayed = sum(value for (layer, _), value in seconds.items()
                       if layer in ("graphs", "oracles", "theorems"))
        metrics |= {
            "audit.scan_s": scan,
            "audit.instances": audit["instances"],
            "audit.mismatches": audit["mismatches"],
            "audit.shrink_s": seconds["audit", "shrink_counterexample"],
            "audit.shrink_calls": calls["audit", "shrink_counterexample"],
            "audit.to_json_s": seconds["audit", "to_json"],
            "audit.to_csv_s": seconds["audit", "to_csv"],
            "audit.report_bytes": audit["report_bytes"],
            # Derived, not measured: scan time the replayed layers leave
            # unexplained (check dispatch, record building, set objects).
            "audit.dispatch_s": scan - replayed,
        }
        if seconds["audit", "parallel_scan"]:
            metrics["audit.pool_efficiency"] = scan / (2 * seconds["audit", "parallel_scan"])
    return metrics


def timed_region_seconds(tracer: Tracer) -> float:
    """Replayed self time of the work a workload's timed region also does."""
    seconds, _ = tracer.self_times()
    total = 0.0
    for (layer, name), value in seconds.items():
        names = _TIMED_REGION.get(layer, ())
        if names is None or name in names:
            total += value
    return total
