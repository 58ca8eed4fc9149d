"""The benchmark's workloads: fixed inputs, per-operation budgets, goldens.

Nothing here imports relcay, so the runner process stays small; the worker
process turns these descriptions into calls.  An operation is one
``run_audit`` call (with its report serialized to JSON) or one
``relcay invariants`` call; its output is checked against a sha256 digest
stored in ``golden.json``.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# catalog_up_to(10) over the default catalog, spelled out so that set-up
# builds exactly the groups the audit scans.
CATALOG_UP_TO_10 = (
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
    "D3", "D4", "D5",
    "S3", "Q8",
    "C2xC2", "C2xC4", "C2xC2xC2",
)


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``label`` names the golden digest and the per-call trace metric.  For an audit, ``args`` is
    ``(catalog, parallelism, keep_records)``; for an invariants call it is
    the argument list after ``invariants``.
    """

    label: str
    kind: str
    args: tuple
    budget_s: float


# The eight ``relcay invariants`` calls: (group, subgroup generators,
# connection set).  They are the same for every seed.  Relabelling a call
# by an automorphism of G that fixes H gives an isomorphic graph and the
# same output, but not the same search: on C32 the seven other images of
# {a, a31} took 0.8 s to 11.3 s against 0.9 s for this one (2-vCPU Xeon
# VM, Python 3.11), so drawing inputs per seed would swamp every
# run-to-run bound.
LADDER_CALLS = (
    ("C24", "a2", "a,a23"),
    ("C32", "a2", "a,a31"),
    ("C36", "a2", "a,a35"),
    ("D12", "a", "a,a11,b"),
    ("D16", "a", "a,a15,b"),
    ("S4", "(123),(12)(34)", "(12),(1234),(1432),(34),(13)"),
    ("C64", "a32", "a,a63"),
    ("D32", "a16", "a,a31,b"),
)

INVARIANTS_BUDGET_S = 20.0

# Workload name -> every group it builds; set-up makes them all.  Why each
# workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "audit_wide": CATALOG_UP_TO_10,
    "audit_deep": ("D7",),
    "audit_full_par2": CATALOG_UP_TO_10,
    "invariants_ladder": tuple(spec for spec, _, _ in LADDER_CALLS),
}


def workload_ops(name: str) -> tuple[Op, ...]:
    """The operations of one workload, in the order one caller runs them."""
    if name == "audit_wide":
        return (Op("audit_wide", "audit", (CATALOG_UP_TO_10, 1, False), 60.0),)
    if name == "audit_deep":
        return (Op("audit_deep", "audit", (("D7",), 1, False), 90.0),)
    if name == "audit_full_par2":
        # The golden is the serial full-records digest: JSON must be
        # byte-identical at any parallelism.
        return (Op("audit_full_records", "audit", (CATALOG_UP_TO_10, 2, True), 90.0),)
    if name == "invariants_ladder":
        return tuple(
            Op(f"invariants.{spec}", "invariants",
               (spec, "--subgroup", subgroup, "--conn", conn), INVARIANTS_BUDGET_S)
            for spec, subgroup, conn in LADDER_CALLS
        )
    raise KeyError(f"unknown workload {name!r}")


# Metric names and units.  The traced run reports every per-layer metric on
# every workload; a layer the workload does not exercise reads 0.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}
GROUP_CORE = ("make_group", "enumerate_subgroups", "generated_subgroup")
ORACLES = (
    "diameter_components",
    "structure_flags",
    "max_clique",
    "max_independent_set",
    "max_matching",
    "min_vertex_cover",
    "min_edge_cover",
    "chromatic_number",
    "min_dominating_set",
    "edge_chromatic_number",
)
THEOREMS = (
    "predict_valencies",
    "predict_connectivity",
    "predict_clique",
    "predict_alpha_beta",
    "predict_chromatic",
    "predict_forbidden",
    "build_class_one_coloring",
)


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    metrics = {f"group_core.{fn}_s": "s" for fn in GROUP_CORE}
    metrics |= {"graphs.build_relcay_s": "s", "graphs.build_relcay_calls": "count"}
    for fn in ORACLES:
        metrics |= {f"oracles.{fn}_s": "s", f"oracles.{fn}_calls": "count"}
    for fn in THEOREMS:
        metrics |= {
            f"theorems.{fn}_s": "s",
            f"theorems.{fn}_calls": "count",
            f"theorems.{fn}_errors": "count",
        }
    metrics |= {
        "audit.scan_s": "s",
        "audit.instances": "count",
        "audit.mismatches": "count",
        "audit.shrink_s": "s",
        "audit.shrink_calls": "count",
        "audit.to_json_s": "s",
        "audit.to_csv_s": "s",
        "audit.report_bytes": "bytes",
        "audit.dispatch_s": "s",
        "audit.pool_efficiency": "ratio",
    }
    metrics |= {f"cli.invariants.{spec}_s": "s" for spec, _, _ in LADDER_CALLS}
    metrics |= {"cli.overhead_s": "s", "trace.coverage": "ratio"}
    return metrics


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_matches(label: str, text: str, goldens: dict[str, str]) -> bool:
    """The correctness gate: an output passes only if its digest is the
    golden one stored for its label."""
    return goldens.get(label) == digest(text)
