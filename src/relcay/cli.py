"""Command-line surface: build graphs, print invariants, compare predictions
with oracles, run catalog audits, and reproduce the reference figures.

Exit status contract: 0 on success, 1 on usage or library errors (the error
class name goes to standard error), 2 when a ``check`` or ``audit`` run finds
a mismatch on any check that is not marked audited.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

# build, invariants and figures need only groups, graphs and oracles;
# relcay.audit (and through it the predictors and the JSON and CSV writers)
# is imported inside the functions that use it.
from .errors import RelCayError, GroupSpecError, UnknownCheckError
from .graphs import ConnectionSet, RelCayGraph, build_relcay, export_dot
from .group_core import ElementSet, default_max_order, generated_subgroup, make_group
from .oracles import (
    DEFAULT_EDGE_COLOR_CUTOFF,
    diameter_components,
    invariant_report,
    structure_flags,
)

__all__ = ["execute_command", "console_main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _cap(text: str) -> int:
    """The argparse type of every cap flag: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("all CLI caps must be positive")
    return value


def _limits(args):
    """The command's ``audit.Limits``: a cap not given keeps its default
    from ``audit.Limits``, where each default lives."""
    from . import audit

    caps = ("edge_color_cutoff", "chromatic_ii_cap", "max_connection_sets")
    given = {name: getattr(args, name) for name in caps if getattr(args, name, None) is not None}
    return audit.Limits(max_order=args.max_order, **given)


# --------------------------------------------------------------------------
# Element-list parsing against canonical names


def split_elements(text: str) -> list[str]:
    """Split a comma-separated element list, respecting parentheses.

    Permutation names such as ``(12)`` contain no commas, but cycle-style
    names could; splitting only at depth zero keeps the grammar open.
    """
    parts: list[str] = []
    current: list[str] = []
    depth = 0
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GroupSpecError(f"unbalanced parentheses in {text!r}")
        current.append(ch)
    if depth != 0:
        raise GroupSpecError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current).strip())
    return [p for p in parts if p]


def parse_elements(group, text: str) -> tuple[int, ...]:
    index = group.name_index
    members = []
    for name in split_elements(text):
        if name not in index:
            raise GroupSpecError(
                f"unknown element {name!r} for {group.spec}; names are "
                + ",".join(group.names)
            )
        members.append(index[name])
    return tuple(members)


def _instance(group, subgroup_text: str, conn_text: str):
    generators = parse_elements(group, subgroup_text)
    h = generated_subgroup(ElementSet(group, generators))
    c = ConnectionSet(group, parse_elements(group, conn_text))
    return h, c


def _build_graph(max_order: int, spec: str, subgroup_text: str, conn_text: str) -> RelCayGraph:
    group = make_group(spec, max_order=max_order)
    h, c = _instance(group, subgroup_text, conn_text)
    return build_relcay(group, h, c)


# --------------------------------------------------------------------------
# Subcommands


def _cmd_build(args) -> int:
    graph = _build_graph(args.max_order, args.spec, args.subgroup, args.conn)
    if args.dot:
        sys.stdout.write(export_dot(graph))
        return 0
    group, h, c = graph.group, graph.h, graph.c
    distinct = sorted(set(graph.degrees))
    print(f"group: {group.spec} (order {group.order})")
    print(f"subgroup: {','.join(group.names[x] for x in h.members)} (order {len(h)})")
    print(f"connection set: {','.join(group.names[x] for x in c.members)} (size {len(c)})")
    print(f"vertices: {graph.n}")
    print(f"edges: {graph.edge_count}")
    print(f"distinct degrees: {','.join(map(str, distinct))}")
    components, diameter = diameter_components(graph)
    print(f"components: {len(components)}")
    print(f"diameter: {diameter}")
    return 0


def _cmd_invariants(args) -> int:
    graph = _build_graph(args.max_order, args.spec, args.subgroup, args.conn)
    report = invariant_report(
        graph, edge_color_cutoff=args.edge_color_cutoff, max_order=args.max_order
    )
    for field_name in (
        "clique_number",
        "independence_number",
        "matching_number",
        "domination_number",
        "vertex_cover_number",
        "edge_cover_number",
        "chromatic_number",
        "edge_chromatic_number",
        "diameter",
        "component_count",
    ):
        print(f"{field_name}: {getattr(report, field_name)}")
    flags = structure_flags(graph, report.component_count)
    for flag_name in (
        "connected",
        "bipartite",
        "forest",
        "tree",
        "triangle_free",
        "square_subgraph_free",
        "claw_free",
        "regular",
        "semi_regular",
    ):
        print(f"{flag_name}: {getattr(flags, flag_name)}")
    return 0


def _resolve_theorem(name: Optional[str]) -> tuple[str, ...]:
    from . import audit

    if name is None:
        return audit.ALL_CHECKS
    family = tuple(check.name for check in audit.CHECKS if check.family == name)
    if family:
        return family
    if name in audit.ALL_CHECKS:
        return (name,)
    raise UnknownCheckError(
        f"unknown theorem or check {name!r}; families: "
        + ", ".join(sorted({check.family for check in audit.CHECKS}))
    )


def _cmd_check(args) -> int:
    from . import audit

    group = make_group(args.spec, max_order=args.max_order)
    h, c = _instance(group, args.subgroup, args.conn)
    # one context, so each oracle and prediction is computed once for all checks
    ctx = audit.InstanceContext(group, h, c, _limits(args))
    blocking = False
    for check in _resolve_theorem(args.theorem):
        predicted, observed, verdict, _ = audit.evaluate(ctx, check)
        predicted, observed = audit.compact_json(predicted), audit.compact_json(observed)
        print(f"{check}: predicted={predicted} observed={observed} verdict={verdict}")
        if verdict == audit.MISMATCH and check not in audit.AUDITED_CHECKS:
            blocking = True
    return 2 if blocking else 0


def _format_audit_text(report) -> str:
    from . import audit

    lines = []
    specs = ", ".join(entry["spec"] for entry in report.catalog)
    instance_total = sum(entry["instances"] for entry in report.catalog)
    lines.append(f"catalog: {specs} ({instance_total} instances)")
    width = max((len(name) for name in report.totals), default=10)
    header = f"{'check'.ljust(width)}  agree  mismatch  not-applicable  unevaluated"
    lines.append(header)
    for name, tally in report.totals.items():
        lines.append(
            f"{name.ljust(width)}  {tally['agree']:5d}  {tally['mismatch']:8d}  "
            f"{tally['not-applicable']:14d}  {tally['unevaluated']:11d}"
        )
    blocking = sum(
        1 for e in report.mismatches if e.original.check not in audit.AUDITED_CHECKS
    )
    lines.append(f"mismatches: {len(report.mismatches)} (blocking {blocking})")
    if report.errors:
        lines.append(f"errors: {len(report.errors)} instance(s) could not be evaluated")
    # instances that took outcomes from an automorphic image (see audit._scan_orbit)
    lines.append(f"copied outcomes: {report.copied_instances} of {instance_total} instances")
    lines.append(f"wall time: {report.wall_time_seconds:.1f}s")
    return "\n".join(lines) + "\n"


def _cmd_audit(args) -> int:
    from . import audit

    # only CSV and full JSON write records; the text summary reads totals
    keep_records = args.format == "csv" or (args.full and args.format == "json")
    report = audit.run_audit(
        audit.DEFAULT_CATALOG if args.catalog is None else args.catalog,
        args.checks,
        _limits(args),
        parallelism=args.parallelism,
        keep_records=keep_records,
    )
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = _format_audit_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 2 if report.has_blocking_mismatch() or report.errors else 0


FIGURE_INSTANCES = (
    ("d5_sparse.dot", "D5", "a", "a,a4,b"),
    ("d5_dense.dot", "D5", "a", "a,a4,b,ab,a4b"),
    ("d4_klein.dot", "D4", "a2,b", "a,a3,b"),
)

CORONA_FAMILY = ("D4", "D6", "D8", "D10")

CYCLIC_FAMILY = (("C8", "a4", "a,a2,a6,a7", 4), ("C16", "a4", "a,a2,a14,a15", 6))

CYCLIC_FINDINGS = (("C4", "a2", "a,a3", 4), ("C8", "a2", "a,a7", 6))


def _family_graph(max_order: int, spec: str, h_text: str, conn: str):
    """One family instance: its graph, structure flags and diameter."""
    graph = _build_graph(max_order, spec, h_text, conn)
    components, diameter = diameter_components(graph)
    return graph, structure_flags(graph, len(components)), diameter


def _family_lines(max_order: int) -> list[str]:
    lines = ["corona cycle family (rotation subgroup, one step plus a reflection)"]
    for spec in CORONA_FAMILY:
        half = make_group(spec, max_order=max_order).order // 2
        conn = f"a,a{half - 1},b"
        graph, flags, diameter = _family_graph(max_order, spec, "a", conn)
        expected = half // 2 + 2
        lines.append(
            f"{graph.group.spec} H=<a> C={conn}: edges={graph.edge_count} "
            f"connected={flags.connected} triangle_free={flags.triangle_free} "
            f"diameter={diameter} family_formula={expected}"
        )
    for title, family, suffix in (
        ("cyclic bipartite family (index-4 subgroup, two steps)", CYCLIC_FAMILY, ""),
        (
            "recorded findings (single-step connection; formula does not apply)",
            CYCLIC_FINDINGS,
            " (observed differs)",
        ),
    ):
        lines += ["", title]
        for spec, h_gen, conn, formula in family:
            graph, flags, diameter = _family_graph(max_order, spec, h_gen, conn)
            lines.append(
                f"{graph.group.spec} H=<{h_gen}> C={conn}: bipartite={flags.bipartite} "
                f"diameter={diameter} family_formula={formula}{suffix}"
            )
    return lines


def _cmd_figures(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    for filename, spec, h_text, c_text in FIGURE_INSTANCES:
        graph = _build_graph(args.max_order, spec, h_text, c_text)
        path = os.path.join(args.out_dir, filename)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(export_dot(graph))
        print(f"wrote {path} ({graph.n} nodes, {graph.edge_count} edges)")
    lines = _family_lines(args.max_order)
    path = os.path.join(args.out_dir, "diameter_families.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lines)} lines)")
    return 0


# --------------------------------------------------------------------------
# Parser assembly and dispatch


def _instance_args(p) -> None:
    p.add_argument("spec", help="group spec, e.g. D5 or C2xC4")
    p.add_argument(
        "--subgroup",
        required=True,
        help="comma-separated generators; closure is taken",
    )
    p.add_argument("--conn", required=True, help="comma-separated connection elements")


def _build_args(p) -> None:
    _instance_args(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a summary")


def _invariants_args(p) -> None:
    _instance_args(p)
    p.add_argument(
        "--edge-color-cutoff",
        type=_cap,
        default=DEFAULT_EDGE_COLOR_CUTOFF,
        help="skip exact edge chromatic above this many edges",
    )


def _check_args(p) -> None:
    _instance_args(p)
    p.add_argument(
        "--theorem",
        default=None,
        help="restrict to one family or one check name",
    )


def _audit_args(p) -> None:
    # None leaves a default to audit.DEFAULT_CATALOG and audit.Limits
    p.add_argument("--catalog", nargs="+", default=None)
    p.add_argument("--checks", nargs="+", default=None)
    p.add_argument("--max-connection-sets", type=_cap, default=None)
    p.add_argument(
        "--chromatic-ii-cap",
        type=_cap,
        default=None,
        help="largest |H| for chromatic condition (ii), whose split table is "
        "built once per (H, generator)",
    )
    p.add_argument(
        "--edge-color-cutoff",
        type=_cap,
        default=None,
        help="recorded in the report's config only: the audit never computes "
        "the edge chromatic number",
    )
    p.add_argument("--parallelism", type=_cap, default=1)
    p.add_argument("--full", action="store_true", help="keep per-instance records")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", default=None, help="write the report to a file")


def _figures_args(p) -> None:
    p.add_argument("--out-dir", default="figures")


# each command's handler, help string and arguments (after --max-order)
_COMMANDS = {
    "build": (_cmd_build, "construct one graph", _build_args),
    "invariants": (_cmd_invariants, "exact invariants of one graph", _invariants_args),
    "check": (_cmd_check, "predictions versus oracles for one instance", _check_args),
    "audit": (_cmd_audit, "scan a catalog", _audit_args),
    "figures": (
        _cmd_figures,
        "write reference DOT files and family summaries",
        _figures_args,
    ),
}


def _command_args(p, command: str) -> None:
    p.add_argument(
        "--max-order",
        type=_cap,
        default=None,
        help="group order cap (default: RELCAY_MAX_ORDER or 64)",
    )
    _COMMANDS[command][2](p)
    p.set_defaults(command=command)


@functools.cache
def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of one command, or with None the top-level parser, built
    once per process each; none holds a mutable default, so one parse
    cannot leak into the next.

    A call that names its command builds that command's parser alone.  The
    top-level parser reads a command line whose first word names no
    command (help, a missing or unknown command, an option before the
    command).  It holds every command's arguments too, since argparse
    hands the words after a command to that command's subparser even
    behind an unknown option, as in ``relcay --foo invariants C4``."""
    if command is not None:
        parser = _Parser(prog=f"relcay {command}")
        _command_args(parser, command)
        return parser
    parser = _Parser(prog="relcay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _command_args(sub.add_parser(name, help=help_text), name)
    return parser


def execute_command(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv[1:] if command else argv)
    except _UsageError as err:
        print(f"usage error: {err} (see relcay --help)", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.max_order is None:
            args.max_order = default_max_order()
        return _COMMANDS[args.command][0](args)
    except RelCayError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(execute_command())
