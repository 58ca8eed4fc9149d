"""CLI tests: parsing, output shapes, exit codes, and figure reproduction."""
import argparse
import json
import os
import subprocess
import sys

import hashlib
from collections import Counter

import pytest

import relcay.cli
import relcay.oracles
from relcay import audit
from relcay.audit import (
    DEFAULT_CATALOG,
    AuditRecord,
    AuditReport,
    Limits,
    MismatchEntry,
    compact_json,
    run_audit,
)
from relcay.graphs import build_relcay
from relcay.cli import _build_parser, execute_command, parse_elements, split_elements
from relcay.errors import GroupSpecError
from relcay.group_core import make_group


def test_split_elements_respects_parentheses():
    assert split_elements("a,a4,b") == ["a", "a4", "b"]
    assert split_elements("(12),(13)") == ["(12)", "(13)"]
    assert split_elements("") == []
    assert split_elements(" a , b ") == ["a", "b"]
    with pytest.raises(GroupSpecError):
        split_elements("(12,(13)")


def test_element_list_round_trip():
    group = make_group("S3")
    members = parse_elements(group, "(12),(132),(123)")
    rendered = ",".join(group.names[x] for x in members)
    assert parse_elements(group, rendered) == members


def test_check_chromatic_example(capsys):
    status = execute_command(
        ["check", "D5", "--subgroup", "a", "--conn", "a,a4,b", "--theorem", "chromatic"]
    )
    out = capsys.readouterr().out.splitlines()
    assert status == 0
    assert out[0] == "chromatic_upper: predicted=4 observed=3 verdict=agree"
    assert out[1] == "chromatic_equality: predicted=false observed=false verdict=agree"


# (instance, sha256 of the output of ``relcay check`` with no --theorem, exit status)
CHECK_INSTANCES = [
    (
        ["S4", "--subgroup", "(12),(34)", "--conn", "(1234),(1432),(13)"],
        "4770def8cbb9415ed3aaf5e9ded096b247afb50df070facc95a94dab9ad18b45", 0,
    ),
    (
        ["D5", "--subgroup", "a", "--conn", "a,a4,b"],
        "f3800e88b6e863fe3f25dad4e509e5c20211731ffbf4861be33662ed68264b12", 0,
    ),
    # the shrunk witness of the S4 audit's blocking diam_half_sum mismatch
    (
        ["S4", "--subgroup", "(34),(23)", "--conn", "(24),(1243),(1342),(13)(24),(14)(23)"],
        "0239a2f1cb2093784d2106675d598b46642a859c74463624d49af25e5189db15", 2,
    ),
]


@pytest.mark.parametrize(
    "instance, digest, status", CHECK_INSTANCES, ids=["S4", "D5", "S4-half-sum-witness"]
)
def test_check_prints_each_check_as_evaluated_alone(monkeypatch, capsys, instance, digest, status):
    # every line and exit status as each check evaluated on a context of its
    # own gives them, from one context and one graph per command
    spec, _, h_text, _, c_text = instance
    group = make_group(spec)
    h, c = relcay.cli._instance(group, h_text, c_text)
    expected = {}
    for check in audit.ALL_CHECKS:
        record = audit.evaluate_check(spec, h.members, c.members, check, Limits())
        predicted, observed = (compact_json(record.predicted), compact_json(record.observed))
        blocking = record.verdict == audit.MISMATCH and check not in audit.AUDITED_CHECKS
        line = f"{check}: predicted={predicted} observed={observed} verdict={record.verdict}\n"
        expected[check] = line, blocking
    built = Counter()

    class CountedContext(audit.InstanceContext):
        def __init__(self, *args):
            super().__init__(*args)
            built["contexts"] += 1

    def counted_build(*args):
        built["graphs"] += 1
        return build_relcay(*args)

    monkeypatch.setattr(audit, "InstanceContext", CountedContext)
    monkeypatch.setattr(audit, "build_relcay", counted_build)
    families = {check.family for check in audit.CHECKS}
    for theorem in (None, *sorted(families)):
        checks = [
            check.name for check in audit.CHECKS if theorem in (None, check.family)
        ]
        built.clear()
        argv = ["check", *instance] + ([] if theorem is None else ["--theorem", theorem])
        exit_status = execute_command(argv)
        out = capsys.readouterr().out
        assert out == "".join(expected[check][0] for check in checks), theorem
        assert exit_status == (2 if any(expected[check][1] for check in checks) else 0)
        assert built == {"contexts": 1, "graphs": 1}, theorem
        if theorem is None:
            assert hashlib.sha256(out.encode()).hexdigest() == digest
            assert exit_status == status


def test_check_unknown_theorem(capsys):
    status = execute_command(
        ["check", "C4", "--subgroup", "a2", "--conn", "a2", "--theorem", "nope"]
    )
    assert status == 1
    assert capsys.readouterr().err == (
        "UnknownCheckError: \"unknown theorem or check 'nope'; families: "
        "alpha_beta, chromatic, clique, coloring, connectivity, diameter, "
        "forbidden, valency\"\n"
    )


def test_connectivity_selects_the_family_not_the_check(capsys):
    status = execute_command(
        ["check", "D5", "--subgroup", "a", "--conn", "a,a4,b", "--theorem", "connectivity"]
    )
    checks = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert status == 0
    assert checks == ["connectivity", "connectivity_disjoint", "connectivity_aba"]


def count_components_calls(monkeypatch):
    calls = []
    real = relcay.oracles._components

    def counted(n, adj):
        calls.append(n)
        return real(n, adj)

    monkeypatch.setattr(relcay.oracles, "_components", counted)
    return calls


def test_invariants_finds_components_once(monkeypatch, capsys):
    calls = count_components_calls(monkeypatch)
    status = execute_command(["invariants", "D5", "--subgroup", "a", "--conn", "a,a4,b"])
    assert status == 0
    assert "component_count: 1" in capsys.readouterr().out
    assert calls == [10]


def test_figures_find_components_once_per_family_graph(tmp_path, monkeypatch, capsys):
    calls = count_components_calls(monkeypatch)
    assert execute_command(["figures", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # four corona graphs, two cyclic family graphs, two recorded findings
    assert calls == [8, 12, 16, 20, 8, 16, 4, 8]


def test_build_summary(capsys):
    status = execute_command(["build", "D5", "--subgroup", "a", "--conn", "a,a4,b"])
    out = capsys.readouterr().out
    assert status == 0
    assert "vertices: 10" in out
    assert "edges: 10" in out
    assert "subgroup: 1,a,a2,a3,a4 (order 5)" in out


def test_build_dot(capsys):
    status = execute_command(
        ["build", "D5", "--subgroup", "a", "--conn", "a,a4,b", "--dot"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert out.startswith("graph relcay {")
    assert out.count(" -- ") == 10
    assert out.count("[style=filled]") == 5


def test_invariants_output(capsys):
    status = execute_command(
        ["invariants", "D5", "--subgroup", "a", "--conn", "a,a4,b"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "chromatic_number: 3" in out
    assert "edge_chromatic_number: 3" in out
    assert "tree: False" in out
    assert "connected: True" in out


def test_usage_error_exits_one(capsys):
    status = execute_command(["bogus"])
    assert status == 1
    assert capsys.readouterr().err.startswith("usage error:")


def test_library_error_exits_one(capsys):
    status = execute_command(["build", "D5", "--subgroup", "a", "--conn", "zz"])
    assert status == 1
    assert "GroupSpecError" in capsys.readouterr().err


def test_order_cap_flag(capsys):
    status = execute_command(
        ["build", "D5", "--max-order", "8", "--subgroup", "a", "--conn", "a,a4"]
    )
    assert status == 1
    assert "CapacityError" in capsys.readouterr().err


def test_env_order_cap(monkeypatch, capsys):
    monkeypatch.setenv("RELCAY_MAX_ORDER", "8")
    status = execute_command(["build", "D5", "--subgroup", "a", "--conn", "a,a4"])
    assert status == 1
    assert "CapacityError" in capsys.readouterr().err
    # a cap that is not a positive integer is a library error too, not a crash
    monkeypatch.setenv("RELCAY_MAX_ORDER", "banana")
    status = execute_command(["build", "D5", "--subgroup", "a", "--conn", "a,a4"])
    assert status == 1
    assert capsys.readouterr().err.startswith("CapacityError: RELCAY_MAX_ORDER")


def test_invariants_honours_max_order_flag(monkeypatch, capsys):
    monkeypatch.delenv("RELCAY_MAX_ORDER", raising=False)
    args = ["invariants", "C65", "--subgroup", "a5", "--conn", "a,a64"]
    assert execute_command(args[:2] + ["--max-order", "70"] + args[2:]) == 0
    captured = capsys.readouterr()
    assert "component_count: 39" in captured.out
    assert captured.err == ""


def test_invariants_keeps_default_cap_without_flag(monkeypatch, capsys):
    monkeypatch.delenv("RELCAY_MAX_ORDER", raising=False)
    status = execute_command(
        ["invariants", "C65", "--subgroup", "a5", "--conn", "a,a64"]
    )
    assert status == 1
    assert capsys.readouterr().err.startswith("CapacityError")


@pytest.mark.parametrize(
    "spec, subgroup, conn, gamma",
    [("C64", "a2", "a,a63", 22), ("D32", "a", "a,a31,b", 32)],
)
def test_invariants_at_the_order_cap_ends_quickly(spec, subgroup, conn, gamma):
    # each ran past 120 s before the searches had pruning and a node budget,
    # and the C64 independence search ran out of budget before the clique
    # search had its colouring bound
    src = os.path.dirname(os.path.dirname(relcay.oracles.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("RELCAY_MAX_ORDER", None)
    argv = ["invariants", spec, "--subgroup", subgroup, "--conn", conn]
    done = subprocess.run(
        [sys.executable, "-m", "relcay", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=5,
    )
    assert done.returncode == 0, done.stderr
    assert "independence_number: 32\n" in done.stdout
    assert f"domination_number: {gamma}\n" in done.stdout


def test_invariants_prints_the_diameter_of_the_64_cycle(capsys):
    status = execute_command(["invariants", "C64", "--subgroup", "a2", "--conn", "a,a63"])
    assert status == 0
    assert "diameter: 32\n" in capsys.readouterr().out


def test_invariants_answers_domination_at_the_order_cap(capsys):
    # the search without the forced-dominator rule, disjoint branches and
    # the root symmetry ran out of its node budget here and exited 1
    status = execute_command(
        ["invariants", "D32", "--subgroup", "a", "--conn", "a9,a23,a7b,a14b,a18b,a22b,a24b"]
    )
    captured = capsys.readouterr()
    assert status == 0, captured.err
    assert "domination_number: 12\n" in captured.out


COMMANDS = ("build", "invariants", "check", "audit", "figures")


def test_help_exits_zero(capsys):
    assert execute_command(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{build,invariants,check,audit,figures}" in out
    for command in COMMANDS:
        assert f"\n    {command} " in out
        assert execute_command([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: relcay {command} ")


_CHOICES = "(choose from 'build', 'invariants', 'check', 'audit', 'figures')"
_USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["bogus"], f"argument command: invalid choice: 'bogus' {_CHOICES}"),
    (["--max-order", "8", "build"], f"argument command: invalid choice: '8' {_CHOICES}"),
    (["invariants", "C4"], "the following arguments are required: --subgroup, --conn"),
    (
        ["invariants", "C4", "--subgroup", "a2", "--conn", "a,a3", "--max-order", "0"],
        "argument --max-order: all CLI caps must be positive",
    ),
    (
        ["audit", "--format", "xml"],
        "argument --format: invalid choice: 'xml' (choose from 'text', 'json', 'csv')",
    ),
]


@pytest.mark.parametrize("argv, message", _USAGE_ERRORS)
def test_usage_errors_print_one_exact_line(capsys, argv, message):
    assert execute_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message} (see relcay --help)\n"


def test_an_option_before_the_command_reaches_the_command_arguments(capsys):
    # argparse passes the words after the command to its subparser even
    # behind an unknown option, so the top-level parser knows every
    # command's arguments
    assert execute_command(["--foo", "invariants", "C4"]) == 1
    assert capsys.readouterr().err == (
        "usage error: the following arguments are required: --subgroup, --conn "
        "(see relcay --help)\n"
    )
    assert execute_command(["--foo", "build", "D5", "--subgroup", "a", "--conn", "a"]) == 1
    assert capsys.readouterr().err == (
        "usage error: unrecognized arguments: --foo (see relcay --help)\n"
    )


def test_execute_command_reads_sys_argv_without_argv(monkeypatch, capsys):
    argv = ["relcay", "invariants", "C4", "--subgroup", "a2", "--conn", "a,a3"]
    monkeypatch.setattr(sys, "argv", argv)
    assert execute_command() == 0
    assert "component_count: 1\n" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["relcay", "bogus"])
    assert execute_command(None) == 1
    assert capsys.readouterr().err.startswith("usage error: argument command: invalid choice")


def test_console_path_runs_as_a_module():
    # python -m relcay goes through console_main, which passes no argv
    src = os.path.dirname(os.path.dirname(relcay.oracles.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv, expected in (
        (["invariants", "C4", "--subgroup", "a2", "--conn", "a,a3"], "domination_number: 2\n"),
        (["--help"], "usage: relcay "),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "relcay", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
        assert done.returncode == 0, done.stderr
        assert expected in done.stdout


def test_audit_text_and_exit(capsys):
    status = execute_command(["audit", "--catalog", "C4", "--checks", "regular"])
    out = capsys.readouterr().out
    assert status == 0
    assert "catalog: C4 (8 instances)" in out
    assert "regular      6         0               2            0" in out


def test_audit_text_counts_copied_instances_before_wall_time(capsys):
    report = run_audit(("C2xC2xC2",), ["regular"])
    assert report.copied_instances > 0
    execute_command(["audit", "--catalog", "C2xC2xC2", "--checks", "regular"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == f"copied outcomes: {report.copied_instances} of 1920 instances"
    assert lines[-1].startswith("wall time: ")


def test_audit_exit_zero_with_audited_findings(capsys):
    status = execute_command(
        ["audit", "--catalog", "S3", "--checks", "square_free_as_printed"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "(blocking 0)" in out


def test_audit_json_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    status = execute_command(
        [
            "audit",
            "--catalog",
            "C4",
            "--checks",
            "edge_count",
            "--format",
            "json",
            "--output",
            str(target),
        ]
    )
    assert status == 0
    capsys.readouterr()
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert set(payload) == {"config", "catalog", "totals", "mismatches"}
    assert payload["totals"]["edge_count"]["agree"] == 8


def test_audit_full_json_includes_records(capsys):
    status = execute_command(
        ["audit", "--catalog", "C4", "--checks", "edge_count", "--format", "json", "--full"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert len(payload["records"]) == 8


@pytest.mark.parametrize(
    "options, kept",
    [
        ([], False),
        (["--full"], False),
        (["--format", "json"], False),
        (["--full", "--format", "json"], True),
        (["--format", "csv"], True),
        (["--full", "--format", "csv"], True),
    ],
)
def test_audit_keeps_records_only_when_it_writes_them(monkeypatch, capsys, options, kept):
    seen = []
    real = relcay.audit.run_audit

    def spy(*args, **kwargs):
        seen.append(kwargs["keep_records"])
        return real(*args, **kwargs)

    monkeypatch.setattr(relcay.audit, "run_audit", spy)
    argv = ["audit", "--catalog", "C4", "--checks", "edge_count", *options]
    assert execute_command(argv) == 0
    assert seen == [kept]
    capsys.readouterr()


def test_audit_csv_format(capsys):
    status = execute_command(
        ["audit", "--catalog", "C4", "--checks", "edge_count", "--format", "csv"]
    )
    out = capsys.readouterr().out.splitlines()
    assert status == 0
    assert out[0] == "instance_group,instance_H,instance_C,check,predicted,observed,verdict"
    assert len(out) == 9


def test_audit_caps_default_to_limits_and_flags_override_them(capsys):
    base = ["audit", "--catalog", "C4", "--checks", "edge_count", "--format", "json"]
    assert execute_command(base) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    defaults = Limits()
    assert config["chromatic_ii_cap"] == defaults.chromatic_ii_cap
    assert config["max_connection_sets"] == defaults.max_connection_sets
    flags = ["--chromatic-ii-cap", "3", "--max-connection-sets", "5"]
    assert execute_command(base + flags) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["chromatic_ii_cap"], config["max_connection_sets"]) == (3, 5)


def test_audit_scans_the_default_catalog_without_catalog_flag(monkeypatch, capsys):
    calls = []

    def recorded(catalog, *args, **kwargs):
        calls.append(catalog)
        return _fake_blocking_report()

    monkeypatch.setattr("relcay.audit.run_audit", recorded)
    execute_command(["audit"])
    capsys.readouterr()
    assert calls == [DEFAULT_CATALOG]


def test_parser_is_built_once_and_holds_no_mutable_default():
    top = _build_parser()
    (commands,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    assert tuple(commands.choices) == COMMANDS
    parsers = [top, *commands.choices.values()]
    for command in COMMANDS:
        parser = _build_parser(command)
        assert _build_parser(command) is parser
        assert parser.prog == f"relcay {command}"
        parsers.append(parser)
    assert _build_parser() is top
    for parser in parsers:
        for action in parser._actions:
            assert not isinstance(action.default, (list, dict, set)), action.dest


def test_a_command_builds_its_own_parser_alone(monkeypatch, capsys):
    built = []
    real_init = relcay.cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(relcay.cli._Parser, "__init__", counted)
    _build_parser.cache_clear()
    try:
        argv = ["invariants", "C4", "--subgroup", "a2", "--conn", "a,a3"]
        assert execute_command(argv) == 0
        assert execute_command(argv) == 0
    finally:
        _build_parser.cache_clear()
    capsys.readouterr()
    assert built == ["relcay invariants"]


def _fake_blocking_report() -> AuditReport:
    record = AuditRecord(
        group="C4",
        h=("1",),
        c=("a", "a3"),
        check="edge_count",
        predicted=1,
        observed=2,
        verdict="mismatch",
    )
    return AuditReport(
        config={},
        catalog=(),
        totals={"edge_count": {"agree": 0, "mismatch": 1, "not-applicable": 0, "unevaluated": 0}},
        mismatches=(MismatchEntry(record, record),),
        records=None,
        wall_time_seconds=0.0,
    )


def test_audit_blocking_mismatch_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(
        "relcay.audit.run_audit", lambda *args, **kwargs: _fake_blocking_report()
    )
    status = execute_command(["audit", "--catalog", "C4"])
    assert status == 2
    assert "(blocking 1)" in capsys.readouterr().out


def test_check_blocking_mismatch_exits_two(monkeypatch, capsys):
    record = _fake_blocking_report().mismatches[0].original
    outcome = (record.predicted, record.observed, record.verdict, record.witness)

    monkeypatch.setattr("relcay.audit.evaluate", lambda *args, **kwargs: outcome)
    status = execute_command(
        ["check", "C4", "--subgroup", "a", "--conn", "a,a3", "--theorem", "edge_count"]
    )
    assert status == 2
    assert "verdict=mismatch" in capsys.readouterr().out


_ZERO_CAPS = [
    ("build", "--max-order"),
    ("invariants", "--edge-color-cutoff"),
    ("audit", "--max-connection-sets"),
    ("audit", "--chromatic-ii-cap"),
    ("audit", "--parallelism"),
]


@pytest.mark.parametrize(
    "command, flag", _ZERO_CAPS, ids=[flag.lstrip("-") for _, flag in _ZERO_CAPS]
)
def test_zero_max_order_is_rejected(capsys, command, flag):
    if command == "audit":
        instance = ["--catalog", "C4"]
    else:
        instance = ["C4", "--subgroup", "a2", "--conn", "a,a3"]
    assert execute_command([command, *instance, flag, "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {flag}: all CLI caps must be positive")


def test_audit_honours_max_order_above_default(capsys):
    status = execute_command(
        ["audit", "--catalog", "C66", "--max-order", "70", "--max-connection-sets", "4",
         "--checks", "edge_count", "connectivity_aba", "--format", "json"]
    )
    captured = capsys.readouterr()
    assert status == 0, captured.err
    payload = json.loads(captured.out)
    assert "errors" not in payload
    assert payload["catalog"][0]["order"] == 66
    assert payload["totals"]["connectivity_aba"]["unevaluated"] == 0


def test_check_honours_max_order_above_default(capsys):
    status = execute_command(
        ["check", "C66", "--max-order", "70", "--subgroup", "a33", "--conn", "a,a65",
         "--theorem", "connectivity_aba"]
    )
    assert status == 0
    assert capsys.readouterr().out == (
        "connectivity_aba: predicted=false observed=false verdict=agree\n"
    )


def test_figures_bundle(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    status = execute_command(["figures", "--out-dir", str(out_dir)])
    assert status == 0
    capsys.readouterr()
    expected = {
        "d5_sparse.dot": (10, 10),
        "d5_dense.dot": (10, 20),
        "d4_klein.dot": (8, 10),
    }
    for name, (nodes, edges) in expected.items():
        text = (out_dir / name).read_text(encoding="utf-8")
        assert "\r" not in text
        assert text.count(" -- ") == edges
        node_lines = [
            line
            for line in text.splitlines()
            if line.startswith('  "') and " -- " not in line
        ]
        assert len(node_lines) == nodes
    families = (out_dir / "diameter_families.txt").read_text(encoding="utf-8")
    assert "diameter=7 family_formula=7" in families
    assert "observed differs" in families


def test_figures_deterministic(tmp_path, capsys):
    first = tmp_path / "one"
    second = tmp_path / "two"
    assert execute_command(["figures", "--out-dir", str(first)]) == 0
    assert execute_command(["figures", "--out-dir", str(second)]) == 0
    capsys.readouterr()
    for name in ("d5_sparse.dot", "d5_dense.dot", "d4_klein.dot", "diameter_families.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
