"""Audit harness tests: tallies, determinism, sampling, and shrinking."""
import csv
import hashlib
import io
import json
import random
import tracemalloc
from collections import Counter
from functools import cache, lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relcay.audit
import relcay.group_core
import relcay.oracles
import relcay.theorems
from relcay.audit import (
    AGREE,
    ALL_CHECKS,
    AUDITED_CHECKS,
    CHECKS,
    DEFAULT_CATALOG,
    MISMATCH,
    NOT_APPLICABLE,
    VERDICTS,
    AuditRecord,
    AuditReport,
    InstanceContext,
    Limits,
    MismatchEntry,
    RecordTable,
    catalog_up_to,
    compact_json,
    jsonable,
    run_audit,
    shrink_counterexample,
)
from relcay.cli import execute_command
from relcay.errors import (
    CapacityError,
    InternalConsistencyError,
    PreconditionError,
    UnknownCheckError,
)
from relcay.graphs import (
    ConnectionSet,
    RelCayGraph,
    build_relcay,
    connection_set_count,
    enumerate_connection_sets,
    inverse_orbits,
)
from relcay.group_core import (
    ElementSet,
    GroupTable,
    Subgroup,
    enumerate_subgroups,
    generated_subgroup,
    make_group,
)
from relcay.theorems import (
    FORBIDDEN_KINDS,
    InstanceSets,
    predict_connectivity,
    predict_forbidden,
    predict_valencies,
)

NON_AUDITED = tuple(c for c in ALL_CHECKS if c not in AUDITED_CHECKS)


@pytest.fixture(scope="module")
def c4_report():
    return run_audit(["C4"], keep_records=True)


@pytest.fixture
def fresh_evaluations():
    """The process-wide caches of ``evaluate_check``, which shrinking
    fills, and of the connection sets the audit builds, emptied before and
    after the test, so no record or set that the test reads was made
    before it and none made under its patches outlives it."""
    relcay.audit.evaluate_check.cache_clear()
    relcay.audit._connection_set.cache_clear()
    yield
    relcay.audit.evaluate_check.cache_clear()
    relcay.audit._connection_set.cache_clear()


@pytest.fixture
def no_sharing(monkeypatch):
    """Every instance evaluated in full: no group has an automorphism
    generator and no subgroup a stabiliser generator, so every work item
    is one subgroup and every class one instance.  Properties, so values
    the groups and subgroups have kept from earlier scans are not read
    either."""
    monkeypatch.setattr(GroupTable, "automorphism_generators", property(lambda g: ()))
    monkeypatch.setattr(Subgroup, "stabiliser_generators", property(lambda h: ()))


def test_c4_instance_count(c4_report):
    entry = c4_report.catalog[0]
    assert entry["spec"] == "C4"
    assert entry["proper_subgroups"] == 2
    assert entry["connection_sets"] == 4
    assert not entry["sampled"]
    assert entry["instances"] == 8
    assert len(c4_report.records) == 8 * len(ALL_CHECKS)


def test_c4_regularity_tallies(c4_report):
    assert c4_report.totals["regular"] == {
        "agree": 6,
        "mismatch": 0,
        "not-applicable": 2,
        "unevaluated": 0,
    }
    assert c4_report.totals["semi_regular"] == {
        "agree": 5,
        "mismatch": 0,
        "not-applicable": 3,
        "unevaluated": 0,
    }


def test_c4_only_audited_checks_mismatch(c4_report):
    bad = {e.original.check for e in c4_report.mismatches}
    assert bad <= AUDITED_CHECKS
    assert not c4_report.has_blocking_mismatch()


def test_c4_alpha_gate_rejects_interior_connection_sets(c4_report):
    # C inside H (including empty) must never be asserted against the oracle
    na = [
        r
        for r in c4_report.records
        if r.check == "alpha_independence" and r.verdict == NOT_APPLICABLE
    ]
    assert len(na) == 3
    for record in na:
        assert set(record.c) <= set(record.h)
    # the lone nonempty interior instance, where the prediction is wrong
    inner = next(r for r in na if r.c)
    assert inner.h == ("1", "a2") and inner.c == ("a2",)
    assert inner.predicted == 2 and inner.observed == 3


def test_d5_chromatic_records_carry_observed_values():
    report = run_audit(
        ["D5"],
        ["chromatic_upper", "chromatic_equality"],
        keep_records=True,
        shrink=False,
    )
    rows = {(r.c, r.check): r for r in report.records if r.h == ("1", "a", "a2", "a3", "a4")}
    small = ("a", "a4", "b")
    large = ("a", "a4", "b", "ab", "a4b")
    assert rows[(small, "chromatic_upper")].observed == 3
    assert rows[(large, "chromatic_upper")].observed == 4
    eq = rows[(large, "chromatic_equality")]
    assert eq.predicted is True and eq.observed is True and eq.verdict == AGREE
    assert report.totals["chromatic_upper"]["mismatch"] == 0


def test_totals_cover_every_requested_check_at_zero_instances():
    report = run_audit([], ["regular", "tree"])
    assert set(report.totals) == {"regular", "tree"}
    for tally in report.totals.values():
        assert tally == {
            "agree": 0,
            "mismatch": 0,
            "not-applicable": 0,
            "unevaluated": 0,
        }


def test_unknown_check_name_rejected():
    with pytest.raises(UnknownCheckError):
        run_audit(["C4"], ["regular", "no_such_check"])


def test_repeated_check_name_rejected(capsys):
    with pytest.raises(PreconditionError, match="more than once: edge_count, regular"):
        run_audit(["C4"], ["regular", "edge_count", "tree", "edge_count", "regular"])
    argv = ["audit", "--catalog", "C4", "--checks", "edge_count", "edge_count"]
    assert execute_command(argv) == 1
    assert "edge_count" in capsys.readouterr().err


def test_reports_byte_identical_across_parallelism():
    serial = run_audit(["C6", "S3"], keep_records=True, parallelism=1)
    parallel = run_audit(["C6", "S3"], keep_records=True, parallelism=2)
    assert serial.to_json() == parallel.to_json()
    assert serial.to_csv() == parallel.to_csv()


def test_pooled_audit_shrinks_in_its_workers(monkeypatch):
    shrinks = Counter()
    shrink = relcay.audit.shrink_counterexample

    def counted(record, limits=None, known=None):
        shrinks["calls"] += 1  # counted only in the process that shrinks
        return shrink(record, limits, known)

    monkeypatch.setattr(relcay.audit, "shrink_counterexample", counted)
    serial = run_audit(["C4"])
    assert shrinks["calls"] == len(serial.mismatches) == 7
    assert any(entry.shrunk != entry.original for entry in serial.mismatches)
    shrinks.clear()
    parallel = run_audit(["C4"], parallelism=2)
    assert shrinks["calls"] == 0
    assert parallel.to_json() == serial.to_json()


def _shrink_contexts(monkeypatch) -> list:
    """Record each ``InstanceContext`` built inside a shrink, as the
    record being shrunk, the lookup the scan gave it, and the candidate's
    H and C members."""
    shrinking, built = [], []

    class RecordedContext(InstanceContext):
        def __init__(self, group, h, c, limits):
            super().__init__(group, h, c, limits)
            if shrinking:
                built.append((*shrinking[-1], h.members, c.members))

    shrink = relcay.audit.shrink_counterexample

    def tracked(record, limits=None, known=None):
        shrinking.append((record, known))
        try:
            return shrink(record, limits, known)
        finally:
            shrinking.pop()

    monkeypatch.setattr(relcay.audit, "InstanceContext", RecordedContext)
    monkeypatch.setattr(relcay.audit, "shrink_counterexample", tracked)
    return built


def test_shrinking_reads_the_scans_own_verdicts(monkeypatch, fresh_evaluations):
    # no candidate may come from another test's cached evaluations
    built = _shrink_contexts(monkeypatch)
    report = run_audit(catalog_up_to(8))
    # every group of order <= 8 is scanned exhaustively, so the scan of a
    # record's subgroup evaluated every candidate on that subgroup
    assert not any(entry["sampled"] for entry in report.catalog)
    assert report.mismatches and not report.errors
    assert [h for record, _, h, _ in built if h == record.h_indices] == []
    # candidates on smaller subgroups are still evaluated afresh
    assert built


def test_scan_shrinks_as_a_fresh_shrink_does(fresh_evaluations):
    # the scan's mismatch records and its classes' verdicts change what is
    # evaluated, never where a shrink ends; D7 is sampled
    limits = Limits()
    report = run_audit((*catalog_up_to(8), "D7"), limits=limits)
    assert {entry.original.group for entry in report.mismatches} >= {"D7", "S3", "C2xC2xC2"}
    relcay.audit.evaluate_check.cache_clear()
    for entry in report.mismatches:
        assert shrink_counterexample(entry.original, limits) == entry.shrunk, entry.original


def test_shrinking_reads_the_verdicts_of_the_classes_its_scan_met(monkeypatch, fresh_evaluations):
    # D7 is sampled, so most candidates on a mismatch's own subgroup were
    # not scanned themselves; their orbits under Aut(D7) mostly were.  The
    # orbits are found here as the least (phi(H), phi(C)) masks over every
    # automorphism, and each one's verdicts from a scan that keeps records.
    g = make_group("D7")
    images = [[1 << y for y in phi] for phi in g.automorphisms]

    @cache
    def onto(h):
        h_images = [sum(map(b.__getitem__, h)) for b in images]
        least = min(h_images)
        return least, [b for b, image in zip(images, h_images) if image == least]

    def orbit(h, c):
        least, maps = onto(h)
        return least, min(sum(map(b.__getitem__, c)) for b in maps)

    verdicts = {}
    full = run_audit(("D7",), keep_records=True, shrink=False)
    for _, _, h, checks, rows in full.records.blocks:
        for c, _, outcomes in rows:
            key = orbit(h, c)
            for check, outcome in zip(checks, outcomes):
                verdicts.setdefault((key, check), set()).add(outcome[2])

    def carried(h, c, check):
        """Whether the scan met the orbit of (H, C) and its one verdict
        there is one the check carries."""
        found = verdicts.get((orbit(h, c), check), set())
        return len(found) == 1 and found <= relcay.audit._CARRY[check].keys()

    def item(record):
        return {_image(phi, record.h_indices) for phi in g.automorphisms}

    built = _shrink_contexts(monkeypatch)
    report = run_audit(("D7",))
    assert report.catalog[0]["sampled"] and len(report.mismatches) == 2063
    assert [
        (record.check, h, c)
        for record, _, h, c in built
        if h in item(record) and carried(h, c, record.check)
    ] == []
    # without the scan's lookup such candidates are evaluated: the three
    # mismatches of a subgroup of each order
    monkeypatch.undo()
    relcay.audit.evaluate_check.cache_clear()
    built = _shrink_contexts(monkeypatch)
    firsts = {len(e.original.h_indices): e.original for e in report.mismatches}
    for record in firsts.values():
        relcay.audit.shrink_counterexample(record)
    assert [
        (record.check, h, c)
        for record, _, h, c in built
        if h in item(record) and carried(h, c, record.check)
    ]


def test_an_unevaluated_class_verdict_is_never_read(monkeypatch, fresh_evaluations):
    # clique_upper mismatches on every D4 instance whose C is the whole
    # group but the identity and runs out of its search budget on every
    # other: every class rooted elsewhere is unevaluated, so a shrink
    # evaluates each candidate on the mismatch's subgroup itself
    everything = tuple(range(1, 8))

    def fixed(ctx):
        if ctx.c.members == everything:
            return 0, 1, MISMATCH, None
        raise CapacityError("node budget exhausted")

    monkeypatch.setitem(relcay.audit._CHECK_FNS, "clique_upper", fixed)
    built = _shrink_contexts(monkeypatch)
    report = run_audit(("D4",), checks=("clique_upper",))
    assert not report.catalog[0]["sampled"]
    assert report.totals["clique_upper"]["unevaluated"] > 0
    own = [(known, h, c) for record, known, h, c in built if h == record.h_indices]
    assert own
    # the lookup takes a connection set as its mask over the inverse orbits
    g = make_group("D4")
    for known, h, c in own:
        assert c != everything
        assert known(h, relcay.audit._mask_of(g, c), "clique_upper") is None
        assert known(h, relcay.audit._mask_of(g, everything), "clique_upper").verdict == MISMATCH


@pytest.mark.parametrize(
    "spec, digest",
    [
        ("E2^4", "ba1c54a9bbfb8494efc4354fb0aeb4f36b8804dc76c23b0356e801112f2cd614"),
        ("D8", "0a86a1b5b12fb75c5b4dbabd1111681bc2cf50da775a36562e1dd3aa38d47508"),
    ],
)
def test_a_sampled_groups_serial_audit_keeps_its_bytes(spec, digest):
    # the goldens hold D7 as their only sampled group; these two shrink
    # thousands of mismatches (the digests are from before shrinking read
    # the scan's classes)
    report = run_audit((spec,))
    assert report.catalog[0]["sampled"]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_induced_coloring_is_built_once_per_subgroup_and_generating_set(monkeypatch, no_sharing):
    group = relcay.group_core.make_group("D4")
    subgroups = [s for s in relcay.group_core.enumerate_subgroups(group) if s.is_proper]
    relcay.theorems._induced_coloring.cache_clear()  # forget colorings kept earlier
    fans = Counter()
    misra_gries = relcay.theorems._misra_gries
    build_induced = relcay.graphs.InducedCayleyGraph._build

    def counted(n, adjacency, n_colors):
        fans["calls"] += 1
        return misra_gries(n, adjacency, n_colors)

    def counted_build(parent):
        fans["builds"] += 1
        return build_induced(parent)

    monkeypatch.setattr(relcay.theorems, "_misra_gries", counted)
    monkeypatch.setattr(relcay.graphs.InducedCayleyGraph, "_build", counted_build)
    run_audit(("D4",))
    colored = [
        (h.mask, h.mask & c.mask)
        for h in subgroups
        for c in enumerate_connection_sets(group)
        if c.mask & ~h.mask
    ]
    assert fans["calls"] == len(set(colored)) < len(colored)
    # the colorings come from the table: no subgraph on H is built
    assert fans["builds"] == 0


def test_sampling_is_deterministic_and_stratified():
    limits = Limits(max_connection_sets=8)
    first = run_audit(["D4"], ["edge_count"], limits, keep_records=True, shrink=False)
    second = run_audit(["D4"], ["edge_count"], limits, keep_records=True, shrink=False)
    assert first.to_json() == second.to_json()
    entry = first.catalog[0]
    assert entry["sampled"] and entry["scanned_per_subgroup"] == 8
    # every possible |C| size appears in the sample
    assert {len(r.c) for r in first.records} == set(range(8))
    # the draw is keyed per subgroup, not shared across them
    by_h = {}
    for record in first.records:
        by_h.setdefault(record.h, set()).add(record.c)
    assert len(set(map(frozenset, by_h.values()))) > 1
    assert first.totals["edge_count"]["mismatch"] == 0


def test_square_free_scan_yields_shrunk_witnesses():
    report = run_audit(["S3"], ["square_free_as_printed"])
    assert report.mismatches
    assert not report.has_blocking_mismatch()
    for entry in report.mismatches:
        assert entry.shrunk.verdict == MISMATCH
        assert len(entry.shrunk.c) <= len(entry.original.c)
        assert set(entry.shrunk.witness) == {
            "induced_square_free",
            "pair_product_overlap",
            "pair_product_condition",
            "outside_degree_sum",
            "outside_degree_required",
            "degree_condition",
        }


def test_shrink_is_idempotent():
    report = run_audit(["S3"], ["square_free_as_printed"], shrink=False)
    record = report.mismatches[0].original
    once = shrink_counterexample(record)
    twice = shrink_counterexample(once)
    assert once == twice


def test_shrink_honours_max_order_above_default():
    g = make_group("C66", max_order=70)
    h = generated_subgroup(g.element_set([g.element("a33")]))
    c = (g.element("a"), g.element("a65"))
    record = AuditRecord(
        group="C66",
        h=h.names(),
        c=("a", "a65"),
        check="connectivity_aba",
        predicted=True,
        observed=False,
        verdict=MISMATCH,
        h_indices=h.members,
        c_indices=c,
    )
    shrunk = shrink_counterexample(record, Limits(max_order=70))
    assert shrunk.group == "C66" and shrunk.verdict != MISMATCH


def test_shrink_rejects_non_mismatch():
    report = run_audit(["C4"], ["edge_count"], keep_records=True)
    record = report.records[0]
    assert record.verdict == AGREE
    with pytest.raises(PreconditionError):
        shrink_counterexample(record)


def test_csv_schema():
    report = run_audit(["C4"], ["edge_count", "regular"], keep_records=True)
    lines = report.to_csv().splitlines()
    assert lines[0] == "instance_group,instance_H,instance_C,check,predicted,observed,verdict"
    assert len(lines) == 1 + len(report.records)
    bare = run_audit(["C4"], ["edge_count"])
    with pytest.raises(PreconditionError):
        bare.to_csv()


def test_json_excludes_wall_time():
    report = run_audit(["C4"], ["edge_count"])
    assert report.wall_time_seconds > 0
    assert "wall" not in report.to_json()


def test_small_catalog_smoke_zero_mismatch():
    report = run_audit(["C4", "C6", "S3", "D4"], NON_AUDITED, parallelism=2)
    for check, tally in report.totals.items():
        assert tally["mismatch"] == 0, check


def test_catalog_up_to_twelve():
    subset = catalog_up_to(12)
    assert len(subset) == 21
    assert "S4" not in subset and "E2^4" not in subset
    assert set(subset) <= set(DEFAULT_CATALOG)


def test_unevaluated_appears_when_partition_enumeration_capped():
    # |H| = 13 exceeds the default partition cap, with the gate satisfied
    report = run_audit(["C26"], ["chromatic_equality"], keep_records=True)
    verdicts = {r.verdict for r in report.records if len(r.h) == 13}
    assert "unevaluated" in verdicts
    assert report.totals["chromatic_equality"]["unevaluated"] > 0


def test_one_matching_per_instance(monkeypatch):
    calls = []
    real = relcay.oracles.matching_edges

    def counted(n, adj):
        calls.append(n)
        return real(n, adj)

    monkeypatch.setattr(relcay.oracles, "matching_edges", counted)
    monkeypatch.setattr(relcay.audit, "matching_edges", counted)
    g = make_group("D5")
    h = generated_subgroup(g.element_set([g.element("a")]))
    c = ConnectionSet(g, (g.element(x) for x in ("a", "a4", "b")))
    ctx = InstanceContext(g, h, c, Limits())
    for check in CHECKS:
        check.fn(ctx)
    assert ctx.matching_number == 5 and ctx.edge_cover_number == 5
    assert calls == [10]


def test_registry_families_cover_all_checks_in_order():
    families = list(dict.fromkeys(check.family for check in CHECKS))
    grouped = [
        check.name for family in families for check in CHECKS if check.family == family
    ]
    assert grouped == list(ALL_CHECKS)
    assert len(set(ALL_CHECKS)) == len(ALL_CHECKS) == 34
    # a registry entry is hashable, though its carry rule is a dict
    assert len(set(CHECKS)) == 34
    assert AUDITED_CHECKS == {"square_free_as_printed"}


def test_per_subgroup_work_happens_once(monkeypatch):
    counts = {"subgroups": 0, "cosets": 0}
    real_init = Subgroup.__init__
    real_build = relcay.group_core._build_cosets

    def counted_init(self, group, members=()):
        counts["subgroups"] += 1
        real_init(self, group, members)

    def counted_build(h, coset):
        counts["cosets"] += 1
        return real_build(h, coset)

    monkeypatch.setattr(Subgroup, "__init__", counted_init)
    monkeypatch.setattr(relcay.group_core, "_build_cosets", counted_build)
    g = make_group("D4")
    assert enumerate_subgroups(g) is enumerate_subgroups(g)
    subgroups = enumerate_subgroups(g)
    proper = [s for s in subgroups if s.is_proper]
    report = run_audit(("D4",), shrink=False)
    instances = sum(entry["instances"] for entry in report.catalog)
    assert instances == 576
    # every generated subgroup of D4 is one of its subgroups, so the bound
    # is the subgroup count however many connection sets are scanned
    assert counts["subgroups"] <= len(subgroups)
    # one left and one right partition per proper subgroup
    assert counts["cosets"] <= 2 * len(proper)
    counts.update(subgroups=0, cosets=0)
    run_audit(("D4",), shrink=False)
    assert counts == {"subgroups": 0, "cosets": 0}


def test_a_graph_breaking_the_closed_form_is_a_mismatch_not_an_error():
    g = make_group("D5")
    h = generated_subgroup(g.element_set([g.element("a")]))
    c = ConnectionSet(g, (g.element(x) for x in ("a", "a4", "b")))
    rows = list(build_relcay(g, h, c).adjacency)
    one, b = g.identity, g.element("b")
    assert rows[one] >> b & 1
    rows[one] &= ~(1 << b)
    rows[b] &= ~(1 << one)
    broken = RelCayGraph(group=g, h=h, c=c, adjacency=tuple(rows))
    assert broken.edge_count == 9
    ctx = InstanceContext(g, h, c, Limits())
    ctx.graph = broken
    outcomes = {name: relcay.audit.evaluate(ctx, name) for name in ALL_CHECKS}
    assert outcomes["edge_count"][:3] == (10, 9, MISMATCH)
    _, _, verdict, witness = outcomes["degree_formula"]
    assert verdict == MISMATCH
    assert witness == {"vertex": "1", "formula": 3, "adjacency": 2}


def test_records_of_one_instance_share_name_tuples(monkeypatch):
    # the scan's mismatch records of one instance hold one h and one c tuple;
    # edge_count mismatches everywhere, so an instance where
    # square_free_as_printed mismatches too, on a root or on a copy, has two
    monkeypatch.setitem(
        relcay.audit._CHECK_FNS, "edge_count", lambda ctx: (0, 1, MISMATCH, None)
    )
    checks = ("edge_count", "square_free_as_printed")
    report = run_audit(("D4",), checks=checks, shrink=False)
    assert report.copied_instances > 0
    by_instance = {}
    for entry in report.mismatches:
        record = entry.original
        by_instance.setdefault((record.h_indices, record.c_indices), []).append(record)
    shared = [records for records in by_instance.values() if len(records) > 1]
    assert shared
    names = make_group("D4").names
    for records in shared:
        first = records[0]
        assert first.h == tuple(names[x] for x in first.h_indices)
        assert first.c == tuple(names[x] for x in first.c_indices)
        assert all(r.h is first.h and r.c is first.c for r in records)


def test_inverse_orbits_computed_once_per_group():
    inverse_orbits.cache_clear()
    run_audit(("D4",))
    info = inverse_orbits.cache_info()
    assert info.misses == 1
    assert info.hits > 0


@pytest.mark.parametrize("error", [InternalConsistencyError, RecursionError])
def test_a_raising_check_is_reported_not_fatal(monkeypatch, capsys, fresh_evaluations, error):
    # shrinking caches records of the patched check: none may outlive it
    real = relcay.audit._CHECK_FNS["edge_count"]

    def flaky(ctx):
        if len(ctx.c) == 2:
            raise error("injected")
        if len(ctx.c) == 3:
            return 0, 0, MISMATCH, None
        return real(ctx)

    monkeypatch.setitem(relcay.audit._CHECK_FNS, "edge_count", flaky)
    report = run_audit(["C4"], keep_records=True)
    # C4 has two proper subgroups and one two-element connection set
    assert [(e["h"], e["c"], e["check"]) for e in report.errors] == [
        (["1"], ["a", "a3"], "edge_count"),
        (["1", "a2"], ["a", "a3"], "edge_count"),
    ]
    assert {e["error"] for e in report.errors} == {f"{error.__name__}: injected"}
    assert report.catalog[0]["instances"] == 8
    assert len(report.records) == 6 * len(ALL_CHECKS)
    for check in ALL_CHECKS:
        assert sum(report.totals[check].values()) == 6
    assert json.loads(report.to_json())["errors"] == list(report.errors)
    # shrinking {a, a2, a3} would try {a, a3}, which raises: that candidate
    # counts as no mismatch, and the shrink ends where it started
    shrunk = [
        (e.shrunk.c, e.shrunk.check)
        for e in report.mismatches
        if e.original.check == "edge_count"
    ]
    assert shrunk == [(("a", "a2", "a3"), "edge_count")] * 2
    assert run_audit(["C4"], keep_records=True, parallelism=2).to_json() == report.to_json()
    assert execute_command(["audit", "--catalog", "C4"]) == 2
    assert "errors: 2 instance(s) could not be evaluated" in capsys.readouterr().out


def test_error_free_report_has_no_errors_key(c4_report):
    assert c4_report.errors == ()
    assert "errors" not in json.loads(c4_report.to_json())


def test_exhausted_search_budget_makes_checks_unevaluated(monkeypatch):
    calls = []
    real = relcay.audit.max_clique

    def counted(n, adj):
        calls.append(n)
        return real(n, adj)

    monkeypatch.setattr(relcay.oracles, "SEARCH_NODE_BUDGET", 0)
    monkeypatch.setattr(relcay.audit, "max_clique", counted)
    report = run_audit(["C4"], keep_records=True, shrink=False)
    assert report.errors == ()
    for check in ("clique_upper", "alpha_independence", "beta_cover"):
        assert report.totals[check]["unevaluated"] == 8
    # the two edgeless graphs are 1-colorable without a search
    assert report.totals["chromatic_upper"]["unevaluated"] == 6
    assert report.totals["edge_count"]["agree"] == 8
    record = next(r for r in report.records if r.check == "clique_upper")
    assert record.witness == {
        "capacity": "max_clique search exceeded the budget of 0 nodes "
        "on a graph with 4 vertices"
    }
    # five clique checks read the clique number, but each instance searches once
    assert calls == [4] * 8


# --------------------------------------------------------------------------
# Verdict-first scan and per-instance / per-group sharing

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


@pytest.mark.parametrize(
    "workload, catalog",
    # audit_deep's D7 is the one golden on the sampled connection-set path
    [("audit_wide", catalog_up_to(10)), ("audit_deep", ("D7",))],
    ids=["audit_wide", "audit_deep"],
)
def test_audit_wide_json_matches_the_benchmark_golden(workload, catalog):
    # the byte-identity contract, checked in tier-1 and not only by the
    # benchmark: the digest is read from the benchmark's own golden file
    golden = json.loads(GOLDEN.read_text())[workload]
    text = run_audit(catalog).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == golden


def test_full_records_json_matches_the_benchmark_golden():
    # the audit_full_par2 workload's output (2 workers, every record kept),
    # which the serial scan must write too
    golden = json.loads(GOLDEN.read_text())["audit_full_records"]
    for parallelism in (1, 2):
        report = run_audit(catalog_up_to(10), parallelism=parallelism, keep_records=True)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == golden, f"parallelism {parallelism}"


def test_each_graph_is_clique_searched_once(monkeypatch, no_sharing):
    searches: Counter = Counter()
    real = relcay.oracles._clique_search

    def counted(n, adj, start, search):
        searches[search] += 1
        return real(n, adj, start, search)

    monkeypatch.setattr(relcay.oracles, "_clique_search", counted)
    report = run_audit(("D4",), shrink=False)
    instances = report.catalog[0]["instances"]
    # the chromatic search starts from the clique number the context has
    assert searches == {"max_clique": instances, "max_independent_set": instances}


def test_totals_only_scan_agrees_with_the_records_it_skips():
    catalog = catalog_up_to(8)
    bare = run_audit(catalog, shrink=False)
    full = run_audit(catalog, keep_records=True, shrink=False)
    tallies = Counter((r.check, r.verdict) for r in full.records)
    derived = {
        check: {verdict: tallies[check, verdict] for verdict in VERDICTS}
        for check in ALL_CHECKS
    }
    assert bare.totals == full.totals == derived
    kept = [r for r in full.records if r.verdict == MISMATCH]
    assert [e.original for e in bare.mismatches] == kept
    assert [e.original for e in full.mismatches] == kept


def test_records_are_built_only_for_mismatches(monkeypatch):
    built = []
    real = relcay.audit.AuditRecord

    def counted(**fields):
        built.append(fields["check"])
        return real(**fields)

    monkeypatch.setattr(relcay.audit, "AuditRecord", counted)
    # kept records stay rows until they are read
    for keep_records in (False, True):
        built.clear()
        report = run_audit(("D4",), keep_records=keep_records, shrink=False)
        assert report.mismatches
        assert len(built) == len(report.mismatches), f"keep_records={keep_records}"


# --------------------------------------------------------------------------
# The record table

OUT_OF_ORDER = ["regular", "edge_count", "clique_upper"]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_record_table_reads_as_the_records_of_every_scanned_pair(parallelism):
    report = run_audit(["C4", "S3"], OUT_OF_ORDER, keep_records=True, parallelism=parallelism)
    limits = Limits()
    expected = []
    for spec in ("C4", "S3"):
        g = make_group(spec)
        for s in enumerate_subgroups(g):
            if not s.is_proper:
                continue
            item = [
                relcay.audit.evaluate_check(spec, s.members, c.members, check, limits)
                for c in enumerate_connection_sets(g)
                for check in OUT_OF_ORDER
            ]
            expected += sorted(item, key=lambda r: (r.c_indices, r.check))
    assert len(report.records) == len(expected) == (2 * 4 + 5 * 16) * 3
    assert list(report.records) == expected
    assert [report.records[i] for i in range(len(expected))] == expected


def test_record_table_indexes_like_a_tuple(c4_report):
    table = c4_report.records
    records = tuple(table)
    assert len(table) == len(records) and table
    assert table[0] == records[0] and table[-1] == records[-1]
    assert table[-len(records)] == records[0]
    assert table[3:40:7] == records[3:40:7]
    assert table.index(records[5]) == 5 and records[5] in table
    for bad in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            table[bad]
    empty = RecordTable(())
    assert not empty and len(empty) == 0 and list(empty) == []
    with pytest.raises(IndexError):
        empty[0]
    # a work item whose instances all failed keeps a block without rows
    hollow = RecordTable(
        [relcay.audit._RecordBlock("C4", ("1",), (0,), ("tree",), ())]
        + list(table.blocks)
    )
    assert hollow[0] == records[0] and hollow[-1] == records[-1]


def _fresh_group(monkeypatch, spec):
    """A newly built table for the spec, with none of the per-group caches
    that earlier tests filled; make_group hands it out until the test ends."""
    build = relcay.group_core._build_group
    monkeypatch.setattr(
        relcay.group_core, "_build_group", lru_cache(maxsize=None)(build.__wrapped__)
    )
    g = make_group(spec)
    assert g is not build(g.spec)
    return g


def _count_closures(monkeypatch) -> Counter:
    closures: Counter = Counter()
    real = relcay.group_core._closure_mask

    def counted(g, seed_mask):
        closures[id(g), seed_mask] += 1
        return real(g, seed_mask)

    monkeypatch.setattr(relcay.group_core, "_closure_mask", counted)
    return closures


def test_generated_subgroup_is_shared_per_generator_mask(monkeypatch):
    g = _fresh_group(monkeypatch, "S3")
    closures = _count_closures(monkeypatch)
    x = g.element_set([g.element("(12)"), g.element("(123)")])
    y = ElementSet(g, reversed(x.members))
    assert x is not y and x.mask == y.mask
    assert generated_subgroup(x) is generated_subgroup(y)
    assert len(generated_subgroup(x)) == 6
    assert list(closures.values()) == [1]


def test_each_generator_mask_is_closed_once_per_audit(monkeypatch):
    _fresh_group(monkeypatch, "D4")
    closures = _count_closures(monkeypatch)
    run_audit(("D4",), shrink=False)
    assert closures and max(closures.values()) == 1


def _count_calls(monkeypatch, name: str) -> Counter:
    """Computations of a cached group_core worker, keyed by the identity of
    its first argument (a group or a subgroup) and its second (a mask or a
    step): the worker runs under a fresh cache that counts its misses."""
    calls: Counter = Counter()
    real = getattr(relcay.group_core, name).__wrapped__

    def counted(owner, key):
        calls[id(owner), key] += 1
        return real(owner, key)

    monkeypatch.setattr(relcay.group_core, name, cache(counted))
    return calls


def test_each_split_table_is_built_once_per_audit(monkeypatch, no_sharing):
    _fresh_group(monkeypatch, "D5")
    tables = _count_calls(monkeypatch, "_split_table")
    report = run_audit(("D5",), shrink=False)
    assert report.totals["chromatic_equality"]["agree"]
    # C5 with the steps a (H n C = {a, a4}) and a2 (H n C = {a2, a3}), and
    # each of the five C2 with its involution
    assert len(tables) == 7 and max(tables.values()) == 1


@pytest.mark.parametrize(
    "worker", ["_width", "_subgroups_within", "_generated", "_shared_subgroup"]
)
def test_each_lattice_lookup_is_computed_once_per_mask(monkeypatch, worker):
    _fresh_group(monkeypatch, "D4")
    computed = _count_calls(monkeypatch, worker)
    run_audit(("D4",), shrink=False)
    assert computed and max(computed.values()) == 1


def test_one_hc_star_per_instance(monkeypatch):
    g = make_group("D5")
    h = generated_subgroup(g.element_set([g.element("a")]))
    c = ConnectionSet(g, (g.element(x) for x in ("a", "a4", "b")))
    star = c.with_identity()
    calls = []
    real_star = Subgroup.star_product
    real_product = relcay.theorems.product_set

    def counted_star(self, x):
        if self == h and x.with_identity() == star:
            calls.append(1)
        return real_star(self, x)

    def counted_product(a, b):
        if a == h and b == star:
            calls.append(1)
        return real_product(a, b)

    # wherever HC* might be built: the subgroup's coset table, which the
    # shared sets read, or a product set in the predictors or the audit
    monkeypatch.setattr(Subgroup, "star_product", counted_star)
    monkeypatch.setattr(relcay.theorems, "product_set", counted_product)
    monkeypatch.setattr(relcay.audit, "product_set", counted_product, raising=False)
    ctx = InstanceContext(g, h, c, Limits())
    for check in CHECKS:
        check.fn(ctx)
    assert ctx.connectivity.hc_star_covers
    assert calls == [1]


def test_predictors_give_the_same_answers_with_shared_sets():
    for spec in ("D4", "Q8", "C2xC4"):
        g = make_group(spec)
        for h in enumerate_subgroups(g):
            if not h.is_proper:
                continue
            for c in enumerate_connection_sets(g):
                sets = InstanceSets(g, h, c)
                for kind in FORBIDDEN_KINDS:
                    alone = predict_forbidden(g, h, c, kind)
                    assert predict_forbidden(g, h, c, kind, sets=sets) == alone
                assert predict_connectivity(g, h, c, sets=sets) == predict_connectivity(g, h, c)
                assert predict_valencies(g, h, c, sets=sets) == predict_valencies(g, h, c)


# --------------------------------------------------------------------------
# Metamorphic: an automorphism relabels the graph


def _image(phi, members) -> tuple[int, ...]:
    return tuple(sorted(phi[x] for x in members))


@pytest.mark.parametrize("spec", DEFAULT_CATALOG)
def test_conjugate_instances_get_the_same_verdicts(spec):
    # An automorphism phi of G maps the graph of (H, C) onto that of
    # (phi(H), phi(C)), so every check must reach the same verdict on both,
    # and the same predicted and observed values unless its outcomes move
    # through phi.  An outcome that the check's rule carries must equal,
    # moved through phi, the outcome on the image: that is what the scan
    # gives a classmate.  A seeded sample of connection sets per subgroup,
    # each with a seeded automorphism (inner or outer) that moves (H, C).
    g = make_group(spec)
    limits = Limits()
    draw = random.Random(spec)
    automorphisms = g.automorphisms
    orbits = inverse_orbits(g)
    carry = relcay.audit._CARRY
    moving = {name for name, rule in carry.items() if any(rule.values())}
    assert moving == {
        "degree_formula", "full_degree_coset", "isolated_vertex", "square_free_as_printed",
    }
    compared = moved = 0
    for h in enumerate_subgroups(g):
        if not h.is_proper:
            continue
        for _ in range(3):
            bits = draw.getrandbits(len(orbits))
            c = ConnectionSet(g, [x for i, o in enumerate(orbits) if bits >> i & 1 for x in o])
            movers = [
                phi
                for phi in (draw.choice(automorphisms) for _ in range(20))
                if _image(phi, h.members) != h.members or _image(phi, c.members) != c.members
            ]
            if not movers:
                continue
            phi = movers[0]
            h2 = g.subgroup(_image(phi, h.members))
            c2 = ConnectionSet(g, _image(phi, c.members))
            one = InstanceContext(g, h, c, limits)
            two = InstanceContext(g, h2, c2, limits)
            for name in ALL_CHECKS:
                first = relcay.audit.evaluate(one, name)
                second = relcay.audit.evaluate(two, name)
                where = (name, h.names(), c.names(), phi)
                assert first[2] == second[2], where
                if name not in moving:
                    assert first[:2] == second[:2], where
                if first[2] in carry[name]:
                    move = carry[name][first[2]]
                    if move is not None:
                        first = move(first, relcay.audit._Map(phi), g)
                        moved += first[2] == AGREE
                    assert first == second, where
                compared += 1
    # inversion, an automorphism of an abelian group, fixes every subgroup
    # and every inverse-closed set
    assert compared > 0 or set(automorphisms) <= {tuple(range(g.order)), g.inv}
    # degree_formula agrees everywhere, so each compared pair moved it
    assert (moved > 0) == (compared > 0)


# --------------------------------------------------------------------------
# Sharing outcomes within a class of instances


def test_sharing_outcomes_within_classes_is_invisible_in_the_bytes(request):
    catalog = catalog_up_to(8)
    shared = [run_audit(catalog, keep_records=True, parallelism=p) for p in (1, 2)]
    request.getfixturevalue("no_sharing")
    alone = run_audit(catalog, keep_records=True)
    json_text, csv_text = alone.to_json(), alone.to_csv()
    for report in shared:
        assert report.to_json() == json_text
        assert report.to_csv() == csv_text
    instances = sum(entry["instances"] for entry in alone.catalog)
    assert 0 < shared[0].copied_instances == shared[1].copied_instances < instances
    assert alone.copied_instances == 0


def test_every_carried_outcome_equals_its_own_evaluation(monkeypatch):
    # every kept outcome, carried or evaluated, against the check run on
    # its own instance; each moving rule must fire
    fired, changed = Counter(), Counter()

    def counted(name, move):
        def moved(outcome, phi, group):
            result = move(outcome, phi, group)
            fired[name, outcome[2]] += 1
            changed[name] += result != outcome
            return result

        return moved

    for name, rule in relcay.audit._CARRY.items():
        counted_rule = {verdict: move and counted(name, move) for verdict, move in rule.items()}
        monkeypatch.setitem(relcay.audit._CARRY, name, counted_rule)
    limits = Limits()
    report = run_audit((*catalog_up_to(8), "D7"), keep_records=True, shrink=False)
    assert report.copied_instances > 0 and not report.errors
    for group, _, h_indices, checks, rows in report.records.blocks:
        g = make_group(group)
        h = g.subgroup(h_indices)
        for c_indices, c, outcomes in rows:
            ctx = InstanceContext(g, h, ConnectionSet(g, c_indices), limits)
            evaluated = tuple(relcay.audit.evaluate(ctx, check) for check in checks)
            assert outcomes == evaluated, (group, h.names(), c)
    assert {
        ("degree_formula", AGREE),
        ("full_degree_coset", AGREE),
        ("isolated_vertex", AGREE),
        ("square_free_as_printed", MISMATCH),
    } <= set(fired)
    # a mismatch's pair_product_overlap is () or the identity here, which
    # no automorphism moves (see the next test)
    assert {name for name, count in changed.items() if count} == {
        "degree_formula", "full_degree_coset", "isolated_vertex",
    }


def test_a_mover_runs_only_on_the_verdicts_its_rule_names(monkeypatch):
    # square_free_as_printed carries an agreeing outcome as it is and moves
    # only a mismatch's witness; the other movers move every agreeing outcome
    calls = Counter()

    def counted(name, move):
        def moved(outcome, phi, group):
            calls[name, outcome[2]] += 1
            return move(outcome, phi, group)

        return moved

    for name, rule in relcay.audit._CARRY.items():
        counted_rule = {verdict: move and counted(name, move) for verdict, move in rule.items()}
        monkeypatch.setitem(relcay.audit._CARRY, name, counted_rule)
    report = run_audit(("D7",), keep_records=True, shrink=False)
    assert report.copied_instances == 4301
    assert calls == {
        ("degree_formula", AGREE): 4301,
        ("full_degree_coset", AGREE): 4301,
        ("isolated_vertex", AGREE): 4301,
        ("square_free_as_printed", MISMATCH): 1921,
    }


def test_an_audit_of_no_checks_still_shares_classes():
    report = run_audit(("C4", "S3"), checks=())
    assert report.totals == {}
    assert report.mismatches == () and report.errors == ()
    assert report.copied_instances == 52


def test_a_square_free_witness_moves_its_overlap():
    g = make_group("D4")
    phi = next(phi for phi in g.automorphisms if phi[1] != 1)
    names = g.names
    witness = {"induced_square_free": True, "pair_product_overlap": (names[0], names[1])}
    moved = relcay.audit._move_overlap_witness((False, True, MISMATCH, witness), phi, g)
    overlap = tuple(names[x] for x in sorted((0, phi[1])))
    assert moved == (False, True, MISMATCH, {**witness, "pair_product_overlap": overlap})
    assert witness["pair_product_overlap"] == (names[0], names[1])


def test_a_copy_that_phi_leaves_unchanged_holds_its_class_roots_outcome():
    # a mover hands back the outcome it was given when phi leaves its values
    # as they are, so the copy's row holds the class root's own object
    report = run_audit(catalog_up_to(8), keep_records=True)
    # the digest from before the movers kept their input
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "842fdd04bc57587fb51ae5e68b17a24fb2acefbb4f2ef806877c54903491cd1a"
    outcomes = {
        (group, h_indices, c_indices): dict(zip(checks, row))
        for group, _, h_indices, checks, rows in report.records.blocks
        for c_indices, _, row in rows
    }
    kept = set()
    for spec in catalog_up_to(8):
        g = make_group(spec)
        for item, scans, carriers in _work_items(g):
            pairs = [
                (spec, h.members, _members(g, c)) for h, scan in zip(item, scans) for c in scan
            ]
            roots, _, _ = relcay.audit._class_roots(item, scans, carriers)
            for pair, root in zip(pairs, roots):
                if pairs[root] == pair:
                    continue
                for check, outcome in outcomes[pair].items():
                    first = outcomes[pairs[root]][check]
                    move = relcay.audit._CARRY[check].get(first[2])
                    if move is not None and outcome == first:
                        assert outcome is first, (pair, check)
                        kept.add(check)
    assert kept == {
        "degree_formula", "full_degree_coset", "isolated_vertex", "square_free_as_printed",
    }


@pytest.mark.parametrize(
    "check, outcome, carried",
    [
        ("connectivity", (True, True, AGREE, None), True),
        ("chromatic_upper", None, False),
        ("connectivity", (True, False, MISMATCH, {"product_witnesses": ("a",)}), False),
        ("degree_formula", ((1,) * 8, (2,) * 8, MISMATCH, {"vertex": "e"}), False),
    ],
    ids=["agree", "unevaluated", "connectivity-mismatch", "degree-formula-mismatch"],
)
def test_only_carried_outcomes_skip_evaluation_on_classmates(monkeypatch, check, outcome, carried):
    # the check gives one fixed outcome (None: its search runs out of
    # budget, so it is unevaluated) on every instance of D4
    calls = []

    def fixed(ctx):
        calls.append(ctx)
        if outcome is None:
            raise CapacityError("node budget exhausted")
        return outcome

    monkeypatch.setitem(relcay.audit._CHECK_FNS, check, fixed)
    report = run_audit(("D4",), checks=(check,), shrink=False)
    instances = report.catalog[0]["instances"]
    assert 0 < report.copied_instances < instances
    assert len(calls) == (instances - report.copied_instances if carried else instances)


def _members(g, mask: int) -> tuple[int, ...]:
    """The members of the connection set of a mask over the inverse orbits."""
    return relcay.audit._connection_set(g, mask).members


def _work_items(g) -> list:
    """Each work item of the group as ``_scan_orbit`` sees it: its
    subgroups, their connection sets' masks over the inverse orbits and
    the maps from its first subgroup onto each; nothing is evaluated."""
    limits = Limits()
    subgroups = [s for s in enumerate_subgroups(g) if s.is_proper]
    items = []
    for orbit, carriers in relcay.audit._subgroup_orbits(g, subgroups):
        item = [subgroups[k] for k in orbit]
        scans = [relcay.audit._connection_sets_for(g, h.members, limits) for h in item]
        items.append((item, scans, carriers))
    return items


def _dispatched_items(monkeypatch, catalog) -> list:
    """The work items ``run_audit`` hands to the scan for the catalog, each
    as its group's spec and its subgroups' members; nothing is scanned."""
    items = []

    def recorded(args):
        spec, h_list = args[:2]
        items.append((spec, h_list))
        return [relcay.audit._SubgroupResult({}, [], None, [])] * len(h_list), 0

    monkeypatch.setattr(relcay.audit, "_scan_orbit", recorded)
    run_audit(catalog)
    return items


def test_work_items_are_orbits_of_subgroups(monkeypatch):
    items = _dispatched_items(monkeypatch, DEFAULT_CATALOG)
    counts = Counter()
    for spec, h_list in items:
        g = make_group(spec)
        subgroups = {frozenset(h) for h in h_list}
        # the images of the item's first subgroup under every automorphism
        # are the item's subgroups, each of them reached
        first = h_list[0]
        assert {frozenset(phi[x] for x in first) for phi in g.automorphisms} == subgroups, spec
        counts[spec] += 1
    # every proper subgroup lies in exactly one item
    expected = [
        (spec, s.members)
        for spec in DEFAULT_CATALOG
        for s in enumerate_subgroups(make_group(spec))
        if s.is_proper
    ]
    assert sorted(expected) == sorted((spec, h) for spec, h_list in items for h in h_list)
    assert {spec: counts[spec] for spec in ("C2xC2xC2", "D4", "Q8", "D7")} == {
        "C2xC2xC2": 3, "D4": 5, "Q8": 3, "D7": 3,
    }
    assert counts["E2^4"] == 4


def test_a_group_past_the_automorphism_cap_scans_one_subgroup_per_item(monkeypatch):
    items = _dispatched_items(monkeypatch, ("E2^5",))
    proper = [s.members for s in enumerate_subgroups(make_group("E2^5")) if s.is_proper]
    assert [h for _, h_list in items for h in h_list] == proper
    assert len(items) == len(proper) == 373


@pytest.mark.parametrize("spec", ["C2xC2xC2", "D4", "D7", "D8"])
def test_each_class_map_takes_the_first_pair_of_the_class_onto_the_pair(spec):
    g = make_group(spec)
    automorphisms = set(g.automorphisms)
    for item, scans, carriers in _work_items(g):
        assert [_image(phi, item[0].members) for phi in carriers] == [h.members for h in item]
        pairs = [(h.members, _members(g, c)) for h, scan in zip(item, scans) for c in scan]
        roots, maps, _ = relcay.audit._class_roots(item, scans, carriers)
        assert len(roots) == len(maps) == len(pairs)
        for i, (root, phi) in enumerate(zip(roots, maps)):
            assert roots[root] == root <= i
            assert phi in automorphisms
            h, c = pairs[root]
            assert (_image(phi, h), _image(phi, c)) == pairs[i]
        # one tuple per distinct map
        assert len({id(phi) for phi in maps}) == len(set(maps))


@pytest.mark.parametrize(
    "spec, orbits", [("D7", 307), ("D8", 3024), ("S4", 10886), ("E2^4", 645)]
)
def test_a_sampled_scans_classes_are_the_orbits_its_pairs_meet(spec, orbits):
    # The orbits are found here independently of the scan, as the least
    # (phi(H), phi(C)) masks over every listed automorphism; not on E2^4,
    # whose 20,160 automorphisms make that slow.  Each class must be one
    # orbit, rooted at its first pair.  The least pair has the least
    # phi(H), so only the phi that give it are tried on C.
    g = make_group(spec)
    images = None if spec == "E2^4" else [[1 << y for y in phi] for phi in g.automorphisms]
    count = 0
    for item, scans, carriers in _work_items(g):
        roots, _, _ = relcay.audit._class_roots(item, scans, carriers)
        count += sum(root == i for i, root in enumerate(roots))
        if images is None:
            continue
        keys = []
        for h, scan in zip(item, scans):
            h_images = [sum(map(b.__getitem__, h.members)) for b in images]
            least = min(h_images)
            onto = [b for b, image in zip(images, h_images) if image == least]
            keys += [
                (least, min(sum(map(b.__getitem__, _members(g, c))) for b in onto)) for c in scan
            ]
        first: dict = {}
        assert roots == [first.setdefault(key, i) for i, key in enumerate(keys)]
    assert count == orbits


def _burnside(g) -> int:
    """The number of orbits of the automorphisms on the (proper subgroup,
    connection set) pairs: the mean over phi of the pairs phi fixes.  phi
    fixes 2^k connection sets, k its cycles on the inverse orbits."""
    orbits = inverse_orbits(g)
    place = {x: i for i, orbit in enumerate(orbits) for x in orbit}
    subgroups = [frozenset(s.members) for s in enumerate_subgroups(g) if s.is_proper]
    fixed = 0
    for phi in g.automorphisms:
        moved = [place[phi[orbit[0]]] for orbit in orbits]
        cycles, seen = 0, set()
        for i in range(len(orbits)):
            if i not in seen:
                cycles += 1
                while i not in seen:
                    seen.add(i)
                    i = moved[i]
        held = sum(frozenset(phi[x] for x in h) == h for h in subgroups)
        fixed += held << cycles
    return fixed // len(g.automorphisms)


@pytest.mark.parametrize("spec, orbits", [("D7", 312), ("D8", 3996)])
def test_the_tables_split_every_pair_into_burnsides_count_of_orbits(spec, orbits):
    # every connection set on the first subgroup of each work item: one
    # class per orbit of the automorphisms on all (H, C) pairs.  E2^4 (656
    # orbits) takes over a second here, most of it in the maps.
    g = make_group(spec)
    every = range(connection_set_count(g))
    identity = tuple(range(g.order))
    count = sum(
        len(set(relcay.audit._class_roots(item[:1], [every], [identity])[0]))
        for item, _, _ in _work_items(g)
    )
    assert count == orbits == _burnside(g)


def _expanded(g, mask: int) -> tuple[int, ...]:
    """The members of the union of the inverse orbits that a mask's set
    bits name (bit i = orbit i), found without the audit's tables."""
    orbits = inverse_orbits(g)
    return tuple(sorted(x for i, orbit in enumerate(orbits) if mask >> i & 1 for x in orbit))


@pytest.mark.parametrize(
    "spec, digest",
    [
        ("D7", "edd79f8c3399a78a41917f382264870a30b912dc50e5e6c66bb532c7bdcc2781"),
        ("S4", "69128402bdfe9fd921791ab22a458f02c0d8084e7d77ec07db081b55afaac77f"),
        ("E2^4", "560287a48ed5beda1bf69e14064d75b004162a653c1af657fdfd71a2d2cf6020"),
    ],
)
def test_the_sample_of_each_subgroup_keeps_its_connection_sets(spec, digest):
    # the sha256 of the repr of the list of (H members, C members) pairs
    # the default limits scan, in scan order, taken when the sampler still
    # built every connection set; S4's sample is in no report digest
    g = make_group(spec)
    limits = Limits()
    pairs = [
        (h.members, _expanded(g, mask))
        for h in enumerate_subgroups(g)
        if h.is_proper
        for mask in relcay.audit._connection_sets_for(g, h.members, limits)
    ]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", ["C2xC2xC2", "D4"])
def test_an_exhaustive_scan_lists_every_connection_set_in_order(spec):
    g = make_group(spec)
    every = [c.members for c in enumerate_connection_sets(g)]
    for h in enumerate_subgroups(g):
        if h.is_proper:
            masks = relcay.audit._connection_sets_for(g, h.members, Limits())
            assert [_expanded(g, mask) for mask in masks] == every


def test_a_connection_set_is_built_once_per_mask_in_use(monkeypatch, fresh_evaluations):
    # a scanned connection set stays a mask until an instance on it is
    # evaluated (by the scan or a shrink), recorded or kept, and is then
    # built once for every subgroup and shrink; before, D7's audit built
    # 4,611 connection sets and C2xC2xC2's 134
    built = Counter()
    used = set()
    build = ConnectionSet.__init__

    def counted(self, group, members=()):
        build(self, group, members)
        built[group.spec, self.mask] += 1

    class Evaluated(InstanceContext):
        def __init__(self, group, h, c, limits):
            super().__init__(group, h, c, limits)
            used.add((group.spec, c.mask))

    monkeypatch.setattr(ConnectionSet, "__init__", counted)
    monkeypatch.setattr(relcay.audit, "InstanceContext", Evaluated)
    for spec in ("D7", "C2xC2xC2"):
        report = run_audit((spec,))
        for entry in report.mismatches:
            for record in (entry.original, entry.shrunk):
                used.add((spec, sum(1 << x for x in record.c_indices)))
    assert set(built.values()) == {1}
    assert set(built) <= used
    per_group = Counter(spec for spec, _ in built)
    assert per_group["D7"] <= 847 and per_group["C2xC2xC2"] <= 128


def test_an_audit_leaves_no_connection_set_behind(monkeypatch):
    # the connection sets a run builds are shared by its work items and
    # dropped when it returns or raises, with any built before it; before,
    # D7's 847 stayed in the process-wide cache
    cached = relcay.audit._connection_set
    for spec, parallelism in (("D7", 1), ("C6", 2)):
        cached(make_group("C6"), 1)
        run_audit((spec,), parallelism=parallelism)
        assert cached.cache_info().currsize == 0

    def fails(ctx, check):
        raise ValueError("not a RelCayError, so the scan stops")

    monkeypatch.setattr(relcay.audit, "evaluate", fails)
    with pytest.raises(ValueError):
        run_audit(("C6",))
    assert cached.cache_info().currsize == 0


def test_the_shrinks_of_a_work_item_share_their_greedy_passes(monkeypatch):
    # a pass that reaches a state an earlier shrink of its work item went
    # through ends where that one did, without a look-up; before, D7's
    # shrinks made 11,552 look-ups
    lookups = Counter()
    look_up = relcay.audit._Known.__call__

    def counted(known, h_members, c_mask, check):
        lookups[check] += 1
        return look_up(known, h_members, c_mask, check)

    monkeypatch.setattr(relcay.audit._Known, "__call__", counted)
    report = run_audit(("D7",))
    assert len(report.mismatches) == 2063
    assert sum(lookups.values()) <= 4532


@pytest.mark.parametrize(
    "catalog, copied",
    [
        # before classes crossed subgroups, 2,715 and 2,968; D7's classes
        # were 4,041 copies before they were orbits of the sample
        (catalog_up_to(10), 3467),
        (("D7",), 4301),
    ],
)
def test_outcomes_are_shared_across_each_orbit_of_subgroups(catalog, copied):
    report = run_audit(catalog, shrink=False)
    assert report.copied_instances == copied
    assert not report.errors


@pytest.mark.parametrize(
    "catalog, evaluated", [(catalog_up_to(10), 645), (("D7",), 307)], ids=["wide", "D7"]
)
def test_a_context_is_built_once_per_instance_evaluated_in_full(monkeypatch, catalog, evaluated):
    # a copy that evaluates nothing builds no InstanceContext, and with no
    # records kept it moves only the mismatches it records
    built, moved = Counter(), Counter()

    class CountedContext(InstanceContext):
        def __init__(self, group, h, c, limits):
            super().__init__(group, h, c, limits)
            built[group.spec, h.members, c.members] += 1

    def counted(move):
        def counted_move(outcome, phi, group):
            moved[outcome[2]] += 1
            return move(outcome, phi, group)

        return counted_move

    monkeypatch.setattr(relcay.audit, "InstanceContext", CountedContext)
    for check, rule in list(relcay.audit._CARRY.items()):
        counted_rule = {verdict: move and counted(move) for verdict, move in rule.items()}
        monkeypatch.setitem(relcay.audit._CARRY, check, counted_rule)
    report = run_audit(catalog, shrink=False)
    instances = sum(entry["instances"] for entry in report.catalog)
    assert set(built.values()) == {1}
    assert len(built) == instances - report.copied_instances == evaluated
    assert set(moved) == {MISMATCH}


@pytest.mark.parametrize(
    "catalog, limits",
    [
        (catalog_up_to(8), Limits()),
        (("D7",), Limits()),
        # chromatic_equality is unevaluated wherever condition (ii) decides
        # it, so 73 copies evaluate it themselves and count their own verdicts
        (("D4", "Q8"), Limits(chromatic_ii_cap=1)),
    ],
    ids=["up-to-8", "D7", "copies-evaluate"],
)
def test_totals_are_the_verdicts_of_the_kept_rows(catalog, limits):
    # each distinct row of verdicts is tallied once per subgroup, times its count
    report = run_audit(catalog, limits=limits, keep_records=True, shrink=False)
    assert report.copied_instances > 0
    counted = Counter()
    for _, _, _, checks, rows in report.records.blocks:
        for _, _, outcomes in rows:
            counted.update(zip(checks, (outcome[2] for outcome in outcomes)))
    assert report.totals == {
        check: {verdict: counted[check, verdict] for verdict in VERDICTS}
        for check in report.config["checks"]
    }


def _totals_by_subgroup(report) -> Counter:
    return Counter((r.h, r.check, r.verdict) for r in report.records)


@pytest.mark.parametrize("check, place", [("edge_count", 0), ("degree_formula", -1)])
def test_a_faulty_subgroup_inside_an_orbit_is_reported_alone(
    monkeypatch, fresh_evaluations, check, place
):
    """One check raises on every instance of one order-2 subgroup of
    C2xC2xC2, where it is evaluated and where its outcome is moved there
    through an automorphism: the first subgroup of the orbit, where the
    classes are rooted, for a check whose outcomes are copied as they are,
    or the last, where most outcomes of a moving check arrive from
    classes rooted on the other subgroups.  A copy builds no context, so a
    mover sees its instance's subgroup only through the class map onto the
    pair, which is marked for the faulty subgroup's pairs."""
    g = make_group("C2xC2xC2")
    order_two = [s for s in enumerate_subgroups(g) if len(s) == 2]
    assert len(order_two) == 7
    faulty = order_two[place]
    clean = run_audit(("C2xC2xC2",), keep_records=True, shrink=False)
    real = relcay.audit._CHECK_FNS[check]
    rule = relcay.audit._CARRY[check]

    def fault(ctx):
        if ctx.h.members == faulty.members:
            raise InternalConsistencyError("injected")

    def flaky(ctx):
        fault(ctx)
        return real(ctx)

    class Marked(relcay.audit._Map):
        """A class map onto a pair of the faulty subgroup."""

    class_roots = relcay.audit._class_roots

    def marking(subgroups, scans, carriers):
        roots, maps, class_of = class_roots(subgroups, scans, carriers)
        start = 0
        for h, scan in zip(subgroups, scans):
            end = start + len(scan)
            if h.members == faulty.members:
                maps[start:end] = map(Marked, maps[start:end])
            start = end
        return roots, maps, class_of

    def failing(move):
        def flaky_move(outcome, phi, group):
            if isinstance(phi, Marked):
                raise InternalConsistencyError("injected")
            return move(outcome, phi, group)

        return flaky_move

    monkeypatch.setitem(relcay.audit._CHECK_FNS, check, flaky)
    if any(rule.values()):
        monkeypatch.setattr(relcay.audit, "_class_roots", marking)
        flaky_rule = {verdict: move and failing(move) for verdict, move in rule.items()}
        monkeypatch.setitem(relcay.audit._CARRY, check, flaky_rule)
    reports = [
        run_audit(("C2xC2xC2",), keep_records=True, shrink=False, parallelism=p)
        for p in (1, 2)
    ]
    assert reports[0].to_json() == reports[1].to_json()
    report = reports[0]
    scanned = relcay.audit._connection_sets_for(g, faulty.members, Limits())
    assert [(e["h"], e["c"], e["check"]) for e in report.errors] == [
        (list(faulty.names()), list(relcay.audit._connection_set(g, c).names()), check)
        for c in scanned
    ]
    others = {k: v for k, v in _totals_by_subgroup(clean).items() if k[0] != faulty.names()}
    assert _totals_by_subgroup(report) == others
    assert report.copied_instances < clean.copied_instances


# --------------------------------------------------------------------------
# The report writer against the plain encoder


def _reference_json(report: AuditReport) -> str:
    """The report as ``json.dumps`` writes it from a payload of plain dicts,
    one per record: the definition ``AuditReport.to_json`` must match."""

    def record(r):
        return {
            "group": r.group,
            "h": list(r.h),
            "c": list(r.c),
            "check": r.check,
            "predicted": jsonable(r.predicted),
            "observed": jsonable(r.observed),
            "verdict": r.verdict,
            "witness": jsonable(r.witness),
        }

    payload = {
        "config": report.config,
        "catalog": list(report.catalog),
        "totals": report.totals,
        "mismatches": [
            {"original": record(e.original), "shrunk": record(e.shrunk)}
            for e in report.mismatches
        ],
    }
    if report.records is not None:
        payload["records"] = [record(r) for r in report.records]
    if report.errors:
        payload["errors"] = list(report.errors)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _Opaque:
    """A value ``jsonable`` knows nothing about, so it writes its repr."""

    def __repr__(self):
        return '<opaque "q" \\ \u00e9>'


class _Label(str):
    """A str subclass, which ``json`` writes as its text whatever its repr."""

    def __repr__(self):
        return "_Label()"


class _LookAlike:
    """An unknown value whose repr is that of the string 'x', so a tuple
    holding it has the repr of a tuple holding 'x'; ``jsonable`` writes it
    as the string "'x'"."""

    def __repr__(self):
        return "'x'"


# Values that compare equal but encode differently, and the strings and
# containers the encoder treats specially.  Drawing from a fixed pool makes
# records repeat values, so the writer's memo is hit across them.
_EDGE_SCALARS = [
    True, 1, 1.0, False, 0, 0.0, -0.0,
    float("nan"), float("inf"), float("-inf"),
    "", '"', "\\", "\u00e9", "\u2603 \U0001f600", "\n\t\x00",
]
_EDGE_VALUES = _EDGE_SCALARS + [
    [], {}, (), [True], [1], [1.0], [0.0], [-0.0], (True,), (1,), (-0.0,),
    {"k": True}, {"k": 1},
    {1: "int key", 2: [None]}, {"w": {"vertex": "a\"2", "formula": 3}},
    {True, 1.5, "x"}, frozenset({(), "\u00e9"}), [float("nan")], _Opaque(),
    ("x",), (_LookAlike(),), _Label("x"), (_Label("x"), "y"),
]
_scalars = st.one_of(
    st.sampled_from(_EDGE_SCALARS),
    st.none(),
    st.integers(),
    st.floats(),
    st.text(),
    st.just(_Opaque()),
)
_hashables = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner, max_size=3),
        st.sets(_hashables, max_size=3),
        st.frozensets(_hashables, max_size=3),
    ),
    max_leaves=8,
) | st.sampled_from(_EDGE_VALUES)
_names = st.sampled_from([(), ("1",), ("1", "a2"), ('a"', "\\b", "\u00e9")]) | st.lists(
    st.text(max_size=3), max_size=3
).map(tuple)
_records = st.builds(
    AuditRecord,
    group=st.sampled_from(["C4", "S3"]) | st.text(max_size=3),
    h=_names,
    c=_names,
    check=st.sampled_from(ALL_CHECKS) | st.text(max_size=3),
    predicted=_values,
    observed=_values,
    verdict=st.sampled_from(VERDICTS),
    witness=st.none() | _values,
)


def _table(records) -> RecordTable:
    """The records as a table of one-row, one-check blocks."""
    return RecordTable(
        relcay.audit._RecordBlock(
            r.group, r.h, r.h_indices, (r.check,),
            ((r.c_indices, r.c, ((r.predicted, r.observed, r.verdict, r.witness),)),),
        )
        for r in records
    )


_outcomes = st.tuples(_values, _values, st.sampled_from(VERDICTS), st.none() | _values)
# outcomes that compare equal but print differently, each its own object
_TWINS = (
    (True, True, AGREE, None), (1, 1, AGREE, None), (1.0, True, AGREE, None),
    (0.0, (0.0,), MISMATCH, {"k": 0.0}), (-0.0, (-0.0,), MISMATCH, {"k": -0.0}),
    ((True,), ("x",), AGREE, None), ((1,), (_LookAlike(),), AGREE, None),
)


@st.composite
def _blocks(draw, outcome=_outcomes):
    """A block of several rows and checks, as a work item keeps them."""
    checks = sorted(draw(st.sets(st.sampled_from(ALL_CHECKS) | st.text(max_size=3), max_size=3)))
    row = st.tuples(st.just(()), _names, st.tuples(*[outcome] * len(checks)))
    return relcay.audit._RecordBlock(
        draw(st.sampled_from(["C4", "S3"]) | st.text(max_size=3)),
        draw(_names),
        (),
        tuple(checks),
        tuple(draw(st.lists(row, max_size=3))),
    )


@st.composite
def _shared_tables(draw):
    """Blocks whose rows take their outcomes from one pool of objects, as
    outcomes carried through automorphisms are shared across rows and
    subgroups; the pool may hold twins."""
    pool = draw(st.lists(_outcomes, min_size=1, max_size=3))
    pool += draw(st.lists(st.sampled_from(_TWINS), max_size=3))
    return RecordTable(draw(st.lists(_blocks(st.sampled_from(pool)), max_size=3)))


@st.composite
def _shared_mismatches(draw):
    """Mismatch entries whose records come from one pool of objects, as
    many mismatches shrink to one record."""
    pool = st.sampled_from(draw(st.lists(_records, min_size=1, max_size=3)))
    return draw(st.lists(st.builds(MismatchEntry, pool, pool), max_size=4))


def _report(records, mismatches=(), errors=()) -> AuditReport:
    return AuditReport(
        config={"catalog": ["C4"], "checks": ["edge_count"], "shrink": True},
        catalog=({"spec": "C4", "order": 4, "sampled": False},),
        totals={"edge_count": dict.fromkeys(VERDICTS, 0)},
        mismatches=tuple(mismatches),
        records=records,
        wall_time_seconds=1.5,
        errors=tuple(errors),
    )


_reports = st.builds(
    _report,
    records=st.none()
    | st.lists(_records, max_size=6).map(_table)
    | st.lists(_blocks(), max_size=3).map(RecordTable)
    | _shared_tables(),
    mismatches=st.lists(st.builds(MismatchEntry, _records, _records), max_size=2)
    | _shared_mismatches(),
    errors=st.lists(
        st.fixed_dictionaries({"group": st.text(max_size=3), "error": st.text()}),
        max_size=2,
    ),
)
_ONE = AuditRecord("C4", ("1",), ("a", "a3"), "tree", True, 1, MISMATCH, {"k": -0.0})
# every edge value in one report, so equal-but-different values meet
_EVERY_EDGE = tuple(
    AuditRecord("C4", ("1",), ("a", "a3"), "tree", v, v, AGREE, v) for v in _EDGE_VALUES
)
# every twin on every row of two blocks, and one shrunk record shared
_TWIN_BLOCKS = RecordTable(
    relcay.audit._RecordBlock(
        group, ("1",), (), tuple(map(str, range(len(_TWINS)))), (((), ("a",), _TWINS),) * 2
    )
    for group in ("C4", "S3")
)
_SHARED_ENTRIES = [MismatchEntry(r, _ONE) for r in (_ONE, *_EVERY_EDGE)]


@settings(max_examples=100, deadline=None)
@given(_reports)
@example(_report(None))
@example(_report(_table(()), errors=[{"group": "C4", "error": "E: \u00e9"}]))
@example(_report(_table((_ONE,) * 2), [MismatchEntry(_ONE, _ONE)]))
@example(_report(_table(_EVERY_EDGE), [MismatchEntry(r, r) for r in _EVERY_EDGE]))
@example(_report(_TWIN_BLOCKS, _SHARED_ENTRIES))
def test_to_json_writes_the_bytes_of_the_plain_encoder(report):
    assert report.to_json() == _reference_json(report)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(), max_size=4).map(tuple), st.sampled_from([3, 4]))
@example((), 3)
@example(('a"', "\\b", "\n\t\x00", "\u00e9", "\U0001f600", "\ud800", ""), 4)
def test_a_name_tuple_is_written_as_the_plain_encoder_writes_it(names, depth):
    # the writer formats a tuple of exact strings itself
    written = relcay.audit._RecordWriter(depth)._value(names)
    assert written == relcay.audit._indented(jsonable(names), depth)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(), max_size=5).map(tuple), st.sampled_from([3, 4]))
@example((), 3)
@example((), 4)
@example((-1, 0, -(2**70), 2**100, 7), 3)
@example((-(10**40), 10**40), 4)
def test_an_int_tuple_is_written_as_the_plain_encoder_writes_it(values, depth):
    # the writer formats a tuple of exact ints itself, as degree sequences are
    written = relcay.audit._RecordWriter(depth)._value(values)
    assert written == json.dumps(list(values), indent=2).replace("\n", "\n" + "  " * depth)


@pytest.mark.parametrize("value", [(True, 1), (1, False), (True,)])
def test_a_tuple_holding_a_bool_is_left_to_the_encoder(value):
    writer = relcay.audit._RecordWriter(3)
    left = []
    render = writer._values.of
    writer._values.of = lambda v: left.append(v) or render(v)
    assert writer._value(value) == relcay.audit._indented(jsonable(value), 3)
    assert left == [value]


def test_to_json_keeps_one_copy_of_the_report():
    # the pieces are shared and joined once: no second copy of the text,
    # and no per-record or per-block strings beside it
    report = run_audit(catalog_up_to(8), keep_records=True)
    assert len(report.records) == 104_992
    tracemalloc.start()
    try:
        text = report.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * len(text), peak / len(text)


def test_to_json_of_a_real_audit_is_the_plain_encoding(c4_report):
    assert c4_report.mismatches and c4_report.records
    assert c4_report.to_json() == _reference_json(c4_report)
    # a pooled report of a subset of the checks, given out of name order
    pooled = run_audit(["C4", "S3"], OUT_OF_ORDER, keep_records=True, parallelism=2)
    assert pooled.records and pooled.config["checks"] == OUT_OF_ORDER
    assert pooled.to_json() == _reference_json(pooled)


def _reference_csv(report: AuditReport) -> str:
    """``to_csv`` with every value formatted on its own, no memo."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["instance_group", "instance_H", "instance_C", "check", "predicted", "observed", "verdict"]
    )
    for r in report.records:
        writer.writerow(
            [
                r.group, ",".join(r.h), ",".join(r.c), r.check,
                compact_json(r.predicted), compact_json(r.observed), r.verdict,
            ]
        )
    return out.getvalue()


def test_to_csv_of_a_real_audit_formats_each_value_on_its_own():
    report = run_audit(["C4", "S3"], keep_records=True)
    kinds = {type(v) for r in report.records for v in (r.predicted, r.observed)}
    assert {bool, int, float, dict} <= kinds
    assert report.to_csv() == _reference_csv(report)


@settings(max_examples=100, deadline=None)
@given(st.lists(_records, max_size=6).map(tuple))
@example(_EVERY_EDGE)
def test_to_csv_memo_keeps_equal_but_different_values_apart(records):
    report = _report(_table(records))
    assert report.to_csv() == _reference_csv(report)


@settings(max_examples=200, deadline=None)
@given(_values, _values)
@example([True], [1])
@example((0.0,), (-0.0,))
@example({"k": True}, {"k": 1})
@example({1: "x"}, {"1": "x"})
@example(frozenset({(True,)}), frozenset({(1,)}))
@example(("x",), (_LookAlike(),))
@example([_Opaque()], [_Opaque()])
def test_memo_key_is_shared_only_by_values_that_print_alike(first, second):
    # a value with no key (None) is printed each time, never memoised
    key = relcay.audit._memo_key(first)
    if key is not None and key == relcay.audit._memo_key(second):
        assert compact_json(first) == compact_json(second)


def test_values_that_jsonable_prints_by_repr_have_no_memo_key():
    assert relcay.audit._memo_key(("x",)) is not None
    # a subclass of str may print otherwise than its repr says
    label = type("Label", (str,), {})("x")
    for value in (_LookAlike(), (_LookAlike(),), {"k": [_Opaque()]}, (label,), label):
        assert relcay.audit._memo_key(value) is None
