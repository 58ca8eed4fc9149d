"""Prediction-layer tests: frozen example values plus oracle cross-checks.

The frozen values were computed by hand (coset counts, product sets) before
being asserted here; the sweeps then confirm each characterization against
the brute-force oracles over every instance of several small groups.
"""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from relcay.audit import MISMATCH, Limits, _connection_sets_for, catalog_up_to, evaluate_check
from relcay.errors import (
    InternalConsistencyError,
    PreconditionError,
    UnknownCheckError,
)
from relcay.graphs import (
    ConnectionSet,
    RelCayGraph,
    build_relcay,
    enumerate_connection_sets,
    inverse_orbits,
)
from relcay.group_core import (
    Subgroup,
    enumerate_subgroups,
    generated_subgroup,
    make_group,
    product_set,
    psi,
)
from relcay.oracles import diameter_components, invariant_report, structure_flags
from relcay.theorems import (
    FORBIDDEN_KINDS,
    InstanceSets,
    build_class_one_coloring,
    cayley_adjacency,
    predict_all,
    predict_alpha_beta,
    predict_chromatic,
    predict_clique,
    predict_connectivity,
    predict_forbidden,
    predict_valencies,
    _induced_coloring,
    _verify_coloring,
)


def parts(spec, h_names, c_names):
    g = make_group(spec)
    h = generated_subgroup(g.element_set(g.element(n) for n in h_names))
    c = ConnectionSet(g, (g.element(n) for n in c_names))
    return g, h, c


def d5_corona_parts():
    return parts("D5", ["a"], ["a", "a4", "b"])


def all_instances(spec):
    g = make_group(spec)
    for h in enumerate_subgroups(g):
        if not h.is_proper:
            continue
        for c in enumerate_connection_sets(g):
            yield g, h, c


SWEEP_SPECS = ("C6", "S3", "D4", "E2^3")


# --------------------------------------------------------------------------
# Valencies


def test_cycle_instance_predicted_regular():
    g, h, c = parts("C4", ["a2"], ["a", "a3"])
    v = predict_valencies(g, h, c)
    assert v.regular_applicable
    assert v.predicted_regular
    assert not v.semi_regular_applicable


def test_corona_valency_fields():
    g, h, c = d5_corona_parts()
    v = predict_valencies(g, h, c)
    assert v.valency_bound == 2
    assert v.sqrt_bound == 4
    assert not v.predicted_regular
    assert v.semi_regular_applicable
    assert v.predicted_semi_regular
    assert len(v.full_degree_coset) == 0
    assert v.degree_formula == (3,) * 5 + (1,) * 5


def test_full_degree_coset_matches_actual_degrees():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            graph = build_relcay(g, h, c)
            predicted = set(predict_valencies(g, h, c).full_degree_coset.members)
            actual = {
                x
                for x in range(g.order)
                if x not in h and graph.degrees[x] == len(c)
            }
            assert {x for x in predicted if x not in h} == actual


def test_valency_bound_sweep():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            graph = build_relcay(g, h, c)
            v = predict_valencies(g, h, c)
            distinct = len(set(graph.degrees))
            assert distinct <= v.valency_bound <= v.sqrt_bound
            assert v.degree_formula == graph.degrees


def test_regular_iff_sweep():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            if not c:
                continue
            graph = build_relcay(g, h, c)
            v = predict_valencies(g, h, c)
            assert v.predicted_regular == structure_flags(graph).regular
            if v.predicted_regular:
                assert graph.adjacency == cayley_adjacency(g, c)


def test_semi_regular_iff_sweep():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            v = predict_valencies(g, h, c)
            if not v.semi_regular_applicable:
                continue
            graph = build_relcay(g, h, c)
            assert v.predicted_semi_regular == structure_flags(graph).semi_regular


# --------------------------------------------------------------------------
# Connectivity and diameter


def test_cycle_instance_connected_with_witnesses():
    g, h, c = parts("C4", ["a2"], ["a", "a3"])
    conn = predict_connectivity(g, h, c)
    assert conn.predicted_connected
    assert conn.hc_star_covers
    assert g.element("a") in conn.product_witnesses
    assert conn.disjoint_applicable and conn.disjoint_predicted


def test_subgroup_only_connection_set_disconnected():
    g, h, c = parts("C4", ["a2"], ["a2"])
    conn = predict_connectivity(g, h, c)
    assert not conn.hc_star_covers
    assert not conn.predicted_connected


def test_coverage_conjunct_is_not_implied_by_the_product_condition():
    # the subgroup-product condition alone holds here, yet two of the eight
    # vertices are out of reach of H entirely
    g, h, c = parts("E2^3", ["001"], ["100", "101"])
    conn = predict_connectivity(g, h, c)
    assert conn.product_witnesses
    assert not conn.hc_star_covers
    assert not conn.predicted_connected
    assert not structure_flags(build_relcay(g, h, c)).connected


def test_corona_diameter_bounds():
    g, h, c = d5_corona_parts()
    conn = predict_connectivity(g, h, c)
    assert conn.predicted_connected
    by_name = {b.name: b for b in conn.diameter_bounds}
    assert set(by_name) == {
        "width",
        "half_sum",
        "three_halves",
        "disjoint",
        "small_square",
    }
    assert by_name["width"].value == 4 and by_name["width"].applicable
    assert by_name["half_sum"].value == 5.5
    assert by_name["three_halves"].value == 9.5
    assert not by_name["disjoint"].applicable
    assert by_name["small_square"].value == 4.5
    assert by_name["small_square"].applicable
    report = invariant_report(build_relcay(g, h, c))
    assert report.diameter == 4


def test_connectivity_iff_sweep():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            conn = predict_connectivity(g, h, c)
            flags = structure_flags(build_relcay(g, h, c))
            assert conn.predicted_connected == flags.connected


def test_diameter_bounds_hold_when_connected():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            graph = build_relcay(g, h, c)
            flags = structure_flags(graph)
            if not flags.connected:
                continue
            diameter = invariant_report(graph).diameter
            for bound in predict_connectivity(g, h, c).diameter_bounds:
                if bound.applicable:
                    assert diameter <= bound.value


def test_disjoint_corollary_sweep():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            conn = predict_connectivity(g, h, c)
            if not conn.disjoint_applicable:
                continue
            flags = structure_flags(build_relcay(g, h, c))
            assert conn.disjoint_predicted == flags.connected


def test_aba_corollary_sweep():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            conn = predict_connectivity(g, h, c)
            if not conn.aba_applicable:
                continue
            flags = structure_flags(build_relcay(g, h, c))
            assert conn.aba_predicted == flags.connected


def test_is_aba_values():
    d4 = make_group("D4")
    klein = generated_subgroup(d4.element_set([d4.element("a2"), d4.element("b")]))
    ring = generated_subgroup(d4.element_set([d4.element("a")]))
    assert klein.is_aba
    assert not ring.is_aba
    s3 = make_group("S3")
    rotations = generated_subgroup(s3.element_set([s3.element("(123)")]))
    assert not rotations.is_aba
    c8 = make_group("C8")
    assert not generated_subgroup(c8.element_set([c8.element("a2")])).is_aba


def test_matching_only_instance_stays_disconnected():
    g, h, c = parts("S3", ["(123)"], ["(12)"])
    conn = predict_connectivity(g, h, c)
    assert conn.aba_applicable
    assert conn.hc_star_covers
    assert not conn.aba_predicted
    assert not conn.predicted_connected
    assert not structure_flags(build_relcay(g, h, c)).connected


# --------------------------------------------------------------------------
# Clique


def test_corona_clique_fields():
    g, h, c = d5_corona_parts()
    cl = predict_clique(g, h, c)
    assert cl.upper == 4
    assert not cl.upper_is_equality
    assert cl.lower_psi == 1
    assert cl.psi_plus
    assert not cl.c_cubed_applicable
    assert cl.c_cubed_case is None
    assert invariant_report(build_relcay(g, h, c)).clique_number == 2


def test_planted_subgroup_achieves_clique_equality():
    # K = {1, a2} planted inside the rotation subgroup, c = b
    g, h, c = parts("D4", ["a"], ["a2", "b", "a2b"])
    cl = predict_clique(g, h, c)
    assert cl.upper == 3
    assert cl.upper_is_equality
    assert cl.lower_psi == 2
    assert cl.psi_plus
    assert invariant_report(build_relcay(g, h, c)).clique_number == 3


def test_interior_connection_set_fails_triple_closure():
    g, h, c = parts("C6", ["a2"], ["a2", "a4"])
    cl = predict_clique(g, h, c)
    assert not cl.c_cubed_applicable
    assert cl.c_cubed_case is None


def test_cycle_instance_triple_closure_decomposition():
    g, h, c = parts("C4", ["a2"], ["a", "a3"])
    cl = predict_clique(g, h, c)
    assert cl.c_cubed_applicable
    assert cl.c_cubed_case is not None
    assert cl.c_cubed_case.c_elt == g.element("a")
    assert cl.c_cubed_case.d.names() == ("1", "a2")


def test_clique_bounds_sweep():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            cl = predict_clique(g, h, c)
            omega = invariant_report(build_relcay(g, h, c)).clique_number
            assert cl.lower_psi <= omega <= cl.upper
            assert cl.upper_is_equality == (omega == cl.upper)
            if cl.psi_plus:
                assert omega >= cl.lower_psi + 1
            if cl.c_cubed_applicable:
                assert omega <= cl.lower_psi + 1
                if c:
                    assert cl.c_cubed_case is not None


def test_predict_clique_reports_c_cubed_failures_without_raising():
    for spec in catalog_up_to(8):
        for g, h, c in all_instances(spec):
            cl = predict_clique(g, h, c)
            assert cl.c_cubed_failures == ()
            assert (cl.c_cubed_case is not None) == bool(c and cl.c_cubed_applicable)


# --------------------------------------------------------------------------
# Independence, matching, covers


def test_corona_alpha_beta_values():
    g, h, c = d5_corona_parts()
    ab = predict_alpha_beta(g, h, c)
    assert (ab.alpha, ab.alpha_prime, ab.beta, ab.beta_prime) == (5, 5, 5, 5)
    assert ab.hypothesis_ok
    report = invariant_report(build_relcay(g, h, c))
    assert report.independence_number == 5
    assert report.matching_number == 5
    assert report.vertex_cover_number == 5
    assert report.edge_cover_number == 5


def test_interior_connection_set_breaks_alpha():
    g, h, c = parts("C4", ["a2"], ["a2"])
    ab = predict_alpha_beta(g, h, c)
    assert not ab.hypothesis_ok
    assert ab.alpha == 2
    assert invariant_report(build_relcay(g, h, c)).independence_number == 3


def test_empty_connection_set_not_applicable():
    g = make_group("C6")
    h = generated_subgroup(g.element_set([g.element("a2")]))
    c = ConnectionSet(g, ())
    ab = predict_alpha_beta(g, h, c)
    assert not ab.hypothesis_ok
    assert invariant_report(build_relcay(g, h, c)).independence_number == g.order


def test_alpha_beta_sweep():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            ab = predict_alpha_beta(g, h, c)
            if not ab.hypothesis_ok:
                continue
            report = invariant_report(build_relcay(g, h, c))
            assert report.independence_number == ab.alpha
            assert report.matching_number == ab.alpha_prime
            assert report.vertex_cover_number == ab.beta
            if report.edge_cover_number is not None:
                assert report.edge_cover_number == ab.beta_prime


# --------------------------------------------------------------------------
# Class-one edge coloring


def test_cycle_coloring_alternates_two_colors():
    g, h, c = parts("C4", ["a2"], ["a", "a3"])
    coloring = build_class_one_coloring(build_relcay(g, h, c))
    assert g.names[coloring.special] == "a"
    named = {
        (g.names[u], g.names[v]): g.names[color]
        for u, v, color in coloring.assignments
    }
    assert named == {
        ("1", "a"): "1",
        ("1", "a3"): "a3",
        ("a", "a2"): "a3",
        ("a2", "a3"): "1",
    }


def test_corona_coloring_uses_three_colors():
    g, h, c = d5_corona_parts()
    coloring = build_class_one_coloring(build_relcay(g, h, c))
    assert g.names[coloring.special] == "b"
    assert tuple(g.names[x] for x in coloring.colors_used) == ("1", "a", "a4")


def test_single_edge_coloring():
    g, h, c = parts("C2", [], ["a"])
    coloring = build_class_one_coloring(build_relcay(g, h, c))
    assert coloring.colors_used == (g.identity,)


def test_coloring_requires_outside_element():
    g, h, c = parts("C4", ["a2"], ["a2"])
    with pytest.raises(PreconditionError):
        build_class_one_coloring(build_relcay(g, h, c))


def corrupted_colorings(coloring):
    """The coloring broken in each way its self-check must catch, each with
    the message the check must give."""
    graph = coloring.graph
    edges = list(coloring.assignments)
    first_u, first_v, first_color = edges[0]
    non_edge = next(
        (u, v) for u in range(graph.n) for v in range(u + 1, graph.n)
        if not graph.is_edge(u, v)
    )

    def colors_at(x, skip):
        return {color for k, (u, v, color) in enumerate(edges) if x in (u, v) and k != skip}

    # an edge (a, w) given the color of an earlier edge at w; preferably one
    # whose color a does not see, so the repeat shows only at w
    pairs = [
        (edges[i][2] not in colors_at(a, j), i, j)
        for j, (a, w, _) in enumerate(edges)
        for i in range(j)
        if w in edges[i][:2]
    ]
    _, i, j = max(pairs)
    repeated = list(edges)
    repeated[j] = (*edges[j][:2], edges[i][2])
    off_palette = next(x for x in graph.c.members if x not in coloring.palette)
    return [
        (replace(coloring, assignments=tuple(edges[1:])),
         "edge coloring misses or invents edges"),
        (replace(coloring, assignments=tuple(sorted(edges + [(*non_edge, first_color)]))),
         "edge coloring misses or invents edges"),
        (replace(coloring, assignments=((first_u, first_v, off_palette), *edges[1:])),
         "edge coloring leaves the palette"),
        (replace(coloring, assignments=tuple(repeated)),
         "edge coloring is not proper"),
        (replace(
            coloring,
            palette=tuple(range(len(edges))),
            assignments=tuple((u, v, k) for k, (u, v, _) in enumerate(edges)),
        ), "edge coloring uses too many colors"),
    ]


@pytest.mark.parametrize(
    "spec, h_names, c_names",
    [("D5", ["a"], ["a", "a4", "b"]), ("C4", ["a2"], ["a", "a2", "a3"])],
)
def test_coloring_self_check_catches_each_corruption(spec, h_names, c_names):
    coloring = build_class_one_coloring(build_relcay(*parts(spec, h_names, c_names)))
    _verify_coloring(coloring)  # the intact coloring passes
    for corrupted, message in corrupted_colorings(coloring):
        with pytest.raises(InternalConsistencyError) as caught:
            _verify_coloring(corrupted)
        assert str(caught.value) == message


@pytest.mark.parametrize("color_intact_first", [False, True])
def test_coloring_check_rejects_rows_on_h_off_the_cayley_graph(color_intact_first):
    # the coloring of Cay(H, H n C) comes from the table, whatever was
    # colored before, and the graph's own rows are what it is checked against
    g, h, c = d5_corona_parts()
    intact = build_relcay(g, h, c)
    rows = list(intact.adjacency)
    one, a = g.identity, g.element("a")
    rows[one] &= ~(1 << a)
    rows[a] &= ~(1 << one)
    broken = RelCayGraph(group=g, h=h, c=c, adjacency=tuple(rows))
    _induced_coloring.cache_clear()
    if color_intact_first:
        build_class_one_coloring(intact)
    with pytest.raises(InternalConsistencyError) as caught:
        build_class_one_coloring(broken)
    assert str(caught.value) == "edge coloring misses or invents edges"


def test_coloring_sweep_stays_within_max_degree():
    # the constructor verifies properness and edge coverage itself; this
    # sweep confirms it never needs more than max-degree many colors
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            if not c.difference(h):
                continue
            graph = build_relcay(g, h, c)
            coloring = build_class_one_coloring(graph)
            assert len(coloring.colors_used) <= len(c)
            assert set(coloring.colors_used) <= set(coloring.palette)


# --------------------------------------------------------------------------
# Chromatic number


def test_near_complete_instance_hits_equality_by_coset():
    g, h, c = parts("C4", ["a2"], ["a", "a2", "a3"])
    ch = predict_chromatic(g, h, c)
    assert ch.upper == 3
    assert ch.equality_applicable
    assert ch.equality_i
    assert ch.predicted_equality is True
    assert invariant_report(build_relcay(g, h, c)).chromatic_number == 3


def test_corona_stays_below_chromatic_upper():
    g, h, c = d5_corona_parts()
    ch = predict_chromatic(g, h, c)
    assert ch.upper == 4
    assert ch.equality_applicable
    assert not ch.equality_i
    assert ch.equality_ii is False
    assert invariant_report(build_relcay(g, h, c)).chromatic_number == 3


def test_doubled_reflections_hit_equality_by_partitions():
    g, h, c = parts("D5", ["a"], ["a", "a4", "b", "ab", "a4b"])
    ch = predict_chromatic(g, h, c)
    assert ch.upper == 4
    assert not ch.equality_i
    assert ch.equality_ii is True
    assert invariant_report(build_relcay(g, h, c)).chromatic_number == 4


def test_partition_enumeration_cap_reports_unevaluated():
    g = make_group("C26")
    h = generated_subgroup(g.element_set([g.element("a2")]))
    c = ConnectionSet(g, (g.element("a2"), g.element("a24")))
    ch = predict_chromatic(g, h, c)
    assert ch.equality_applicable
    assert not ch.equality_i
    assert ch.equality_ii is None
    assert ch.predicted_equality is None


def test_equality_characterization_needs_its_gate():
    # the induced subgraph here is a disconnected pair of edges; both printed
    # conditions fail even though the chromatic bound is attained
    g, h, c = parts("E2^3", ["100", "010"], ["100", "001", "101", "011", "111"])
    ch = predict_chromatic(g, h, c)
    assert not ch.equality_applicable
    assert not ch.equality_i
    assert ch.equality_ii is False
    assert invariant_report(build_relcay(g, h, c)).chromatic_number == ch.upper == 3


def test_chromatic_sweep():
    for spec in ("C6", "S3", "D4"):
        for g, h, c in all_instances(spec):
            ch = predict_chromatic(g, h, c)
            chi = invariant_report(build_relcay(g, h, c)).chromatic_number
            assert chi <= ch.upper
            if ch.equality_applicable and ch.predicted_equality is not None:
                assert ch.predicted_equality == (chi == ch.upper)


# --------------------------------------------------------------------------
# Forbidden substructures


def test_unknown_forbidden_kind_rejected():
    g, h, c = parts("C4", ["a2"], ["a", "a3"])
    with pytest.raises(UnknownCheckError):
        predict_forbidden(g, h, c, "pentagon_free")


def test_claw_free_condition_labels():
    cases = [
        (parts("C4", ["a2"], ["a", "a3"]), True, "small"),
        (parts("D4", ["a"], ["a2", "b", "a2b"]), True, "coset_pair"),
        (parts("C6", ["a2"], ["a2", "a4", "a3"]), True, "single_involution"),
        (parts("D4", ["a"], ["a", "a2", "a3"]), True, "interior_cube"),
        (parts("C12", ["a2"], ["a2", "a6", "a10"]), False, "none"),
        (parts("D5", ["a"], ["a", "a4", "b"]), False, "none"),
    ]
    for (g, h, c), expected, label in cases:
        fb = predict_forbidden(g, h, c, "claw_free")
        assert fb.predicted is expected
        assert fb.details == (("condition", label),)
        assert structure_flags(build_relcay(g, h, c)).claw_free is expected


def test_transposition_instance_is_a_tree():
    g, h, c = parts("S3", ["(12)"], ["(12)", "(13)", "(23)"])
    assert predict_forbidden(g, h, c, "forest").predicted
    assert predict_forbidden(g, h, c, "tree").predicted
    assert predict_forbidden(g, h, c, "triangle_free").predicted
    flags = structure_flags(build_relcay(g, h, c))
    assert flags.tree and flags.forest and flags.triangle_free


def test_trivial_subgroup_star_is_a_tree():
    g, h, c = parts("S3", [], ["(12)", "(13)", "(23)", "(123)", "(132)"])
    assert predict_forbidden(g, h, c, "tree").predicted
    assert structure_flags(build_relcay(g, h, c)).tree


def test_single_edge_plus_isolated_is_forest_not_tree():
    g, h, c = parts("S3", ["(12)"], ["(12)"])
    assert predict_forbidden(g, h, c, "forest").predicted
    assert not predict_forbidden(g, h, c, "tree").predicted


def test_square_condition_as_printed_disagrees_on_the_tree():
    g, h, c = parts("S3", ["(12)"], ["(12)", "(13)", "(23)"])
    fb = predict_forbidden(g, h, c, "square_free_as_printed")
    assert not fb.predicted
    detail = dict(fb.details)
    assert detail["induced_square_free"] is True
    assert detail["pair_product_condition"] is True
    assert detail["outside_degree_sum"] == 2
    assert detail["outside_degree_required"] == 3
    assert detail["degree_condition"] is False
    assert structure_flags(build_relcay(g, h, c)).square_subgraph_free


def test_square_condition_sums_the_one_degree_formula():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            sets = InstanceSets(g, h, c)
            assert predict_valencies(g, h, c, sets=sets).degree_formula is sets.degree_formula
            fb = predict_forbidden(g, h, c, "square_free_as_printed", sets=sets)
            # the printed sum of |Hm n C| over m in C minus H
            printed = sum(
                len({g.mul[x][m] for x in h.members} & set(c.members))
                for m in c.members
                if m not in h
            )
            assert dict(fb.details)["outside_degree_sum"] == printed


def test_bipartite_prediction_is_one_directional():
    g, h, c = parts("D4", ["a2", "b"], ["a", "a3", "b"])
    fb = predict_forbidden(g, h, c, "bipartite_sufficient")
    assert not fb.applicable
    graph = build_relcay(g, h, c)
    assert graph.edge_count == 10
    assert structure_flags(graph).bipartite


def test_forbidden_iff_sweep():
    for spec in SWEEP_SPECS:
        for g, h, c in all_instances(spec):
            flags = structure_flags(build_relcay(g, h, c))
            assert predict_forbidden(g, h, c, "claw_free").predicted == flags.claw_free
            assert predict_forbidden(g, h, c, "forest").predicted == flags.forest
            assert predict_forbidden(g, h, c, "tree").predicted == flags.tree
            assert (
                predict_forbidden(g, h, c, "triangle_free").predicted
                == flags.triangle_free
            )
            bp = predict_forbidden(g, h, c, "bipartite_sufficient")
            if bp.applicable:
                assert flags.bipartite


# --------------------------------------------------------------------------
# Composite


def test_predict_all_exposes_nested_fields():
    g, h, c = d5_corona_parts()
    bundle = predict_all(g, h, c)
    valency, conn = bundle.valency, bundle.connectivity
    clique, ab, chromatic = bundle.clique, bundle.alpha_beta, bundle.chromatic
    assert valency.valency_bound == 2
    assert valency.sqrt_bound == 4
    assert not valency.predicted_regular
    assert valency.predicted_semi_regular
    assert conn.predicted_connected
    assert conn.hc_star_covers
    assert clique.upper == 4
    assert not clique.upper_is_equality
    assert clique.lower_psi == 1
    assert clique.psi_plus
    assert clique.c_cubed_case is None
    assert ab.alpha == 5
    assert ab.beta_prime == 5
    assert ab.hypothesis_ok
    assert chromatic.upper == 4
    assert not chromatic.equality_i
    assert chromatic.equality_ii is False
    assert clique.lower_psi <= clique.upper
    assert valency.valency_bound <= valency.sqrt_bound
    assert set(bundle.forbidden_map()) == set(FORBIDDEN_KINDS)


# --------------------------------------------------------------------------
# Randomized cross-checks


@st.composite
def sampled_instance(draw):
    spec = draw(st.sampled_from(("C8", "C10", "C12", "D6", "Q8", "C2xC4")))
    g = make_group(spec)
    subgroups = [s for s in enumerate_subgroups(g) if s.is_proper]
    h = draw(st.sampled_from(subgroups))
    orbits = inverse_orbits(g)
    chosen = draw(st.lists(st.sampled_from(orbits), unique=True))
    c = ConnectionSet(g, (x for orbit in chosen for x in orbit))
    return g, h, c


@settings(max_examples=60, deadline=None)
@given(sampled_instance())
def test_random_instances_satisfy_characterizations(instance):
    g, h, c = instance
    graph = build_relcay(g, h, c)
    flags = structure_flags(graph)
    report = invariant_report(graph)

    v = predict_valencies(g, h, c)
    assert len(set(graph.degrees)) <= v.valency_bound <= v.sqrt_bound
    if v.regular_applicable:
        assert v.predicted_regular == flags.regular

    conn = predict_connectivity(g, h, c)
    assert conn.predicted_connected == flags.connected
    if flags.connected:
        for bound in conn.diameter_bounds:
            if bound.applicable:
                assert report.diameter <= bound.value

    cl = predict_clique(g, h, c)
    assert cl.lower_psi <= report.clique_number <= cl.upper
    assert cl.upper_is_equality == (report.clique_number == cl.upper)

    ab = predict_alpha_beta(g, h, c)
    if ab.hypothesis_ok:
        assert report.independence_number == ab.alpha
        assert report.matching_number == ab.alpha_prime
        assert report.vertex_cover_number == ab.beta

    ch = predict_chromatic(g, h, c)
    assert report.chromatic_number <= ch.upper
    if ch.equality_applicable and ch.predicted_equality is not None:
        assert ch.predicted_equality == (report.chromatic_number == ch.upper)

    assert predict_forbidden(g, h, c, "claw_free").predicted == flags.claw_free
    assert predict_forbidden(g, h, c, "forest").predicted == flags.forest
    assert predict_forbidden(g, h, c, "tree").predicted == flags.tree
    assert (
        predict_forbidden(g, h, c, "triangle_free").predicted == flags.triangle_free
    )


@settings(max_examples=60, deadline=None)
@given(sampled_instance())
def test_random_instances_color_within_max_degree(instance):
    g, h, c = instance
    if not c.difference(h):
        return
    graph = build_relcay(g, h, c)
    coloring = build_class_one_coloring(graph)
    assert len(coloring.colors_used) <= len(c)


def test_psi_agrees_with_definition_on_corona():
    g, h, c = d5_corona_parts()
    assert psi(h.intersection(c)) == 1


# --------------------------------------------------------------------------
# Connectivity through A = <H & C> and B = <H & (C - H)^2>


def permuting_factors(g, h, c):
    """A, B, and whether H*C (C with the identity) covers G."""
    outside = c.difference(h)
    a = generated_subgroup(h.intersection(c))
    b = generated_subgroup(h.intersection(product_set(outside, outside)))
    covers = product_set(h, c.with_identity()).mask == g.all_elements.mask
    return a, b, covers


def test_s4_half_sum_bound_fails_where_a_and_b_do_not_permute():
    # the shrunk witness of the S4 audit's blocking diam_half_sum mismatches
    g, h, c = parts(
        "S4", ["(34)", "(23)"], ["(24)", "(1243)", "(1342)", "(13)(24)", "(14)(23)"]
    )
    bound = next(
        b for b in predict_connectivity(g, h, c).diameter_bounds if b.name == "half_sum"
    )
    assert bound.value == 5.0
    graph = build_relcay(g, h, c)
    assert diameter_components(graph)[1] == 6
    assert brute.brute_diameter(graph.n, brute.edges_of(graph)) == 6
    record = evaluate_check("S4", h.members, c.members, "diam_half_sum", Limits())
    assert (record.predicted, record.observed, record.verdict) == (5.0, 6, MISMATCH)
    a, b, covers = permuting_factors(g, h, c)
    assert covers and generated_subgroup(a.union(b)) == h
    assert product_set(a, b) != product_set(b, a)


def audited_instances(spec):
    """The (G, H, C) the audit scans under the default limits: every
    instance of a small group, and S4's stratified sample of 512 connection
    sets per proper subgroup, 14,848 in all."""
    g = make_group(spec)
    limits = Limits()
    for h in enumerate_subgroups(g):
        if h.is_proper:
            for c in _connection_sets_for(g, h.members, limits):
                yield g, h, c


@pytest.mark.parametrize("spec", [*catalog_up_to(8), "S4"])
def test_connected_iff_hc_star_covers_and_a_b_generate_h(spec):
    for g, h, c in audited_instances(spec):
        a, b, covers = permuting_factors(g, h, c)
        characterised = covers and generated_subgroup(a.union(b)) == h
        components, _ = diameter_components(build_relcay(g, h, c))
        assert characterised == (len(components) == 1), (h.names(), c.names())
