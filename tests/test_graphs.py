"""Graph construction, degree bookkeeping, and DOT export tests."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from relcay.audit import catalog_up_to
from relcay.errors import (
    ConnectionSetError,
    GroupMismatchError,
    ImproperSubgroupError,
)
from relcay.graphs import (
    ConnectionSet,
    build_relcay,
    connection_set_count,
    enumerate_connection_sets,
    export_dot,
    inverse_orbits,
)
from relcay.group_core import (
    Subgroup,
    coset_partition,
    element_order,
    enumerate_subgroups,
    generated_subgroup,
    make_group,
)


def instance(spec, h_names, c_names):
    g = make_group(spec)
    h = generated_subgroup(g.element_set(g.element(n) for n in h_names))
    c = ConnectionSet(g, (g.element(n) for n in c_names))
    return build_relcay(g, h, c)


def d5_corona():
    return instance("D5", ["a"], ["a", "a4", "b"])


def c4_cycle():
    return instance("C4", ["a2"], ["a", "a3"])


# --------------------------------------------------------------------------
# Connection sets


def test_connection_set_accepts_inverse_pair():
    g = make_group("C4")
    c = ConnectionSet(g, [g.element("a"), g.element("a3")])
    assert c.members == (1, 3)


def test_connection_set_rejects_missing_inverse():
    g = make_group("C4")
    with pytest.raises(ConnectionSetError) as err:
        ConnectionSet(g, [g.element("a")])
    assert "a3" in str(err.value)


def test_connection_set_rejects_identity():
    g = make_group("C4")
    with pytest.raises(ConnectionSetError):
        ConnectionSet(g, [0, g.element("a2")])


def test_inverse_orbits_and_counts():
    c3 = make_group("C3")
    assert inverse_orbits(c3) == ((1, 2),)
    assert connection_set_count(c3) == 2
    c2 = make_group("C2")
    assert inverse_orbits(c2) == ((1,),)
    assert connection_set_count(c2) == 2
    c4 = make_group("C4")
    assert connection_set_count(c4) == 4


@pytest.mark.parametrize("spec", ["C2", "C3", "C4", "C6", "S3", "D4", "Q8"])
def test_enumerate_connection_sets_is_exact_and_unique(spec):
    g = make_group(spec)
    sets = list(enumerate_connection_sets(g))
    assert len(sets) == connection_set_count(g)
    assert len({s.members for s in sets}) == len(sets)
    assert sets[0].members == ()
    # cross-check against a direct filter of all subsets for tiny groups
    if g.order <= 6:
        expected = 0
        for r in range(g.order):
            for combo in itertools.combinations(range(1, g.order), r):
                if all(g.inv[x] in combo for x in combo):
                    expected += 1
        assert len(sets) == expected


# --------------------------------------------------------------------------
# Graph construction


def test_c4_instance_is_the_4_cycle():
    graph = c4_cycle()
    assert brute.edges_of(graph) == {
        frozenset((0, 1)),
        frozenset((1, 2)),
        frozenset((2, 3)),
        frozenset((0, 3)),
    }


def test_d5_instance_is_a_corona_5_cycle():
    graph = d5_corona()
    edges = brute.edges_of(graph)
    assert len(edges) == 10
    degs = graph.degrees
    assert sorted(degs) == [1] * 5 + [3] * 5
    # pendants attach to the 5-cycle on the rotation subgroup
    cycle_vertices = {v for v in range(10) if degs[v] == 3}
    assert cycle_vertices == set(graph.h.members)


def test_empty_connection_set_gives_edgeless_graph():
    graph = instance("S3", ["(12)"], [])
    assert all(row == 0 for row in graph.adjacency)
    assert graph.edge_count == 0


def test_build_rejects_full_subgroup():
    g = make_group("C4")
    h = Subgroup(g, range(4))
    with pytest.raises(ImproperSubgroupError):
        build_relcay(g, h, ConnectionSet(g, [1, 3]))


def test_build_rejects_mismatched_groups():
    g1, g2 = make_group("C4"), make_group("C2xC2")
    h = Subgroup(g1, [0, 2])
    with pytest.raises(GroupMismatchError):
        build_relcay(g2, h, ConnectionSet(g2, [1]))


def test_adjacency_matches_definition_pointwise():
    graph = instance("S3", ["(12)"], ["(12)", "(123)", "(132)"])
    g = graph.group
    in_h = set(graph.h.members)
    c = set(graph.c.members)
    for x in range(g.order):
        for y in range(g.order):
            expected = (
                x != y and (x in in_h or y in in_h) and g.mul[g.inv[x]][y] in c
            )
            assert graph.is_edge(x, y) == expected


def test_outside_vertices_form_an_independent_set():
    for graph in (d5_corona(), c4_cycle(), instance("D4", ["a2", "b"], ["a", "a3", "b"])):
        non_h = [x for x in range(graph.n) if not graph.h.mask >> x & 1]
        for x, y in itertools.combinations(non_h, 2):
            assert not graph.is_edge(x, y)


def _orbit_masks(n, perms):
    orbits = set()
    seen = 0
    for v in range(n):
        if seen >> v & 1:
            continue
        orbit, frontier = 1 << v, [v]
        for x in frontier:
            for p in perms:
                if not orbit >> p[x] & 1:
                    orbit |= 1 << p[x]
                    frontier.append(p[x])
        orbits.add(orbit)
        seen |= orbit
    return orbits


@pytest.mark.parametrize("spec", catalog_up_to(8))
def test_left_translations_are_by_a_generating_set_of_h(spec):
    g = make_group(spec)
    for h in enumerate_subgroups(g):
        if not h.is_proper:
            continue
        perms = build_relcay(g, h, ConnectionSet(g)).left_translations
        # each is x -> gx for the g in H it sends the identity to
        elements = [p[g.identity] for p in perms]
        assert all(x in h for x in elements)
        assert perms == tuple(g.mul[x] for x in elements)
        assert generated_subgroup(g.element_set(elements)) is h
        assert _orbit_masks(g.order, perms) == {s.mask for s in coset_partition(h, "right")}
        # a cyclic H lists one, and {e} none: the identity is never taken
        if any(element_order(g, x) == len(h) for x in h.members):
            assert len(perms) == min(1, len(h) - 1)


# --------------------------------------------------------------------------
# Degrees and edge count


def distinct_degrees(graph):
    return tuple(sorted(set(graph.degrees)))


def assert_degree_facts(graph):
    """Degrees are constant on each right coset Hx, equal |C| on H and
    |x^-1 H n C| at each x outside H."""
    g = graph.group
    degrees = graph.degrees
    for coset in coset_partition(graph.h, "right"):
        assert len({degrees[y] for y in coset.members}) == 1
    for x in range(g.order):
        if x in graph.h:
            assert degrees[x] == len(graph.c)
        else:
            left = g.inv[x]
            assert degrees[x] == sum(1 for y in graph.h.members if g.mul[left][y] in graph.c)


def test_degrees_d5():
    graph = d5_corona()
    assert graph.degrees[graph.group.identity] == 3
    assert distinct_degrees(graph) == (1, 3)
    assert max(graph.degrees) == 3
    assert_degree_facts(graph)


def test_degrees_c4_cycle_regular():
    assert distinct_degrees(c4_cycle()) == (2,)


def test_degrees_empty_connection_set():
    assert distinct_degrees(instance("C6", ["a2"], [])) == (0,)


def test_degrees_constant_on_h_cosets_but_not_always_left_cosets():
    # In S3 with H = <(12)> and C = {(13)}, the left coset of (13) mixes
    # degrees 1 and 0, while cosets Hx have constant degree.
    graph = instance("S3", ["(12)"], ["(13)"])
    g = graph.group
    x = g.element("(13)")
    left_partner = g.mul[x][g.element("(12)")]
    assert graph.degrees[x] != graph.degrees[left_partner]
    assert distinct_degrees(graph) == (0, 1)
    assert_degree_facts(graph)


def test_subgroup_vertices_have_degree_c():
    for graph in (d5_corona(), c4_cycle(), instance("Q8", ["-1"], ["i", "-i"])):
        for v in graph.h.members:
            assert graph.degrees[v] == len(graph.c)


def test_edge_count_formula_examples():
    assert d5_corona().edge_count == 10
    assert c4_cycle().edge_count == 4
    assert instance("C6", ["a3"], []).edge_count == 0


def test_valency_count_bound_holds_everywhere_small():
    # |D(Gamma)| <= min{[G:H], |H|+2} <= floor(sqrt(|G|+1)) + 1
    import math

    for spec in ["C6", "S3", "D4", "C2xC2"]:
        g = make_group(spec)
        from relcay.group_core import enumerate_subgroups

        for h in enumerate_subgroups(g):
            if not h.is_proper:
                continue
            for c in enumerate_connection_sets(g):
                graph = build_relcay(g, h, c)
                assert_degree_facts(graph)
                count = len(distinct_degrees(graph))
                assert count <= min(g.order // len(h), len(h) + 2)
                assert count <= math.isqrt(g.order + 1) + 1


# --------------------------------------------------------------------------
# Induced Cayley subgraph


def test_induced_subgraph_of_d5_is_a_5_cycle():
    induced = d5_corona().induced
    assert induced.n == 5
    assert induced.edge_count == 5
    assert all(row.bit_count() == 2 for row in induced.adjacency)


def test_induced_subgraph_empty_when_c_misses_h():
    induced = c4_cycle().induced
    assert induced.edge_count == 0


def test_induced_subgraph_triangle_in_c6():
    graph = instance("C6", ["a2"], ["a2", "a4"])
    induced = graph.induced
    assert induced.n == 3
    assert induced.edge_count == 3


def test_induced_edges_listed_in_parent_indices():
    induced = d5_corona().induced
    edges = induced.edges()
    assert len(edges) == 5
    assert all(u < v for u, v in edges)
    assert edges == tuple(sorted(edges))


# --------------------------------------------------------------------------
# DOT export


C4_CYCLE_DOT = """\
graph relcay {
  node [shape=circle];
  "1" [style=filled];
  "a";
  "a2" [style=filled];
  "a3";
  "1" -- "a";
  "1" -- "a3";
  "a" -- "a2";
  "a2" -- "a3";
}
"""


def node_lines(text):
    return [l for l in text.splitlines() if l.startswith('  "') and " -- " not in l]


def test_dot_export_exact_text_c4():
    assert export_dot(c4_cycle()) == C4_CYCLE_DOT


def test_dot_export_counts_c4():
    text = export_dot(c4_cycle())
    edge_lines = [l for l in text.splitlines() if " -- " in l]
    assert len(node_lines(text)) == 4
    assert len(edge_lines) == 4


def test_dot_export_counts_and_marks_d5():
    text = export_dot(d5_corona())
    edge_lines = [l for l in text.splitlines() if " -- " in l]
    nodes = node_lines(text)
    assert len(nodes) == 10
    assert len(edge_lines) == 10
    assert sum("[style=filled]" in l for l in nodes) == 5
    assert sum("[style=filled]" not in l for l in nodes) == 5


def test_dot_export_edgeless_graph_has_nodes_only():
    text = export_dot(instance("C4", ["a2"], []))
    assert sum(" -- " in l for l in text.splitlines()) == 0
    assert len(node_lines(text)) == 4


def test_dot_export_is_deterministic():
    graph = d5_corona()
    assert export_dot(graph) == export_dot(graph)


# --------------------------------------------------------------------------
# Properties


@st.composite
def random_instance(draw):
    spec = draw(st.sampled_from(["C6", "C8", "S3", "D4", "Q8", "C2xC4"]))
    g = make_group(spec)
    from relcay.group_core import enumerate_subgroups

    proper = [h for h in enumerate_subgroups(g) if h.is_proper]
    h = draw(st.sampled_from(proper))
    orbits = inverse_orbits(g)
    chosen = draw(st.sets(st.sampled_from(range(len(orbits))), max_size=len(orbits)))
    members = [x for i in chosen for x in orbits[i]]
    return build_relcay(g, h, ConnectionSet(g, members))


@settings(max_examples=80, deadline=None)
@given(random_instance())
def test_adjacency_symmetry_property(graph):
    for x in range(graph.n):
        for y in range(graph.n):
            assert graph.is_edge(x, y) == graph.is_edge(y, x)


@settings(max_examples=80, deadline=None)
@given(random_instance())
def test_edge_count_and_profile_self_checks_pass(graph):
    edges = brute.edges_of(graph)
    assert graph.edge_count == len(edges)
    inner = len(graph.h.intersection(graph.c))
    assert 2 * len(edges) == len(graph.h) * (2 * len(graph.c) - inner)
    assert graph.degrees == tuple(sum(1 for e in edges if x in e) for x in range(graph.n))
    assert_degree_facts(graph)
