"""Oracle cross-validation against the deliberately naive brutes.

The library oracles use branch-and-bound and bitset tricks; brute.py uses
subset scans and Floyd-Warshall.  Agreement over every small instance is
what lets the audit treat the oracle side as ground truth.
"""
from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

import brute
import relcay.oracles
from relcay.audit import catalog_up_to
from relcay.errors import CapacityError, InternalConsistencyError
from relcay.graphs import ConnectionSet, build_relcay, enumerate_connection_sets
from relcay.group_core import bit_indices, enumerate_subgroups, generated_subgroup, make_group
from relcay.oracles import (
    chromatic_number,
    diameter_components,
    edge_chromatic_number,
    invariant_report,
    max_clique,
    max_independent_set,
    max_matching,
    matching_edges,
    min_dominating_set,
    min_edge_cover,
    min_vertex_cover,
    structure_flags,
)


def instance(spec, h_names, c_names):
    g = make_group(spec)
    h = generated_subgroup(g.element_set(g.element(n) for n in h_names))
    c = ConnectionSet(g, (g.element(n) for n in c_names))
    return build_relcay(g, h, c)


def all_instances(spec):
    g = make_group(spec)
    for h in enumerate_subgroups(g):
        if not h.is_proper:
            continue
        for c in enumerate_connection_sets(g):
            yield build_relcay(g, h, c)


# --------------------------------------------------------------------------
# Frozen example values


def test_c4_cycle_invariants():
    report = invariant_report(instance("C4", ["a2"], ["a", "a3"]))
    assert report.clique_number == 2
    assert report.independence_number == 2
    assert report.matching_number == 2
    assert report.domination_number == 2
    assert report.vertex_cover_number == 2
    assert report.edge_cover_number == 2
    assert report.chromatic_number == 2
    assert report.edge_chromatic_number == 2
    assert report.diameter == 2
    assert report.component_count == 1


def test_d5_corona_invariants():
    report = invariant_report(instance("D5", ["a"], ["a", "a4", "b"]))
    assert report.clique_number == 2
    assert report.independence_number == 5
    assert report.matching_number == 5
    assert report.vertex_cover_number == 5
    assert report.domination_number == 5
    assert report.edge_cover_number == 5
    assert report.chromatic_number == 3
    assert report.edge_chromatic_number == 3
    assert report.diameter == 4


def test_edgeless_graph_invariants():
    report = invariant_report(instance("C6", ["a2"], []))
    assert report.independence_number == 6
    assert report.domination_number == 6
    assert report.matching_number == 0
    assert report.edge_cover_number is None
    assert report.chromatic_number == 1
    assert report.diameter is None
    assert report.component_count == 6


def test_invariant_report_searches_for_the_clique_number_once(monkeypatch):
    searches = []
    real = relcay.oracles._clique_search

    def counted(n, adj, start, search):
        searches.append(search)
        return real(n, adj, start, search)

    monkeypatch.setattr(relcay.oracles, "_clique_search", counted)
    report = invariant_report(instance("D5", ["a"], ["a", "a4", "b", "ab", "a4b"]))
    assert report.chromatic_number == 4
    assert sorted(searches) == ["max_clique", "max_independent_set"]


def test_induced_chromatic_numbers_of_the_two_d5_instances():
    fig1 = instance("D5", ["a"], ["a", "a4", "b"])
    fig2 = instance("D5", ["a"], ["a", "a4", "b", "ab", "a4b"])
    for graph in (fig1, fig2):
        induced = graph.induced
        assert chromatic_number(induced.n, induced.adjacency) == 3
    assert invariant_report(fig1).chromatic_number == 3
    assert invariant_report(fig2).chromatic_number == 4


def test_diameter_components_examples():
    comps, diam = diameter_components(instance("C4", ["a2"], ["a", "a3"]))
    assert len(comps) == 1 and diam == 2
    comps, diam = diameter_components(instance("C4", ["a2"], ["a2"]))
    assert diam is None
    assert comps == ((0, 2), (1,), (3,))
    comps, diam = diameter_components(instance("D5", ["a"], ["a", "a4", "b"]))
    assert len(comps) == 1 and diam == 4


def rows_graph(adj):
    """A graph given by its adjacency rows alone, with no neighbor lists."""
    return SimpleNamespace(n=len(adj), adjacency=tuple(adj))


def edge_set(adj):
    n = len(adj)
    return {frozenset((v, u)) for v in range(n) for u in range(v) if adj[v] >> u & 1}


def test_diameter_pinned_cases():
    assert diameter_components(rows_graph([0])) == (((0,),), 0)
    for n in range(2, 9):
        complete = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
        assert diameter_components(rows_graph(complete))[1] == 1
    path = [0b10, 0b101, 0b1010, 0b100]
    assert diameter_components(rows_graph(path))[1] == 3


def test_diameter_matches_brute_on_random_graphs():
    rng = random.Random(2013)
    disconnected = 0
    for _ in range(320):
        n = rng.randint(1, 12)
        adj = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5, rng.random()]))
        edges = edge_set(adj)
        comps, diam = diameter_components(rows_graph(adj))
        assert diam == brute.brute_diameter(n, edges)
        assert {frozenset(c) for c in comps} == set(brute.brute_components(n, edges))
        disconnected += diam is None
    assert 50 < disconnected < 270


def test_diameter_matches_networkx_up_to_the_order_cap():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2017)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 64)
        adj = random_graph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.5]))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(tuple(e) for e in edge_set(adj))
        if not nx.is_connected(graph):
            continue
        assert diameter_components(rows_graph(adj))[1] == nx.diameter(graph)
        checked += 1


def test_structure_flags_examples():
    flags = structure_flags(instance("C4", ["a2"], ["a", "a3"]))
    assert flags.connected and flags.bipartite and flags.regular
    assert not flags.forest and not flags.square_subgraph_free
    assert flags.triangle_free and flags.claw_free

    tree = structure_flags(instance("S3", ["(12)"], ["(12)", "(13)", "(23)"]))
    assert tree.tree and tree.forest and tree.connected

    corona = structure_flags(instance("D5", ["a"], ["a", "a4", "b"]))
    assert corona.connected and not corona.bipartite
    assert corona.triangle_free and corona.square_subgraph_free
    assert not corona.claw_free
    assert corona.semi_regular


def test_edge_color_cutoff_skips():
    graph = instance("D5", ["a"], ["a", "a4", "b", "ab", "a4b"])
    assert graph.edge_count == 20
    report = invariant_report(graph, edge_color_cutoff=10)
    assert report.edge_chromatic_number is None
    assert edge_chromatic_number(graph.n, graph.adjacency, cutoff=40) == 5


def test_capacity_guard(monkeypatch):
    graph = instance("C6", ["a2"], ["a", "a5"])
    monkeypatch.setenv("RELCAY_MAX_ORDER", "4")
    with pytest.raises(CapacityError):
        invariant_report(graph)


def assert_is_matching(adj, edges):
    used = [v for e in edges for v in e]
    assert len(used) == len(set(used))
    assert all(v < u and adj[v] >> u & 1 for v, u in edges)
    assert list(edges) == sorted(edges)


def random_graph(rng, n, p):
    adj = [0] * n
    for v in range(n):
        for u in range(v + 1, n):
            if rng.random() < p:
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return adj


def test_matching_edges_form_a_matching():
    graph = instance("D5", ["a"], ["a", "a4", "b"])
    edges = matching_edges(graph.n, graph.adjacency)
    assert len(edges) == 5
    assert_is_matching(graph.adjacency, edges)


def test_matching_augments_through_a_blossom():
    # Greedy pairs 0-1 and 2-5 and strands 3 and 4, which both see only 1
    # and 5.  Searching from either, 1 and 5 are inner, 0 and 2 outer, and
    # the edge 0-2 closes the odd cycle root-1=0-2=5-root.  Only contracting
    # that blossom makes 1 or 5 outer, and they are the way to the other
    # stranded vertex.
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]
    adj = [0] * 6
    for v, u in edges:
        adj[v] |= 1 << u
        adj[u] |= 1 << v
    matching = matching_edges(6, adj)
    assert_is_matching(adj, matching)
    assert len(matching) == 3


def test_matching_matches_brute_on_random_graphs():
    rng = random.Random(20151012)
    for _ in range(300):
        n = rng.randint(0, 10)
        adj = random_graph(rng, n, rng.random())
        edges = matching_edges(n, adj)
        assert_is_matching(adj, edges)
        brute_edges = {
            frozenset((v, u)) for v in range(n) for u in range(v) if adj[v] >> u & 1
        }
        assert len(edges) == brute.brute_max_matching(n, brute_edges)


def test_matching_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1965)
    for _ in range(150):
        n = rng.randint(1, 64)
        adj = random_graph(rng, n, rng.choice([0.03, 0.06, 0.1, 0.3, rng.random()]))
        edges = matching_edges(n, adj)
        assert_is_matching(adj, edges)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(
            (v, u) for v in range(n) for u in range(v + 1, n) if adj[v] >> u & 1
        )
        assert len(edges) == len(nx.max_weight_matching(graph, maxcardinality=True))


def test_edge_cover_self_check_rejects_a_short_matching(monkeypatch):
    # K2 with an empty "maximum" matching: the construction covers both
    # vertices with one edge, which is not n - |M| = 2
    monkeypatch.setattr(relcay.oracles, "matching_edges", lambda n, adj: ())
    with pytest.raises(InternalConsistencyError):
        min_edge_cover(2, [0b10, 0b01])


# --------------------------------------------------------------------------
# The color-bounded clique search


def test_clique_and_independence_match_brute_on_random_graphs():
    rng = random.Random(2003)
    for _ in range(300):
        n = rng.randint(0, 10)
        adj = random_graph(rng, n, rng.random())
        edges = brute_edges(n, adj)
        assert max_clique(n, adj) == brute.brute_max_clique(n, edges)
        assert max_independent_set(n, adj) == brute.brute_max_independent(n, edges)


def test_clique_matches_networkx_up_to_the_order_cap():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2011)
    for _ in range(100):
        n = rng.randint(1, 64)
        adj = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(
            (v, u) for v in range(n) for u in range(v + 1, n) if adj[v] >> u & 1
        )
        _, size = nx.max_weight_clique(graph, weight=None)
        assert max_clique(n, adj) == size


def test_color_classes_are_the_sequential_greedy_coloring():
    # the clique bound and chromatic_number's upper bound: each vertex of
    # the mask gets the least color none of its lower-index neighbors has
    rng = random.Random(1979)
    for _ in range(200):
        n = rng.randint(0, 24)
        adj = random_graph(rng, n, rng.random())
        cand = rng.getrandbits(n) if n else 0
        classes = relcay.oracles._color_classes(cand, adj)
        color = {v: k for k, cls in enumerate(classes, 1) for v in bit_indices(cls)}
        assert sorted(color) == bit_indices(cand)
        for v, k in color.items():
            lower = {color[u] for u in bit_indices(adj[v] & cand) if u < v}
            least = 1
            while least in lower:
                least += 1
            assert k == least


@pytest.mark.parametrize(
    "spec, h_names, c_names, alpha",
    [("C36", ["a2"], ["a", "a35"], 18), ("C64", ["a2"], ["a", "a63"], 32)],
)
def test_independence_of_cycles_fits_a_small_budget(monkeypatch, spec, h_names, c_names, alpha):
    # a cycle has no vertex of degree at most one to take first; bounded by
    # candidate counts alone, the search visits 294,912 nodes on C36 and
    # over 1,000,000 on C64, and with the color bound 19 and 33
    monkeypatch.setattr(relcay.oracles, "SEARCH_NODE_BUDGET", 1_000)
    graph = instance(spec, h_names, c_names)
    assert max_independent_set(graph.n, graph.adjacency) == alpha


# --------------------------------------------------------------------------
# Vertex cover and its pendant rule


def corona(rng, k):
    """A k-cycle with one pendant vertex on each cycle vertex, relabelled at
    random, so pendants and their neighbors sit anywhere in index order."""
    n = 2 * k
    label = list(range(n))
    rng.shuffle(label)
    adj = [0] * n
    pairs = [(v, (v + 1) % k) for v in range(k)] + [(v, k + v) for v in range(k)]
    for v, u in pairs:
        adj[label[v]] |= 1 << label[u]
        adj[label[u]] |= 1 << label[v]
    return adj


def test_vertex_cover_matches_brute_on_random_graphs_and_coronas():
    rng = random.Random(1960)
    graphs = [corona(rng, k) for k in range(3, 7) for _ in range(10)]
    for _ in range(400):
        n = rng.randint(0, 12)
        graphs.append(graph_with_pendants_and_twins(rng, n))
    for adj in graphs:
        n = len(adj)
        assert min_vertex_cover(n, adj) == brute.brute_min_vertex_cover(n, brute_edges(n, adj))


@pytest.mark.parametrize(
    "spec, h_names, c_names, beta",
    [("D32", ["a"], ["a", "a31", "b"], 32), ("C64", ["a2"], ["a", "a63"], 32)],
)
def test_vertex_cover_at_the_order_cap_fits_a_small_budget(
    monkeypatch, spec, h_names, c_names, beta
):
    # D32/a is a corona of a 32-cycle: the pendant rule solves it at the
    # root, where edge branching alone took about 0.6 s
    monkeypatch.setattr(relcay.oracles, "SEARCH_NODE_BUDGET", 100)
    graph = instance(spec, h_names, c_names)
    assert min_vertex_cover(graph.n, graph.adjacency) == beta


# --------------------------------------------------------------------------
# Domination and the search budget


def graph_with_pendants_and_twins(rng, n):
    """A random graph with some vertices cut down to one neighbor and some
    neighborhoods copied, so the dominance rule has candidates to drop."""
    adj = random_graph(rng, n, rng.random())
    if n < 2:
        return adj
    for _ in range(rng.randint(0, 2)):
        v, u = rng.sample(range(n), 2)
        for w in bit_indices(adj[v]):
            adj[w] &= ~(1 << v)
        adj[v] = 1 << u
        adj[u] |= 1 << v
    for _ in range(rng.randint(0, 2)):
        v, w = rng.sample(range(n), 2)
        for x in bit_indices(adj[w]):
            adj[x] &= ~(1 << w)
        row = adj[v] & ~(1 << w)
        if rng.random() < 0.5:
            row |= 1 << v  # true twins: equal closed neighborhoods
        adj[w] = row
        for x in bit_indices(row):
            adj[x] |= 1 << w
    return adj


def brute_edges(n, adj):
    return {frozenset((v, u)) for v in range(n) for u in range(v) if adj[v] >> u & 1}


def test_domination_and_independence_match_brute_on_random_graphs():
    rng = random.Random(2004)
    for _ in range(600):
        n = rng.randint(0, 12)
        adj = graph_with_pendants_and_twins(rng, n)
        edges = brute_edges(n, adj)
        assert min_dominating_set(n, adj) == brute.brute_min_dominating(n, edges)
        assert max_independent_set(n, adj) == brute.brute_max_independent(n, edges)


def test_domination_within_networkx_bounds():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2011)
    for _ in range(150):
        n = rng.randint(1, 64)
        adj = random_graph(rng, n, rng.choice([0.03, 0.06, 0.1, 0.3, rng.random()]))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(
            (v, u) for v in range(n) for u in range(v + 1, n) if adj[v] >> u & 1
        )
        greedy = nx.dominating_set(graph)
        assert nx.is_dominating_set(graph, greedy)
        delta = max(row.bit_count() for row in adj)
        gamma = min_dominating_set(n, adj)
        assert -(-n // (delta + 1)) <= gamma <= len(greedy)


@pytest.mark.parametrize(
    "spec, h_names, c_names, gamma",
    [
        ("C64", ["a2"], ["a", "a63"], 22),
        ("D32", ["a"], ["a", "a31", "b"], 32),
    ],
)
def test_domination_at_the_order_cap(monkeypatch, spec, h_names, c_names, gamma):
    # both are solved in a handful of nodes; unpruned, each ran past 25 s
    monkeypatch.setattr(relcay.oracles, "SEARCH_NODE_BUDGET", 1_000)
    graph = instance(spec, h_names, c_names)
    assert min_dominating_set(graph.n, graph.adjacency) == gamma


def test_domination_of_ladder_c36_fits_a_small_budget(monkeypatch):
    # the search without pruning visits 797,161 nodes here
    monkeypatch.setattr(relcay.oracles, "SEARCH_NODE_BUDGET", 20_000)
    graph = instance("C36", ["a2"], ["a", "a35"])
    assert min_dominating_set(graph.n, graph.adjacency) == 12


@pytest.mark.parametrize(
    "spec, h_names, c_names, gamma",
    [("C36", ["a2"], ["a", "a35"], 12), ("C64", ["a2"], ["a", "a63"], 22)],
)
def test_domination_lower_bound_cuts_at_the_root(monkeypatch, spec, h_names, c_names, gamma):
    # on a cycle no vertex dominates more than 3, so ceil(n / 3) meets the
    # greedy start and the root is the only node
    monkeypatch.setattr(relcay.oracles, "SEARCH_NODE_BUDGET", 1)
    graph = instance(spec, h_names, c_names)
    assert min_dominating_set(graph.n, graph.adjacency) == gamma


def test_domination_matches_brute_with_isolated_and_pendant_vertices():
    rng = random.Random(1978)
    for _ in range(400):
        n = rng.randint(1, 12)
        adj = graph_with_pendants_and_twins(rng, n)
        for v in rng.sample(range(n), rng.randint(0, min(3, n))):
            for u in bit_indices(adj[v]):
                adj[u] &= ~(1 << v)
            adj[v] = 0
        assert min_dominating_set(n, adj) == brute.brute_min_dominating(n, brute_edges(n, adj))


def test_domination_is_the_same_with_and_without_symmetries(monkeypatch):
    # the left translations x -> hx are automorphisms of every relative
    # Cayley graph; count the roots that branch on an orbit, so the
    # symmetric path is shown to run
    orbits = []
    orbit = relcay.oracles._orbit

    def counted(*args):
        orbits.append(args)
        return orbit(*args)

    monkeypatch.setattr(relcay.oracles, "_orbit", counted)
    for spec in catalog_up_to(8):
        for graph in all_instances(spec):
            n, adj = graph.n, graph.adjacency
            assert min_dominating_set(n, adj, graph.left_translations) == min_dominating_set(
                n, adj
            )
    assert len(orbits) > 100


@pytest.mark.parametrize(
    "make_bad",
    [
        lambda n: (1, 0) + tuple(range(2, n)),  # swaps two adjacent cycle vertices
        lambda n: (0,) * n,
    ],
    ids=["not_an_automorphism", "not_a_permutation"],
)
def test_domination_rejects_a_symmetry_that_is_not_an_automorphism(make_bad):
    # a 12-cycle with a pendant vertex on each of its vertices: the root
    # bound (6) does not meet the greedy start (12), so the root branches
    # and checks its symmetries first
    graph = instance("D12", ["a"], ["a", "a11", "b"])
    symmetries = graph.left_translations + (make_bad(graph.n),)
    with pytest.raises(InternalConsistencyError):
        min_dominating_set(graph.n, graph.adjacency, symmetries)
    assert min_dominating_set(graph.n, graph.adjacency, graph.left_translations) == 12


@pytest.mark.parametrize(
    "spec, h_names, c_names, gamma",
    [("C36", ["a2"], ["a", "a35"], 12), ("C64", ["a2"], ["a", "a63"], 22)],
)
def test_domination_checks_no_symmetry_when_the_root_closes(
    monkeypatch, spec, h_names, c_names, gamma
):
    # with symmetries the root is still the only node on a cycle, and a
    # list that is not even a permutation goes unchecked
    monkeypatch.setattr(relcay.oracles, "SEARCH_NODE_BUDGET", 1)
    graph = instance(spec, h_names, c_names)
    for symmetries in (graph.left_translations, [(0,) * graph.n]):
        assert min_dominating_set(graph.n, graph.adjacency, symmetries) == gamma


@pytest.mark.parametrize(
    "search",
    [
        max_clique,
        max_independent_set,
        min_vertex_cover,
        min_dominating_set,
        chromatic_number,
        edge_chromatic_number,
    ],
)
def test_exhausted_budget_raises_capacity_error(monkeypatch, search):
    monkeypatch.setattr(relcay.oracles, "SEARCH_NODE_BUDGET", 0)
    five_cycle = [(1 << (v + 1) % 5) | (1 << (v - 1) % 5) for v in range(5)]
    message = (
        f"{search.__name__} search exceeded the budget of 0 nodes "
        "on a graph with 5 vertices"
    )
    with pytest.raises(CapacityError) as caught:
        search(5, five_cycle)
    assert str(caught.value) == message


# --------------------------------------------------------------------------
# Exhaustive cross-checks against the naive brutes


CROSS_SPECS = ["C4", "C6", "S3", "D4"]


@pytest.mark.parametrize("spec", CROSS_SPECS)
def test_oracles_match_brutes_everywhere(spec):
    for graph in all_instances(spec):
        n, adj = graph.n, graph.adjacency
        edges = brute.edges_of(graph)
        assert max_clique(n, adj) == brute.brute_max_clique(n, edges)
        assert max_independent_set(n, adj) == brute.brute_max_independent(n, edges)
        assert min_vertex_cover(n, adj) == brute.brute_min_vertex_cover(n, edges)
        assert max_matching(n, adj) == brute.brute_max_matching(n, edges)
        assert min_dominating_set(n, adj) == brute.brute_min_dominating(n, edges)
        chi = brute.brute_chromatic(n, edges)
        assert chromatic_number(n, adj) == chi
        assert chromatic_number(n, adj, max_clique(n, adj)) == chi
        if len(edges) <= 10:
            assert min_edge_cover(n, adj) == brute.brute_min_edge_cover(n, edges)
            assert edge_chromatic_number(n, adj) == brute.brute_edge_chromatic(
                n, edges
            )


@pytest.mark.parametrize("spec", CROSS_SPECS)
def test_flags_and_diameter_match_brutes_everywhere(spec):
    for graph in all_instances(spec):
        n, adj = graph.n, graph.adjacency
        edges = brute.edges_of(graph)
        comps, diam = diameter_components(graph)
        assert diam == brute.brute_diameter(n, edges)
        assert {frozenset(c) for c in comps} == set(
            brute.brute_components(n, edges)
        )
        flags = structure_flags(graph)
        assert flags.bipartite == brute.brute_is_bipartite(n, edges)
        assert flags.triangle_free == (not brute.brute_has_triangle(n, edges))
        assert flags.square_subgraph_free == (not brute.brute_has_square(n, edges))
        assert flags.claw_free == (not brute.brute_has_induced_claw(n, edges))
        assert flags.forest == brute.brute_is_forest(n, edges)
        assert flags.connected == (len(brute.brute_components(n, edges)) == 1)


def test_report_self_checks_run_over_q8():
    # the report constructor enforces the Gallai and Vizing relations
    for graph in all_instances("Q8"):
        report = invariant_report(graph)
        assert report.independence_number + report.vertex_cover_number == 8
        if report.edge_cover_number is not None:
            assert report.matching_number + report.edge_cover_number == 8
