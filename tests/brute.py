"""Slow, obviously-correct reference computations used only by the tests.

Everything here favors directness over speed: subset scans, Floyd-Warshall,
exhaustive colorings.  Keep instances tiny.
"""
from __future__ import annotations

import itertools

INF = float("inf")


# --------------------------------------------------------------------------
# Group-side brutes


def brute_subgroup_sets(g) -> list[frozenset[int]]:
    """All subgroups by scanning every subset.  Only for order <= 12."""
    n = g.order
    out = []
    elems = list(range(n))
    for r in range(1, n + 1):
        for combo in itertools.combinations(elems, r):
            s = frozenset(combo)
            if g.identity not in s:
                continue
            if any(g.inv[x] not in s for x in s):
                continue
            if any(g.mul[x][y] not in s for x in s for y in s):
                continue
            out.append(s)
    return out


def brute_closure(g, seed) -> frozenset[int]:
    current = frozenset(seed) | {g.identity}
    while True:
        grown = set(current)
        for a in current:
            for b in current:
                grown.add(g.mul[a][b])
        if len(grown) == len(current):
            return current
        current = frozenset(grown)


def brute_shift_avoiding_labellings(g, members, step) -> list[tuple[int, ...]]:
    """Every labelling of the members (in the given order) by 0, 1 and 2,
    with the first pinned to 0, that gives no x and x*step the same label:
    all 3^(|H|-1) candidates are scanned."""
    pos = {m: i for i, m in enumerate(members)}
    shifted = [pos[g.mul[m][step]] for m in members]
    out = []
    for rest in itertools.product((0, 1, 2), repeat=len(members) - 1):
        classes = (0,) + rest
        if all(classes[i] != classes[shifted[i]] for i in range(len(members))):
            out.append(classes)
    return out


def brute_partition_condition(g, members, c_members, labellings) -> bool:
    """Chromatic condition (ii) read literally: each labelling is seen by
    some g outside H, where the positions of the x in H with g*x in C
    carry all three labels."""
    c, h = set(c_members), set(members)
    windows = [
        {i for i, m in enumerate(members) if g.mul[x][m] in c}
        for x in range(g.order)
        if x not in h
    ]
    return all(
        any({classes[i] for i in window} == {0, 1, 2} for window in windows)
        for classes in labellings
    )


def brute_width(g, members) -> int:
    """Least n with the closure of the members inside the union of their
    powers 0..n, by growing the powers as sets."""
    target = brute_closure(g, members)
    covered = power = {g.identity}
    steps = 0
    while not target <= covered:
        power = {g.mul[a][b] for a in power for b in members}
        covered = covered | power
        steps += 1
    return steps


def brute_is_group(mul, identity, inv) -> bool:
    """The group laws on a table, checked at every element, pair and triple:
    identity, inverses, and associativity over all n^3 triples."""
    elems = range(len(mul))
    if any(mul[identity][x] != x or mul[x][identity] != x for x in elems):
        return False
    if any(mul[x][inv[x]] != identity or mul[inv[x]][x] != identity for x in elems):
        return False
    return all(
        mul[mul[x][y]][z] == mul[x][mul[y][z]] for x in elems for y in elems for z in elems
    )


# --------------------------------------------------------------------------
# Graph-side brutes; graphs are (n, edges) with edges a set of frozensets


def neighbors(n: int, edges, v: int) -> set[int]:
    return {next(iter(e - {v})) for e in edges if v in e}


def brute_max_clique(n: int, edges) -> int:
    best = 0
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(
                frozenset((u, v)) in edges
                for u, v in itertools.combinations(combo, 2)
            ):
                return r
    return best


def brute_max_independent(n: int, edges) -> int:
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(
                frozenset((u, v)) not in edges
                for u, v in itertools.combinations(combo, 2)
            ):
                return r
    return 0


def brute_min_vertex_cover(n: int, edges) -> int:
    for r in range(0, n + 1):
        for combo in itertools.combinations(range(n), r):
            chosen = set(combo)
            if all(e & chosen for e in edges):
                return r
    return n


def brute_max_matching(n: int, edges) -> int:
    edge_list = sorted(tuple(sorted(e)) for e in edges)

    def grow(used: set[int], start: int) -> int:
        best = 0
        for i in range(start, len(edge_list)):
            u, v = edge_list[i]
            if u in used or v in used:
                continue
            best = max(best, 1 + grow(used | {u, v}, i + 1))
        return best

    return grow(set(), 0)


def brute_min_dominating(n: int, edges) -> int:
    closed = [ {v} | neighbors(n, edges, v) for v in range(n) ]
    for r in range(0, n + 1):
        for combo in itertools.combinations(range(n), r):
            covered = set()
            for v in combo:
                covered |= closed[v]
            if len(covered) == n:
                return r
    return n


def brute_min_edge_cover(n: int, edges):
    """Minimum edge cover size, or None when an isolated vertex exists."""
    if n == 0:
        return 0
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    if any(d == 0 for d in deg):
        return None
    edge_list = sorted(tuple(sorted(e)) for e in edges)
    for r in range(0, len(edge_list) + 1):
        for combo in itertools.combinations(edge_list, r):
            covered = {v for e in combo for v in e}
            if len(covered) == n:
                return r
    return None


def brute_chromatic(n: int, edges) -> int:
    if n == 0:
        return 0
    adj = [neighbors(n, edges, v) for v in range(n)]

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in adj[v]):
                    colors[v] = c
                    if place(v + 1):
                        return True
                    colors[v] = -1
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_edge_chromatic(n: int, edges) -> int:
    edge_list = sorted(tuple(sorted(e)) for e in edges)
    m = len(edge_list)
    if m == 0:
        return 0
    touching = [
        [j for j in range(m) if j != i and set(edge_list[i]) & set(edge_list[j])]
        for i in range(m)
    ]

    def colorable(k: int) -> bool:
        colors = [-1] * m

        def place(i: int) -> bool:
            if i == m:
                return True
            for c in range(k):
                if all(colors[j] != c for j in touching[i]):
                    colors[i] = c
                    if place(i + 1):
                        return True
                    colors[i] = -1
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_distances(n: int, edges):
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for e in edges:
        u, v = tuple(e)
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist


def brute_diameter(n: int, edges):
    """Diameter, or None when disconnected."""
    dist = brute_distances(n, edges)
    worst = max(dist[i][j] for i in range(n) for j in range(n))
    return None if worst == INF else int(worst)


def brute_components(n: int, edges) -> list[frozenset[int]]:
    dist = brute_distances(n, edges)
    comps = []
    assigned = set()
    for v in range(n):
        if v in assigned:
            continue
        comp = frozenset(u for u in range(n) if dist[v][u] < INF)
        assigned |= comp
        comps.append(comp)
    return comps


def brute_is_bipartite(n: int, edges) -> bool:
    for assignment in itertools.product((0, 1), repeat=n):
        if all(assignment[min(e)] != assignment[max(e)] for e in edges):
            return True
    return not edges


def brute_has_triangle(n: int, edges) -> bool:
    return any(
        frozenset((a, b)) in edges
        and frozenset((b, c)) in edges
        and frozenset((a, c)) in edges
        for a, b, c in itertools.combinations(range(n), 3)
    )


def brute_has_square(n: int, edges) -> bool:
    # C4 as a subgraph: a 4-cycle a-b-c-d-a on distinct vertices.
    for quad in itertools.permutations(range(n), 4):
        a, b, c, d = quad
        if a != min(quad):
            continue
        if (
            frozenset((a, b)) in edges
            and frozenset((b, c)) in edges
            and frozenset((c, d)) in edges
            and frozenset((d, a)) in edges
        ):
            return True
    return False


def brute_has_induced_claw(n: int, edges) -> bool:
    for center in range(n):
        nb = sorted(neighbors(n, edges, center))
        for trio in itertools.combinations(nb, 3):
            if all(
                frozenset((u, v)) not in edges
                for u, v in itertools.combinations(trio, 2)
            ):
                return True
    return False


def brute_is_forest(n: int, edges) -> bool:
    return len(edges) == n - len(brute_components(n, edges))


def edges_of(graph) -> set[frozenset[int]]:
    """Edge set of a library graph object, via its adjacency bitsets."""
    out = set()
    for v in range(graph.group.order):
        row = graph.adjacency[v]
        u = 0
        while row:
            if row & 1 and u > v:
                out.add(frozenset((v, u)))
            row >>= 1
            u += 1
    return out
