"""Theorem-independent exact computation of graph invariants and flags.

Everything here reads only vertex count and bitset adjacency rows (and the
neighbor lists of those rows, which a ``RelCayGraph`` keeps from its
validation), so the functions accept either a full relative Cayley graph or
the induced subgroup graph.  These values are the ground truth that the
prediction layer is audited against; none of them consult group structure.
The one group fact the domination search may be handed, a list of
automorphisms, is checked against the rows before it is used.

Algorithms are exact searches sized for graphs of at most 64 vertices:
branch-and-bound cliques, covers and dominating sets, Edmonds' blossom
matching, backtracking colorings, and a bit-parallel breadth-first search
from all sources at once (as in Akiba, Iwata & Yoshida, SIGMOD 2013).  Ties
always break toward the lowest vertex index, so results are reproducible
bit for bit.

The clique search bounds each branch by a greedy coloring of its
candidates, computed on the bitmask in index order with no vertex
relabelling (see ``_clique_search``); the same coloring gives
``chromatic_number`` its upper bound.  The domination search takes
isolated vertices first and then prunes with forced dominators, disjoint
sibling branches, a dominance rule between the options of a node and a
lower bound from the largest gains; given automorphisms of the graph (the
left translations of a ``RelCayGraph``), it checks them against the rows
and branches on one orbit at the root (see ``min_dominating_set``).  Every
exponential search -- the clique search behind ``max_clique``,
``max_independent_set`` and ``chromatic_number``, ``min_vertex_cover``,
``min_dominating_set``, and the k-colorability test behind
``chromatic_number`` and ``edge_chromatic_number`` -- counts the nodes it
visits and raises ``CapacityError`` once a single call exceeds
``SEARCH_NODE_BUDGET``, so a graph at the order cap ends in an answer or an
explicit refusal, never a hang.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapacityError, InternalConsistencyError
from .group_core import bit_indices, default_max_order

__all__ = [
    "InvariantReport",
    "StructureFlags",
    "invariant_report",
    "structure_flags",
    "diameter_components",
    "max_clique",
    "max_independent_set",
    "min_vertex_cover",
    "max_matching",
    "matching_edges",
    "min_dominating_set",
    "min_edge_cover",
    "edge_cover_from_matching",
    "chromatic_number",
    "edge_chromatic_number",
    "DEFAULT_EDGE_COLOR_CUTOFF",
    "SEARCH_NODE_BUDGET",
]

DEFAULT_EDGE_COLOR_CUTOFF = 40

# Nodes one call of an exponential search may visit before it gives up
# with CapacityError.  Read at the start of each call.
SEARCH_NODE_BUDGET = 1_000_000


def _over_budget(search: str, budget: int, n: int) -> CapacityError:
    return CapacityError(
        f"{search} search exceeded the budget of {budget} nodes "
        f"on a graph with {n} vertices"
    )


# --------------------------------------------------------------------------
# Cliques, independence, covers


def max_clique(n: int, adj: Sequence[int]) -> int:
    return _clique_search(n, adj, (1 << n) - 1, "max_clique")


def max_independent_set(n: int, adj: Sequence[int]) -> int:
    """Independence number.

    A vertex of degree at most one lies in some maximum independent set
    together with none of its neighbors, so such vertices are taken first,
    each removing itself and its neighbor, until none is left; the rest is
    the clique number of the complement of what remains.
    """
    full = remaining = (1 << n) - 1
    taken = 0
    changed = True
    while changed:
        changed = False
        for v in bit_indices(remaining):
            nb = adj[v] & remaining
            if remaining >> v & 1 and not nb & (nb - 1):
                remaining &= ~(nb | 1 << v)
                taken += 1
                changed = True
    comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    return taken + _clique_search(n, comp, remaining, "max_independent_set")


def _clique_search(n: int, adj: Sequence[int], start: int, search: str) -> int:
    """The clique number inside the vertex mask ``start``, by branch and
    bound; ``search`` names the caller in the budget error.

    Each node colors its candidates greedily (``_color_classes``, in index
    order, with no relabelling of the vertices), since a clique takes at
    most one vertex per color class.  It branches on the vertices from the
    last class to the first, highest index first within a class, dropping
    each from the candidates once it has been tried, and stops at the first
    vertex of color k with ``size + k <= best`` (Tomita & Seki's MCQ, on
    bitmasks as in San Segundo et al.'s BBMC)."""
    budget = SEARCH_NODE_BUDGET
    best = 0
    nodes = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise _over_budget(search, budget, n)
        if not cand:
            if size > best:
                best = size
            return
        classes = _color_classes(cand, adj)
        for k in range(len(classes), 0, -1):
            cls = classes[k - 1]
            while cls:
                if size + k <= best:
                    return
                v = cls.bit_length() - 1
                expand(cand & adj[v], size + 1)
                cand &= ~(1 << v)
                cls &= ~(1 << v)

    expand(start, 0)
    return best


def _color_classes(cand: int, adj: Sequence[int]) -> list[int]:
    """The color classes, as masks, of the sequential greedy coloring of the
    vertex mask ``cand`` in index order.

    Built class by class: class k is the lowest-index-first independent set
    of what classes 1..k-1 left, which gives each vertex the least color
    that none of its lower-index neighbors has."""
    classes = []
    while cand:
        q = cand
        cls = 0
        while q:
            low = q & -q
            cls |= low
            q &= ~adj[low.bit_length() - 1] & ~low
        cand &= ~cls
        classes.append(cls)
    return classes


def min_vertex_cover(n: int, adj: Sequence[int]) -> int:
    """Exact minimum vertex cover via edge branching.

    Each node first applies the pendant rule: some minimum cover of a graph
    holds the neighbor of any vertex of degree one, so that neighbor is
    taken, and vertices of degree zero are dropped, until neither is left.

    Deliberately not derived from the independence number, so the Gallai
    identity stays a real cross-check.
    """
    budget = SEARCH_NODE_BUDGET
    best = n
    nodes = 0

    def pendant_rule(remaining: int, size: int) -> tuple[int, int]:
        changed = True
        while changed:
            changed = False
            for v in bit_indices(remaining):
                if not remaining >> v & 1:
                    continue  # an earlier step of this pass removed it
                nb = adj[v] & remaining
                if not nb:
                    remaining &= ~(1 << v)
                elif not nb & (nb - 1):
                    remaining &= ~(nb | 1 << v)
                    size += 1
                    changed = True
        return remaining, size

    def matching_lower_bound(remaining: int) -> int:
        used = 0
        count = 0
        for v in bit_indices(remaining):
            if used >> v & 1:
                continue
            nb = adj[v] & remaining & ~used
            if nb:
                used |= (nb & -nb) | (1 << v)
                count += 1
        return count

    def recurse(remaining: int, size: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise _over_budget("min_vertex_cover", budget, n)
        remaining, size = pendant_rule(remaining, size)
        if size >= best:
            return
        pick = -1
        pick_deg = 0
        for v in bit_indices(remaining):
            deg = (adj[v] & remaining).bit_count()
            if deg > pick_deg:
                pick, pick_deg = v, deg
        if pick < 0:
            best = size
            return
        if size + matching_lower_bound(remaining) >= best:
            return
        nb = adj[pick] & remaining
        # taking the vertex, or else all of its neighbors
        recurse(remaining & ~(1 << pick), size + 1)
        recurse(remaining & ~nb & ~(1 << pick), size + nb.bit_count())

    recurse((1 << n) - 1, 0)
    return best


def max_matching(n: int, adj: Sequence[int]) -> int:
    return len(matching_edges(n, adj))


def matching_edges(n: int, adj: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """One maximum matching, by Edmonds' blossom algorithm.

    The search starts from the greedy matching that pairs each vertex, in
    index order, with its lowest-index unmatched neighbor, then augments
    from each still-unmatched vertex in index order.  The result is the
    pairs ``(v, mate)`` with ``v < mate``, sorted by ``v``; it depends only
    on the adjacency rows.
    """
    mate = [-1] * n
    free = (1 << n) - 1
    for v in range(n):
        if free >> v & 1:
            nb = adj[v] & free
            if nb:
                u = (nb & -nb).bit_length() - 1
                mate[v], mate[u] = u, v
                free &= ~((1 << v) | (1 << u))
    # a vertex with no augmenting path never gains one later (Edmonds), so
    # each unmatched vertex is searched from once
    for root in bit_indices(free):
        if mate[root] < 0 and adj[root]:
            _augment_from(root, n, adj, mate)
    return tuple((v, u) for v, u in enumerate(mate) if v < u)


def _augment_from(root: int, n: int, adj: Sequence[int], mate: list[int]) -> None:
    """Grow an alternating tree from an unmatched root, contracting odd
    cycles (blossoms) into their base, and flip the first augmenting path
    found.  ``mate`` is updated in place."""
    parent = [-1] * n
    base = list(range(n))
    outer = 1 << root
    queue = [root]

    def lowest_common_base(a: int, b: int) -> int:
        seen = 0
        while True:
            a = base[a]
            seen |= 1 << a
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen >> b & 1:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, stop: int, child: int) -> int:
        bases = 0
        while base[v] != stop:
            bases |= (1 << base[v]) | (1 << base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]
        return bases

    for v in queue:
        for to in bit_indices(adj[v]):
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
                top = lowest_common_base(v, to)
                blossom = mark_path(v, top, to) | mark_path(to, top, v)
                for i in range(n):
                    if blossom >> base[i] & 1:
                        base[i] = top
                        if not outer >> i & 1:
                            outer |= 1 << i
                            queue.append(i)
            elif parent[to] < 0:
                parent[to] = v
                if mate[to] < 0:
                    while to >= 0:
                        via = parent[to]
                        after = mate[via]
                        mate[to], mate[via] = via, to
                        to = after
                    return
                outer |= 1 << mate[to]
                queue.append(mate[to])


def min_dominating_set(
    n: int, adj: Sequence[int], symmetries: Sequence[Sequence[int]] = ()
) -> int:
    """Exact domination number.

    Vertices of degree zero are taken first; a greedy pass over the rest
    (largest gain, lowest index on ties) gives the first upper bound.  Each
    node of the search knows which vertices are still *allowed* as
    dominators, and applies these rules (after van Rooij & Bodlaender,
    Discrete Appl. Math. 159, 2011):

    - forced dominators: an undominated vertex with exactly one allowed
      dominator forces it, and one with none cuts the node;
    - lower bound: with the gains ``|N[v] & undominated|`` of the allowed
      vertices sorted in decreasing order, at least the least k whose top-k
      gains sum to ``|undominated|`` more vertices are needed;
    - branching: on the undominated vertex with the fewest allowed
      dominators, trying them by decreasing gain (lower index on ties);
    - disjoint branches: once a branch has tried v, its later siblings may
      not use v;
    - dominance: an option whose newly dominated set is a subset of an
      option already tried at the node is skipped, since swapping it for
      that option never costs more.

    ``symmetries`` may list automorphisms of the graph, each a permutation
    p of ``range(n)`` given as the sequence of images ``p[v]``.  When the
    root does not close by its bound, each is checked against the rows
    (``InternalConsistencyError`` if one is not an automorphism), and the
    root branches on the orbit O, under the group they generate, of the
    first option it would have tried: either O's least vertex is in the
    set, or no vertex of O is, since an automorphism maps any set that meets
    O onto one that holds that vertex (orbital branching, Ostrowski et al.,
    Math. Program. 126, 2011).  Only the listed permutations are checked,
    so a generating set of the symmetries is enough: a relative Cayley
    graph passes its ``left_translations``, the translations x -> gx by a
    generating set of H, and O is then the right coset Hv.
    """
    if n == 0:
        return 0
    closed = [adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    isolated = sum(1 << v for v in range(n) if not adj[v])

    # gain[v] = |N[v] & undominated|, kept up to date as vertices are covered
    undominated = full & ~isolated
    gain = [row.bit_count() if undominated >> v & 1 else 0 for v, row in enumerate(closed)]
    best = isolated.bit_count()
    while undominated:
        newly = closed[max(range(n), key=gain.__getitem__)] & undominated
        undominated ^= newly
        for x in bit_indices(newly):
            for w in bit_indices(closed[x]):
                gain[w] -= 1
        best += 1
    budget = SEARCH_NODE_BUDGET
    nodes = 0

    def recurse(dominated: int, allowed: int, size: int, symmetric: bool) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise _over_budget("min_dominating_set", budget, n)
        while True:
            if size >= best:
                return
            undominated = full & ~dominated
            if not undominated:
                best = size
                return
            forced = reach = 0
            pick, pick_count = -1, n + 1
            for u in bit_indices(undominated):
                dominators = closed[u] & allowed
                if not dominators & (dominators - 1):
                    if not dominators:
                        return
                    forced |= dominators
                elif not forced:
                    count = dominators.bit_count()
                    if count < pick_count:
                        pick, pick_count = u, count
                reach |= dominators
            if not forced:
                break
            size += forced.bit_count()
            allowed &= ~forced
            for v in bit_indices(forced):
                dominated |= closed[v]
        gains = [(closed[v] & undominated).bit_count() for v in bit_indices(reach)]
        gains.sort(reverse=True)
        need = undominated.bit_count()
        bound = size
        for g in gains:
            bound += 1
            need -= g
            if need <= 0:
                break
        if bound >= best:
            return
        # by decreasing gain, then increasing index
        options = sorted(
            (-(closed[v] & undominated).bit_count(), v)
            for v in bit_indices(closed[pick] & allowed)
        )
        if symmetric:
            orbit = _orbit(n, adj, symmetries, options[0][1])
            least = orbit & -orbit
            recurse(dominated | closed[least.bit_length() - 1], allowed & ~least, size + 1, False)
            recurse(dominated, allowed & ~orbit, size, False)
            return
        tried: list[int] = []
        for _, v in options:
            newly = closed[v] & undominated
            if any(not newly & ~other for other in tried):
                continue
            tried.append(newly)
            allowed &= ~(1 << v)
            recurse(dominated | newly, allowed, size + 1, False)

    recurse(isolated, full & ~isolated, isolated.bit_count(), bool(symmetries))
    return best


def _orbit(n: int, adj: Sequence[int], perms: Sequence[Sequence[int]], v: int) -> int:
    """The orbit of v, as a mask, under the group the permutations
    generate, after checking each permutation against the rows.

    A bijection of the vertices that maps every edge onto an edge is an
    automorphism, since it then maps the m edges onto m distinct edges."""
    vertices = list(range(n))
    edges = [(x, u) for x in vertices for u in bit_indices(adj[x]) if u > x]
    for p in perms:
        if sorted(p) != vertices:
            raise InternalConsistencyError("a symmetry is not a permutation of the vertices")
        for x, u in edges:
            if not adj[p[x]] >> p[u] & 1:
                raise InternalConsistencyError(
                    f"a symmetry maps the edge {x}-{u} onto the non-edge {p[x]}-{p[u]}"
                )
    orbit = 1 << v
    frontier = [v]
    for x in frontier:
        for p in perms:
            if not orbit >> p[x] & 1:
                orbit |= 1 << p[x]
                frontier.append(p[x])
    return orbit


def min_edge_cover(n: int, adj: Sequence[int]) -> Optional[int]:
    """Minimum edge cover size, or None when an isolated vertex exists."""
    return edge_cover_from_matching(n, adj, matching_edges(n, adj))


def edge_cover_from_matching(
    n: int, adj: Sequence[int], matching: Sequence[tuple[int, int]]
) -> Optional[int]:
    """Edge cover size built from a maximum matching, or None when an
    isolated vertex exists.

    Built constructively: the matching plus one edge per uncovered vertex.
    The construction is validated before the size is returned; by Gallai's
    identity it is minimum exactly when the matching is maximum.
    """
    if any(adj[v] == 0 for v in range(n)):
        return None
    chosen = set(matching)
    covered = 0
    for u, v in chosen:
        covered |= (1 << u) | (1 << v)
    for v in range(n):
        if covered >> v & 1:
            continue
        u = (adj[v] & -adj[v]).bit_length() - 1
        chosen.add((v, u) if v < u else (u, v))
        covered |= (1 << u) | (1 << v)
    if covered != (1 << n) - 1:
        raise InternalConsistencyError("edge cover construction missed a vertex")
    expected = n - len(matching)
    if len(chosen) != expected:
        raise InternalConsistencyError(
            f"edge cover size {len(chosen)} differs from n - matching = {expected}"
        )
    return len(chosen)


# --------------------------------------------------------------------------
# Colorings


def _k_colorable(n: int, adj: Sequence[int], k: int, search: str) -> bool:
    """Whether a proper k-coloring exists, by backtracking; ``search``
    names the caller in the budget error."""
    budget = SEARCH_NODE_BUDGET
    avail = [(1 << k) - 1 for _ in range(n)]
    color = [-1] * n
    nodes = 0

    def place(done: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _over_budget(search, budget, n)
        if done == n:
            return True
        # most-constrained uncolored vertex
        pick, pick_count = -1, k + 1
        for v in range(n):
            if color[v] < 0:
                count = avail[v].bit_count()
                if count == 0:
                    return False
                if count < pick_count:
                    pick, pick_count = v, count
        cap = min(k, max(color) + 2 if done else 1)
        options = avail[pick] & ((1 << cap) - 1)
        for c in bit_indices(options):
            color[pick] = c
            touched = []
            ok = True
            for u in bit_indices(adj[pick]):
                if color[u] < 0 and avail[u] >> c & 1:
                    avail[u] &= ~(1 << c)
                    touched.append(u)
                    if avail[u] == 0:
                        ok = False
            if ok and place(done + 1):
                return True
            for u in touched:
                avail[u] |= 1 << c
            color[pick] = -1
        return False

    return place(0)


def chromatic_number(
    n: int, adj: Sequence[int], clique_number: Optional[int] = None
) -> int:
    """Chromatic number: k-colorability tests from the clique number up to
    the color count of the greedy coloring in index order.  A caller that
    already has the clique number passes it and saves a second clique
    search; an edgeless graph needs no search at all."""
    if n == 0:
        return 0
    if all(row == 0 for row in adj):
        return 1
    low = clique_number
    if low is None:
        low = _clique_search(n, adj, (1 << n) - 1, "chromatic_number")
    high = len(_color_classes((1 << n) - 1, adj))
    for k in range(low, high):
        if _k_colorable(n, adj, k, "chromatic_number"):
            return k
    return high


def edge_chromatic_number(
    n: int, adj: Sequence[int], cutoff: int = DEFAULT_EDGE_COLOR_CUTOFF
) -> Optional[int]:
    """Exact edge chromatic number, or None above the edge-count cutoff."""
    m = sum(row.bit_count() for row in adj) // 2
    if m == 0:
        return 0
    if m > cutoff:
        return None
    # edge i joins ends[i]; bit i of incident[v] is set when v is one of them
    ends = []
    incident = [0] * n
    for v in range(n):
        for u in bit_indices(adj[v]):
            if u > v:
                bit = 1 << len(ends)
                incident[v] |= bit
                incident[u] |= bit
                ends.append((v, u))
    line_adj = [(incident[v] | incident[u]) & ~(1 << i) for i, (v, u) in enumerate(ends)]
    delta = max(row.bit_count() for row in adj)
    if _k_colorable(m, line_adj, delta, "edge_chromatic_number"):
        result = delta
    else:
        result = delta + 1
        if not _k_colorable(m, line_adj, result, "edge_chromatic_number"):
            raise InternalConsistencyError("edge coloring exceeded delta + 1")
    return result


# --------------------------------------------------------------------------
# Distances and flags


def _neighbor_lists(graph) -> Sequence[Sequence[int]]:
    """The graph's neighbor lists, ascending: the ones it keeps, or else
    built from its adjacency rows."""
    lists = getattr(graph, "neighbor_lists", None)
    if lists is None:
        lists = [bit_indices(row) for row in graph.adjacency]
    return lists


def _components(n: int, nbrs: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    comps: list[tuple[int, ...]] = []
    found = [False] * n
    for start in range(n):
        if found[start]:
            continue
        found[start] = True
        comp = [start]
        for v in comp:
            for u in nbrs[v]:
                if not found[u]:
                    found[u] = True
                    comp.append(u)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _diameter(n: int, adj: Sequence[int], nbrs: Sequence[Sequence[int]]) -> int:
    """The diameter of a connected graph, by one breadth-first search from
    every source at once.

    Row v of ``reach`` is the ball of radius r around v; one round ORs
    each row with its neighbors' rows of the previous round, which makes
    it the ball of radius r + 1.  The diameter is the least r at which
    every ball is the whole vertex set.  A row that is full stays full and
    is no longer updated."""
    if n <= 1:
        return 0
    full = (1 << n) - 1
    reach = [row | 1 << v for v, row in enumerate(adj)]
    radius = 1
    growing = [v for v in range(n) if reach[v] != full]
    while growing:
        previous = reach[:]
        for v in growing:
            row = previous[v]
            for u in nbrs[v]:
                row |= previous[u]
            reach[v] = row
        growing = [v for v in growing if reach[v] != full]
        radius += 1
    return radius


def diameter_components(graph) -> tuple[tuple[tuple[int, ...], ...], Optional[int]]:
    """Connected components (sorted by least vertex) and the diameter.

    The diameter is None when the graph is disconnected.
    """
    n, adj = graph.n, graph.adjacency
    nbrs = _neighbor_lists(graph)
    comps = _components(n, nbrs)
    if len(comps) > 1:
        return comps, None
    return comps, _diameter(n, adj, nbrs)


def _is_bipartite(n: int, nbrs: Sequence[Sequence[int]]) -> bool:
    side = [-1] * n
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in nbrs[v]:
                if side[u] < 0:
                    side[u] = side[v] ^ 1
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def _has_triangle(adj: Sequence[int], nbrs: Sequence[Sequence[int]]) -> bool:
    for v, row in enumerate(adj):
        for u in nbrs[v]:
            if row & adj[u]:
                return True
    return False


def _has_square_subgraph(nbrs: Sequence[Sequence[int]]) -> bool:
    # a 4-cycle exists iff two vertices share at least two neighbors, that
    # is, iff some vertex v reaches some w != v by two paths of length two
    for v, nb in enumerate(nbrs):
        seen = 0
        for u in nb:
            for w in nbrs[u]:
                if w != v:
                    if seen >> w & 1:
                        return True
                    seen |= 1 << w
    return False


def _has_induced_claw(adj: Sequence[int], nbrs: Sequence[Sequence[int]]) -> bool:
    for v, nb in enumerate(nbrs):
        if len(nb) < 3:
            continue
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                if adj[a] >> b & 1:
                    continue
                third = adj[v] & ~adj[a] & ~adj[b] & ~(1 << a) & ~(1 << b)
                if third:
                    return True
    return False


@dataclass(frozen=True)
class StructureFlags:
    connected: bool
    bipartite: bool
    forest: bool
    tree: bool
    triangle_free: bool
    square_subgraph_free: bool
    claw_free: bool
    regular: bool
    semi_regular: bool

    def __post_init__(self) -> None:
        if self.tree and not (self.forest and self.connected):
            raise InternalConsistencyError("tree flag without forest+connected")
        if self.forest and not (self.square_subgraph_free and self.triangle_free):
            raise InternalConsistencyError("forest flag with a short cycle present")
        if self.bipartite and not self.triangle_free:
            raise InternalConsistencyError("bipartite flag with a triangle present")


def structure_flags(graph, component_count=None) -> StructureFlags:
    """Structural flags of a graph.  ``component_count`` may pass in the
    number of connected components when the caller already has it."""
    n, adj = graph.n, graph.adjacency
    nbrs = _neighbor_lists(graph)
    if component_count is None:
        component_count = len(_components(n, nbrs))
    edge_total = sum(row.bit_count() for row in adj) // 2
    degrees = sorted({row.bit_count() for row in adj})
    connected = component_count == 1
    forest = edge_total == n - component_count
    return StructureFlags(
        connected=connected,
        bipartite=_is_bipartite(n, nbrs),
        forest=forest,
        tree=forest and connected,
        triangle_free=not _has_triangle(adj, nbrs),
        square_subgraph_free=not _has_square_subgraph(nbrs),
        claw_free=not _has_induced_claw(adj, nbrs),
        regular=len(degrees) == 1,
        semi_regular=len(degrees) == 2,
    )


# --------------------------------------------------------------------------
# Full report


@dataclass(frozen=True)
class InvariantReport:
    clique_number: int
    independence_number: int
    matching_number: int
    domination_number: int
    vertex_cover_number: int
    edge_cover_number: Optional[int]
    chromatic_number: int
    edge_chromatic_number: Optional[int]
    diameter: Optional[int]
    component_count: int


def invariant_report(
    graph,
    *,
    edge_color_cutoff: int = DEFAULT_EDGE_COLOR_CUTOFF,
    max_order: Optional[int] = None,
) -> InvariantReport:
    """All numeric invariants of a graph, by exhaustive search.

    The edge chromatic number is skipped (None) above the edge-count
    cutoff; the edge cover number is None when isolated vertices exist;
    the diameter is None when the graph is disconnected.  Graphs with more
    than ``max_order`` vertices (default: ``default_max_order()``) are
    refused with ``CapacityError``.
    """
    n, adj = graph.n, graph.adjacency
    cap = default_max_order() if max_order is None else max_order
    if n > cap:
        raise CapacityError(f"oracle graph has {n} vertices, above the cap {cap}")
    comps, diameter = diameter_components(graph)
    matching = matching_edges(n, adj)
    clique = max_clique(n, adj)
    report = InvariantReport(
        clique_number=clique,
        independence_number=max_independent_set(n, adj),
        matching_number=len(matching),
        domination_number=min_dominating_set(
            n, adj, getattr(graph, "left_translations", ())
        ),
        vertex_cover_number=min_vertex_cover(n, adj),
        edge_cover_number=edge_cover_from_matching(n, adj, matching),
        chromatic_number=chromatic_number(n, adj, clique),
        edge_chromatic_number=edge_chromatic_number(n, adj, edge_color_cutoff),
        diameter=diameter,
        component_count=len(comps),
    )
    if report.independence_number + report.vertex_cover_number != n:
        raise InternalConsistencyError("Gallai identity alpha + cover = n fails")
    if report.clique_number > report.chromatic_number:
        raise InternalConsistencyError("clique exceeds chromatic number")
    if report.edge_cover_number is not None:
        if report.matching_number + report.edge_cover_number != n:
            raise InternalConsistencyError("Gallai identity on edges fails")
    if report.edge_chromatic_number is not None and n > 0:
        delta = max(row.bit_count() for row in adj)
        if not delta <= report.edge_chromatic_number <= delta + 1:
            raise InternalConsistencyError("edge chromatic outside Vizing range")
    return report
