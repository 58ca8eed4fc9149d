"""Relative Cayley graphs.

The graph on all of G in which {x, y} is an edge exactly when at least one
endpoint lies in the subgroup H and the quotient x^-1 y lies in the
connection set C.  Adjacency is stored as one bitset row per vertex.  The
graph only observes: its degrees and edge count are read off the rows, and
the formulas that predict them live in ``theorems`` and ``audit``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import (
    ConnectionSetError,
    GroupMismatchError,
    ImproperSubgroupError,
    InternalConsistencyError,
)
from .group_core import (
    ElementSet,
    GroupTable,
    Subgroup,
    bit_indices,
    cached_attribute,
    image_mask,
)

__all__ = [
    "ConnectionSet",
    "inverse_orbits",
    "connection_set_count",
    "enumerate_connection_sets",
    "RelCayGraph",
    "cayley_adjacency",
    "build_relcay",
    "InducedCayleyGraph",
    "export_dot",
]


class ConnectionSet(ElementSet):
    """An inverse-closed set of non-identity elements.

    Invalid input is rejected, never repaired.
    """

    def __init__(self, group: GroupTable, members: Iterable[int] = ()) -> None:
        super().__init__(group, members)
        mask = self.mask
        if mask >> group.identity & 1:
            raise ConnectionSetError("connection set must not contain the identity")
        for x in self.members:
            if not mask >> group.inv[x] & 1:
                raise ConnectionSetError(
                    f"connection set is not inverse closed: {group.names[x]} is in "
                    f"but its inverse {group.names[group.inv[x]]} is not"
                )


@lru_cache(maxsize=None)
def inverse_orbits(group: GroupTable) -> tuple[tuple[int, ...], ...]:
    """Orbits of the inversion map on non-identity elements.

    Involutions give singleton orbits; other elements pair with their
    inverses.  Ordered by smallest member.  Computed once per group.
    """
    orbits = []
    seen = set()
    for x in range(group.order):
        if x == group.identity or x in seen:
            continue
        orbit = tuple(sorted({x, group.inv[x]}))
        seen.update(orbit)
        orbits.append(orbit)
    return tuple(orbits)


def connection_set_count(group: GroupTable) -> int:
    return 1 << len(inverse_orbits(group))


def enumerate_connection_sets(group: GroupTable) -> Iterator[ConnectionSet]:
    """Every inverse-closed subset of the non-identity elements, once each.

    Deterministic: orbit subsets are visited in binary-counter order, so the
    empty set comes first and the full set last.
    """
    orbits = inverse_orbits(group)
    for counter in range(1 << len(orbits)):
        members: list[int] = []
        for i, orbit in enumerate(orbits):
            if counter >> i & 1:
                members.extend(orbit)
        yield ConnectionSet(group, members)


@dataclass(frozen=True, eq=False)
class RelCayGraph:
    """Immutable relative Cayley graph with bitset adjacency rows."""

    group: GroupTable
    h: Subgroup
    c: ConnectionSet
    adjacency: tuple[int, ...]
    # each vertex's neighbors, ascending; filled in by the validation
    neighbor_lists: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        adjacency = self.adjacency
        h_mask = self.h.mask
        lists = []
        for x, row in enumerate(adjacency):
            if row >> x & 1:
                raise InternalConsistencyError("adjacency has a self loop")
            nbrs = tuple(bit_indices(row))
            for y in nbrs:
                if not adjacency[y] >> x & 1:
                    raise InternalConsistencyError("adjacency is not symmetric")
            if not h_mask >> x & 1 and row & ~h_mask:
                raise InternalConsistencyError(
                    "vertices outside the subgroup must form an independent set"
                )
            lists.append(nbrs)
        # the symmetry check walks every row once; its lists are kept
        object.__setattr__(self, "neighbor_lists", tuple(lists))

    @property
    def n(self) -> int:
        return self.group.order

    def is_edge(self, x: int, y: int) -> bool:
        return bool(self.adjacency[x] >> y & 1)

    def neighbors(self, x: int) -> tuple[int, ...]:
        return self.neighbor_lists[x]

    @cached_attribute
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adjacency)

    @cached_attribute
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @cached_attribute
    def left_translations(self) -> tuple[tuple[int, ...], ...]:
        """For each g in ``h.generators``, the automorphism x -> gx as the
        tuple of images: it keeps H, and (gx)^-1 gy = x^-1 y.  The group
        they generate is {x -> hx : h in H}, so the orbit of x is the right
        coset Hx."""
        return tuple(self.group.mul[g] for g in self.h.generators)

    @cached_attribute
    def induced(self) -> "InducedCayleyGraph":
        return InducedCayleyGraph._build(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RelCayGraph({self.group.spec}, |H|={len(self.h)}, |C|={len(self.c)})"
        )


def cayley_adjacency(group: GroupTable, c: ElementSet) -> tuple[int, ...]:
    """Bitset adjacency of the plain Cayley graph on all of G with set C:
    the row of x is its left translate x*C."""
    members = c.members
    return tuple([image_mask(row, members) for row in group.mul])


def build_relcay(group: GroupTable, h: Subgroup, c: ConnectionSet) -> RelCayGraph:
    """Construct the graph; the subgroup must be proper."""
    if h.group is not group or c.group is not group:
        raise GroupMismatchError("subgroup and connection set must share the group")
    if not h.is_proper:
        raise ImproperSubgroupError(
            "the whole group is not allowed as the subgroup argument"
        )
    h_mask = h.mask
    # a vertex outside H keeps only its neighbors inside H
    rows = tuple([
        row if h_mask >> x & 1 else row & h_mask
        for x, row in enumerate(cayley_adjacency(group, c))
    ])
    return RelCayGraph(group=group, h=h, c=c, adjacency=rows)


@dataclass(frozen=True, eq=False)
class InducedCayleyGraph:
    """The subgraph induced on the subgroup's vertices.

    This is itself the Cayley graph of H with generating set H n C; vertices
    are re-indexed 0..|H|-1 in parent order, with ``vertices`` giving the
    parent element indices.
    """

    parent: RelCayGraph
    vertices: tuple[int, ...]
    generators: ElementSet
    adjacency: tuple[int, ...]

    @classmethod
    def _build(cls, parent: RelCayGraph) -> "InducedCayleyGraph":
        g = parent.group
        vertices = parent.h.members
        pos = {v: i for i, v in enumerate(vertices)}
        generators = parent.h.intersection(parent.c)
        rows = []
        h_mask = parent.h.mask
        for v in vertices:
            row = parent.adjacency[v] & h_mask
            if row != image_mask(g.mul[v], generators.members):
                raise InternalConsistencyError(
                    "induced subgraph disagrees with the Cayley construction "
                    f"at {g.names[v]}"
                )
            rows.append(image_mask(pos, bit_indices(row)))
        return cls(
            parent=parent,
            vertices=vertices,
            generators=generators,
            adjacency=tuple(rows),
        )

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_attribute
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as parent-index pairs, each sorted, in lexicographic order."""
        vertices = self.vertices
        out = [
            (v, vertices[j])
            for i, v in enumerate(vertices)
            for j in bit_indices(self.adjacency[i])
            if j > i
        ]
        return tuple(sorted(out))


def export_dot(graph: RelCayGraph) -> str:
    """Deterministic undirected DOT text; subgroup vertices drawn filled."""
    names = graph.group.names
    lines = ["graph relcay {", "  node [shape=circle];"]
    for x in range(graph.n):
        if x in graph.h:
            lines.append(f'  "{names[x]}" [style=filled];')
        else:
            lines.append(f'  "{names[x]}";')
    for u, nbrs in enumerate(graph.neighbor_lists):
        for v in nbrs:
            if v > u:
                lines.append(f'  "{names[u]}" -- "{names[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
