"""Finite groups as explicit multiplication tables, plus the set algebra
(products, generated subgroups, subgroup enumeration, width, psi) that the
predicate layer consumes.

Groups are built from a small spec grammar::

    spec := term ("x" term)*
    term := "C"<n> | "D"<n> (dihedral, order 2n) | "S"<n> (n <= 5)
          | "Q8" | "E"<p>"^"<k> (elementary abelian, p prime)

Specs are case-insensitive and whitespace-free.  Element 0 is always the
identity.

A set of elements is an integer bit mask (bit x set when element x is a
member); products, cosets, closures and subset tests are mask arithmetic.
The image of a set under a map of the elements is one primitive,
``image_mask``, from which translates, products, cosets, widths and the
Cayley rows of ``graphs`` are built.
Each subgroup is built and closure-checked once per group: ``subgroup``,
``generated_subgroup`` and ``enumerate_subgroups`` hand out one shared
object per member set, which also keeps its own tables (coset partitions,
the A*B*A flag, see ``Subgroup``) once computed.  Each generator mask is
closed once per group, and ``width``, ``psi`` and ``subgroups_within``
answer each mask once per group; these per-mask tables are
``functools.cache`` entries keyed by (group, mask), which live as long as
the process, as ``make_group``'s groups do.  ``GroupTable.automorphisms``
lists the automorphisms once per group, each verified against the table;
``GroupTable.automorphism_generators`` picks generators of them, and
``Subgroup.stabiliser_generators`` generators of those that fix a
subgroup.  All objects here are immutable apart from these caches and safe
to share across workers.
"""
from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import compress
from typing import Iterable, Iterator, Optional

from .errors import (
    CapacityError,
    GroupMismatchError,
    GroupSpecError,
    InternalConsistencyError,
)

__all__ = [
    "DEFAULT_MAX_ORDER",
    "ENV_MAX_ORDER",
    "GroupTable",
    "ElementSet",
    "Subgroup",
    "bit_indices",
    "default_max_order",
    "make_group",
    "image_mask",
    "product_set",
    "conjugate_set",
    "left_coset",
    "right_coset",
    "coset_partition",
    "generated_subgroup",
    "is_subgroup_set",
    "enumerate_subgroups",
    "width",
    "psi",
    "element_order",
]

DEFAULT_MAX_ORDER = 64
ENV_MAX_ORDER = "RELCAY_MAX_ORDER"
# the figure of oracles.SEARCH_NODE_BUDGET: E2^4's 50,625 candidates pass, E2^5's do not
AUTOMORPHISM_CANDIDATE_CAP = 1_000_000


class cached_attribute:
    """``functools.cached_property`` without its lock.

    On Python before 3.12 the first read of a ``cached_property`` takes a
    lock; on small objects built by the hundred thousand (element sets,
    per-instance contexts) that costs more than most of the values it
    guards.  Here the value is computed on first read and stored in the
    instance dict, where later reads find it without calling the
    descriptor.  Two threads reading at once may both compute it, which is
    harmless: every cached value is a function of an immutable object.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def default_max_order() -> int:
    """Return the configured order cap (env RELCAY_MAX_ORDER or 64)."""
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise CapacityError(
            f"{ENV_MAX_ORDER} must be a positive integer, got {raw!r}"
        )
    return value


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group given by its full multiplication table.

    Tables compare and hash by object identity; ``make_group`` caches per
    canonical spec, so the same spec yields the same object in-process.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    names: tuple[str, ...]
    spec: str

    def __post_init__(self) -> None:
        """Check the group laws.

        Associativity is checked by Light's test: (xy)z = x(yz) for every x
        and z but only for y in a generating set S (``_table_generators``),
        n^2 |S| triples instead of n^3.  This is complete for any table,
        corrupted or not.  The y that pass for all x and z are closed under
        the operation: if a and b pass, then (x(ab))z = ((xa)b)z =
        (xa)(bz) = x(a(bz)) = x((ab)z).  They include S and the identity,
        whose closure is the whole table, so every y passes.
        """
        n = self.order
        mul = self.mul
        if n < 1 or len(mul) != n or any(len(row) != n for row in mul):
            raise InternalConsistencyError("multiplication table has wrong shape")
        if len(self.inv) != n or len(self.names) != n:
            raise InternalConsistencyError("inverse or name array has wrong length")
        e = self.identity
        for x in range(n):
            if mul[e][x] != x or mul[x][e] != x:
                raise InternalConsistencyError("identity law fails")
            if mul[x][self.inv[x]] != e or mul[self.inv[x]][x] != e:
                raise InternalConsistencyError("inverse law fails")
        if len(set(self.names)) != n:
            raise InternalConsistencyError("element names are not distinct")
        for y in _table_generators(mul, e):
            row_y = mul[y]
            for row_x in mul:
                if tuple(mul[row_x[y]]) != tuple(map(row_x.__getitem__, row_y)):
                    raise InternalConsistencyError("associativity fails")

    @cached_attribute
    def name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def element(self, name: str) -> int:
        """Look up an element index by its canonical display name."""
        try:
            return self.name_index[name]
        except KeyError:
            raise GroupSpecError(
                f"no element named {name!r} in {self.spec}"
            ) from None

    def element_set(self, members: Iterable[int] = ()) -> "ElementSet":
        return ElementSet(self, members)

    @cached_attribute
    def all_elements(self) -> "ElementSet":
        return _from_mask(self, (1 << self.order) - 1)

    def subgroup(self, members: Iterable[int]) -> "Subgroup":
        """The subgroup with these members.

        It is built and checked on the first request; later requests for
        the same members get the same object back.
        """
        return _shared_subgroup(self, ElementSet(self, members).mask)

    @cached_attribute
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Right multiplication by y, as ``_columns[y][x] = xy``."""
        return tuple(zip(*self.mul))

    @cached_attribute
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Every automorphism, as the tuple of the images of the elements.

        The search backtracks over the images of the generating set S of
        ``_table_generators``: each generator goes to an element of its own
        order, and the candidate is extended to every element along a
        spanning tree of words in S.  A candidate is accepted when it is a
        bijection and phi(xs) = phi(x)phi(s) for every x and every s in S
        (``check_automorphism``).  That test is complete by the induction of
        Light's test in ``__post_init__``: the y with phi(xy) = phi(x)phi(y)
        for every x are closed under products, since phi(x(ab)) =
        phi((xa)b) = phi(xa)phi(b) = phi(x)phi(a)phi(b) = phi(x)phi(ab), and
        they include S, which generates the group.  Every automorphism is
        found, since it is fixed by the images of S and keeps element orders.

        The list is in the order of the candidates, the images of S taken
        lexicographically, so the identity comes first: the elements below
        each generator lie in the subgroup of the generators before it, so a
        choice that fixes those and maps it lower is not injective.  When
        there are more than
        ``AUTOMORPHISM_CANDIDATE_CAP`` candidates (E2^5 has 28,629,151) it
        raises ``CapacityError`` and searches nothing.
        """
        return _automorphisms(self)

    @cached_attribute
    def _automorphism_keys(self):
        """Each element's images under the automorphisms, in their order; each
        automorphism's key, its images of the generating set S (which fix
        it); and the automorphism of each key."""
        automorphisms = self.automorphisms
        gens = _table_generators(self.mul, self.identity)
        keys = [tuple(map(phi.__getitem__, gens)) for phi in automorphisms]
        return tuple(zip(*automorphisms)), keys, dict(zip(keys, automorphisms))

    @cached_attribute
    def automorphism_generators(self) -> tuple[tuple[int, ...], ...]:
        """A generating set of the automorphisms: those that
        ``Subgroup.stabiliser_generators`` keeps for the trivial subgroup,
        which every automorphism fixes.  It is empty when the automorphisms
        are not listed because their search would pass its cap."""
        return self.subgroup((self.identity,)).stabiliser_generators

    def check_automorphism(self, images: tuple[int, ...]) -> None:
        """Raise ``InternalConsistencyError`` unless ``images`` maps the
        elements bijectively and multiplicatively onto themselves."""
        defect = _automorphism_defect(self, _table_generators(self.mul, self.identity), images)
        if defect is not None:
            raise InternalConsistencyError(f"not an automorphism of {self.spec}: {defect}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GroupTable({self.spec}, order={self.order})"


def _table_generators(mul, identity: int) -> list[int]:
    """A generating set of a multiplication table, in index order.

    The table is closed from the identity under all products, in both
    orders and with no associativity assumed; each element not yet reached
    is added as a generator and closed in turn.
    """
    reached = {identity}
    closed = [identity]
    generators = []
    for g in range(len(mul)):
        if g in reached:
            continue
        generators.append(g)
        reached.add(g)
        closed.append(g)
        done = len(closed) - 1
        while done < len(closed):
            a = closed[done]
            for b in closed[: done + 1]:
                for ab in (mul[a][b], mul[b][a]):
                    if ab not in reached:
                        reached.add(ab)
                        closed.append(ab)
            done += 1
    return generators


def _automorphisms(g: GroupTable) -> tuple[tuple[int, ...], ...]:
    n, mul, e = g.order, g.mul, g.identity
    gens = _table_generators(mul, e)
    orders = [element_order(g, x) for x in range(n)]
    options = [[y for y in range(n) if orders[y] == orders[s]] for s in gens]
    candidates = math.prod(map(len, options))
    if candidates > AUTOMORPHISM_CANDIDATE_CAP:
        raise CapacityError(
            f"automorphisms of {g.spec}: {candidates} candidate generator images, "
            f"above the cap of {AUTOMORPHISM_CANDIDATE_CAP}"
        )
    # A spanning tree of words, grown one generator at a time: level k
    # reaches the subgroup G_k generated by gens[:k + 1], each new element
    # as reached[p] = reached[q] * gens[i] with q < p.  Each generator lies
    # outside the subgroup of those before it, so the G_k grow strictly.
    reached = [e]
    seen = 1 << e
    levels = []
    for k in range(len(gens)):
        edges = []
        for q, x in enumerate(reached):
            row = mul[x]
            for i in range(k + 1):
                y = row[gens[i]]
                if not seen >> y & 1:
                    seen |= 1 << y
                    edges.append((len(reached), q, i))
                    reached.append(y)
        levels.append((edges, len(reached)))
    columns = g._columns
    # image[p] is the image of reached[p]; a choice for gens[:k + 1] is
    # extended over G_k and dropped there unless it is injective on G_k
    image = [e] * n
    choice = [e] * len(gens)
    found = []

    def extend(k: int) -> None:
        if k == len(gens):
            candidate = [e] * n
            for x, y in zip(reached, image):
                candidate[x] = y
            if _automorphism_defect(g, gens, candidate) is None:
                found.append(tuple(candidate))
            return
        edges, size = levels[k]
        for y in options[k]:
            choice[k] = y
            for p, q, i in edges:
                image[p] = columns[choice[i]][image[q]]
            if len(set(image[:size])) == size:
                extend(k + 1)

    extend(0)
    return tuple(found)


def _automorphism_defect(g: GroupTable, gens, images) -> Optional[str]:
    """Why ``images`` is not an automorphism of g, tested on the products
    with the generating set ``gens``; None when it is one."""
    n = g.order
    if len(images) != n or set(images) != set(range(n)):
        return "the map is not a bijection"
    columns = g._columns
    for s in gens:
        # phi(x s) and phi(x) phi(s) for every x, column by column
        left = list(map(images.__getitem__, columns[s]))
        right = list(map(columns[images[s]].__getitem__, images))
        if left != right:
            x = next(x for x in range(n) if left[x] != right[x])
            return f"phi({g.names[x]}*{g.names[s]}) != phi({g.names[x]})*phi({g.names[s]})"
    return None


def _close_automorphisms(span: set, kept: list, by_key: dict) -> None:
    """Grow ``span``, the group generated by ``kept[:-1]``, into the group
    generated by all of ``kept``.  Automorphisms here are keys, their
    images of the table's generating set; ``by_key`` gives each one's
    images of every element, so phi o psi has the key phi(psi(S)).

    Old members times the new generator, and new members times every
    generator, are all the products that can leave the old group.
    """
    last = kept[-1]
    fresh = []
    for phi in list(span):
        psi = tuple(map(by_key[phi].__getitem__, last))
        if psi not in span:
            span.add(psi)
            fresh.append(psi)
    for phi in fresh:
        image = by_key[phi].__getitem__
        for step in kept:
            psi = tuple(map(image, step))
            if psi not in span:
                span.add(psi)
                fresh.append(psi)


def _require_same_group(a: "ElementSet", b: "ElementSet") -> GroupTable:
    if a.group is not b.group:
        raise GroupMismatchError(
            f"operands belong to different groups: {a.group.spec} vs {b.group.spec}"
        )
    return a.group


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True, eq=False, init=False)
class ElementSet:
    """An immutable subset of a group's elements, held as a bit mask.

    Bit x of ``mask`` is set exactly when element x is a member.  Size,
    membership, equality, hashing and the set operations read the mask;
    ``members``, the ascending tuple of member indices, is derived from it
    on first use.
    """

    group: GroupTable
    mask: int

    def __init__(self, group: GroupTable, members: Iterable[int] = ()) -> None:
        order = group.order
        items = [int(m) for m in members]
        mask = 0
        for m in items:
            if not 0 <= m < order:
                low = min(items)
                bad = low if low < 0 else max(items)
                raise GroupSpecError(
                    f"element index {bad} out of range for group of order {order}"
                )
            mask |= 1 << m
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(group=group, mask=mask)

    @cached_attribute
    def members(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.group is other.group and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((id(self.group), self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, int) and x >= 0 and bool(self.mask >> x & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def union(self, other: "ElementSet | Iterable[int]") -> "ElementSet":
        return _from_mask(self.group, self.mask | self._coerce(other))

    def intersection(self, other: "ElementSet | Iterable[int]") -> "ElementSet":
        return _from_mask(self.group, self.mask & self._coerce(other))

    def difference(self, other: "ElementSet | Iterable[int]") -> "ElementSet":
        return _from_mask(self.group, self.mask & ~self._coerce(other))

    def _coerce(self, other: "ElementSet | Iterable[int]") -> int:
        if isinstance(other, ElementSet):
            _require_same_group(self, other)
            return other.mask
        return ElementSet(self.group, other).mask

    def with_identity(self) -> "ElementSet":
        """The starred set: this set together with the identity."""
        bit = 1 << self.group.identity
        if self.mask & bit:
            return self
        return _from_mask(self.group, self.mask | bit)

    def inverses(self) -> "ElementSet":
        return _from_mask(self.group, image_mask(self.group.inv, self.members))

    @property
    def is_inverse_closed(self) -> bool:
        return self.inverses().mask == self.mask

    def names(self) -> tuple[str, ...]:
        names = self.group.names
        return tuple(names[x] for x in self.members)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shown = ",".join(self.names())
        return f"{{{shown}}}@{self.group.spec}"


def _from_mask(group: GroupTable, mask: int) -> ElementSet:
    """An ElementSet over a mask already known to lie inside the group."""
    out = object.__new__(ElementSet)
    out.__dict__.update(group=group, mask=mask)
    return out


class Subgroup(ElementSet):
    """An ElementSet that is verified to be a subgroup at construction.

    Quantities that depend on the subgroup alone are computed on first use
    and kept on the object, so a subgroup shared through
    ``GroupTable.subgroup``, ``generated_subgroup`` or
    ``enumerate_subgroups`` computes each of them once:

    - its left and right coset partitions (``coset_partition``);
    - ``generators``, a generating set built greedily;
    - ``right_coset_masks``, the mask of the right coset Hx for each
      element x, which ``star_product`` reads, and ``left_coset_masks``,
      which ``product_within`` reads;
    - ``stabiliser_generators``, generators of the automorphisms that map
      it onto itself, which the audit's orbit classes are built from;
    - ``is_aba``, whether it factors as A*B*A into proper subgroups.

    Its shift-avoiding 3-part splits (``shift_avoiding_splits``) are cached
    per (subgroup, step) in the module, like the per-mask tables.
    """

    def __init__(self, group: GroupTable, members: Iterable[int] = ()) -> None:
        super().__init__(group, members)
        mask = self.mask
        if not mask >> group.identity & 1:
            raise GroupSpecError("subgroup must contain the identity")
        mul = group.mul
        inv = group.inv
        for x in self.members:
            if not mask >> inv[x] & 1:
                raise GroupSpecError(
                    f"subgroup not closed under inversion at {group.names[x]}"
                )
            row = mul[x]
            for y in self.members:
                if not mask >> row[y] & 1:
                    raise GroupSpecError(
                        "subgroup not closed under multiplication at "
                        f"{group.names[x]}*{group.names[y]}"
                    )

    @property
    def is_proper(self) -> bool:
        return len(self) < self.group.order

    @property
    def index(self) -> int:
        return self.group.order // len(self)

    @cached_attribute
    def generators(self) -> tuple[int, ...]:
        """A generating set of H: its members by decreasing element order
        (lower index on ties), each taken when the members taken so far do
        not generate it.  A cyclic H gets one generator, and {e} none."""
        g = self.group
        taken = []
        seed = 0
        span = 1 << g.identity
        for x in sorted(self.members, key=lambda x: -element_order(g, x)):
            if not span >> x & 1:
                taken.append(x)
                seed |= 1 << x
                span = _generated(g, seed).mask
        return tuple(taken)

    @cached_attribute
    def stabiliser_generators(self) -> tuple[tuple[int, ...], ...]:
        """A generating set of the automorphisms phi with phi(H) = H.

        Those are the listed automorphisms that map each of ``generators``
        into H: then phi(H) lies in H and has |H| elements.  Going through
        them in the reverse order of ``GroupTable.automorphisms``, each one
        is kept when the ones kept before it do not generate it, so the set
        is the same in every process.  Taken from the far end of the list,
        away from the identity, fewer are kept: 229 over E2^4's 66 proper
        subgroups, against 425 from the front.  It is empty, as for a
        stabiliser holding the identity alone, when the group's
        automorphisms are not listed because their search would pass its
        cap.
        """
        try:
            by_element, keys, by_key = self.group._automorphism_keys
        except CapacityError:
            return ()
        inside = [self.mask >> y & 1 for y in range(self.group.order)]
        chosen = range(len(keys))
        for x in self.generators:
            images = by_element[x]
            chosen = list(compress(chosen, map(inside.__getitem__, map(images.__getitem__, chosen))))
        kept: list[tuple[int, ...]] = []
        span = {keys[0]}  # the identity, listed first
        for i in reversed(chosen):
            if len(span) == len(chosen):
                break  # the kept ones generate the whole stabiliser
            if keys[i] not in span:
                kept.append(keys[i])
                _close_automorphisms(span, kept, by_key)
        return tuple(by_key[key] for key in kept)

    @cached_attribute
    def _left_cosets(self) -> tuple[ElementSet, ...]:
        return _build_cosets(self, left_coset)

    @cached_attribute
    def _right_cosets(self) -> tuple[ElementSet, ...]:
        return _build_cosets(self, right_coset)

    @cached_attribute
    def right_coset_masks(self) -> tuple[int, ...]:
        """The mask of the right coset Hx, indexed by the element x."""
        return _coset_masks(self._right_cosets, self.group.order)

    @cached_attribute
    def left_coset_masks(self) -> tuple[int, ...]:
        """The mask of the left coset xH, indexed by the element x."""
        return _coset_masks(self._left_cosets, self.group.order)

    def product_within(self, a: ElementSet, b: ElementSet) -> ElementSet:
        """H n A*B.  xy lies in H exactly when y lies in x^-1 H, so each x
        in A is paired only with the members of B in that left coset."""
        group = _require_same_group(a, b)
        mul, inv = group.mul, group.inv
        cosets = self.left_coset_masks
        right = b.mask
        out = 0
        for x in a.members:
            out |= image_mask(mul[x], bit_indices(right & cosets[inv[x]]))
        return _from_mask(group, out)

    def star_product(self, x: ElementSet) -> ElementSet:
        """The product H*X* = H*(X u {e}), as H together with the right
        cosets Hx over x in X."""
        group = _require_same_group(self, x)
        table = self.right_coset_masks
        out = self.mask
        for m in x.members:
            out |= table[m]
        return _from_mask(group, out)

    def shift_avoiding_splits(self, step: int) -> tuple[tuple[int, int, int], ...]:
        """Every split of H into three parts, as member masks, with no part
        holding both x and x*step; empty parts are allowed.

        Each split is listed once, with its parts in the order in which
        they first meet the members of H (so an empty part comes last).
        The table is built on the first request for a (subgroup, step)
        and the same tuple is returned to every later one.
        """
        return _split_table(self, step)

    @cached_attribute
    def is_aba(self) -> bool:
        """Whether the subgroup factors as A*B*A for proper subgroups A, B
        of it."""
        target = self.mask
        size = len(self)
        # the group was admitted under its caller's cap when it was built
        smaller = [
            s
            for s in _all_subgroups(self.group)
            if len(s) < size and not s.mask & ~target
        ]
        for a in smaller:
            for b in smaller:
                if len(a) * len(a) * len(b) < size:
                    continue
                ab = product_set(a, b)
                if len(ab) * len(a) < size:
                    continue
                if product_set(ab, a).mask == target:
                    return True
        return False


# --------------------------------------------------------------------------
# Group construction


@dataclass(frozen=True)
class _Factor:
    token: str
    order: int
    mul: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]


def _power_name(base: str, i: int) -> str:
    if i == 0:
        return "1"
    if i == 1:
        return base
    return f"{base}{i}"


def _cyclic(n: int) -> _Factor:
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    names = tuple(_power_name("a", i) for i in range(n))
    return _Factor(f"C{n}", n, mul, names)


def _dihedral(n: int) -> _Factor:
    # Element a^i b^j has index i + n*j; b a = a^(-1) b.
    order = 2 * n

    def idx(i: int, j: int) -> int:
        return i % n + n * (j % 2)

    mul_rows = []
    for x in range(order):
        i1, j1 = x % n, x // n
        row = []
        for y in range(order):
            i2, j2 = y % n, y // n
            i = i1 + (i2 if j1 == 0 else -i2)
            row.append(idx(i, j1 + j2))
        mul_rows.append(tuple(row))
    names = [_power_name("a", i) for i in range(n)]
    for i in range(n):
        names.append("b" if i == 0 else f"{_power_name('a', i)}b")
    return _Factor(f"D{n}", order, tuple(mul_rows), tuple(names))


def _perm_cycle_name(perm: tuple[int, ...]) -> str:
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(1, n + 1):
        if seen[start - 1] or perm[start - 1] == start:
            continue
        cycle = [start]
        seen[start - 1] = True
        nxt = perm[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt - 1] = True
            nxt = perm[nxt - 1]
        parts.append("(" + "".join(str(v) for v in cycle) + ")")
    return "".join(parts) if parts else "1"


def _symmetric(n: int) -> _Factor:
    perms = sorted(itertools.permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)

    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        # (p*q)(x) = p(q(x)): apply the right factor first.
        return tuple(p[q[i] - 1] for i in range(n))

    mul = tuple(
        tuple(index[compose(p, q)] for q in perms) for p in perms
    )
    names = tuple(_perm_cycle_name(p) for p in perms)
    return _Factor(f"S{n}", order, mul, names)


def _quaternion() -> _Factor:
    # Indices: 1,-1,i,-i,j,-j,k,-k as (axis, sign) with axis*2 + (sign<0).
    axes = "1ijk"
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }

    def unpack(x: int) -> tuple[int, str]:
        return (-1 if x % 2 else 1), axes[x // 2]

    def pack(sign: int, axis: str) -> int:
        return axes.index(axis) * 2 + (0 if sign > 0 else 1)

    mul_rows = []
    for x in range(8):
        sx, ax = unpack(x)
        row = []
        for y in range(8):
            sy, ay = unpack(y)
            s, a = table[(ax, ay)]
            row.append(pack(sx * sy * s, a))
        mul_rows.append(tuple(row))
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return _Factor("Q8", 8, tuple(mul_rows), names)


def _elementary(p: int, k: int) -> _Factor:
    vectors = list(itertools.product(range(p), repeat=k))
    index = {v: i for i, v in enumerate(vectors)}
    mul = tuple(
        tuple(
            index[tuple((a + b) % p for a, b in zip(u, v))] for v in vectors
        )
        for u in vectors
    )
    names = tuple("".join(str(d) for d in v) for v in vectors)
    return _Factor(f"E{p}^{k}", p**k, mul, names)


def _direct_product(factors: list[_Factor]) -> _Factor:
    orders = [f.order for f in factors]
    combos = list(itertools.product(*(range(o) for o in orders)))
    index = {c: i for i, c in enumerate(combos)}
    mul = tuple(
        tuple(
            index[tuple(f.mul[a][b] for f, a, b in zip(factors, u, v))]
            for v in combos
        )
        for u in combos
    )
    names = tuple(
        "(" + ",".join(f.names[c] for f, c in zip(factors, combo)) + ")"
        for combo in combos
    )
    token = "x".join(f.token for f in factors)
    return _Factor(token, math.prod(orders), mul, names)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_TERM_RE = re.compile(r"^(C|D|S)(\d+)$|^(Q8)$|^E(\d+)\^(\d+)$")


def _parse_term(token: str) -> tuple[str, int]:
    """Return (canonical token, order) without building the table."""
    m = _TERM_RE.match(token)
    if m is None:
        raise GroupSpecError(
            f"bad group term {token!r}; expected C<n>, D<n>, S<n>, Q8 or E<p>^<k>"
        )
    if m.group(3):
        return "Q8", 8
    if m.group(1):
        family, n = m.group(1), int(m.group(2))
        if n < 1:
            raise GroupSpecError(f"{family}{n}: n must be at least 1")
        if family == "C":
            return f"C{n}", n
        if family == "D":
            return f"D{n}", 2 * n
        if n > 5:
            raise GroupSpecError(f"S{n}: symmetric groups supported up to S5")
        return f"S{n}", math.factorial(n)
    p, k = int(m.group(4)), int(m.group(5))
    if not _is_prime(p):
        raise GroupSpecError(f"E{p}^{k}: {p} is not prime")
    if k < 1:
        raise GroupSpecError(f"E{p}^{k}: exponent must be at least 1")
    return f"E{p}^{k}", p**k


@lru_cache(maxsize=256)
def _parse_spec(spec: str) -> tuple[tuple[tuple[str, int], ...], str, int]:
    """The terms, canonical spelling and order of a spec, parsed once per
    spelling."""
    text = spec.strip()
    if not text or any(ch.isspace() for ch in text):
        raise GroupSpecError(f"group spec must be non-empty and whitespace-free: {spec!r}")
    tokens = text.upper().split("X")
    if any(not t for t in tokens):
        raise GroupSpecError(f"empty factor in group spec {spec!r}")
    terms = tuple(_parse_term(t) for t in tokens)
    canonical = "x".join(tok for tok, _ in terms)
    order = math.prod(order for _, order in terms)
    return terms, canonical, order


def _build_term(token: str) -> _Factor:
    if token == "Q8":
        return _quaternion()
    if token.startswith("E"):
        p, k = token[1:].split("^")
        return _elementary(int(p), int(k))
    family, n = token[0], int(token[1:])
    if family == "C":
        return _cyclic(n)
    if family == "D":
        return _dihedral(n)
    return _symmetric(n)


@lru_cache(maxsize=None)
def _build_group(canonical: str) -> GroupTable:
    factors = [_build_term(tok) for tok in canonical.split("x")]
    built = factors[0] if len(factors) == 1 else _direct_product(factors)
    inv = []
    for x in range(built.order):
        row = built.mul[x]
        inv.append(row.index(0))
    return GroupTable(
        order=built.order,
        mul=built.mul,
        identity=0,
        inv=tuple(inv),
        names=built.names,
        spec=canonical,
    )


def make_group(spec: str, max_order: Optional[int] = None) -> GroupTable:
    """Build (or fetch from cache) the group named by a spec string."""
    _, canonical, order = _parse_spec(spec)
    cap = default_max_order() if max_order is None else max_order
    if order > cap:
        raise CapacityError(
            f"group {canonical} has order {order}, above the cap of {cap}"
        )
    return _build_group(canonical)


# --------------------------------------------------------------------------
# Set algebra


def image_mask(images, members: Iterable[int]) -> int:
    """The mask of {images[y] : y in members}.  With the row
    ``group.mul[x]`` as ``images`` it is the left translate x*S of the
    members S, with the column ``group._columns[x]`` the right translate
    S*x, with ``group.inv`` the inverses S^-1, and with an automorphism phi,
    the tuple of its images, phi(S)."""
    out = 0
    for y in members:
        out |= 1 << images[y]
    return out


def product_set(a: ElementSet, b: ElementSet) -> ElementSet:
    """The setwise product {xy : x in a, y in b}."""
    g = _require_same_group(a, b)
    mul = g.mul
    right = b.members
    out = 0
    for x in a.members:
        out |= image_mask(mul[x], right)
    return _from_mask(g, out)


def conjugate_set(x: ElementSet, g_elt: int) -> ElementSet:
    """The conjugate set {g^-1 x g : x in the set}, the right translate by
    g of the left translate by g^-1."""
    g = x.group
    left = image_mask(g.mul[g.inv[g_elt]], x.members)
    return _from_mask(g, image_mask(g._columns[g_elt], bit_indices(left)))


def left_coset(s: ElementSet, x: int) -> ElementSet:
    """xS for an element x."""
    return _from_mask(s.group, image_mask(s.group.mul[x], s.members))


def right_coset(s: ElementSet, x: int) -> ElementSet:
    """Sx for an element x."""
    return _from_mask(s.group, image_mask(s.group._columns[x], s.members))


def _build_cosets(h: Subgroup, coset) -> tuple[ElementSet, ...]:
    cosets = []
    covered = 0
    for x in range(h.group.order):
        if covered >> x & 1:
            continue
        found = coset(h, x)
        covered |= found.mask
        cosets.append(found)
    return tuple(cosets)


def _coset_masks(cosets, order: int) -> tuple[int, ...]:
    table = [0] * order
    for coset in cosets:
        for x in coset.members:
            table[x] = coset.mask
    return tuple(table)


@cache
def _split_table(h: Subgroup, step: int) -> tuple[tuple[int, int, int], ...]:
    """The splits that ``Subgroup.shift_avoiding_splits`` lists.

    The members are placed in ascending order, each in a part holding
    neither x*step nor x*step^-1 among the members already placed.  A
    member may open a new part only when the parts before it are in use,
    so each split is built once, with its parts in order of first use.
    """
    g = h.group
    if step == g.identity:
        return ()  # every x shares a part with x*step = x
    mul = g.mul
    back = g.inv[step]
    members = h.members
    apart = [1 << mul[x][step] | 1 << mul[x][back] for x in members]
    parts = [0, 0, 0]
    splits = []

    def place(i: int, used: int) -> None:
        if i == len(members):
            splits.append(tuple(parts))
            return
        bit = 1 << members[i]
        for k in range(min(used + 1, 3)):
            if not parts[k] & apart[i]:
                parts[k] |= bit
                place(i + 1, max(used, k + 1))
                parts[k] ^= bit

    place(0, 0)
    return tuple(splits)


def coset_partition(h: Subgroup, side: str = "left") -> tuple[ElementSet, ...]:
    """All cosets of a subgroup, ordered by their smallest member.

    Built once per subgroup object and shared by later calls.
    """
    if side == "left":
        return h._left_cosets
    if side == "right":
        return h._right_cosets
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _closure_mask(g: GroupTable, seed_mask: int) -> int:
    # every product of seed elements, grown breadth-first from the identity;
    # in a finite group these words already form the generated subgroup
    mul = g.mul
    gens = bit_indices(seed_mask)
    found = 1 << g.identity
    reached = [g.identity]
    for x in reached:
        row = mul[x]
        for s in gens:
            y = row[s]
            if not found >> y & 1:
                found |= 1 << y
                reached.append(y)
    return found


@cache
def _shared_subgroup(g: GroupTable, mask: int) -> Subgroup:
    return Subgroup(g, bit_indices(mask))


@cache
def _generated(g: GroupTable, seed_mask: int) -> Subgroup:
    return _shared_subgroup(g, _closure_mask(g, seed_mask))


def generated_subgroup(x: ElementSet) -> Subgroup:
    """The smallest subgroup containing the given set.

    Each generator mask is closed once per group; later requests for the
    same set get the same object back.
    """
    return _generated(x.group, x.mask)


def is_subgroup_set(x: ElementSet) -> bool:
    """Whether the set itself is a subgroup (identity in, products closed)."""
    g = x.group
    mask = x.mask
    if not mask >> g.identity & 1:
        return False
    mul = g.mul
    members = x.members
    for a in members:
        row = mul[a]
        for b in members:
            if not mask >> row[b] & 1:
                return False
    return True


@lru_cache(maxsize=None)
def _all_subgroups(g: GroupTable) -> tuple[Subgroup, ...]:
    trivial = 1 << g.identity
    found = {trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for s in frontier:
            for x in range(g.order):
                if s >> x & 1:
                    continue
                t = _generated(g, s | 1 << x).mask
                if t not in found:
                    found.add(t)
                    fresh.append(t)
        frontier = fresh
    ordered = sorted(found, key=lambda m: (m.bit_count(), bit_indices(m)))
    return tuple(_shared_subgroup(g, m) for m in ordered)


def enumerate_subgroups(
    g: GroupTable, max_order: Optional[int] = None
) -> tuple[Subgroup, ...]:
    """All subgroups, each once, sorted by size then member list.

    The tuple is built once per group; every call returns the same one.
    """
    cap = default_max_order() if max_order is None else max_order
    if g.order > cap:
        raise CapacityError(
            f"subgroup enumeration needs order <= {cap}, got {g.order}"
        )
    return _all_subgroups(g)


def width(x: ElementSet) -> int:
    """Least n with <x> covered by the powers x^0 u x u ... u x^n.

    Each mask's width is computed once per group.
    """
    return _width(x.group, x.mask)


@cache
def _width(g: GroupTable, mask: int) -> int:
    # the loop ends: once the union stops growing it is closed under
    # multiplication by the set, so it already holds all of <x>
    mul = g.mul
    factors = bit_indices(mask)
    target = _generated(g, mask).mask
    covered = current = 1 << g.identity
    steps = 0
    while target & ~covered:
        grown = 0
        for a in bit_indices(current):
            grown |= image_mask(mul[a], factors)
        current = grown
        covered |= current
        steps += 1
    return steps


def psi(x: ElementSet) -> int:
    """Largest order of a subgroup contained in the starred set."""
    # subgroups_within is sorted by size and holds at least {e}
    return len(subgroups_within(x)[-1])


def subgroups_within(x: ElementSet) -> tuple[Subgroup, ...]:
    """All subgroups contained in the starred set, sorted by size then members.

    Each starred mask is looked up once per group.
    """
    g = x.group
    return _subgroups_within(g, x.mask | 1 << g.identity)


@cache
def _subgroups_within(g: GroupTable, star: int) -> tuple[Subgroup, ...]:
    return tuple(s for s in _all_subgroups(g) if not s.mask & ~star)


def element_order(g: GroupTable, x: int) -> int:
    """Multiplicative order of a single element."""
    k = 1
    acc = x
    while acc != g.identity:
        acc = g.mul[acc][x]
        k += 1
    return k
