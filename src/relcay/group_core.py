"""Finite groups as explicit multiplication tables, plus the set algebra
(products, generated subgroups, subgroup enumeration, width, psi) that the
predicate layer consumes.

Groups are built from a small spec grammar::

    spec := term ("x" term)*
    term := "C"<n> | "D"<n> (dihedral, order 2n) | "S"<n> (n <= 5)
          | "Q8" | "E"<p>"^"<k> (elementary abelian, p prime)

Specs are case-insensitive and whitespace-free.  Element 0 is always the
identity.  All objects here are immutable and safe to share across workers.
"""
from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    "default_max_order",
    "make_group",
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
        for a in range(n):
            row_a = mul[a]
            for b in range(n):
                row_ab = mul[row_a[b]]
                row_b = mul[b]
                for c in range(n):
                    if row_ab[c] != row_a[row_b[c]]:
                        raise InternalConsistencyError("associativity fails")

    @cached_property
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

    @cached_property
    def all_elements(self) -> "ElementSet":
        return ElementSet(self, range(self.order))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GroupTable({self.spec}, order={self.order})"


def _require_same_group(a: "ElementSet", b: "ElementSet") -> GroupTable:
    if a.group is not b.group:
        raise GroupMismatchError(
            f"operands belong to different groups: {a.group.spec} vs {b.group.spec}"
        )
    return a.group


@dataclass(frozen=True, eq=False, init=False)
class ElementSet:
    """An immutable subset of a group's elements, kept sorted and deduplicated."""

    group: GroupTable
    members: tuple[int, ...]

    def __init__(self, group: GroupTable, members: Iterable[int] = ()) -> None:
        canon = tuple(sorted({int(m) for m in members}))
        if canon and not (0 <= canon[0] and canon[-1] < group.order):
            bad = canon[0] if canon[0] < 0 else canon[-1]
            raise GroupSpecError(
                f"element index {bad} out of range for group of order {group.order}"
            )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "members", canon)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.group is other.group and self.members == other.members

    def __hash__(self) -> int:
        return hash((id(self.group), self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, x: object) -> bool:
        return x in self._member_set

    def __bool__(self) -> bool:
        return bool(self.members)

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def mask(self) -> int:
        m = 0
        for x in self.members:
            m |= 1 << x
        return m

    def union(self, other: "ElementSet | Iterable[int]") -> "ElementSet":
        other_members = self._coerce(other)
        return ElementSet(self.group, self._member_set | other_members)

    def intersection(self, other: "ElementSet | Iterable[int]") -> "ElementSet":
        other_members = self._coerce(other)
        return ElementSet(self.group, self._member_set & other_members)

    def difference(self, other: "ElementSet | Iterable[int]") -> "ElementSet":
        other_members = self._coerce(other)
        return ElementSet(self.group, self._member_set - other_members)

    def _coerce(self, other: "ElementSet | Iterable[int]") -> frozenset[int]:
        if isinstance(other, ElementSet):
            _require_same_group(self, other)
            return other._member_set
        return frozenset(int(x) for x in other)

    def with_identity(self) -> "ElementSet":
        """The starred set: this set together with the identity."""
        if self.group.identity in self._member_set:
            return self
        return ElementSet(self.group, self.members + (self.group.identity,))

    def inverses(self) -> "ElementSet":
        inv = self.group.inv
        return ElementSet(self.group, (inv[x] for x in self.members))

    @property
    def is_inverse_closed(self) -> bool:
        inv = self.group.inv
        return all(inv[x] in self._member_set for x in self.members)

    def names(self) -> tuple[str, ...]:
        return tuple(self.group.names[x] for x in self.members)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shown = ",".join(self.names())
        return f"{{{shown}}}@{self.group.spec}"


class Subgroup(ElementSet):
    """An ElementSet that is verified to be a subgroup at construction."""

    def __init__(self, group: GroupTable, members: Iterable[int] = ()) -> None:
        super().__init__(group, members)
        mem = self._member_set
        if group.identity not in mem:
            raise GroupSpecError("subgroup must contain the identity")
        mul = group.mul
        inv = group.inv
        for x in self.members:
            if inv[x] not in mem:
                raise GroupSpecError(
                    f"subgroup not closed under inversion at {group.names[x]}"
                )
            row = mul[x]
            for y in self.members:
                if row[y] not in mem:
                    raise GroupSpecError(
                        "subgroup not closed under multiplication at "
                        f"{group.names[x]}*{group.names[y]}"
                    )

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.group.order

    @property
    def index(self) -> int:
        return self.group.order // len(self.members)


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


def _parse_spec(spec: str) -> tuple[list[tuple[str, int]], str, int]:
    text = spec.strip()
    if not text or any(ch.isspace() for ch in text):
        raise GroupSpecError(f"group spec must be non-empty and whitespace-free: {spec!r}")
    tokens = text.upper().split("X")
    if any(not t for t in tokens):
        raise GroupSpecError(f"empty factor in group spec {spec!r}")
    terms = [_parse_term(t) for t in tokens]
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


def product_set(a: ElementSet, b: ElementSet) -> ElementSet:
    """The setwise product {xy : x in a, y in b}."""
    g = _require_same_group(a, b)
    mul = g.mul
    out: set[int] = set()
    for x in a.members:
        row = mul[x]
        for y in b.members:
            out.add(row[y])
    return ElementSet(g, out)


def conjugate_set(x: ElementSet, g_elt: int) -> ElementSet:
    """The conjugate set {g^-1 x g : x in the set}."""
    g = x.group
    mul = g.mul
    ginv = g.inv[g_elt]
    return ElementSet(g, (mul[mul[ginv][m]][g_elt] for m in x.members))


def left_coset(s: ElementSet, x: int) -> ElementSet:
    """xS for an element x."""
    mul_row = s.group.mul[x]
    return ElementSet(s.group, (mul_row[m] for m in s.members))


def right_coset(s: ElementSet, x: int) -> ElementSet:
    """Sx for an element x."""
    mul = s.group.mul
    return ElementSet(s.group, (mul[m][x] for m in s.members))


def coset_partition(h: Subgroup, side: str = "left") -> tuple[ElementSet, ...]:
    """All cosets of a subgroup, ordered by their smallest member."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    g = h.group
    cosets = []
    covered = 0
    for x in range(g.order):
        if covered >> x & 1:
            continue
        coset = left_coset(h, x) if side == "left" else right_coset(h, x)
        covered |= coset.mask
        cosets.append(coset)
    return tuple(cosets)


def _closure_members(g: GroupTable, seed: Iterable[int]) -> frozenset[int]:
    mul = g.mul
    members: list[int] = [g.identity]
    seen = {g.identity}
    pending = [x for x in seed]
    while pending:
        x = pending.pop()
        if x in seen:
            continue
        for y in members:
            p = mul[x][y]
            if p not in seen:
                pending.append(p)
            q = mul[y][x]
            if q not in seen:
                pending.append(q)
        p = mul[x][x]
        if p not in seen:
            pending.append(p)
        members.append(x)
        seen.add(x)
    return frozenset(seen)


def generated_subgroup(x: ElementSet) -> Subgroup:
    """The smallest subgroup containing the given set."""
    return Subgroup(x.group, _closure_members(x.group, x.members))


def is_subgroup_set(x: ElementSet) -> bool:
    """Whether the set itself is a subgroup (identity in, products closed)."""
    g = x.group
    mem = x._member_set
    if g.identity not in mem:
        return False
    mul = g.mul
    for a in x.members:
        row = mul[a]
        for b in x.members:
            if row[b] not in mem:
                return False
    return True


@lru_cache(maxsize=None)
def _enumerate_subgroup_sets(g: GroupTable) -> tuple[frozenset[int], ...]:
    trivial = frozenset({g.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for s in frontier:
            for x in range(g.order):
                if x in s:
                    continue
                t = _closure_members(g, s | {x})
                if t not in found:
                    found.add(t)
                    fresh.append(t)
        frontier = fresh
    return tuple(sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))


def enumerate_subgroups(
    g: GroupTable, max_order: Optional[int] = None
) -> tuple[Subgroup, ...]:
    """All subgroups, each once, sorted by size then member list."""
    cap = default_max_order() if max_order is None else max_order
    if g.order > cap:
        raise CapacityError(
            f"subgroup enumeration needs order <= {cap}, got {g.order}"
        )
    return tuple(
        Subgroup(g, members) for members in _enumerate_subgroup_sets(g)
    )


def width(x: ElementSet, within: Optional[Subgroup] = None) -> int | float:
    """Least n with the target subgroup covered by powers x^0 u x u ... u x^n.

    The target defaults to the subgroup generated by the set, for which the
    answer is always finite; passing a strictly larger ``within`` yields the
    infinity marker ``math.inf``.
    """
    g = x.group
    if within is not None:
        _require_same_group(x, within)
        target = within._member_set
    else:
        target = generated_subgroup(x)._member_set
    covered = {g.identity}
    if covered >= target:
        return 0
    mul = g.mul
    current = set(x.members)
    steps = 0
    while True:
        steps += 1
        before = len(covered)
        covered |= current
        if covered >= target:
            return steps
        if len(covered) == before:
            return math.inf
        current = {mul[a][b] for a in current for b in x.members}


def psi(x: ElementSet) -> int:
    """Largest order of a subgroup contained in the starred set."""
    star = x._member_set | {x.group.identity}
    best = 1
    for members in _enumerate_subgroup_sets(x.group):
        if len(members) > best and members <= star:
            best = len(members)
    return best


def subgroups_within(x: ElementSet) -> tuple[Subgroup, ...]:
    """All subgroups contained in the starred set, sorted by size then members."""
    star = x._member_set | {x.group.identity}
    g = x.group
    return tuple(
        Subgroup(g, members)
        for members in _enumerate_subgroup_sets(g)
        if members <= star
    )


def element_order(g: GroupTable, x: int) -> int:
    """Multiplicative order of a single element."""
    k = 1
    acc = x
    while acc != g.identity:
        acc = g.mul[acc][x]
        k += 1
    return k
