"""Structural predictions about relative Cayley graphs, from group arithmetic.

Every predictor here works only with multiplication-table algebra on
(G, H, C): coset counts, product sets, generated subgroups, widths.  None of
them reads graph adjacency, so the audit layer can compare their output
against the brute-force oracles as two independent computations.  The one
partial exception is the printed square condition, whose statement itself
involves vertex degrees; those are taken from the degree formulas, not from
an adjacency matrix.

What depends on H alone is read from tables kept on the shared
``Subgroup`` (cosets, the right coset of each element, the splits of
chromatic condition (ii)), and lattice answers (width, psi, subgroups
within a set) from tables kept per group and mask.  Only what depends on C
is computed per instance, in ``InstanceSets`` and the predictors
themselves.

The class-one edge coloring is constructive: it colors Cay(H, H n C), the
subgraph on H, with a Vizing-style fan procedure (once per H and H n C)
and extends across the cut edges, certifying that the edge chromatic
number equals the maximum degree whenever C has an element outside H.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    InternalConsistencyError,
    PreconditionError,
    UnknownCheckError,
)
from .graphs import RelCayGraph
from .group_core import (
    ElementSet,
    GroupTable,
    Subgroup,
    bit_indices,
    cached_attribute,
    conjugate_set,
    coset_partition,
    generated_subgroup,
    image_mask,
    is_subgroup_set,
    product_set,
    psi,
    right_coset,
    subgroups_within,
    width,
)

__all__ = [
    "DEFAULT_CHROMATIC_II_CAP",
    "FORBIDDEN_KINDS",
    "ValencyPredictions",
    "DiameterBound",
    "ConnectivityPredictions",
    "DcCase",
    "CliquePredictions",
    "AlphaBetaPredictions",
    "ChromaticPredictions",
    "ForbiddenPrediction",
    "EdgeColoring",
    "InstanceSets",
    "PredictionSet",
    "predict_valencies",
    "predict_connectivity",
    "predict_clique",
    "predict_alpha_beta",
    "predict_chromatic",
    "predict_forbidden",
    "predict_all",
    "build_class_one_coloring",
]

DEFAULT_CHROMATIC_II_CAP = 11

FORBIDDEN_KINDS = (
    "claw_free",
    "forest",
    "tree",
    "triangle_free",
    "square_free_as_printed",
    "bipartite_sufficient",
)


# --------------------------------------------------------------------------
# Derived sets shared by the predictors


class InstanceSets:
    """The derived sets of one (G, H, C) instance that several predictors read.

    ``inner`` is H n C, ``outer`` is C minus H, ``c_squared`` is C*C,
    ``outer_square`` is H n (C minus H)*(C minus H), and ``hc_star`` is
    H*C* = H*(C u {e}), a union of right cosets of H.  ``degree_formula``
    is the predicted degree of every vertex.  Each is computed on first
    read and kept.  A caller that runs several predictors on one instance
    builds one of these and passes it to each as ``sets``; a predictor
    called without one builds its own.
    """

    def __init__(self, group: GroupTable, h: Subgroup, c: ElementSet) -> None:
        self.group = group
        self.h = h
        self.c = c

    @cached_attribute
    def inner(self) -> ElementSet:
        return self.h.intersection(self.c)

    @cached_attribute
    def outer(self) -> ElementSet:
        return self.c.difference(self.h)

    @cached_attribute
    def c_squared(self) -> ElementSet:
        return product_set(self.c, self.c)

    @cached_attribute
    def outer_square(self) -> ElementSet:
        return self.h.product_within(self.outer, self.outer)

    @cached_attribute
    def hc_star(self) -> ElementSet:
        return self.h.star_product(self.c)

    @cached_attribute
    def degree_formula(self) -> tuple[int, ...]:
        """deg(h) = |C| on H and deg(x) = |x^-1 H n C| outside H, counted
        once per left coset x^-1 H."""
        group, c = self.group, self.c
        inv = group.inv
        formula = [len(c)] * group.order
        for coset in coset_partition(self.h, "left"):
            if group.identity in coset:
                continue
            count = (coset.mask & c.mask).bit_count()
            for y in coset.members:
                formula[inv[y]] = count
        return tuple(formula)


# --------------------------------------------------------------------------
# Valencies


@dataclass(frozen=True)
class ValencyPredictions:
    """Degree-structure predictions.

    ``valency_bound`` and ``sqrt_bound`` cap the number of distinct vertex
    degrees.  The regularity characterization is only claimed for nonempty C
    (an edgeless graph is regular no matter what the condition says), and the
    semi-regularity characterization additionally presumes the graph is not
    regular; the ``*_applicable`` flags carry those gates.
    ``full_degree_coset`` is the set of elements whose degree the membership
    test predicts to be |C|, for vertices outside H.  ``degree_formula`` is
    the predicted degree of every vertex: |C| on H and |x^-1 H n C| for x
    outside H.
    """

    valency_bound: int
    sqrt_bound: int
    regular_applicable: bool
    predicted_regular: bool
    semi_regular_applicable: bool
    predicted_semi_regular: bool
    full_degree_coset: ElementSet
    degree_formula: tuple[int, ...]


def predict_valencies(
    group: GroupTable, h: Subgroup, c: ElementSet, *, sets: Optional[InstanceSets] = None
) -> ValencyPredictions:
    sets = sets or InstanceSets(group, h, c)
    valency_bound = min(h.index, len(h) + 2)
    sqrt_bound = math.isqrt(group.order + 1) + 1

    regular_condition = h.index == 2 and not sets.inner

    # semi-regularity asks for the same count |gH n C| in every left coset
    # gH other than H, that is the same predicted degree outside H
    degree_formula = sets.degree_formula
    outside = {d for x, d in enumerate(degree_formula) if not h.mask >> x & 1}
    same_left_counts = len(outside) <= 1

    # the intersection of the cosets Hm over m in C: right cosets are
    # disjoint, so it is the right coset of one member of C if that coset
    # holds all of C, or else empty.  The same lookup says whether C lies
    # inside a single right coset other than H; an empty C lies in each
    full, in_one_right_coset = group.all_elements, h.is_proper
    if c:
        first = c.members[0]
        coset = h.right_coset_masks[first]
        inside = not c.mask & ~coset
        full = right_coset(h, first) if inside else group.element_set()
        in_one_right_coset = inside and coset != h.mask

    return ValencyPredictions(
        valency_bound=valency_bound,
        sqrt_bound=sqrt_bound,
        regular_applicable=bool(c),
        predicted_regular=regular_condition,
        semi_regular_applicable=bool(c) and not regular_condition,
        predicted_semi_regular=same_left_counts or in_one_right_coset,
        full_degree_coset=full,
        degree_formula=degree_formula,
    )


# --------------------------------------------------------------------------
# Connectivity and diameter


@dataclass(frozen=True)
class DiameterBound:
    """One diameter bound: its value and whether its own hypothesis holds.

    All bounds additionally presume the graph is connected; that gate is
    applied by the caller (the audit checks it against the BFS oracle).
    """

    name: str
    value: float
    applicable: bool


@dataclass(frozen=True)
class ConnectivityPredictions:
    """Connectivity predicted from subgroup products, plus diameter bounds.

    ``predicted_connected`` requires both the product criterion (some vertex
    g outside H whose neighborhood, multiplied by the two generated
    subgroups, covers H) and the coverage condition G = HC*.  The latter is
    necessary for connectivity but not implied by the former: the product
    criterion only sees the component of H.

    ``disjoint_predicted`` is the simplified criterion available when C and H
    are disjoint; ``aba_predicted`` is the simplification available when H
    has no factorization A*B*A into proper subgroups.
    """

    hc_star_covers: bool
    product_witnesses: tuple[int, ...]
    predicted_connected: bool
    disjoint_applicable: bool
    disjoint_predicted: bool
    aba_applicable: bool
    aba_predicted: bool
    diameter_bounds: tuple[DiameterBound, ...]


def predict_connectivity(
    group: GroupTable, h: Subgroup, c: ElementSet, *, sets: Optional[InstanceSets] = None
) -> ConnectivityPredictions:
    sets = sets or InstanceSets(group, h, c)
    identity = group.identity
    inner = sets.inner

    hc_star_covers = len(sets.hc_star) == group.order

    inner_span = generated_subgroup(inner)
    outer_square = sets.outer_square
    outer_square_span = generated_subgroup(outer_square)

    # (H n gC)*A*B for one vertex g of each right coset Hg other than H, as
    # the union of x*(A*B) over x in H n gC; each x*(A*B) is built once,
    # when first met.  H n (hg)C = h(H n gC), so the set for hg is h times
    # the set for g: it covers H exactly when that one does, and a passing
    # g makes its whole coset witnesses.  gm lies in H exactly when g lies
    # in Hm^-1, so each m in C minus H adds gm to the set of the coset
    # Hm^-1, taking its smallest member as g
    mul, inv = group.mul, group.inv
    cosets = h.right_coset_masks
    spans = inner_span.star_product(outer_square_span).members
    shifted: dict[int, int] = {}
    covered: dict[int, int] = {}
    for m in sets.outer.members:
        coset = cosets[inv[m]]
        x = mul[(coset & -coset).bit_length() - 1][m]
        part = shifted.get(x)
        if part is None:
            part = shifted[x] = image_mask(mul[x], spans)
        covered[coset] = covered.get(coset, 0) | part
    target = h.mask
    witnesses = 0
    for coset, seen in covered.items():
        if seen == target:
            witnesses |= coset

    predicted_connected = bool(witnesses) and hc_star_covers

    disjoint_predicted = hc_star_covers and (
        generated_subgroup(h.intersection(sets.c_squared)).mask == target
    )
    aba_predicted = hc_star_covers and (
        inner_span.mask == target or outer_square_span.mask == target
    )

    inner_width = width(inner)
    outer_width = width(outer_square)
    bounds = (
        DiameterBound("width", 2 + inner_width + 2 * outer_width, True),
        DiameterBound(
            "half_sum", 2 + len(inner_span) / 2 + len(outer_square_span), True
        ),
        DiameterBound("three_halves", 3 * len(h) / 2 + 2, True),
        DiameterBound("disjoint", len(h) + 2, not inner),
        DiameterBound(
            "small_square",
            len(h) / 2 + 2,
            outer_square.mask == 1 << identity,
        ),
    )

    return ConnectivityPredictions(
        hc_star_covers=hc_star_covers,
        product_witnesses=tuple(bit_indices(witnesses)),
        predicted_connected=predicted_connected,
        disjoint_applicable=not inner,
        disjoint_predicted=disjoint_predicted,
        aba_applicable=not h.is_aba,
        aba_predicted=aba_predicted,
        diameter_bounds=bounds,
    )


# --------------------------------------------------------------------------
# Clique number


@dataclass(frozen=True)
class DcCase:
    """Decomposition C = D*c available when C is closed under triple products."""

    d: Subgroup
    c_elt: int


@dataclass(frozen=True)
class CliquePredictions:
    """Clique-number bounds and the exact-equality predicate.

    ``upper`` always holds; ``upper_is_equality`` predicts whether it is
    attained.  ``lower_psi`` always holds, and ``psi_plus`` reports whether
    the hypothesis for the strengthened lower bound (psi + 1) is met.  When
    C is nonempty and closed under triple products, ``c_cubed_case`` carries
    the induced coset decomposition; ``c_cubed_applicable`` also covers the
    empty set, for which the psi + 1 upper bound holds vacuously.  The paper
    proves that decomposition always exists; ``c_cubed_failures`` names each
    step of it that failed instead, and is empty when the case was built or
    does not apply.
    """

    upper: int
    upper_is_equality: bool
    lower_psi: int
    psi_plus: bool
    c_cubed_applicable: bool
    c_cubed_case: Optional[DcCase]
    c_cubed_failures: tuple[str, ...]


def predict_clique(
    group: GroupTable, h: Subgroup, c: ElementSet, *, sets: Optional[InstanceSets] = None
) -> CliquePredictions:
    sets = sets or InstanceSets(group, h, c)
    inner = sets.inner
    outer = sets.outer

    upper = len(inner) + 2
    mul = group.mul
    c_mask = c.mask
    # the translate member*C of C by each member outside H, as a mask
    shifted = [image_mask(mul[member], c.members) for member in outer.members]

    # (H n C)* is a subgroup exactly when the largest subgroup inside it
    # is all of it
    lower_psi = psi(inner)
    star_size = (inner.mask | 1 << group.identity).bit_count()
    equality = lower_psi == star_size and any(
        not inner.mask & ~mask for mask in shifted
    )

    psi_plus = False
    if outer:
        carriers = [k.mask for k in subgroups_within(inner) if len(k) == lower_psi]
        psi_plus = any(not k & ~mask for mask in shifted for k in carriers)

    # C*C*C inside C, decided at the first product that escapes
    c_squared = sets.c_squared
    triple_closed = all(
        c_mask >> mul[x][y] & 1 for x in c_squared.members for y in c.members
    )
    case = None
    failures = []
    if triple_closed and c:
        chosen = c.members[0]
        if not is_subgroup_set(c_squared):
            failures.append("square of the set is not a subgroup")
        if right_coset(c_squared, chosen) != c:
            failures.append("set is not a right coset of its square")
        if group.mul[chosen][chosen] not in c_squared:
            failures.append("square of the chosen element escapes")
        if conjugate_set(c_squared, chosen) != c_squared:
            failures.append("square is not stable under conjugation")
        if not failures:
            case = DcCase(d=group.subgroup(c_squared.members), c_elt=chosen)

    return CliquePredictions(
        upper=upper,
        upper_is_equality=equality,
        lower_psi=lower_psi,
        psi_plus=psi_plus,
        c_cubed_applicable=triple_closed,
        c_cubed_case=case,
        c_cubed_failures=tuple(failures),
    )


# --------------------------------------------------------------------------
# Independence, matching, covers


@dataclass(frozen=True)
class AlphaBetaPredictions:
    """Predicted independence, matching, vertex-cover and edge-cover numbers.

    The proofs need an element of C outside H (it supplies the perfect
    matching on H); ``hypothesis_ok`` is False when no such element exists,
    and the predictions are then recorded but not asserted.
    """

    alpha: int
    alpha_prime: int
    beta: int
    beta_prime: int
    hypothesis_ok: bool


def predict_alpha_beta(
    group: GroupTable, h: Subgroup, c: ElementSet
) -> AlphaBetaPredictions:
    outside = group.order - len(h)
    return AlphaBetaPredictions(
        alpha=outside,
        alpha_prime=len(h),
        beta=len(h),
        beta_prime=outside,
        hypothesis_ok=bool(c.mask & ~h.mask),
    )


# --------------------------------------------------------------------------
# Chromatic number


@dataclass(frozen=True)
class ChromaticPredictions:
    """Chromatic upper bound and the two equality conditions.

    The equality characterization presumes the subgraph induced on H is
    connected and spans H (C nonempty and H generated by H-interior
    connection elements); ``equality_applicable`` carries that gate.
    ``equality_ii`` is None when |H| exceeds the cap on the table of splits
    that condition (ii) reads (``Subgroup.shift_avoiding_splits``).
    """

    upper: int
    equality_applicable: bool
    equality_i: bool
    equality_ii: Optional[bool]

    @property
    def predicted_equality(self) -> Optional[bool]:
        if self.equality_i:
            return True
        if self.equality_ii is None:
            return None
        return self.equality_ii


def _partition_condition(
    group: GroupTable, h: Subgroup, c: ElementSet, step: int
) -> bool:
    """Whether every shift-avoiding 3-part split of H is seen by some vertex.

    A split H = X1 u X2 u X3 qualifies when no part contains both x and
    x*step; it is "seen" by g outside H when C meets every g*Xi, that is
    when the window H n g^-1 C meets every Xi.  Empty parts are allowed; a
    split with an empty part can never be seen.  The splits depend on H
    and the step alone and are listed once per subgroup
    (``Subgroup.shift_avoiding_splits``); only the windows are built here.
    """
    mul, inv = group.mul, group.inv
    windows = set()
    # g^-1 m lies in H exactly when m lies in gH, so the window of g is
    # g^-1 (C n gH); it meets three disjoint parts only if it has three
    # members
    for coset in coset_partition(h, "left"):
        meet = coset.mask & c.mask
        if meet.bit_count() < 3 or coset.mask == h.mask:
            continue
        members = bit_indices(meet)
        windows.update(image_mask(mul[inv[g_elt]], members) for g_elt in coset.members)
    return all(
        any(w & first and w & second and w & third for w in windows)
        for first, second, third in h.shift_avoiding_splits(step)
    )


def predict_chromatic(
    group: GroupTable,
    h: Subgroup,
    c: ElementSet,
    *,
    partition_cap: int = DEFAULT_CHROMATIC_II_CAP,
    sets: Optional[InstanceSets] = None,
) -> ChromaticPredictions:
    sets = sets or InstanceSets(group, h, c)
    identity = group.identity
    inner = sets.inner
    upper = len(inner) + 2

    applicable = bool(c) and generated_subgroup(inner).mask == h.mask

    # H minus the identity inside C, and some left coset gH other than H
    # inside C
    condition_i = not h.mask & ~(1 << identity) & ~c.mask and any(
        not coset.mask & ~c.mask
        for coset in coset_partition(h, "left")
        if not coset.mask >> identity & 1
    )

    condition_ii: Optional[bool] = False
    if 1 <= len(inner) <= 2:
        generators = [
            x
            for x in inner.members
            if (1 << x | 1 << group.inv[x]) == inner.mask
            and generated_subgroup(group.element_set((x,))).mask == h.mask
        ]
        if generators:
            if len(h) > partition_cap:
                condition_ii = None
            else:
                condition_ii = _partition_condition(group, h, c, generators[0])

    return ChromaticPredictions(
        upper=upper,
        equality_applicable=applicable,
        equality_i=condition_i,
        equality_ii=condition_ii,
    )


# --------------------------------------------------------------------------
# Forbidden substructures


@dataclass(frozen=True)
class ForbiddenPrediction:
    """A predicted structural flag plus the evaluation details behind it."""

    kind: str
    applicable: bool
    predicted: bool
    details: tuple[tuple[str, object], ...] = ()


def _claw_free_condition(sets: InstanceSets) -> tuple[bool, str]:
    group, h, c = sets.group, sets.h, sets.c
    if len(c) <= 2:
        return True, "small"
    inner = sets.inner
    outer = sets.outer
    mul = group.mul
    inv = group.inv
    if len(c) <= 4:
        for a in outer.members:
            for b in outer.members:
                if a == b:
                    continue
                quotient = mul[a][inv[b]]
                if quotient not in h:
                    continue
                mirrored = mul[b][inv[a]]
                if (1 << a | 1 << b | 1 << quotient | 1 << mirrored) == c.mask:
                    return True, "coset_pair"
    if len(outer) == 1:
        lone = outer.members[0]
        if mul[lone][lone] == group.identity and is_subgroup_set(
            inner.with_identity()
        ):
            return True, "single_involution"
    if not outer:
        rest = h.difference(c.with_identity())
        cube = product_set(product_set(rest, rest), rest)
        if group.identity not in cube:
            return True, "interior_cube"
    return False, "none"


def _forest_condition(sets: InstanceSets) -> bool:
    group = sets.group
    if sets.h.mask & sets.c_squared.mask & ~(1 << group.identity):
        return False
    inner = sets.inner
    if not inner:
        return True
    return (
        len(inner) == 1
        and group.mul[inner.members[0]][inner.members[0]] == group.identity
    )


def _tree_condition(sets: InstanceSets) -> bool:
    group, h, c = sets.group, sets.h, sets.c
    if len(h) == 1:
        return len(c) == group.order - 1
    if len(h) != 2:
        return False
    # a tree is a connected forest; the factorization below only supplies
    # the connectedness half
    if not _forest_condition(sets):
        return False
    flip = next(x for x in h.members if x != group.identity)
    # the factor set is forced: C = D*flip pins D to C*flip
    transversal = right_coset(c, flip)
    if transversal.mask & h.mask != 1 << group.identity:
        return False
    return len(product_set(transversal, h)) == group.order


def _square_free_details(
    sets: InstanceSets,
) -> tuple[bool, tuple[tuple[str, object], ...]]:
    group = sets.group
    identity = group.identity
    mul = group.mul
    inner = sets.inner
    outer = sets.outer

    # four-cycle through the identity in the induced Cayley graph; vertex
    # transitivity makes the anchored search exhaustive
    induced_square = False
    gens = inner.members
    for first in gens:
        for second in gens:
            two = mul[first][second]
            if two == identity:
                continue
            for third in gens:
                three = mul[two][third]
                if three == identity or three == first:
                    continue
                if inner.mask >> group.inv[three] & 1:
                    induced_square = True
                    break
            if induced_square:
                break
        if induced_square:
            break

    # (H n C)^2 lies in H, so its meet with (C minus H)^2 is its meet with
    # the part of (C minus H)^2 inside H
    overlap = product_set(inner, inner).intersection(sets.outer_square)
    pair_condition = overlap.mask == 1 << identity

    # the sum over members m outside H of |Hm n C|, which is deg(m) since C
    # is inverse-closed: |Hm n C| = |m^-1 H n C|
    degree = sets.degree_formula
    degree_sum = sum(degree[m] for m in outer.members)
    degree_required = len(sets.outer_square) + len(outer)

    predicted = (not induced_square) and pair_condition and (
        degree_sum == degree_required
    )
    details = (
        ("induced_square_free", not induced_square),
        ("pair_product_overlap", overlap.names()),
        ("pair_product_condition", pair_condition),
        ("outside_degree_sum", degree_sum),
        ("outside_degree_required", degree_required),
        ("degree_condition", degree_sum == degree_required),
    )
    return predicted, details


def predict_forbidden(
    group: GroupTable,
    h: Subgroup,
    c: ElementSet,
    kind: str,
    *,
    sets: Optional[InstanceSets] = None,
) -> ForbiddenPrediction:
    """Evaluate one printed forbidden-structure condition, literally."""
    sets = sets or InstanceSets(group, h, c)
    if kind == "claw_free":
        value, which = _claw_free_condition(sets)
        return ForbiddenPrediction(
            kind, True, value, (("condition", which),)
        )
    if kind == "forest":
        return ForbiddenPrediction(kind, True, _forest_condition(sets))
    if kind == "tree":
        return ForbiddenPrediction(kind, True, _tree_condition(sets))
    if kind == "triangle_free":
        value = not sets.inner.mask & sets.c_squared.mask
        return ForbiddenPrediction(kind, True, value)
    if kind == "square_free_as_printed":
        value, details = _square_free_details(sets)
        return ForbiddenPrediction(kind, True, value, details)
    if kind == "bipartite_sufficient":
        return ForbiddenPrediction(kind, not sets.inner, True)
    raise UnknownCheckError(f"unknown forbidden-structure kind {kind!r}")


# --------------------------------------------------------------------------
# Class-one edge coloring


@dataclass(frozen=True)
class EdgeColoring:
    """A proper edge coloring with colors named by group elements.

    ``assignments`` lists (u, v, color) with u < v, sorted.  The palette is
    (C minus the special element) plus the identity; using it fully still
    stays within max-degree many colors, which certifies the class-one
    property.
    """

    graph: RelCayGraph
    special: int
    palette: tuple[int, ...]
    assignments: tuple[tuple[int, int, int], ...]

    @property
    def colors_used(self) -> tuple[int, ...]:
        return tuple(sorted({color for _, _, color in self.assignments}))


def _misra_gries(
    n: int, adjacency: Sequence[int], n_colors: int
) -> dict[tuple[int, int], int]:
    """Proper edge coloring with at most max-degree + 1 colors, by fans.

    Classic constructive procedure: for each new edge build a maximal fan,
    free a color at the pivot by inverting a two-colored path, then rotate
    the fan prefix.  Degrees must stay below ``n_colors``.
    """
    joined = [[-1] * n_colors for _ in range(n)]
    coloring: dict[tuple[int, int], int] = {}

    def key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def assign(u: int, v: int, color: int) -> None:
        joined[u][color] = v
        joined[v][color] = u
        coloring[key(u, v)] = color

    def unassign(u: int, v: int) -> int:
        color = coloring.pop(key(u, v))
        joined[u][color] = -1
        joined[v][color] = -1
        return color

    def lowest_free(v: int) -> int:
        for color in range(n_colors):
            if joined[v][color] == -1:
                return color
        raise InternalConsistencyError("vertex has no free color")

    neighbor_lists = [bit_indices(adjacency[u]) for u in range(n)]

    edges = [
        (u, v) for u in range(n) for v in neighbor_lists[u] if u < v
    ]
    for u, v in edges:
        fan = [v]
        in_fan = {v}
        while True:
            tail = fan[-1]
            extension = -1
            for w in neighbor_lists[u]:
                if w in in_fan:
                    continue
                color = coloring.get(key(u, w), -1)
                if color != -1 and joined[tail][color] == -1:
                    extension = w
                    break
            if extension == -1:
                break
            fan.append(extension)
            in_fan.add(extension)

        pivot_free = lowest_free(u)
        tail_free = lowest_free(fan[-1])

        if pivot_free != tail_free and joined[u][tail_free] != -1:
            # invert the maximal path from u alternating tail/pivot colors
            path = []
            prev, want = u, tail_free
            cur = joined[u][tail_free]
            while cur != -1:
                path.append((prev, cur, want))
                want = pivot_free if want == tail_free else tail_free
                prev, cur = cur, joined[cur][want]
            for x, y, _ in path:
                unassign(x, y)
            for x, y, had in path:
                assign(x, y, pivot_free if had == tail_free else tail_free)

        # walk the fan prefix while it stays valid; stop at the first vertex
        # where the target color is free
        stop = -1
        for i, member in enumerate(fan):
            if i > 0:
                color = coloring.get(key(u, member), -1)
                if color == -1 or joined[fan[i - 1]][color] != -1:
                    break
            if joined[member][tail_free] == -1:
                stop = i
                break
        if stop == -1:
            raise InternalConsistencyError("fan rotation found no landing spot")
        for i in range(stop):
            shifted = unassign(u, fan[i + 1])
            assign(u, fan[i], shifted)
        assign(u, fan[stop], tail_free)

    return coloring


@functools.cache
def _induced_coloring(
    h: Subgroup, inner_mask: int
) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
    """The fan coloring of Cay(H, S), for the generating set S given by its
    mask, labelled by the identity and the elements of S, and the one label
    each vertex of H leaves unused.

    The rows are built from the multiplication table on parent indices,
    which keep the order of H's members, so the fan procedure colors as it
    would on H alone.  Both results depend on H and S alone and are kept
    per (H, S), so every caller shares them and must not change them.
    """
    group = h.group
    generators = bit_indices(inner_mask)
    labels = (group.identity, *generators)
    rows = [0] * group.order
    for x in h.members:
        rows[x] = image_mask(group.mul[x], generators)
    edges = {}
    used_at = [0] * group.order
    for (u, v), color_index in _misra_gries(group.order, rows, len(labels)).items():
        edges[u, v] = labels[color_index]
        used_at[u] |= 1 << color_index
        used_at[v] |= 1 << color_index
    spare = {}
    every = (1 << len(labels)) - 1
    for member in h.members:
        unused = every & ~used_at[member]
        if not unused or unused & (unused - 1):
            raise InternalConsistencyError(
                "expected exactly one spare color at a subgroup vertex"
            )
        spare[member] = labels[unused.bit_length() - 1]
    return edges, spare


def build_class_one_coloring(graph: RelCayGraph) -> EdgeColoring:
    """Construct a proper edge coloring of the graph with at most |C| colors.

    Requires an element of C outside H.  The induced subgraph on H is
    colored with the identity plus its own generators; each cross edge takes
    its defining quotient as its color, except the edge for the special
    element, which absorbs the one palette color missing at its H endpoint.
    The coloring of Cay(H, H n C) is shared by every instance with the
    same H and H n C (see ``_induced_coloring``); the whole coloring is
    verified against the graph's own rows on every call.
    """
    group = graph.group
    h, c = graph.h, graph.c
    outer = c.difference(h)
    if not outer:
        raise PreconditionError(
            "class-one construction needs a connection element outside the subgroup"
        )
    special = outer.members[0]
    edges, spare = _induced_coloring(h, c.mask & h.mask)

    assignments = dict(edges)
    mul = group.mul
    for member in h.members:
        row = mul[member]
        for quotient in outer.members:
            other = row[quotient]
            edge = (member, other) if member < other else (other, member)
            assignments[edge] = quotient if quotient != special else spare[member]

    palette = c.difference((special,)).with_identity().members
    coloring = EdgeColoring(
        graph=graph,
        special=special,
        palette=palette,
        assignments=tuple(
            (u, v, color) for (u, v), color in sorted(assignments.items())
        ),
    )
    _verify_coloring(coloring)
    return coloring


def _verify_coloring(coloring: EdgeColoring) -> None:
    """Check that the coloring covers exactly the graph's edges, stays in
    its palette, is proper, and uses at most |C| colors.

    The colored edges are rebuilt as adjacency rows and compared with the
    graph's; the colors seen at each vertex are kept as a mask.
    """
    graph = coloring.graph
    n = graph.n
    rows = [0] * n
    for u, v, _ in coloring.assignments:
        if not 0 <= u < v < n:
            raise InternalConsistencyError("edge coloring misses or invents edges")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if tuple(rows) != graph.adjacency:
        raise InternalConsistencyError("edge coloring misses or invents edges")
    palette = frozenset(coloring.palette)
    at_vertex = [0] * n
    used = 0
    for u, v, color in coloring.assignments:
        if color not in palette:
            raise InternalConsistencyError("edge coloring leaves the palette")
        bit = 1 << color
        if (at_vertex[u] | at_vertex[v]) & bit:
            raise InternalConsistencyError("edge coloring is not proper")
        at_vertex[u] |= bit
        at_vertex[v] |= bit
        used |= bit
    if used.bit_count() > len(graph.c):
        raise InternalConsistencyError("edge coloring uses too many colors")


# --------------------------------------------------------------------------
# Composite


@dataclass(frozen=True)
class PredictionSet:
    """All predictions for one (G, H, C) instance, one field per family."""

    valency: ValencyPredictions
    connectivity: ConnectivityPredictions
    clique: CliquePredictions
    alpha_beta: AlphaBetaPredictions
    chromatic: ChromaticPredictions
    forbidden: tuple[ForbiddenPrediction, ...]

    def forbidden_map(self) -> dict[str, ForbiddenPrediction]:
        return {entry.kind: entry for entry in self.forbidden}


def predict_all(
    group: GroupTable,
    h: Subgroup,
    c: ElementSet,
    *,
    partition_cap: int = DEFAULT_CHROMATIC_II_CAP,
) -> PredictionSet:
    sets = InstanceSets(group, h, c)
    return PredictionSet(
        valency=predict_valencies(group, h, c, sets=sets),
        connectivity=predict_connectivity(group, h, c, sets=sets),
        clique=predict_clique(group, h, c, sets=sets),
        alpha_beta=predict_alpha_beta(group, h, c),
        chromatic=predict_chromatic(
            group, h, c, partition_cap=partition_cap, sets=sets
        ),
        forbidden=tuple(
            predict_forbidden(group, h, c, kind, sets=sets)
            for kind in FORBIDDEN_KINDS
        ),
    )
