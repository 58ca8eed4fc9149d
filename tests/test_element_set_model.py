"""The bit-mask set representation checked against a frozenset model.

Every operation of ``ElementSet`` and the mask-built products and cosets is
recomputed here on plain frozensets of element indices, straight from the
definitions, and the two must agree on random subsets of a few small
non-abelian and abelian groups.  The validating subclasses must accept
exactly the sets the model accepts, with the same error text.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcay.errors import ConnectionSetError, GroupMismatchError, GroupSpecError
from relcay.graphs import ConnectionSet
from relcay.group_core import (
    ElementSet,
    Subgroup,
    bit_indices,
    conjugate_set,
    enumerate_subgroups,
    image_mask,
    is_subgroup_set,
    left_coset,
    make_group,
    product_set,
    right_coset,
)

MODEL_SPECS = ("S4", "D8", "C2xC4")


@st.composite
def group_and_subsets(draw):
    g = make_group(draw(st.sampled_from(MODEL_SPECS)))
    elements = st.integers(0, g.order - 1)
    a = draw(st.frozensets(elements, max_size=g.order))
    b = draw(st.frozensets(elements, max_size=g.order))
    return g, a, b


@st.composite
def group_and_near_subgroup(draw):
    """A subgroup's members, sometimes with one element added or removed,
    so that closed and non-closed sets are both drawn often."""
    g = make_group(draw(st.sampled_from(MODEL_SPECS)))
    base = set(draw(st.sampled_from(enumerate_subgroups(g))).members)
    x = draw(st.integers(0, g.order - 1))
    change = draw(st.sampled_from(("keep", "toggle")))
    if change == "toggle":
        base ^= {x}
    return g, frozenset(base)


def model_is_subgroup(g, s: frozenset) -> bool:
    return (
        g.identity in s
        and all(g.inv[x] in s for x in s)
        and all(g.mul[x][y] in s for x in s for y in s)
    )


def model_subgroup_error(g, s: frozenset):
    """The message the subgroup check must raise, or None for a subgroup."""
    if g.identity not in s:
        return "subgroup must contain the identity"
    for x in sorted(s):
        if g.inv[x] not in s:
            return f"subgroup not closed under inversion at {g.names[x]}"
        for y in sorted(s):
            if g.mul[x][y] not in s:
                return (
                    "subgroup not closed under multiplication at "
                    f"{g.names[x]}*{g.names[y]}"
                )
    return None


def model_connection_set_error(g, s: frozenset):
    if g.identity in s:
        return "connection set must not contain the identity"
    for x in sorted(s):
        if g.inv[x] not in s:
            return (
                f"connection set is not inverse closed: {g.names[x]} is in "
                f"but its inverse {g.names[g.inv[x]]} is not"
            )
    return None


@settings(max_examples=150, deadline=None)
@given(group_and_subsets())
def test_set_operations_match_the_model(case):
    g, a, b = case
    x, y = ElementSet(g, a), ElementSet(g, b)
    assert x.members == tuple(sorted(a))
    assert list(x) == sorted(a)
    assert x.mask == sum(1 << m for m in a)
    assert len(x) == len(a)
    assert bool(x) == bool(a)
    for e in range(-1, g.order + 2):
        assert (e in x) == (e in a)
    assert "a" not in x
    assert (x == y) == (a == b)
    assert x == ElementSet(g, sorted(a, reverse=True))
    assert hash(x) == hash(ElementSet(g, list(a) * 2))
    for got, want in (
        (x.union(y), a | b),
        (x.intersection(y), a & b),
        (x.difference(y), a - b),
        (x.union(b), a | b),
        (x.intersection(b), a & b),
        (x.difference(b), a - b),
        (x.with_identity(), a | {g.identity}),
        (x.inverses(), frozenset(g.inv[m] for m in a)),
    ):
        assert type(got) is ElementSet
        assert got.members == tuple(sorted(want))
        assert got == ElementSet(g, want)
    assert x.is_inverse_closed == all(g.inv[m] in a for m in a)
    assert x.names() == tuple(g.names[m] for m in sorted(a))
    assert is_subgroup_set(x) == (
        g.identity in a and all(g.mul[p][q] in a for p in a for q in a)
    )


@settings(max_examples=150, deadline=None)
@given(group_and_subsets(), st.data())
def test_products_and_cosets_match_the_model(case, data):
    g, a, b = case
    x, y = ElementSet(g, a), ElementSet(g, b)
    t = data.draw(st.integers(0, g.order - 1))
    h = data.draw(st.sampled_from(enumerate_subgroups(g)))
    phi = data.draw(st.sampled_from(g.automorphisms))
    mul, inv = g.mul, g.inv
    expected = {
        "product": frozenset(mul[p][q] for p in a for q in b),
        "left": frozenset(mul[t][p] for p in a),
        "right": frozenset(mul[p][t] for p in a),
        "conjugate": frozenset(mul[mul[inv[t]][p]][t] for p in a),
        "inverses": frozenset(inv[p] for p in a),
        "within": frozenset(mul[p][q] for p in a for q in b) & frozenset(h),
        "automorphism": frozenset(phi[p] for p in a),
    }
    got = {
        "product": product_set(x, y),
        "left": left_coset(x, t),
        "right": right_coset(x, t),
        "conjugate": conjugate_set(x, t),
        "inverses": x.inverses(),
        "within": h.product_within(x, y),
        "automorphism": ElementSet(g, bit_indices(image_mask(phi, a))),
    }
    for name, want in expected.items():
        assert got[name].members == tuple(sorted(want)), name
        assert len(got[name]) == len(want), name


@settings(max_examples=100, deadline=None)
@given(group_and_subsets(), st.lists(st.integers(-70, 200), min_size=1, max_size=4))
def test_out_of_range_index_error_text(case, extra):
    g, a, _ = case
    members = list(a) + extra
    canon = sorted(set(members))
    if 0 <= canon[0] and canon[-1] < g.order:
        assert ElementSet(g, members).members == tuple(canon)
        return
    bad = canon[0] if canon[0] < 0 else canon[-1]
    message = f"element index {bad} out of range for group of order {g.order}"
    with pytest.raises(GroupSpecError) as err:
        ElementSet(g, members)
    assert str(err.value) == message
    with pytest.raises(GroupSpecError) as err:
        ElementSet(g, a).union(members)
    assert str(err.value) == message


@settings(max_examples=150, deadline=None)
@given(st.one_of(group_and_near_subgroup(), group_and_subsets().map(lambda c: c[:2])))
def test_subgroup_and_connection_set_validation(case):
    g, s = case
    want = model_subgroup_error(g, s)
    assert (want is None) == model_is_subgroup(g, s)
    if want is None:
        h = Subgroup(g, s)
        assert h.members == tuple(sorted(s))
        assert g.subgroup(s) is g.subgroup(sorted(s, reverse=True))
        assert g.subgroup(s) == h
    else:
        with pytest.raises(GroupSpecError) as err:
            Subgroup(g, s)
        assert str(err.value) == want
        with pytest.raises(GroupSpecError):
            g.subgroup(s)
    want = model_connection_set_error(g, s)
    if want is None:
        assert ConnectionSet(g, s).members == tuple(sorted(s))
    else:
        with pytest.raises(ConnectionSetError) as err:
            ConnectionSet(g, s)
        assert str(err.value) == want


def test_operands_from_different_groups_are_rejected():
    x = ElementSet(make_group("S4"), [1])
    y = ElementSet(make_group("D8"), [1])
    for op in (x.union, x.intersection, x.difference):
        with pytest.raises(GroupMismatchError):
            op(y)
    with pytest.raises(GroupMismatchError):
        product_set(x, y)
    assert x != y
