"""Group construction and set-algebra tests.

Frozen small values were derived by hand or by the brute-force helpers in
brute.py before being asserted here.
"""
from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from relcay.audit import DEFAULT_CATALOG, Limits, catalog_up_to, run_audit
from relcay.errors import (
    CapacityError,
    GroupMismatchError,
    GroupSpecError,
    InternalConsistencyError,
)
from relcay.group_core import (
    ElementSet,
    GroupTable,
    Subgroup,
    _parse_spec,
    bit_indices,
    coset_partition,
    element_order,
    enumerate_subgroups,
    generated_subgroup,
    is_subgroup_set,
    left_coset,
    make_group,
    product_set,
    psi,
    right_coset,
    width,
)

SMALL_SPECS = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C12",
    "D3", "D4", "D6", "S3", "Q8", "C2xC2", "C2xC4", "C2xC2xC2", "C2xC6",
]


def members_by_name(g, *names):
    return tuple(g.element(n) for n in names)


# --------------------------------------------------------------------------
# Construction


def test_cyclic_c4_is_generated_by_one_element():
    g = make_group("C4")
    assert g.order == 4
    a = g.element("a")
    assert generated_subgroup(g.element_set([a])).members == (0, 1, 2, 3)


def test_dihedral_d5_is_nonabelian_of_order_10():
    g = make_group("D5")
    assert g.order == 10
    a, b = g.element("a"), g.element("b")
    assert g.mul[a][b] != g.mul[b][a]


def test_klein_group_has_three_involutions():
    g = make_group("C2xC2")
    assert g.order == 4
    involutions = [x for x in range(4) if x != 0 and g.mul[x][x] == 0]
    assert len(involutions) == 3


def test_symmetric_and_quaternion_shapes():
    s4 = make_group("S4")
    assert s4.order == 24
    q8 = make_group("Q8")
    assert q8.order == 8
    assert [x for x in range(8) if x != 0 and q8.mul[x][x] == 0] == [
        q8.element("-1")
    ]
    e = make_group("E3^2")
    assert e.order == 9
    assert all(element_order(e, x) in (1, 3) for x in range(9))


def test_identity_is_element_zero_and_named_one():
    for spec in SMALL_SPECS:
        g = make_group(spec)
        assert g.identity == 0
        assert all(g.mul[0][x] == x and g.mul[x][0] == x for x in range(g.order))


def test_spec_parsing_is_case_insensitive_and_cached():
    assert make_group("c2Xc2") is make_group("C2xC2")
    assert make_group("q8").spec == "Q8"
    assert make_group("e2^3").spec == "E2^3"


@pytest.mark.parametrize(
    "bad",
    ["", "C0", "D0", "S0", "S6", "Q16", "Q", "E4^2", "E2^0", "C4x", "xC4",
     "C 4", "F5", "C-3", "C4yC2"],
)
def test_malformed_specs_are_rejected(bad):
    with pytest.raises(GroupSpecError):
        make_group(bad)


def test_capacity_cap_default_and_override(monkeypatch):
    with pytest.raises(CapacityError):
        make_group("C65")
    g = make_group("C65", max_order=70)
    assert g.order == 65
    monkeypatch.setenv("RELCAY_MAX_ORDER", "16")
    with pytest.raises(CapacityError):
        make_group("S4")
    assert make_group("C16").order == 16
    monkeypatch.setenv("RELCAY_MAX_ORDER", "banana")
    with pytest.raises(CapacityError):
        make_group("C2")


def test_a_parsed_spec_is_still_checked_against_the_cap():
    assert make_group("C2xC4", max_order=8).order == 8
    with pytest.raises(CapacityError):
        make_group("C2xC4", max_order=4)
    assert _parse_spec("C2xC4") is _parse_spec("C2xC4")


def test_associativity_checked_above_default_cap():
    c65 = make_group("C65", max_order=70)
    mul = [list(row) for row in c65.mul]
    # a * a2 no longer equals a3; identity and inverse entries are untouched
    mul[1][2] = 4
    with pytest.raises(InternalConsistencyError, match="associativity"):
        GroupTable(
            order=65,
            mul=tuple(map(tuple, mul)),
            identity=c65.identity,
            inv=c65.inv,
            names=c65.names,
            spec="C65",
        )


def table_error(mul, inv):
    """The message with which ``GroupTable`` rejects a table with identity
    0 and these inverses, or None if it accepts it."""
    n = len(mul)
    try:
        GroupTable(
            order=n,
            mul=tuple(map(tuple, mul)),
            identity=0,
            inv=tuple(inv),
            names=tuple(map(str, range(n))),
            spec="T",
        )
    except InternalConsistencyError as err:
        return str(err)
    return None


@pytest.mark.parametrize("spec", DEFAULT_CATALOG)
def test_every_catalog_group_passes_the_full_group_law_check(spec):
    g = make_group(spec)
    assert g.identity == 0
    assert brute.brute_is_group(g.mul, g.identity, g.inv)
    assert table_error(g.mul, g.inv) is None


def off_law_entry(rng, mul, inv):
    """A random (x, y) off the identity row and column and off the inverse
    pairs: changing it can break associativity and nothing else."""
    n = len(mul)
    return rng.choice([(x, y) for x in range(1, n) for y in range(1, n) if y != inv[x]])


def corrupted_table(rng, g, small):
    """g's table (identity 0) under one seeded change:
    0. a relabelling that fixes the identity (still a group);
    1. one entry changed where only associativity can break;
    2. two entries of a row swapped;
    3. any one entry changed;
    4. the direct product of ``small`` (first in index order) with g under
       change 1, so the products with the first generators are all
       associative and only a later generator shows the fault."""
    n = g.order
    mul = [list(row) for row in g.mul]
    inv = list(g.inv)
    kind = rng.randrange(5)
    if kind == 0:
        label = [0] + rng.sample(range(1, n), n - 1)
        for x in range(n):
            for y in range(n):
                mul[label[x]][label[y]] = label[g.mul[x][y]]
            inv[label[x]] = label[g.inv[x]]
    elif kind in (1, 4):
        x, y = off_law_entry(rng, mul, inv)
        mul[x][y] = rng.randrange(n)
    elif kind == 2:
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        mul[x][y], mul[x][z] = mul[x][z], mul[x][y]
    else:
        mul[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    if kind == 4:
        # element (a, b) of small x g has index b * |small| + a
        k = small.order
        mul = [
            [mul[b][d] * k + small.mul[a][c] for d in range(n) for c in range(k)]
            for b in range(n)
            for a in range(k)
        ]
        inv = [inv[b] * k + small.inv[a] for b in range(n) for a in range(k)]
    return kind, mul, inv


def test_group_table_raises_exactly_when_the_full_group_law_check_fails():
    rng = random.Random(1965)
    specs = [spec for spec in DEFAULT_CATALOG if 3 <= make_group(spec).order <= 8]
    smalls = [make_group(spec) for spec in ("C2", "C3")]
    outcomes = Counter()
    for _ in range(400):
        g = make_group(rng.choice(specs))
        kind, mul, inv = corrupted_table(rng, g, rng.choice(smalls))
        is_group = brute.brute_is_group(mul, 0, inv)
        error = table_error(mul, inv)
        assert (error is None) == is_group
        if kind in (1, 4) and not is_group:
            assert error == "associativity fails"
        outcomes[kind, is_group] += 1
    # every kind of change occurs, and both verdicts with them
    assert {kind for kind, _ in outcomes} == {0, 1, 2, 3, 4}
    assert outcomes[0, True] > 0 and outcomes[1, False] > 0 and outcomes[4, False] > 0
    assert sum(n for (_, ok), n in outcomes.items() if ok) >= 50
    assert sum(n for (_, ok), n in outcomes.items() if not ok) >= 200


# --------------------------------------------------------------------------
# Automorphisms


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# |Aut(Cn)| = phi(n), |Aut(Dn)| = n phi(n) for n >= 3, |Aut(S4)| = |Aut(Q8)| = 24,
# and the elementary abelian groups have GL(2,2), GL(3,2) and GL(4,2)
AUTOMORPHISM_COUNTS = {
    **{f"C{n}": _euler_phi(n) for n in range(2, 13)},
    **{f"D{n}": n * _euler_phi(n) for n in range(3, 9)},
    "S4": 24,
    "Q8": 24,
    "C2xC2": 6,
    "C2xC2xC2": 168,
    "E2^4": 20160,
}


@pytest.mark.parametrize("spec", sorted(AUTOMORPHISM_COUNTS))
def test_automorphisms_are_counted_right_and_respect_the_whole_table(spec):
    g = make_group(spec)
    automorphisms = g.automorphisms
    assert len(set(automorphisms)) == len(automorphisms) == AUTOMORPHISM_COUNTS[spec]
    assert automorphisms[0] == tuple(range(g.order))
    mul = g.mul
    for phi in automorphisms:
        assert sorted(phi) == list(range(g.order))
        # phi(xy) = phi(x) phi(y) for every x and y, one row x at a time
        for x, row in enumerate(mul):
            assert list(map(phi.__getitem__, row)) == list(map(mul[phi[x]].__getitem__, phi))


def test_a_corrupted_automorphism_is_rejected():
    g = make_group("D4")
    phi = g.automorphisms[-1]
    g.check_automorphism(phi)
    a, a3 = g.element("a"), g.element("a3")
    swapped = list(phi)
    swapped[a], swapped[a3] = phi[a3], phi[a]
    assert tuple(swapped) not in g.automorphisms
    with pytest.raises(InternalConsistencyError, match="not an automorphism of D4: phi"):
        g.check_automorphism(tuple(swapped))
    merged = list(phi)
    merged[a] = phi[a3]
    with pytest.raises(InternalConsistencyError, match="not a bijection"):
        g.check_automorphism(tuple(merged))
    with pytest.raises(InternalConsistencyError, match="not a bijection"):
        g.check_automorphism(phi[:-1])


def test_automorphisms_above_the_candidate_cap_raise_at_once():
    g = make_group("E2^5")
    started = time.perf_counter()
    with pytest.raises(CapacityError, match="28629151 candidate"):
        g.automorphisms
    assert time.perf_counter() - started < 1.0
    # with no automorphisms listed, the group and every subgroup's stabiliser
    # are generated by nothing
    assert g.automorphism_generators == ()
    assert g.subgroup([0, 1]).stabiliser_generators == ()


def test_an_audit_past_the_automorphism_cap_evaluates_every_instance():
    # the bytes of this audit before automorphism classes were shared
    report = run_audit(("E2^5",), limits=Limits(max_connection_sets=2))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "77768acfba0ea2b94d257e06d702238e4ee5953b9067ca176582e10cee15c1c1"
    assert report.copied_instances == 0 and not report.errors


def generated_permutations(gens, n: int) -> set:
    span = {tuple(range(n))}
    frontier = list(span)
    for phi in frontier:
        for psi in gens:
            composed = tuple(phi[y] for y in psi)
            if composed not in span:
                span.add(composed)
                frontier.append(composed)
    return span


@pytest.mark.parametrize("spec", catalog_up_to(12))
def test_automorphism_generators_generate_every_automorphism(spec):
    g = make_group(spec)
    kept = g.automorphism_generators
    assert generated_permutations(kept, g.order) == set(g.automorphisms)
    for k, phi in enumerate(kept):
        assert phi not in generated_permutations(kept[:k], g.order)


@pytest.mark.parametrize("spec", ["D4", "S4", "Q8", "C2xC2xC2"])
def test_stabiliser_generators_generate_the_stabiliser_of_h(spec):
    g = make_group(spec)
    for h in enumerate_subgroups(g):
        want = {phi for phi in g.automorphisms if {phi[x] for x in h} == set(h)}
        kept = h.stabiliser_generators
        assert generated_permutations(kept, g.order) == want
        # none of them is generated by those before it
        for k, phi in enumerate(kept):
            assert phi not in generated_permutations(kept[:k], g.order)


def test_stabiliser_generators_are_automorphisms_by_sympy():
    # an independent reference: on the regular representation x -> xy, phi is
    # the conjugation by its permutation Phi, and sympy must find that the
    # homomorphism it defines is an isomorphism taking each x to phi(x)
    combinatorics = pytest.importorskip("sympy.combinatorics")
    homomorphism = pytest.importorskip("sympy.combinatorics.homomorphisms").homomorphism
    Permutation = combinatorics.Permutation
    checked = 0
    for spec in catalog_up_to(12):
        g = make_group(spec)
        regular = [
            Permutation([g.mul[x][y] for x in range(g.order)]) for y in range(g.order)
        ]
        group = combinatorics.PermutationGroup(regular[1:])
        gens = list(group.generators)
        found = {
            phi for h in enumerate_subgroups(g) if h.is_proper for phi in h.stabiliser_generators
        }
        for phi in sorted(found):
            conjugate = Permutation(list(phi))
            # ~P * p * P applies P^-1, then p, then P: x -> phi(phi^-1(x) y)
            images = [~conjugate * p * conjugate for p in gens]
            assert images == [regular[phi[p(0)]] for p in gens], (spec, phi)
            # sympy's own check of the images (check=True) needs a presentation
            # of the group, seconds per group; the conjugation above is the check
            f = homomorphism(group, group, gens, images, check=False)
            assert f.is_isomorphism(), (spec, phi)
            assert [f(p) for p in regular] == [regular[y] for y in phi], (spec, phi)
            checked += 1
    assert checked > 50


def test_element_name_round_trip():
    for spec in SMALL_SPECS:
        g = make_group(spec)
        for x in range(g.order):
            assert g.element(g.names[x]) == x
    with pytest.raises(GroupSpecError):
        make_group("C4").element("zz")


# --------------------------------------------------------------------------
# Bit masks


def naive_bit_indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_bit_indices_matches_naive_definition():
    rng = random.Random(20150601)
    masks = [0, (1 << 64) - 1]
    masks += [1 << i for i in range(130)]
    masks += [rng.getrandbits(rng.randrange(1, 140)) for _ in range(500)]
    for mask in masks:
        assert bit_indices(mask) == naive_bit_indices(mask)


# --------------------------------------------------------------------------
# ElementSet basics


def test_element_set_normalizes_and_validates():
    g = make_group("C4")
    s = ElementSet(g, [3, 1, 3, 1])
    assert s.members == (1, 3)
    assert 1 in s and 2 not in s
    assert len(s) == 2
    with pytest.raises(GroupSpecError):
        ElementSet(g, [4])
    with pytest.raises(GroupSpecError):
        ElementSet(g, [-1])


def test_element_set_operations():
    g = make_group("C6")
    s = ElementSet(g, [1, 5])
    assert s.with_identity().members == (0, 1, 5)
    assert s.inverses() == s
    assert s.is_inverse_closed
    assert not ElementSet(g, [1]).is_inverse_closed
    assert s.union([2]).members == (1, 2, 5)
    assert s.intersection([5, 0]).members == (5,)
    assert s.difference([1]).members == (5,)


def test_subgroup_validation_rejects_non_subgroups():
    g = make_group("C4")
    Subgroup(g, [0, 2])
    with pytest.raises(GroupSpecError):
        Subgroup(g, [0, 1])
    with pytest.raises(GroupSpecError):
        Subgroup(g, [2])


# --------------------------------------------------------------------------
# product_set


def test_product_set_single_product():
    g = make_group("C4")
    a = g.element("a")
    out = product_set(g.element_set([a]), g.element_set([a]))
    assert out.members == (g.element("a2"),)


def test_product_set_pair_squares_to_identity_and_a2():
    g = make_group("C4")
    s = g.element_set(members_by_name(g, "a", "a3"))
    assert product_set(s, s).members == members_by_name(g, "1", "a2")


def test_product_with_empty_set_is_empty():
    g = make_group("C4")
    s = g.element_set([1])
    assert product_set(s, g.element_set()).members == ()


def test_product_set_rejects_group_mismatch():
    s1 = make_group("C4").element_set([1])
    s2 = make_group("C5").element_set([1])
    with pytest.raises(GroupMismatchError):
        product_set(s1, s2)
    with pytest.raises(GroupMismatchError):
        make_group("C4").subgroup([0, 2]).star_product(s2)


# --------------------------------------------------------------------------
# generated_subgroup / enumerate_subgroups


def test_generated_subgroup_examples():
    c4 = make_group("C4")
    assert generated_subgroup(c4.element_set()).members == (0,)
    assert len(generated_subgroup(c4.element_set([c4.element("a")]))) == 4
    s3 = make_group("S3")
    gens = s3.element_set(members_by_name(s3, "(12)", "(13)"))
    assert len(generated_subgroup(gens)) == 6


def test_generated_subgroup_matches_brute_closure():
    for spec in ["C6", "S3", "D4", "Q8"]:
        g = make_group(spec)
        for seed in [(), (1,), (1, 2), (g.order - 1,), (2, 3)]:
            got = generated_subgroup(g.element_set(seed))
            assert frozenset(got) == brute.brute_closure(g, seed)


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(make_group("C4"))) == 3
    assert len(enumerate_subgroups(make_group("S3"))) == 6
    assert len(enumerate_subgroups(make_group("C1"))) == 1


def test_enumerate_subgroups_matches_brute_scan():
    for spec in SMALL_SPECS:
        g = make_group(spec)
        if g.order > 12:
            continue
        got = [frozenset(s) for s in enumerate_subgroups(g)]
        expected = brute.brute_subgroup_sets(g)
        assert sorted(got, key=lambda s: (len(s), sorted(s))) == sorted(
            expected, key=lambda s: (len(s), sorted(s))
        )
        assert len(set(got)) == len(got)


def test_enumerate_subgroups_order_is_deterministic():
    subs = enumerate_subgroups(make_group("D4"))
    keys = [(len(s), s.members) for s in subs]
    assert keys == sorted(keys)


def test_enumerate_subgroups_capacity():
    g = make_group("C65", max_order=70)
    with pytest.raises(CapacityError):
        enumerate_subgroups(g)
    assert len(enumerate_subgroups(g, max_order=70)) == 4


# --------------------------------------------------------------------------
# width / psi / ABA


def test_width_examples():
    c5 = make_group("C5")
    x = c5.element_set(members_by_name(c5, "a", "a4"))
    assert width(x) == 2
    for spec in ["C4", "S3", "Q8"]:
        g = make_group(spec)
        assert width(g.element_set(range(1, g.order))) == 1
        assert width(g.element_set()) == 0


def test_width_against_direct_power_union():
    g = make_group("D4")
    for seed in [(1,), (4,), (1, 4), (2, 5)]:
        x = g.element_set(seed)
        k = generated_subgroup(x)
        n = width(x)
        covered = {g.identity}
        current = set(seed)
        for _ in range(int(n)):
            covered |= current
            current = {g.mul[a][b] for a in current for b in seed}
        assert covered == frozenset(k)
        if n > 0:
            prior = {g.identity}
            current = set(seed)
            for _ in range(int(n) - 1):
                prior |= current
                current = {g.mul[a][b] for a in current for b in seed}
            assert prior != frozenset(k)


def test_psi_examples():
    c5 = make_group("C5")
    assert psi(c5.element_set()) == 1
    assert psi(c5.element_set(members_by_name(c5, "a", "a4"))) == 1
    c6 = make_group("C6")
    h = generated_subgroup(c6.element_set([c6.element("a2")]))
    assert psi(h.difference([0])) == len(h) == 3


def whole_group(g):
    return Subgroup(g, range(g.order))


def test_aba_examples():
    s3 = make_group("S3")
    assert whole_group(s3).is_aba
    a = generated_subgroup(s3.element_set([s3.element("(12)")]))
    b = generated_subgroup(s3.element_set([s3.element("(13)")]))
    assert a.is_proper and b.is_proper
    assert product_set(product_set(a, b), a).members == tuple(range(6))
    assert not whole_group(make_group("C5")).is_aba
    assert not whole_group(make_group("C4")).is_aba


# --------------------------------------------------------------------------
# Cosets


def test_coset_partition_covers_group_disjointly():
    g = make_group("S3")
    h = generated_subgroup(g.element_set([g.element("(12)")]))
    for side in ("left", "right"):
        cosets = coset_partition(h, side)
        seen = []
        for coset in cosets:
            seen.extend(coset.members)
        assert sorted(seen) == list(range(6))
        assert all(len(c) == len(h) for c in cosets)


def test_left_and_right_cosets_differ_for_nonnormal_subgroup():
    g = make_group("S3")
    h = generated_subgroup(g.element_set([g.element("(12)")]))
    x = g.element("(13)")
    assert left_coset(h, x) != right_coset(h, x)


def test_is_subgroup_set_quick_check():
    g = make_group("C6")
    assert is_subgroup_set(g.element_set([0, 2, 4]))
    assert not is_subgroup_set(g.element_set([0, 2]))
    assert not is_subgroup_set(g.element_set([2, 4]))


def test_element_orders_in_c6():
    g = make_group("C6")
    assert element_order(g, g.element("a")) == 6
    assert element_order(g, g.element("a2")) == 3
    assert element_order(g, g.element("a3")) == 2
    assert element_order(g, 0) == 1


# --------------------------------------------------------------------------
# Properties


@st.composite
def group_and_subset(draw):
    spec = draw(st.sampled_from(["C6", "C8", "S3", "D4", "Q8", "C2xC4"]))
    g = make_group(spec)
    members = draw(st.sets(st.integers(0, g.order - 1), max_size=g.order))
    return g, g.element_set(members)


@settings(max_examples=60, deadline=None)
@given(group_and_subset())
def test_generated_subgroup_is_closure_fixed_point(gx):
    g, x = gx
    k = generated_subgroup(x)
    assert frozenset(x) <= frozenset(k)
    assert product_set(k, k) == ElementSet(g, k.members)
    assert frozenset(k) == brute.brute_closure(g, x.members)


@settings(max_examples=60, deadline=None)
@given(group_and_subset())
def test_psi_divides_group_order(gx):
    g, x = gx
    assert g.order % psi(x) == 0


@settings(max_examples=60, deadline=None)
@given(group_and_subset())
def test_width_is_bounded_by_generated_order(gx):
    g, x = gx
    if len(x) == 0:
        assert width(x) == 0
    else:
        assert width(x) <= len(generated_subgroup(x)) - 1
