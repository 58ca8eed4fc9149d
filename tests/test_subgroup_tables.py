"""Differential tests for the tables the predictors read instead of redoing
subgroup work per connection set: the shift-avoiding splits of chromatic
condition (ii), the right coset of each element behind HC* and the
connectivity witnesses, and the per-mask lattice lookups."""
from __future__ import annotations

import random

import pytest

import brute
from relcay.audit import catalog_up_to
from relcay.graphs import ConnectionSet, inverse_orbits
from relcay.group_core import (
    enumerate_subgroups,
    generated_subgroup,
    left_coset,
    make_group,
    product_set,
    psi,
    subgroups_within,
    width,
)
from relcay.theorems import (
    DEFAULT_CHROMATIC_II_CAP,
    InstanceSets,
    _partition_condition,
    predict_connectivity,
)

SPLIT_GROUPS = catalog_up_to(12) + ("D8",)


def seeded_connection_sets(g, seed: str, count: int):
    """A few inverse-closed connection sets, drawn from the seed."""
    rng = random.Random(f"{g.spec}|{seed}")
    orbits = inverse_orbits(g)
    for _ in range(count):
        chosen = [x for orbit in orbits if rng.random() < 0.5 for x in orbit]
        yield ConnectionSet(g, chosen)


def cyclic_subgroups(g):
    """Each subgroup with a generating element, with its smallest one."""
    for h in enumerate_subgroups(g):
        step = next((x for x in h.members if generated_subgroup(g.element_set((x,))) == h), None)
        if step is not None:
            yield h, step


def as_partition(parts) -> frozenset:
    return frozenset(frozenset(part) for part in parts)


@pytest.mark.parametrize("spec", SPLIT_GROUPS)
def test_split_table_matches_the_labelling_enumeration(spec):
    g = make_group(spec)
    for h, step in cyclic_subgroups(g):
        if len(h) > DEFAULT_CHROMATIC_II_CAP:
            continue
        labellings = brute.brute_shift_avoiding_labellings(g, h.members, step)
        table = h.shift_avoiding_splits(step)
        assert table is h.shift_avoiding_splits(step)
        for split in table:
            assert sum(part.bit_count() for part in split) == len(h)
            assert split[0] | split[1] | split[2] == h.mask
        expected = {
            as_partition([m for m, k in zip(h.members, classes) if k == label] for label in range(3))
            for classes in labellings
        }
        found = [
            as_partition([x for x in h.members if part >> x & 1] for part in split)
            for split in table
        ]
        assert len(set(found)) == len(found)
        assert set(found) == expected
        for c in seeded_connection_sets(g, f"splits|{h.mask}", 4):
            assert _partition_condition(g, h, c, step) == brute.brute_partition_condition(
                g, h.members, c.members, labellings
            ), (spec, h.names(), c.names())


def reference_witnesses(g, h, c) -> tuple[int, ...]:
    """The vertices g outside H with (H n gC)*A*B = H, tested one by one."""
    inner_span = generated_subgroup(h.intersection(c))
    outer = c.difference(h)
    outer_span = generated_subgroup(h.intersection(product_set(outer, outer)))
    return tuple(
        x
        for x in range(g.order)
        if x not in h
        and product_set(product_set(h.intersection(left_coset(c, x)), inner_span), outer_span)
        == h
    )


@pytest.mark.parametrize("spec", catalog_up_to(12) + ("D8", "S4"))
def test_coset_witnesses_and_hc_star_match_the_per_element_loop(spec):
    g = make_group(spec)
    for h in enumerate_subgroups(g):
        assert len(set(h.right_coset_masks)) == h.index
        for c in seeded_connection_sets(g, f"witnesses|{h.mask}", 6):
            sets = InstanceSets(g, h, c)
            assert sets.hc_star == product_set(h, c.with_identity())
            conn = predict_connectivity(g, h, c, sets=sets)
            assert conn.product_witnesses == reference_witnesses(g, h, c), (
                spec,
                h.names(),
                c.names(),
            )


@pytest.mark.parametrize("spec", catalog_up_to(8))
def test_lattice_lookups_match_direct_computation_on_every_mask(spec):
    g = make_group(spec)
    subgroups = brute.brute_subgroup_sets(g)
    for mask in range(1 << g.order):
        x = g.element_set(i for i in range(g.order) if mask >> i & 1)
        star = set(x.members) | {g.identity}
        within = sorted((s for s in subgroups if s <= star), key=lambda s: (len(s), sorted(s)))
        for _ in range(2):  # computed, then read back from the table
            assert [set(s.members) for s in subgroups_within(x)] == within
            assert psi(x) == len(within[-1])
            assert width(x) == brute.brute_width(g, x.members)
