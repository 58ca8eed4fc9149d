"""The domination number checked against an integer program.

gamma is the optimum of the set-cover program: minimise the sum of x_v
over binary x subject to sum(x_v for v in N[u]) >= 1 for every vertex u.
scipy's ``milp`` (HiGHS) solves it with no code shared with
``oracles.min_dominating_set``, so the two agreeing at the order cap is
an independent check.  scipy is a test-only dependency; the module is
skipped without it.
"""
from __future__ import annotations

import pytest

from relcay.cli import parse_elements
from relcay.graphs import ConnectionSet, build_relcay
from relcay.group_core import ElementSet, generated_subgroup, make_group
from relcay.oracles import min_dominating_set

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")

# (group, subgroup generators, connection set, gamma) in ``relcay
# invariants`` syntax.  The first eight are the benchmark's invariants
# ladder, the last five the order-64 graphs whose domination search once
# ran out of its node budget.
LADDER = (
    ("C24", "a2", "a,a23", 8),
    ("C32", "a2", "a,a31", 11),
    ("C36", "a2", "a,a35", 12),
    ("D12", "a", "a,a11,b", 12),
    ("D16", "a", "a,a15,b", 16),
    ("S4", "(123),(12)(34)", "(12),(1234),(1432),(34),(13)", 6),
    ("C64", "a32", "a,a63", 60),
    ("D32", "a16", "a,a31,b", 58),
)
ORDER_CAP = (
    ("D32", "a2,b", "a13,a15,a17,a19,a19b,a29b", 12),
    ("D32", "a", "a9,a23,a7b,a14b,a18b,a22b,a24b", 12),
    (
        "D16xC2",
        "(a,a),(b,a)",
        "(a2,a),(a3,1),(a5,1),(a11,1),(a13,1),(a14,a),(a2b,a),(a4b,a)",
        11,
    ),
    ("E2^6", "000001,000100,001010,010010,100000", "001001,011000,111010,111110", 16),
    ("E2^6", "000011,000101,001000,010000,100000", "011001,011110,100010,101010,111000", 16),
)
# The search takes about 4 s on the last order-cap graph (2-vCPU Xeon VM,
# Python 3.11.7), so that one is checked by the integer program alone; the
# second, which it answers in about 0.5 s, is searched by
# test_cli.py::test_invariants_answers_domination_at_the_order_cap.
SEARCHED = LADDER + ORDER_CAP[:1] + ORDER_CAP[2:4]


def graph_of(spec, subgroup, conn):
    group = make_group(spec)
    h = generated_subgroup(ElementSet(group, parse_elements(group, subgroup)))
    return build_relcay(group, h, ConnectionSet(group, parse_elements(group, conn)))


def integer_program_gamma(graph) -> int:
    n = graph.n
    closed = np.zeros((n, n))
    for v in range(n):
        closed[v, v] = 1
        for u in graph.neighbors(v):
            closed[v, u] = 1
    result = optimize.milp(
        c=np.ones(n),
        constraints=optimize.LinearConstraint(closed, lb=1),
        integrality=np.ones(n),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.success, result.message
    return round(result.fun)


@pytest.mark.parametrize("case", LADDER + ORDER_CAP, ids=lambda case: f"{case[0]}/{case[1]}")
def test_domination_matches_the_integer_program(case):
    graph = graph_of(*case[:3])
    gamma = integer_program_gamma(graph)
    assert gamma == case[3]
    if case in SEARCHED:
        assert min_dominating_set(graph.n, graph.adjacency, graph.left_translations) == gamma
