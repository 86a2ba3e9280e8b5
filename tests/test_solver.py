import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquecav import (
    NodeLimitExceeded,
    ZeroOneProgram,
    build_boundary_matrix,
    cocktail_party_network,
    enumerate_cliques,
    iter_solutions,
    network_from_edges,
    random_er,
)
from cliquecav.cavities import length_schedule
from cliquecav.solver import DEFAULT_NODE_LIMIT

from oracles import _Search, bernoulli_graph, brute_solutions


def _first(p):
    """The lexicographically smallest solution of p, or None."""
    return next(iter_solutions(p), None)


def _solutions(p, limit, node_limit=DEFAULT_NODE_LIMIT):
    """The first limit solutions of p, in lexicographic order."""
    return list(islice(iter_solutions(p, node_limit), limit))


def _boundary_rows(cx, order):
    """B_order of a clique complex as parity rows, and its column count."""
    bk = build_boundary_matrix(cx, order)
    rows = [[j for j in range(bk.cols) if (bits >> j) & 1] for bits in bk.bits]
    return [row for row in rows if row], bk.cols


def _edge_cycle_program(net, pin, length):
    rows, cols = _boundary_rows(enumerate_cliques(net), 1)
    return ZeroOneProgram(
        num_vars=cols,
        parity_rows=rows,
        fixed=[(pin, 1)],
        cardinality=length,
    )


def _random_program(rng, n):
    rows = []
    for _ in range(rng.randrange(1, 6)):
        size = rng.randrange(2, min(n, 5) + 1)
        rows.append(sorted(rng.sample(range(n), size)))
    fixed = [(v, rng.randrange(2)) for v in rng.sample(range(n), rng.randrange(0, 3))]
    cardinality = rng.randrange(0, n + 1) if rng.random() < 0.6 else None
    return ZeroOneProgram(
        num_vars=n, parity_rows=rows, fixed=fixed, cardinality=cardinality
    )


def test_pinned_pair():
    p = ZeroOneProgram(num_vars=2, parity_rows=[[0, 1]], fixed=[(0, 1)], cardinality=2)
    assert _first(p) == 0b11


def test_contradictory_pins_are_infeasible():
    p = ZeroOneProgram(num_vars=3, parity_rows=[[0, 1]], fixed=[(0, 1), (0, 0)])
    assert _first(p) is None


def test_validation_rejects_bad_programs():
    with pytest.raises(ValueError):
        ZeroOneProgram(num_vars=3, parity_rows=[[]])
    with pytest.raises(ValueError):
        ZeroOneProgram(num_vars=3, parity_rows=[[3]])
    with pytest.raises(ValueError):
        ZeroOneProgram(num_vars=3, fixed=[(0, 2)])


def test_length4_cycle_instance(sample14):
    # pinning the last edge (7,8) at four total ones forces the unique
    # 4-edge cycle on nodes 3,6,7,8: edge indices 8, 9, 11, 13
    p = _edge_cycle_program(sample14, pin=13, length=4)
    assert _first(p) == (1 << 8) | (1 << 9) | (1 << 11) | (1 << 13)


def test_eight_alternatives_at_length_seven(sample14):
    p = _edge_cycle_program(sample14, pin=10, length=7)
    sols = _solutions(p, 100)
    assert len(sols) == 8
    assert len(set(sols)) == 8
    for mask in sols:
        assert mask.bit_count() == 7
        assert (mask >> 10) & 1


def test_infeasible_short_length(sample14):
    assert _first(_edge_cycle_program(sample14, pin=10, length=4)) is None
    assert _first(_edge_cycle_program(sample14, pin=10, length=5)) is None
    assert _first(_edge_cycle_program(sample14, pin=10, length=6)) is None


def test_tree_has_no_cycle_through_any_edge():
    tree = network_from_edges(
        ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("2", "4")]
    )
    for pin in range(3):
        for length in range(1, 7):
            assert _first(_edge_cycle_program(tree, pin, length)) is None


def test_matches_exhaustive_oracle_small():
    rng = random.Random(1234)
    for trial in range(150):
        n = rng.randrange(2, 13)
        p = _random_program(rng, n)
        got = _solutions(p, 1 << n)
        assert got == brute_solutions(p), f"trial {trial}"


def test_matches_exhaustive_oracle_n20():
    rng = random.Random(77)
    rows = [sorted(rng.sample(range(20), rng.randrange(2, 6))) for _ in range(6)]
    p = ZeroOneProgram(num_vars=20, parity_rows=rows, fixed=[(3, 1)], cardinality=6)
    got = _solutions(p, 1 << 20)
    assert got == brute_solutions(p)


def test_first_solution_is_lexicographically_smallest():
    rng = random.Random(5150)
    for trial in range(80):
        n = rng.randrange(2, 11)
        p = _random_program(rng, n)
        expected = brute_solutions(p)
        got = _first(p)
        assert got == (expected[0] if expected else None), f"trial {trial}"


def test_enumerate_limit_and_validation():
    p = ZeroOneProgram(num_vars=4, parity_rows=[[0, 1], [2, 3]])
    all_sols = _solutions(p, 100)
    assert len(all_sols) == 4  # {00,11} x {00,11}
    assert _solutions(p, 2) == all_sols[:2]


def test_parity_only_solution_count_is_power_of_two():
    # one independent cycle of length 4: kernel dimension 3 over its edges
    p = ZeroOneProgram(num_vars=4, parity_rows=[[0, 1, 2, 3]])
    sols = _solutions(p, 100)
    assert len(sols) == 8  # all even-weight vectors


def test_node_limit_raises(sample14):
    p = _edge_cycle_program(sample14, pin=10, length=7)
    with pytest.raises(NodeLimitExceeded):
        list_all = _solutions(p, 100, 5)
        del list_all


def test_determinism(sample14):
    p = _edge_cycle_program(sample14, pin=10, length=7)
    assert _solutions(p, 100) == _solutions(p, 100)


def _even_row_count_program(rng, n):
    """Every variable in 2 or 4 of up to 8 rows, so the pairing bound applies."""
    rows = [[] for _ in range(rng.randrange(4, 9))]
    for v in range(n):
        for r in rng.sample(range(len(rows)), rng.choice((2, 4))):
            rows[r].append(v)
    fixed = [(v, rng.randrange(2)) for v in rng.sample(range(n), rng.randrange(0, 2))]
    cardinality = rng.randrange(0, n + 1) if rng.random() < 0.8 else None
    return ZeroOneProgram(n, [row for row in rows if row], fixed, cardinality)


def _matches_unpruned_oracle(p):
    """Assert the search streams what the unpruned oracle streams (all
    solutions for n <= 16, else the first 50) within the oracle's decision
    nodes. Returns whether it needed fewer nodes than the oracle."""
    first = 1 << p.num_vars if p.num_vars <= 16 else 50
    oracle = _Search(p, DEFAULT_NODE_LIMIT)
    expected = list(islice(oracle.solutions(), first))
    assert _solutions(p, first, oracle.nodes) == expected
    if not oracle.nodes:
        return False
    try:
        _solutions(p, first, oracle.nodes - 1)
    except NodeLimitExceeded:
        return False
    return True


def _cycle_programs(net):
    """Pinned exact-length cycle programs over B_1..B_3 of net: three pins per
    order, the first four lengths of its schedule."""
    cx = enumerate_cliques(net)
    for k in range(1, min(3, cx.top_order) + 1):
        rows, cols = _boundary_rows(cx, k)
        for pin in sorted({0, cols // 2, cols - 1}):
            for length in list(length_schedule(k, cols))[:4]:
                yield ZeroOneProgram(cols, rows, [(pin, 1)], length)


def test_search_matches_the_unpruned_oracle(sample14):
    rng = random.Random(1234)
    for trial in range(150):
        _matches_unpruned_oracle(_random_program(rng, rng.randrange(2, 13)))
    # every variable in an even number of rows: the bound is active and cuts
    rng = random.Random(99)
    assert any([_matches_unpruned_oracle(_even_row_count_program(rng, rng.randrange(4, 21)))
                for _ in range(60)])
    assert any([_matches_unpruned_oracle(_edge_cycle_program(sample14, pin, length))
                for pin in range(sample14.edge_count) for length in range(3, 10)])
    graphs = [cocktail_party_network(k) for k in (1, 2, 3)]
    graphs += [bernoulli_graph(n, 0.5, seed) for n in (8, 10) for seed in (1, 2)]
    assert any([_matches_unpruned_oracle(p) for net in graphs for p in _cycle_programs(net)])


def test_the_pairing_bound_stays_on():
    # the oracle needs 3,972 decision nodes to list every length-8 cycle
    # through edge 20 of this G(40, 60); the bounded search needs 700
    rows, cols = _boundary_rows(enumerate_cliques(random_er(40, 60, 1)), 1)
    p = ZeroOneProgram(cols, rows, [(20, 1)], 8)
    oracle = _Search(p, DEFAULT_NODE_LIMIT)
    expected = list(oracle.solutions())
    assert _solutions(p, 1 << 20, oracle.nodes // 3) == expected


@st.composite
def _small_programs(draw):
    """n <= 12. About half put every variable in 0, 2 or 4 rows, so the
    pairing bound applies; the rest draw their rows freely."""
    n = draw(st.integers(0, 12))
    if n and draw(st.booleans()):
        nrows = draw(st.integers(2, 6))
        rows = [[] for _ in range(nrows)]
        for v in range(n):
            count = draw(st.sampled_from([c for c in (0, 2, 4) if c <= nrows]))
            for r in draw(st.permutations(range(nrows)))[:count]:
                rows[r].append(v)
        rows = [row for row in rows if row]
    else:
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True),
                             max_size=6)) if n else []
    fixed = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1)), max_size=2)) if n else []
    cardinality = draw(st.none() | st.integers(0, n + 1))
    return ZeroOneProgram(n, rows, fixed, cardinality)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_small_programs())
def test_enumeration_equals_brute_force(p):
    assert _solutions(p, 2**p.num_vars) == brute_solutions(p)


@pytest.mark.parametrize(
    "net, order, pin, length, first, count, nodes",
    [
        ("random_er(40, 60, 1)", 1, 20, 8, None, 21, 700),
        ("sample14", 1, 10, 7, None, 8, 102),
        ("cocktail3", 2, 0, 8, 1, 1, 23),
    ],
)
def test_decision_node_counts_are_pinned(sample14, net, order, pin, length, first, count, nodes):
    # nodes: the smallest node_limit that completes the run (every solution,
    # or the first); neither the root nor the pins are decision nodes
    net = {"random_er(40, 60, 1)": lambda: random_er(40, 60, 1), "sample14": lambda: sample14,
           "cocktail3": lambda: cocktail_party_network(3)}[net]()
    rows, cols = _boundary_rows(enumerate_cliques(net), order)
    p = ZeroOneProgram(cols, rows, [(pin, 1)], length)
    first = first or 1 << cols
    assert len(_solutions(p, first, nodes)) == count
    with pytest.raises(NodeLimitExceeded):
        _solutions(p, first, nodes - 1)


def test_fixed_and_cardinality_are_read_when_the_search_is_called():
    # BoundaryContext.search reuses one program and changes both between calls
    p = ZeroOneProgram(3, [[0, 1, 2]], [(0, 1)], 2)
    stream = iter_solutions(p)
    p.fixed, p.cardinality = [(2, 1)], 0
    assert list(stream) == [0b101, 0b011]
