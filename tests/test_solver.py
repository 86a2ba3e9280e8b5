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


def _first(p, pin, length):
    """The lexicographically smallest solution of p through pin with length
    ones, or None."""
    return next(iter_solutions(p, pin, length), None)


def _solutions(p, pin, length, limit, node_limit=DEFAULT_NODE_LIMIT):
    """The first limit solutions of p through pin with length ones, in
    lexicographic order."""
    return list(islice(iter_solutions(p, pin, length, node_limit), limit))


def _boundary_program(cx, order):
    """The program of B_order of a clique complex: its nonzero rows."""
    bk = build_boundary_matrix(cx, order)
    return ZeroOneProgram(bk.cols, [row for row in bk.bits if row])


def _edge_cycle_program(net):
    return _boundary_program(enumerate_cliques(net), 1)


def _mask(indices):
    return sum(1 << j for j in set(indices))


def _random_program(rng, n):
    """A program of up to 5 random rows, a pin and a length."""
    rows = []
    for _ in range(rng.randrange(1, 6)):
        size = rng.randrange(2, min(n, 5) + 1)
        rows.append(_mask(rng.sample(range(n), size)))
    return ZeroOneProgram(n, rows), rng.randrange(n), rng.randrange(0, n + 1)


def test_pinned_pair():
    assert _first(ZeroOneProgram(2, [0b11]), 0, 2) == 0b11


def test_validation_rejects_bad_programs():
    with pytest.raises(ValueError, match="nonnegative"):
        ZeroOneProgram(-1, [])
    with pytest.raises(ValueError, match="non-empty"):
        ZeroOneProgram(3, [0])
    for row in (0b1001, -1):
        with pytest.raises(ValueError, match="out of range"):
            ZeroOneProgram(3, [0b011, row])


def test_validation_rejects_a_bad_pin_or_length():
    # when the search is called, before the first solution is asked for
    p = ZeroOneProgram(3, [0b011])
    for pin in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            iter_solutions(p, pin, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        iter_solutions(p, 0, -1)


def test_length4_cycle_instance(sample14):
    # pinning the last edge (7,8) at four total ones forces the unique
    # 4-edge cycle on nodes 3,6,7,8: edge indices 8, 9, 11, 13
    p = _edge_cycle_program(sample14)
    assert _first(p, 13, 4) == (1 << 8) | (1 << 9) | (1 << 11) | (1 << 13)


def test_eight_alternatives_at_length_seven(sample14):
    sols = _solutions(_edge_cycle_program(sample14), 10, 7, 100)
    assert len(sols) == 8
    assert len(set(sols)) == 8
    for mask in sols:
        assert mask.bit_count() == 7
        assert (mask >> 10) & 1


def test_infeasible_short_length(sample14):
    p = _edge_cycle_program(sample14)
    for length in (4, 5, 6):
        assert _first(p, 10, length) is None


def test_tree_has_no_cycle_through_any_edge():
    tree = network_from_edges(
        ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("2", "4")]
    )
    p = _edge_cycle_program(tree)
    for pin in range(3):
        for length in range(1, 7):
            assert _first(p, pin, length) is None


def test_matches_exhaustive_oracle_small():
    rng = random.Random(1234)
    for trial in range(150):
        n = rng.randrange(2, 13)
        p, pin, length = _random_program(rng, n)
        got = _solutions(p, pin, length, 1 << n)
        assert got == brute_solutions(p, pin, length), f"trial {trial}"


def test_matches_exhaustive_oracle_n20():
    rng = random.Random(77)
    rows = [_mask(rng.sample(range(20), rng.randrange(2, 6))) for _ in range(6)]
    p = ZeroOneProgram(20, rows)
    got = _solutions(p, 3, 6, 1 << 20)
    assert got == brute_solutions(p, 3, 6)


def test_first_solution_is_lexicographically_smallest():
    rng = random.Random(5150)
    for trial in range(80):
        n = rng.randrange(2, 11)
        p, pin, length = _random_program(rng, n)
        expected = brute_solutions(p, pin, length)
        got = _first(p, pin, length)
        assert got == (expected[0] if expected else None), f"trial {trial}"


def test_node_limit_raises(sample14):
    with pytest.raises(NodeLimitExceeded):
        _solutions(_edge_cycle_program(sample14), 10, 7, 100, 5)


def test_determinism(sample14):
    p = _edge_cycle_program(sample14)
    assert _solutions(p, 10, 7, 100) == _solutions(p, 10, 7, 100)


def test_one_program_serves_interleaved_searches(sample14):
    # BoundaryContext.search reuses one program for every generator and length
    p = _edge_cycle_program(sample14)
    rows = list(p.parity_rows)
    alone = [_solutions(p, 10, 7, 100), _solutions(p, 13, 7, 100)]
    streams = [iter_solutions(p, 10, 7), iter_solutions(p, 13, 7)]
    interleaved = [[], []]
    for _ in range(100):
        for stream, out in zip(streams, interleaved):
            out.extend(islice(stream, 1))
    assert interleaved == alone and all(alone)
    assert p.parity_rows == rows


def _even_row_count_program(rng, n):
    """Every variable in 2 or 4 of up to 8 rows, so the pairing bound
    applies; with a pin and a length."""
    rows = [[] for _ in range(rng.randrange(4, 9))]
    for v in range(n):
        for r in rng.sample(range(len(rows)), rng.choice((2, 4))):
            rows[r].append(v)
    program = ZeroOneProgram(n, [_mask(row) for row in rows if row])
    return program, rng.randrange(n), rng.randrange(0, n + 1)


def _matches_unpruned_oracle(p, pin, length):
    """Assert the search streams what the unpruned oracle streams (all
    solutions for n <= 16, else the first 50) within the oracle's decision
    nodes. Returns whether it needed fewer nodes than the oracle."""
    first = 1 << p.num_vars if p.num_vars <= 16 else 50
    oracle = _Search(p, pin, length, DEFAULT_NODE_LIMIT)
    expected = list(islice(oracle.solutions(), first))
    assert _solutions(p, pin, length, first, oracle.nodes) == expected
    if not oracle.nodes:
        return False
    try:
        _solutions(p, pin, length, first, oracle.nodes - 1)
    except NodeLimitExceeded:
        return False
    return True


def _cycle_programs(net):
    """Pinned exact-length cycle searches over B_1..B_3 of net, as (program,
    pin, length): three pins per order, the first four lengths of its
    schedule."""
    cx = enumerate_cliques(net)
    for k in range(1, min(3, cx.top_order) + 1):
        p = _boundary_program(cx, k)
        for pin in sorted({0, p.num_vars // 2, p.num_vars - 1}):
            for length in list(length_schedule(k, p.num_vars))[:4]:
                yield p, pin, length


def test_search_matches_the_unpruned_oracle(sample14):
    rng = random.Random(1234)
    for trial in range(150):
        _matches_unpruned_oracle(*_random_program(rng, rng.randrange(2, 13)))
    # every variable in an even number of rows: the bound is active and cuts
    rng = random.Random(99)
    assert any([_matches_unpruned_oracle(*_even_row_count_program(rng, rng.randrange(4, 21)))
                for _ in range(60)])
    p = _edge_cycle_program(sample14)
    assert any([_matches_unpruned_oracle(p, pin, length)
                for pin in range(sample14.edge_count) for length in range(3, 10)])
    graphs = [cocktail_party_network(k) for k in (1, 2, 3)]
    graphs += [bernoulli_graph(n, 0.5, seed) for n in (8, 10) for seed in (1, 2)]
    assert any([_matches_unpruned_oracle(*search) for net in graphs
                for search in _cycle_programs(net)])


def test_the_pairing_bound_stays_on():
    # the oracle needs 3,972 decision nodes to list every length-8 cycle
    # through edge 20 of this G(40, 60); the bounded search needs 700
    p = _edge_cycle_program(random_er(40, 60, 1))
    oracle = _Search(p, 20, 8, DEFAULT_NODE_LIMIT)
    expected = list(oracle.solutions())
    assert _solutions(p, 20, 8, 1 << 20, oracle.nodes // 3) == expected


@st.composite
def _small_searches(draw):
    """(program, pin, length) with 1 <= n <= 12. About half put every
    variable in 0, 2 or 4 rows, so the pairing bound applies; the rest draw
    their rows freely."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        nrows = draw(st.integers(2, 6))
        rows = [[] for _ in range(nrows)]
        for v in range(n):
            count = draw(st.sampled_from([c for c in (0, 2, 4) if c <= nrows]))
            for r in draw(st.permutations(range(nrows)))[:count]:
                rows[r].append(v)
        rows = [row for row in rows if row]
    else:
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True),
                             max_size=6))
    program = ZeroOneProgram(n, [_mask(row) for row in rows])
    return program, draw(st.integers(0, n - 1)), draw(st.integers(0, n + 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_small_searches())
def test_enumeration_equals_brute_force(search):
    p, pin, length = search
    assert _solutions(p, pin, length, 2**p.num_vars) == brute_solutions(p, pin, length)


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
    p = _boundary_program(enumerate_cliques(net), order)
    first = first or 1 << p.num_vars
    assert len(_solutions(p, pin, length, first, nodes)) == count
    with pytest.raises(NodeLimitExceeded):
        _solutions(p, pin, length, first, nodes - 1)
