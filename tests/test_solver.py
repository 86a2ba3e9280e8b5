import random

import pytest

from cliquecav import (
    NodeLimitExceeded,
    ZeroOneProgram,
    build_boundary_matrix,
    enumerate_cliques,
    enumerate_solutions,
    network_from_edges,
    solve,
)

from oracles import brute_solutions


def _edge_cycle_program(net, pin, length):
    b1 = build_boundary_matrix(enumerate_cliques(net), 1)
    rows = []
    for bits in b1.bits:
        row = [j for j in range(b1.cols) if (bits >> j) & 1]
        if row:
            rows.append(row)
    return ZeroOneProgram(
        num_vars=b1.cols,
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
    assert solve(p) == 0b11


def test_contradictory_pins_are_infeasible():
    p = ZeroOneProgram(num_vars=3, parity_rows=[[0, 1]], fixed=[(0, 1), (0, 0)])
    assert solve(p) is None


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
    assert solve(p) == (1 << 8) | (1 << 9) | (1 << 11) | (1 << 13)


def test_eight_alternatives_at_length_seven(sample14):
    p = _edge_cycle_program(sample14, pin=10, length=7)
    sols = enumerate_solutions(p, limit=100)
    assert len(sols) == 8
    assert len(set(sols)) == 8
    for mask in sols:
        assert mask.bit_count() == 7
        assert (mask >> 10) & 1


def test_infeasible_short_length(sample14):
    assert solve(_edge_cycle_program(sample14, pin=10, length=4)) is None
    assert solve(_edge_cycle_program(sample14, pin=10, length=5)) is None
    assert solve(_edge_cycle_program(sample14, pin=10, length=6)) is None


def test_tree_has_no_cycle_through_any_edge():
    tree = network_from_edges(
        ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("2", "4")]
    )
    for pin in range(3):
        for length in range(1, 7):
            assert solve(_edge_cycle_program(tree, pin, length)) is None


def test_matches_exhaustive_oracle_small():
    rng = random.Random(1234)
    for trial in range(150):
        n = rng.randrange(2, 13)
        p = _random_program(rng, n)
        got = enumerate_solutions(p, limit=1 << n)
        assert got == brute_solutions(p), f"trial {trial}"


def test_matches_exhaustive_oracle_n20():
    rng = random.Random(77)
    rows = [sorted(rng.sample(range(20), rng.randrange(2, 6))) for _ in range(6)]
    p = ZeroOneProgram(num_vars=20, parity_rows=rows, fixed=[(3, 1)], cardinality=6)
    got = enumerate_solutions(p, limit=1 << 20)
    assert got == brute_solutions(p)


def test_first_solution_is_lexicographically_smallest():
    rng = random.Random(5150)
    for trial in range(80):
        n = rng.randrange(2, 11)
        p = _random_program(rng, n)
        expected = brute_solutions(p)
        got = solve(p)
        assert got == (expected[0] if expected else None), f"trial {trial}"


def test_enumerate_limit_and_validation():
    p = ZeroOneProgram(num_vars=4, parity_rows=[[0, 1], [2, 3]])
    all_sols = enumerate_solutions(p, limit=100)
    assert len(all_sols) == 4  # {00,11} x {00,11}
    assert enumerate_solutions(p, limit=2) == all_sols[:2]
    with pytest.raises(ValueError):
        enumerate_solutions(p, limit=0)


def test_parity_only_solution_count_is_power_of_two():
    # one independent cycle of length 4: kernel dimension 3 over its edges
    p = ZeroOneProgram(num_vars=4, parity_rows=[[0, 1, 2, 3]])
    sols = enumerate_solutions(p, limit=100)
    assert len(sols) == 8  # all even-weight vectors


def test_node_limit_raises(sample14):
    p = _edge_cycle_program(sample14, pin=10, length=7)
    with pytest.raises(NodeLimitExceeded):
        list_all = enumerate_solutions(p, limit=100, node_limit=5)
        del list_all


def test_determinism(sample14):
    p = _edge_cycle_program(sample14, pin=10, length=7)
    assert enumerate_solutions(p, limit=100) == enumerate_solutions(p, limit=100)
