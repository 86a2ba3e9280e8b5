from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings

from cliquecav import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    clique_counts,
    cocktail_party_network,
    complex_from_json,
    complex_to_json,
    edge_text_checksum,
    enumerate_cliques,
    euler_characteristic,
    network_from_edges,
    random_er,
)

from oracles import (
    bernoulli_graph,
    cross_polytope_count,
    enumerate_cliques_oracle,
    expand_maximal_cliques,
    max_clique_order,
    maximal_cliques,
    small_graphs,
)

TRIANGLES_14 = [
    ("1", "2", "3"), ("1", "2", "4"), ("1", "2", "5"), ("1", "3", "4"),
    ("2", "3", "4"), ("9", "10", "11"), ("9", "10", "13"), ("9", "11", "12"),
    ("9", "12", "13"), ("10", "11", "14"), ("10", "13", "14"),
    ("11", "12", "14"), ("12", "13", "14"),
]


def _labeled(net, level):
    return [tuple(net.node_labels[u] for u in c) for c in level]


def test_sample14_census(sample14):
    cx = enumerate_cliques(sample14)
    assert cx.counts == (14, 26, 13, 1)
    assert euler_characteristic(cx.counts) == 0


def test_sample14_triangles_and_tetrahedron_exact(sample14):
    cx = enumerate_cliques(sample14)
    assert _labeled(sample14, cx.levels[2]) == TRIANGLES_14
    assert _labeled(sample14, cx.levels[3]) == [("1", "2", "3", "4")]


def test_k4_census():
    labels = ["1", "2", "3", "4"]
    pairs = [(a, b) for a, b in combinations(labels, 2)]
    cx = enumerate_cliques(network_from_edges(labels, pairs))
    assert cx.counts == (4, 6, 4, 1)


def test_complete_graph_counts_are_binomials():
    labels = [str(i) for i in range(1, 7)]
    pairs = [(a, b) for a, b in combinations(labels, 2)]
    cx = enumerate_cliques(network_from_edges(labels, pairs))
    assert cx.counts == tuple(comb(6, j + 1) for j in range(6))


def test_levels_are_downward_closed(sample14):
    for net in [sample14, bernoulli_graph(25, 0.35, 3)]:
        cx = enumerate_cliques(net)
        for k in range(1, len(cx.levels)):
            below = set(cx.levels[k - 1])
            for c in cx.levels[k]:
                for face in combinations(c, k):
                    assert face in below


def test_levels_are_sorted_and_deduplicated(sample14):
    cx = enumerate_cliques(sample14)
    for level in cx.levels:
        assert list(level) == sorted(set(level))


def test_matches_maximal_clique_expansion_on_random_graphs():
    for seed in range(20):
        net = bernoulli_graph(30, 0.3, seed)
        cx = enumerate_cliques(net)
        assert list(cx.levels) == expand_maximal_cliques(maximal_cliques(net)), f"seed {seed}"


def test_budget_truncation_is_loud(sample14):
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_cliques(sample14, budget=20)
    assert exc.value.counts == (14,)
    assert str(exc.value) == (
        "level 1 exceeds budget (20); enumeration stopped (counts so far: [14])"
    )


def test_budget_truncation_at_level_zero(sample14):
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_cliques(sample14, budget=10)
    assert exc.value.counts == ()
    assert str(exc.value) == "level 0 exceeds budget (10); enumeration stopped (counts so far: [])"


def test_max_order_stops_cleanly(sample14):
    cx = enumerate_cliques(sample14, max_order=1)
    assert cx.counts == (14, 26)
    assert euler_characteristic(cx.counts) == 14 - 26


def test_max_clique_order(sample14):
    assert max_clique_order(sample14) == 3
    path = network_from_edges(["1", "2", "3"], [("1", "2"), ("2", "3")])
    assert max_clique_order(path) == 1
    assert max_clique_order(network_from_edges([], [])) == -1


def test_enumeration_is_deterministic(sample14):
    a = enumerate_cliques(sample14)
    b = enumerate_cliques(sample14)
    assert a == b
    checksum = edge_text_checksum(sample14)
    assert complex_to_json(a, checksum) == complex_to_json(b, checksum)


def test_complex_json_round_trip(sample14):
    cx = enumerate_cliques(sample14)
    doc = complex_to_json(cx, edge_text_checksum(sample14))
    again, checksum = complex_from_json(doc)
    assert again == cx
    assert checksum == edge_text_checksum(sample14)


def test_complex_json_rejects_inconsistent_counts(sample14):
    cx = enumerate_cliques(sample14)
    doc = complex_to_json(cx, edge_text_checksum(sample14))
    doc["counts"] = [1, 2]
    with pytest.raises(ValueError):
        complex_from_json(doc)


def test_cocktail_party_structure():
    net = cocktail_party_network(2)
    # three antipodal pairs, each node adjacent to all but its partner
    assert net.node_count == 6
    assert all(len(net.adjacency[u]) == 4 for u in range(6))


def test_smallest_cavity_counts_match_formula():
    for k in range(1, 9):
        cx = enumerate_cliques(cocktail_party_network(k))
        assert cx.top_order == k
        for j, m in enumerate(cx.counts):
            assert m == cross_polytope_count(k, j), (k, j)
        chi = euler_characteristic(cx.counts)
        assert chi == 1 + (-1) ** k


def test_cocktail_party_rejects_out_of_range():
    with pytest.raises(ValueError):
        cocktail_party_network(0)
    with pytest.raises(ValueError):
        cocktail_party_network(13)


def _outcome(enumerate_fn, net, budget, max_order):
    """The complex, or the message and counts of the budget overflow."""
    try:
        return enumerate_fn(net, budget=budget, max_order=max_order)
    except BudgetExceeded as exc:
        return str(exc), exc.counts


def _assert_matches_oracle(name, net, budget=DEFAULT_BUDGET, max_order=None):
    got = _outcome(enumerate_cliques, net, budget, max_order)
    want = _outcome(enumerate_cliques_oracle, net, budget, max_order)
    assert got == want, (name, budget, max_order)
    return got


def _differential_networks(sample14):
    yield "sample14", sample14
    for k in range(1, 9):
        yield f"cocktail k={k}", cocktail_party_network(k)
    for seed in range(20):
        yield f"bernoulli seed={seed}", bernoulli_graph(30, 0.3, seed)
    labels = [str(i) for i in range(1, 9)]
    pairs = [("2", "3"), ("2", "5"), ("3", "5"), ("5", "7")]
    yield "isolated nodes", network_from_edges(labels, pairs)
    yield "empty", network_from_edges([], [])


def test_bitset_enumeration_matches_tuple_scan_oracle(sample14):
    for name, net in _differential_networks(sample14):
        _assert_matches_oracle(name, net)


def test_bitset_enumeration_matches_oracle_at_every_max_order(sample14):
    for max_order in range(enumerate_cliques(sample14).top_order + 1):
        _assert_matches_oracle("sample14", sample14, max_order=max_order)


@pytest.mark.parametrize("which", ["sample14", "cocktail k=4"])
def test_bitset_enumeration_matches_oracle_at_the_budget_boundary(which, sample14):
    net = sample14 if which == "sample14" else cocktail_party_network(4)
    counts = enumerate_cliques(net).counts
    for m in counts:
        for budget in (m - 1, m, m + 1):
            if budget > 0:
                outcome = _assert_matches_oracle(which, net, budget=budget)
                assert isinstance(outcome[0], str) == (budget < max(counts)), budget


def test_clique_counts_match_enumeration(sample8, sample14):
    networks = [*_differential_networks(sample14), ("sample8", sample8)]
    for n, p, seed in [(12, 0.5, 1), (20, 0.7, 2), (40, 0.5, 3), (60, 0.25, 4)]:
        networks.append((f"bernoulli({n}, {p}, {seed})", bernoulli_graph(n, p, seed)))
    networks.append(("random_er(198, 2742, 1)", random_er(198, 2742, 1)))
    for name, net in networks:
        assert clique_counts(net) == enumerate_cliques(net).counts, name


def test_clique_counts_of_cross_polytopes_up_to_the_largest_order():
    for k in range(1, 13):
        expected = tuple(cross_polytope_count(k, j) for j in range(k + 1))
        assert clique_counts(cocktail_party_network(k)) == expected, k


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(small_graphs())
def test_clique_counts_equal_enumeration_on_small_graphs(net):
    assert clique_counts(net) == enumerate_cliques(net).counts
