import random

import pytest
from hypothesis import given, settings

import cliquecav.gf2
from cliquecav import (
    Boundaries,
    Gf2Matrix,
    basis_insert,
    build_boundary_matrix,
    cocktail_party_network,
    column_space_basis,
    enumerate_cliques,
    gf2_rank,
    homology_profile,
    network_from_edges,
    random_er,
)

from oracles import (
    bernoulli_graph,
    component_count,
    edge_rank_oracle,
    forward_rank_oracle,
    independent_column_scan,
    multiply,
    naive_rank,
    pivot_rows_oracle,
    rref_oracle,
    small_graphs,
)

# node-edge incidence of the 8-node sub-network: column = edge endpoints
SUB8_EDGE_ENDPOINTS = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
    (1, 4), (2, 3), (2, 5), (2, 7), (5, 6), (6, 7),
]


def _random_matrix(rng, max_dim=64):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    bits = [rng.getrandbits(cols) for _ in range(rows)]
    return Gf2Matrix(cols, bits)


def _profile(cx):
    # the profile alone, one B_k held at a time, as analyze without --cavities computes it
    return homology_profile(Boundaries(cx, keep_matrices=False))


def test_sub_network_node_edge_matrix(sample8):
    cx = enumerate_cliques(sample8)
    b1 = build_boundary_matrix(cx, 1)
    assert (len(b1.bits), b1.cols) == (8, 12)
    for j, (u, v) in enumerate(SUB8_EDGE_ENDPOINTS):
        ones = [i for i in range(8) if (b1.bits[i] >> j) & 1]
        assert ones == [u, v]
    assert gf2_rank(b1).rank == 7


def test_sub_network_edge_face_matrix(sample8):
    cx = enumerate_cliques(sample8)
    b2 = build_boundary_matrix(cx, 2)
    assert (len(b2.bits), b2.cols) == (12, 5)
    assert gf2_rank(b2).rank == 4
    nonzero_rows = {i for i in range(12) if b2.bits[i]}
    assert nonzero_rows == set(range(8))


def test_triangle_boundary_is_all_ones():
    net = network_from_edges(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
    b2 = build_boundary_matrix(enumerate_cliques(net), 2)
    assert (len(b2.bits), b2.cols) == (3, 1)
    assert all(b2.bits[i] & 1 for i in range(3))


def test_column_weights_are_order_plus_one(sample14):
    cx = enumerate_cliques(sample14)
    for k in (1, 2, 3):
        bk = build_boundary_matrix(cx, k)
        for col in bk.column_vectors():
            assert col.bit_count() == k + 1


def test_boundary_matrix_errors(sample14):
    cx = enumerate_cliques(sample14)
    with pytest.raises(ValueError):
        build_boundary_matrix(cx, 0)
    with pytest.raises(ValueError, match="level"):
        build_boundary_matrix(cx, 4)


def test_identity_rank():
    m = Gf2Matrix(5, [1 << i for i in range(5)])
    res = gf2_rank(m)
    assert res.rank == 5
    assert list(res.pivot_cols) == [0, 1, 2, 3, 4]


def test_rank_matches_randomized_elimination_oracle():
    rng = random.Random(20260817)
    for trial in range(200):
        m = _random_matrix(rng)
        assert gf2_rank(m).rank == naive_rank(m.bits, trial), f"trial {trial}"


def test_pivot_columns_match_greedy_scan_oracle():
    rng = random.Random(99)
    for trial in range(50):
        m = _random_matrix(rng, max_dim=24)
        assert list(gf2_rank(m).pivot_cols) == independent_column_scan(m.bits, m.cols)


def test_rank_is_permutation_invariant():
    rng = random.Random(4)
    for _ in range(25):
        m = _random_matrix(rng, max_dim=32)
        base = gf2_rank(m).rank
        rows = m.bits[:]
        rng.shuffle(rows)
        perm = list(range(m.cols))
        rng.shuffle(perm)
        shuffled = [
            sum(((r >> j) & 1) << perm[j] for j in range(m.cols)) for r in rows
        ]
        assert gf2_rank(Gf2Matrix(m.cols, shuffled)).rank == base


def _differential_complexes(sample14):
    yield "sample14", enumerate_cliques(sample14)
    for k in range(1, 7):
        yield f"cocktail k={k}", enumerate_cliques(cocktail_party_network(k))
    for seed in range(6):
        yield f"bernoulli seed={seed}", enumerate_cliques(bernoulli_graph(22, 0.35, seed))


def test_forward_rank_matches_rref_oracle(sample14):
    rng = random.Random(11)
    for trial in range(100):
        m = _random_matrix(rng)
        rank, pivots = rref_oracle(m.bits)
        res = gf2_rank(m)
        assert (res.rank, list(res.pivot_cols)) == (rank, pivots), f"trial {trial}"
    for name, cx in _differential_complexes(sample14):
        for k in range(1, cx.top_order + 1):
            bk = build_boundary_matrix(cx, k)
            rank, pivots = rref_oracle(bk.bits)
            res = gf2_rank(bk)
            assert (res.rank, list(res.pivot_cols)) == (rank, pivots), f"{name}, B_{k}"


def test_union_find_r1_matches_boundary_rank(sample14):
    # isolated nodes 7 and 9, and components {1..4}, {5, 6}, {8, 10, 11}
    scattered = network_from_edges(
        [str(i) for i in range(1, 12)],
        [("1", "2"), ("2", "3"), ("3", "1"), ("3", "4"), ("5", "6"),
         ("8", "10"), ("10", "11"), ("11", "8")],
    )
    cases = [*_differential_complexes(sample14), ("scattered", enumerate_cliques(scattered))]
    for name, cx in cases:
        expected = gf2_rank(build_boundary_matrix(cx, 1)).rank
        assert _profile(cx).r[1] == expected, name
        # pivot rows too: every node row but the last of its component
        assert Boundaries(cx).rank(1) == forward_rank_oracle(build_boundary_matrix(cx, 1)), name
    assert _profile(enumerate_cliques(scattered)).beta[0] == 5


def test_augmentation_cases(sample14):
    cx = enumerate_cliques(sample14)
    b2 = build_boundary_matrix(cx, 2)
    r2 = gf2_rank(b2).rank
    assert r2 == 11
    # indicator of the 4-edge cycle on nodes (3,6,7,8): edge ids 8,9,11,13
    cycle = (1 << 8) | (1 << 9) | (1 << 11) | (1 << 13)
    # a face boundary is already in the column space
    face_boundary = b2.column_vectors()[7]
    for extra, rank in ((cycle, r2 + 1), (face_boundary, r2), (0, r2)):
        basis = dict(column_space_basis(b2))
        basis_insert(basis, extra)
        assert len(basis) == rank


def test_augmenting_a_column_space_basis_leaves_the_next_one_unchanged(sample14):
    cx = enumerate_cliques(sample14)
    b2 = build_boundary_matrix(cx, 2)
    before = dict(column_space_basis(b2))
    cycle = (1 << 8) | (1 << 9) | (1 << 11) | (1 << 13)
    augmented = column_space_basis(b2)
    assert basis_insert(augmented, cycle)
    assert len(augmented) == len(before) + 1
    assert column_space_basis(b2) == before


def test_boundary_of_boundary_is_zero(sample14):
    nets = [sample14] + [bernoulli_graph(18, 0.4, s) for s in range(5)]
    for net in nets:
        cx = enumerate_cliques(net)
        for k in range(1, cx.top_order):
            prod = multiply(build_boundary_matrix(cx, k), build_boundary_matrix(cx, k + 1))
            assert all(row == 0 for row in prod.bits)


def test_profile_sample14(sample14):
    prof = _profile(enumerate_cliques(sample14))
    assert prof.m == (14, 26, 13, 1)
    assert prof.r == (0, 13, 11, 1)
    assert prof.beta == (1, 2, 1, 0)
    assert prof.chi == 0
    assert prof.euler_poincare_ok


def test_profile_two_disjoint_triangles():
    labels = [str(i) for i in range(1, 7)]
    pairs = [("1", "2"), ("1", "3"), ("2", "3"), ("4", "5"), ("4", "6"), ("5", "6")]
    prof = _profile(enumerate_cliques(network_from_edges(labels, pairs)))
    assert prof.beta == (2, 0, 0)
    assert prof.chi == 2


def test_beta0_counts_components():
    for seed in range(20):
        net = random_er(30, 25, seed)
        prof = _profile(enumerate_cliques(net))
        assert prof.beta[0] == component_count(net), f"seed {seed}"


def test_euler_poincare_on_random_graphs():
    for seed in range(20):
        net = bernoulli_graph(22, 0.35, seed)
        prof = _profile(enumerate_cliques(net))
        assert prof.euler_poincare_ok, f"seed {seed}"
        assert all(b >= 0 for b in prof.beta)
        for k in range(1, len(prof.m)):
            assert prof.r[k] <= min(prof.m[k - 1], prof.m[k])


def test_profile_of_empty_network():
    prof = _profile(enumerate_cliques(network_from_edges([], [])))
    assert prof.m == ()
    assert prof.chi == 0
    assert prof.euler_poincare_ok


def _clearing_complexes(sample8, sample14):
    yield "sample8", enumerate_cliques(sample8)
    yield "sample14", enumerate_cliques(sample14)
    for k in range(1, 7):
        yield f"cocktail k={k}", enumerate_cliques(cocktail_party_network(k))
    # a cleared set off by one row, or one row too many, leaves the samples
    # and the cocktail parties correct but not most of these
    for n in range(10, 15):
        for p in (0.4, 0.55):
            for seed in range(4):
                yield f"bernoulli({n}, {p}, {seed})", enumerate_cliques(bernoulli_graph(n, p, seed))
    yield "empty", enumerate_cliques(network_from_edges([], []))
    yield "isolated nodes", enumerate_cliques(network_from_edges(["1", "2", "3"], []))


def test_cleared_ranks_match_forward_elimination(sample8, sample14):
    for name, cx in _clearing_complexes(sample8, sample14):
        boundaries = Boundaries(cx)
        r = [0]
        for k in range(1, cx.top_order + 1):
            expected = forward_rank_oracle(build_boundary_matrix(cx, k))
            # clearing keeps other rows, so pivot_rows differ from k = 2 on
            assert boundaries.rank(k).pivot_cols == expected.pivot_cols, f"{name}, B_{k}"
            r.append(expected.rank)
        if cx.top_order >= 1:
            assert r[1] == edge_rank_oracle(cx), name
        assert _profile(cx).r == tuple(r[: len(cx.levels)]), name


def test_clearing_skips_the_rows_the_previous_order_ranks(monkeypatch, sample14):
    # clearing changes no result, so only the rows that reach elimination show it
    reached = [0]
    calls = []
    insert, rank = cliquecav.gf2.basis_insert, cliquecav.gf2.gf2_rank

    def counted_insert(basis, v):
        reached[0] += 1
        return insert(basis, v)

    def recorded_rank(m, **kwargs):
        before = reached[0]
        result = rank(m, **kwargs)
        calls.append((len(m.bits), reached[0] - before))
        return result

    monkeypatch.setattr(cliquecav.gf2, "basis_insert", counted_insert)
    monkeypatch.setattr(cliquecav.gf2, "gf2_rank", recorded_rank)
    for cx in (enumerate_cliques(sample14), enumerate_cliques(cocktail_party_network(3))):
        calls.clear()
        prof = _profile(cx)
        expected = [(prof.m[k - 1], prof.m[k - 1] - prof.r[k - 1]) for k in range(2, len(prof.m))]
        assert calls == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(small_graphs())
def test_profile_ranks_equal_the_rref_ranks(net):
    cx = enumerate_cliques(net)
    r = _profile(cx).r
    for k in range(1, cx.top_order + 1):
        assert r[k] == rref_oracle(build_boundary_matrix(cx, k).bits)[0]


def test_pivot_rows_match_the_rref_prefix_ranks(sample8, sample14):
    rng = random.Random(5)
    for trial in range(150):
        m = _random_matrix(rng, max_dim=24)
        cleared = {i for i in range(len(m.bits)) if rng.random() < 0.3}
        expected = pivot_rows_oracle(m.bits, cleared)
        assert gf2_rank(m, cleared=cleared).pivot_rows == expected, f"trial {trial}"
        assert gf2_rank(m).pivot_rows == pivot_rows_oracle(m.bits, set()), f"trial {trial}"
    for name, cx in _clearing_complexes(sample8, sample14):
        if name == "cocktail k=6":
            continue  # the oracle is quadratic in the rows: 2 s on B_6's 672
        boundaries = Boundaries(cx)
        for k in range(2, cx.top_order + 2):
            cleared = set(boundaries.rank(k - 1).pivot_cols)
            expected = pivot_rows_oracle(boundaries.matrix(k).bits, cleared)
            assert boundaries.rank(k).pivot_rows == expected, f"{name}, B_{k}"
