"""Acceptance gate: one test per reproduction criterion, timed where stated.

Every test re-derives its numbers from the public API and compares them
against frozen reference values. Dataset-dependent checks skip with a
visible notice when the file has not been fetched.
"""

import time
from itertools import islice

from cliquecav import (
    Boundaries,
    Gf2Matrix,
    ZeroOneProgram,
    build_boundary_matrix,
    certificate_from_json,
    clique_counts,
    cocktail_party_network,
    column_space_basis,
    enumerate_cliques,
    euler_characteristic,
    find_cavities,
    gf2_rank,
    homology_profile,
    iter_solutions,
    k_core_decomposition,
    random_er,
    select_spanning_and_generators,
    to_edge_text,
    verify_certificate,
)
from cliquecav.cli import census_notes
from conftest import load_dataset
from oracles import (
    brute_solutions,
    component_count,
    cross_polytope_count,
    expand_maximal_cliques,
    max_clique_order,
    maximal_cliques,
    multiply,
    naive_rank,
)

TRIANGLES = [
    ("1", "2", "3"), ("1", "2", "4"), ("1", "2", "5"), ("1", "3", "4"),
    ("2", "3", "4"), ("9", "10", "11"), ("9", "10", "13"), ("9", "11", "12"),
    ("9", "12", "13"), ("10", "11", "14"), ("10", "13", "14"),
    ("11", "12", "14"), ("12", "13", "14"),
]

# Reference clique / rank / Betti vectors for the 297-neuron network,
# written as 9-vectors (orders 0..8, trailing zeros kept).
CELEGANS_M = (297, 2148, 3241, 2010, 801, 240, 40, 2, 0)
CELEGANS_R = (0, 296, 1713, 1407, 599, 202, 38, 2, 0)
CELEGANS_BETA = (1, 139, 121, 4, 0, 0, 0, 0, 0)

# The four reference order-3 cavities: boundary lists of 3-cliques plus,
# for each, one member clique used as the certificate's generator claim.
CELEGANS_CAVITY3_BOUNDARIES = [
    [
        (85, 13, 3, 164), (13, 3, 164, 163), (3, 164, 163, 119), (164, 163, 119, 118),
        (163, 119, 118, 158), (119, 118, 158, 85), (118, 158, 85, 13), (158, 85, 13, 3),
        (85, 3, 164, 119), (119, 158, 85, 3), (3, 163, 119, 158), (158, 13, 3, 163),
        (163, 118, 158, 13), (13, 164, 163, 118), (118, 85, 13, 164), (164, 119, 118, 85),
    ],
    [
        (163, 3, 162, 119), (3, 162, 119, 154), (162, 119, 154, 118), (119, 154, 118, 167),
        (154, 118, 167, 13), (118, 167, 13, 227), (167, 13, 227, 3), (13, 227, 3, 85),
        (227, 3, 85, 119), (3, 85, 119, 164), (85, 119, 164, 118), (119, 164, 118, 163),
        (118, 163, 119, 162), (162, 118, 163, 13), (13, 162, 118, 154), (154, 13, 162, 3),
        (3, 154, 13, 167), (167, 3, 154, 119), (119, 167, 3, 227), (227, 119, 167, 118),
        (118, 227, 119, 85), (85, 118, 227, 13), (13, 85, 118, 164), (164, 13, 85, 3),
        (3, 164, 13, 163), (163, 3, 164, 119), (13, 163, 118, 164), (163, 3, 162, 13),
    ],
    [
        (171, 13, 3, 195), (13, 3, 195, 185), (3, 195, 185, 119), (195, 185, 119, 118),
        (185, 119, 118, 173), (119, 118, 173, 171), (118, 173, 171, 13), (173, 171, 13, 3),
        (171, 3, 195, 119), (119, 173, 171, 3), (3, 185, 119, 173), (173, 13, 3, 185),
        (185, 118, 173, 13), (13, 195, 185, 118), (118, 171, 13, 195), (195, 119, 118, 171),
    ],
    [
        (173, 13, 3, 227), (13, 3, 227, 195), (3, 227, 195, 119), (227, 195, 119, 118),
        (195, 119, 118, 185), (119, 118, 185, 173), (118, 185, 173, 13), (185, 173, 13, 3),
        (173, 3, 227, 119), (119, 185, 173, 3), (3, 195, 119, 185), (185, 13, 3, 195),
        (195, 118, 185, 13), (13, 227, 195, 118), (118, 173, 13, 227), (227, 119, 118, 173),
    ],
]
CELEGANS_CAVITY3_GENERATORS = [
    (164, 163, 119, 118),
    (119, 167, 118, 227),
    (195, 185, 119, 118),
    (227, 195, 119, 118),
]


def _boundary_pair(cx, k):
    bk = build_boundary_matrix(cx, k)
    if k < cx.top_order:
        return bk, build_boundary_matrix(cx, k + 1)
    return bk, Gf2Matrix(0, [0] * cx.counts[k])


def _selection(cx, k):
    """The order-k selection, read off the ranks of one Boundaries."""
    return select_spanning_and_generators(k, Boundaries(cx))


def _program(matrix):
    """The 0-1 program of a boundary matrix: its rows."""
    return ZeroOneProgram(matrix.cols, matrix.bits)


def _edge_labels(net, cx, mask):
    out = set()
    j = mask
    while j:
        low = j & -j
        u, v = cx.levels[1][low.bit_length() - 1]
        out.add((net.node_labels[u], net.node_labels[v]))
        j ^= low
    return out


def _entry(order, cliques, generator):
    """A certificate entry as certificates_to_json writes it, from node labels."""
    cliques = [[str(u) for u in c] for c in cliques]
    nodes = sorted({u for c in cliques for u in c})
    return {"order": order, "cliques": cliques, "generator": [str(u) for u in generator],
            "length": len(cliques), "nodes": nodes}


def test_acceptance_1_sample_network_profile_exact(sample14, sample8):
    started = time.perf_counter()
    cx = enumerate_cliques(sample14)
    profile = homology_profile(Boundaries(cx, keep_matrices=False))
    sub_profile = homology_profile(Boundaries(enumerate_cliques(sample8), keep_matrices=False))
    elapsed = time.perf_counter() - started

    assert cx.counts == (14, 26, 13, 1)
    labeled = [tuple(sample14.node_labels[u] for u in c) for c in cx.levels[2]]
    assert labeled == TRIANGLES
    assert [tuple(sample14.node_labels[u] for u in c) for c in cx.levels[3]] == [
        ("1", "2", "3", "4")
    ]
    assert euler_characteristic(cx.counts) == 0
    assert profile.r == (0, 13, 11, 1)
    assert profile.beta == (1, 2, 1, 0)
    assert profile.euler_poincare_ok
    assert sub_profile.r[1] == 7
    assert sub_profile.r[2] == 4
    assert elapsed < 1.0, f"profile took {elapsed:.2f}s, ceiling is 1s"


def test_acceptance_2_sample_network_cavities_exact(sample14):
    started = time.perf_counter()
    cx = enumerate_cliques(sample14)
    index = sample14.label_index()

    b1, b2 = _boundary_pair(cx, 1)
    sel1 = _selection(cx, 1)
    certs1 = find_cavities(b1, column_space_basis(b2), sel1)
    assert [c.length for c in certs1] == [4, 7]
    assert _edge_labels(sample14, cx, certs1[0].indicator) == {
        ("3", "6"), ("6", "7"), ("7", "8"), ("3", "8"),
    }

    # exactly 8 same-length alternatives exist at L = 7 through edge (5, 9)
    pin = cx.levels[1].index(tuple(sorted((index["5"], index["9"]))))
    assert len(list(islice(iter_solutions(_program(b1), pin, 7), 20))) == 8

    b2m, b3 = _boundary_pair(cx, 2)
    sel2 = _selection(cx, 2)
    certs2 = find_cavities(b2m, column_space_basis(b3), sel2)
    assert len(certs2) == 1
    assert certs2[0].length == 8
    assert {sample14.node_labels[u] for u in certs2[0].nodes(cx)} == {
        "9", "10", "11", "12", "13", "14",
    }

    basis = column_space_basis(b2)
    for cert in certs1:
        assert verify_certificate(cert, b1, basis) is None
    assert verify_certificate(certs2[0], b2m, column_space_basis(b3)) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"cavity search took {elapsed:.2f}s, ceiling is 1s"


def test_acceptance_3_celegans_profile_and_order3_cavities():
    net = load_dataset("celegans")
    started = time.perf_counter()
    cx = enumerate_cliques(net)
    profile = homology_profile(Boundaries(cx, keep_matrices=False))

    def padded(vec):
        return tuple(vec) + (0,) * (9 - len(vec))

    assert padded(profile.m) == CELEGANS_M
    assert padded(profile.r) == CELEGANS_R
    assert padded(profile.beta) == CELEGANS_BETA
    assert profile.chi == -21
    assert profile.euler_poincare_ok

    b3, b4 = _boundary_pair(cx, 3)
    sel = _selection(cx, 3)
    assert len(sel.generator_cliques) == 4
    certs = find_cavities(b3, column_space_basis(b4), sel)
    assert len(certs) == 4
    assert any(c.length == 16 and len(c.nodes(cx)) == 8 for c in certs)
    basis = column_space_basis(b4)
    for cert in certs:
        assert verify_certificate(cert, b3, basis) is None

    # the four reference boundary lists are accepted as replacements
    index = net.label_index()
    basis = column_space_basis(b4)
    for i, (members, generator) in enumerate(
        zip(CELEGANS_CAVITY3_BOUNDARIES, CELEGANS_CAVITY3_GENERATORS), 1
    ):
        cert = certificate_from_json(_entry(3, members, generator), cx, index)
        failed = verify_certificate(cert, b3, basis)
        assert failed is None, f"reference cavity {i} fails: {failed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"run took {elapsed:.1f}s, ceiling is 300s"


def test_acceptance_4_cross_polytope_census():
    started = time.perf_counter()
    for k in range(1, 9):
        cx = enumerate_cliques(cocktail_party_network(k))
        assert cx.counts == tuple(cross_polytope_count(k, j) for j in range(k + 1))
        assert euler_characteristic(cx.counts) == 1 + (-1) ** k
        notes = census_notes(k, list(cx.counts))
        if k in (4, 5):
            assert notes, f"expected a discrepancy note at k={k}"
        else:
            assert notes == [], f"unexpected notes at k={k}: {notes}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"census took {elapsed:.2f}s, ceiling is 10s"

    # k = 9 also disagrees with the printed reference row (report-only)
    cx9 = enumerate_cliques(cocktail_party_network(9))
    assert cx9.counts == tuple(cross_polytope_count(9, j) for j in range(10))
    assert census_notes(9, list(cx9.counts))


def test_acceptance_5_usair_spot_checks():
    net = load_dataset("usair")
    assert k_core_decomposition(net).k_max == 26
    assert clique_counts(net)[2] == 12181


def test_acceptance_5_jazz_spot_checks():
    net = load_dataset("jazz")
    assert k_core_decomposition(net).k_max == 29
    assert clique_counts(net)[2] == 17899
    assert max_clique_order(net) == 29  # a maximum clique on 30 nodes


def test_acceptance_5_yeast_spot_check():
    net = load_dataset("yeast")
    assert clique_counts(net)[2] == 60689


def test_acceptance_6_property_suites(sample14):
    from oracles import bernoulli_graph

    # boundary of boundary vanishes
    cx = enumerate_cliques(sample14)
    for k in range(1, cx.top_order):
        product = multiply(build_boundary_matrix(cx, k), build_boundary_matrix(cx, k + 1))
        assert all(bits == 0 for bits in product.bits)

    # Euler-Poincare holds and beta_0 counts components on seeded graphs
    for seed in range(20):
        net = bernoulli_graph(16, 0.3, seed)
        profile = homology_profile(Boundaries(enumerate_cliques(net), keep_matrices=False))
        assert profile.euler_poincare_ok, f"seed {seed}"
        assert profile.beta[0] == component_count(net), f"seed {seed}"

    # maximal-clique expansion agrees with direct enumeration
    for seed in range(20):
        net = bernoulli_graph(30, 0.3, seed)
        got = list(enumerate_cliques(net).levels)
        assert got == expand_maximal_cliques(maximal_cliques(net)), f"seed {seed}"

    # rank agrees with a naive-elimination oracle
    import random

    rng = random.Random(987)

    for trial in range(200):
        rows = rng.randrange(1, 24)
        cols = rng.randrange(1, 24)
        bits = [rng.getrandbits(cols) for _ in range(rows)]
        m = Gf2Matrix(cols, list(bits))
        assert gf2_rank(m).rank == naive_rank(bits, seed=trial), f"trial {trial}"

    # solver agrees with the exhaustive oracle
    for trial in range(60):
        t = random.Random(5000 + trial)
        n = t.randrange(2, 11)
        rows = [
            sum(1 << v for v in t.sample(range(n), t.randrange(2, min(n, 4) + 1)))
            for _ in range(t.randrange(1, 4))
        ]
        program = ZeroOneProgram(n, rows)
        pin, length = t.randrange(n), t.randrange(0, n + 1)
        expected = brute_solutions(program, pin, length)
        got = list(islice(iter_solutions(program, pin, length), 1 << n))
        assert got == expected, f"trial {trial}"
        assert next(iter_solutions(program, pin, length), None) == (
            expected[0] if expected else None
        )

    # no strictly shorter certificate exists for either order-1 generator
    b1, b2 = _boundary_pair(cx, 1)
    sel = _selection(cx, 1)
    certs = find_cavities(b1, column_space_basis(b2), sel)
    from cliquecav import basis_insert

    program = _program(b1)
    for cert in certs:
        for length in range(4, cert.length):
            for mask in islice(iter_solutions(program, cert.generator, length), 10000):
                basis = dict(column_space_basis(b2))
                assert not basis_insert(basis, mask), (
                    f"independent cycle of length {length} < {cert.length}"
                )


def test_acceptance_7_random_network_seed_sweep(sample14):
    # a single unseeded random instance is not reproducible; sweep fixed
    # seeds instead and check the qualitative shape plus determinism
    m3_values = []
    for seed in range(20):
        net = random_er(297, 2148, seed)
        profile = homology_profile(Boundaries(enumerate_cliques(net), keep_matrices=False))
        assert profile.euler_poincare_ok, f"seed {seed}"
        assert len(profile.m) <= 4, f"seed {seed}: orders beyond 3 appeared"
        m3_values.append(profile.m[3] if len(profile.m) == 4 else 0)
    # measured max over these fixed seeds is 12 (seed 17), median 4
    assert max(m3_values) <= 15
    assert sorted(m3_values)[10] <= 9
    assert to_edge_text(random_er(297, 2148, 7)) == to_edge_text(random_er(297, 2148, 7))

    # exact node sets are tree-dependent; a reference cycle of equal
    # length must verify as a drop-in replacement for the found one
    cx = enumerate_cliques(sample14)
    index = sample14.label_index()
    b1, b2 = _boundary_pair(cx, 1)
    sel = _selection(cx, 1)
    certs = find_cavities(b1, column_space_basis(b2), sel)
    seven_cycle = [("1", "3"), ("1", "5"), ("3", "6"), ("5", "9"), ("6", "14"), ("9", "10"), ("10", "14")]
    replacement = certificate_from_json(_entry(1, seven_cycle, seven_cycle[3]), cx, index)
    assert replacement.length == certs[1].length
    basis = column_space_basis(b2)
    assert verify_certificate(certs[0], b1, basis) is None
    failed = verify_certificate(replacement, b1, basis)
    assert failed is None, failed
