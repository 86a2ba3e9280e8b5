from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from oracles import (
    bernoulli_graph,
    cavities_bruteforce,
    cycle_edges,
    join_edges,
    select_oracle,
    small_graphs,
    suspension_edges,
)

from cliquecav import cavities
from cliquecav import (
    Boundaries,
    CavitySearchError,
    Gf2Matrix,
    basis_insert,
    build_boundary_matrix,
    certificate_from_json,
    certificate_to_dot,
    certificates_to_json,
    cocktail_party_network,
    column_space_basis,
    enumerate_cliques,
    find_cavities,
    gf2_rank,
    load_edge_list,
    network_from_edges,
    select_spanning_and_generators,
    verify_certificate,
)


DATA = Path(__file__).resolve().parent.parent / "data"


def _pair(cx, k):
    bk = build_boundary_matrix(cx, k)
    if k < cx.top_order:
        return bk, build_boundary_matrix(cx, k + 1)
    return bk, Gf2Matrix(0, [0] * cx.counts[k])


def _labeled(net, cx, k, indices):
    return {tuple(net.node_labels[u] for u in cx.levels[k][j]) for j in indices}


def test_sub_network_selection(sample8):
    cx = enumerate_cliques(sample8)
    boundaries = Boundaries(cx)
    sel = select_spanning_and_generators(1, boundaries)
    assert sel.order == 1
    # the tree and the covered set, read off the ranks the selection uses
    assert _labeled(sample8, cx, 1, boundaries.rank(1).pivot_cols) == {
        ("1", "2"), ("1", "3"), ("1", "4"), ("1", "5"),
        ("3", "6"), ("3", "8"), ("6", "7"),
    }
    assert _labeled(sample8, cx, 1, boundaries.rank(2).pivot_rows) == {
        ("2", "3"), ("2", "4"), ("2", "5"), ("3", "4"),
    }
    assert _labeled(sample8, cx, 1, sel.generator_cliques) == {("7", "8")}


def test_full_network_selection_counts(sample14):
    cx = enumerate_cliques(sample14)
    boundaries = Boundaries(cx)
    sel = select_spanning_and_generators(1, boundaries)
    assert len(boundaries.rank(1).pivot_cols) == 13
    assert len(boundaries.rank(2).pivot_rows) == 11
    assert sel.generator_cliques == (13, 25)
    assert _labeled(sample14, cx, 1, sel.generator_cliques) == {("7", "8"), ("13", "14")}
    sel2 = select_spanning_and_generators(2, boundaries)
    assert _labeled(sample14, cx, 2, sel2.generator_cliques) == {("12", "13", "14")}


def test_selection_on_tree_has_no_generators():
    net = network_from_edges(
        ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("2", "4")]
    )
    boundaries = Boundaries(enumerate_cliques(net))
    assert select_spanning_and_generators(1, boundaries).generator_cliques == ()
    assert len(boundaries.rank(1).pivot_cols) == 3


@pytest.mark.parametrize("order, message", [
    (0, "a cavity has order 1 or more, got 0"),
    (2, "no order-2 cliques in this network"),
])
def test_selection_rejects_an_order_outside_the_complex(order, message):
    net = network_from_edges(["1", "2", "3"], [("1", "2"), ("2", "3")])
    with pytest.raises(ValueError) as err:
        select_spanning_and_generators(order, Boundaries(enumerate_cliques(net)))
    assert str(err.value) == message


def test_find_cavities_order1(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    certs = find_cavities(b1, b2, sel)
    assert [c.length for c in certs] == [4, 7]
    assert _labeled(sample14, cx, 1, certs[0].support()) == {
        ("3", "6"), ("6", "7"), ("7", "8"), ("3", "8"),
    }
    assert certs[0].nodes(cx) == [sample14.label_index()[lab] for lab in ("3", "6", "7", "8")]


def test_find_cavities_order2_is_the_octahedron(sample14):
    cx = enumerate_cliques(sample14)
    b2, b3 = _pair(cx, 2)
    sel = select_oracle(b2, b3).selection
    certs = find_cavities(b2, b3, sel)
    assert len(certs) == 1
    assert certs[0].length == 8
    labels = {sample14.node_labels[u] for u in certs[0].nodes(cx)}
    assert labels == {"9", "10", "11", "12", "13", "14"}
    # brute force: it is the only 2-cycle with exactly 8 faces
    cycles8 = []
    for combo in combinations(range(13), 8):
        x = 0
        for j in combo:
            x |= 1 << j
        if all((row & x).bit_count() % 2 == 0 for row in b2.bits):
            cycles8.append(x)
    assert cycles8 == [certs[0].indicator]


def test_cavity_search_error_reports_partial(sample14, monkeypatch):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    # a schedule that stops at 5, below the second certificate's length 7
    schedule = cavities.length_schedule
    monkeypatch.setattr(cavities, "length_schedule", lambda k, ceiling: schedule(k, 5))
    with pytest.raises(CavitySearchError) as err:
        find_cavities(b1, b2, sel)
    assert "up to length 5 (1 certificates of that order found)" in str(err.value)


def test_verify_accepts_search_output(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    certs = find_cavities(b1, b2, sel)
    assert verify_certificate(certs[0], b1, b2, []) is None
    assert verify_certificate(certs[1], b1, b2, [certs[0]]) is None


def test_verify_rejects_clique_boundary_as_fake_cavity(sample14):
    cx = enumerate_cliques(sample14)
    b2, b3 = _pair(cx, 2)
    faces = [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"]]
    entry = {"order": 2, "cliques": faces, "generator": faces[0], "length": 4,
             "nodes": ["1", "2", "3", "4"]}
    fake = certificate_from_json(entry, cx, sample14.label_index())
    assert verify_certificate(fake, b2, b3, []) == "independence"


def test_verify_rejects_bit_flip(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    cert = find_cavities(b1, b2, sel)[0]
    broken = cert._replace(indicator=cert.indicator ^ 1)
    assert verify_certificate(broken, b1, b2, []) == "cycle"


def test_verify_rejects_wrong_generator_and_duplicate(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    cert = find_cavities(b1, b2, sel)[0]
    assert verify_certificate(cert._replace(generator=0), b1, b2, []) == "generator-membership"
    # a duplicate of an accepted certificate is dependent
    assert verify_certificate(cert, b1, b2, [cert]) == "independence"


def test_cross_polytope_self_test():
    for k in range(1, 5):
        cx = enumerate_cliques(cocktail_party_network(k))
        bk, bk1 = _pair(cx, k)
        sel = select_oracle(bk, bk1).selection
        certs = find_cavities(bk, bk1, sel)
        assert len(certs) == 1, f"k={k}"
        assert certs[0].length == 2 ** (k + 1)
        assert certs[0].indicator == (1 << cx.counts[k]) - 1
        assert verify_certificate(certs[0], bk, bk1, []) is None
        # lower orders carry no cavities at all
        for lower in range(1, k):
            bl, bl1 = _pair(cx, lower)
            sel_l = select_oracle(bl, bl1).selection
            assert sel_l.generator_cliques == ()


def test_sum_of_same_order_certificates_is_a_cycle(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    certs = find_cavities(b1, b2, sel)
    both = certs[0].indicator ^ certs[1].indicator
    assert all((row & both).bit_count() % 2 == 0 for row in b1.bits)


def test_independence_rank_is_processing_order_free(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    r2 = gf2_rank(b2).rank
    certs = find_cavities(b1, b2, sel)
    forward = [c.indicator for c in certs]
    for order in (forward, forward[::-1]):
        basis = dict(column_space_basis(b2))
        assert all(basis_insert(basis, x) for x in order)
        assert len(basis) == r2 + 2


def test_minimality_no_shorter_independent_cycle(sample14):
    from cliquecav import ZeroOneProgram, iter_solutions

    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    certs = find_cavities(b1, b2, sel)
    program = ZeroOneProgram(b1.cols, [row for row in b1.bits if row])
    accepted: list[int] = []
    for cert in certs:
        for shorter in range(4, cert.length):
            for mask in islice(iter_solutions(program, cert.generator, shorter), 10000):
                basis = dict(column_space_basis(b2))
                for a in accepted:
                    assert basis_insert(basis, a)
                assert not basis_insert(basis, mask), (
                    f"independent cycle of length {shorter} < {cert.length} "
                    f"through generator {cert.generator}"
                )
        accepted.append(cert.indicator)


def _edges_network(edges):
    return network_from_edges([], [(str(u), str(v)) for u, v in edges])


# each set of complexes; the largest cycle-space dimension d = m_k - r_k
# listed in full (2^d cycles), so an order of higher d is left out; and
# the orders whose certificates the set holds
BRUTEFORCE_SETS = {
    "cocktail": ([cocktail_party_network(k) for k in (1, 2, 3)], 14, {1, 2, 3}),
    # d = 17 at order 1 of S(C5 + C4), and d <= 2 at the orders with cavities of the rest
    "joins-and-suspensions": (
        [_edges_network(edges) for edges in (
            join_edges(cycle_edges(5), cycle_edges(5, 6)),
            join_edges(cycle_edges(7), cycle_edges(5, 8)),
            suspension_edges(cycle_edges(5)),
            suspension_edges(cycle_edges(5) + cycle_edges(4, 6)),
        )],
        17,
        {1, 2, 3},
    ),
    "bernoulli": (
        [bernoulli_graph(n, p, s)
         for n in range(6, 17) for p in (0.25, 0.35, 0.5, 0.65) for s in range(5)],
        14,
        {1, 2},
    ),
}


@pytest.mark.parametrize("name", BRUTEFORCE_SETS)
def test_find_cavities_equals_the_bruteforce_over_all_cycles(name):
    networks, max_dim, expected_orders = BRUTEFORCE_SETS[name]
    orders = set()
    for i, net in enumerate(networks):
        cx = enumerate_cliques(net)
        for k in range(1, cx.top_order + 1):
            bk, bk1 = _pair(cx, k)
            if bk.cols - gf2_rank(bk).rank > max_dim:
                continue
            sel = select_oracle(bk, bk1).selection
            certs = find_cavities(bk, bk1, sel)
            assert [c.indicator for c in certs] == (
                cavities_bruteforce(bk, bk1, sel.generator_cliques)
            ), f"{name} {i}, order {k}"
            orders.update(c.order for c in certs)
    assert orders == expected_orders


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(small_graphs())
def test_find_cavities_equals_the_bruteforce_on_small_graphs(net):
    # at each order whose cycle space has dimension d <= 14
    cx = enumerate_cliques(net)
    for k in range(1, cx.top_order + 1):
        bk, bk1 = _pair(cx, k)
        if bk.cols - gf2_rank(bk).rank > 14:
            continue
        sel = select_oracle(bk, bk1).selection
        certs = find_cavities(bk, bk1, sel)
        assert [c.indicator for c in certs] == cavities_bruteforce(bk, bk1, sel.generator_cliques)
        for i, cert in enumerate(certs):
            assert verify_certificate(cert, bk, bk1, certs[:i]) is None


def test_certificate_json_round_trip(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    certs = find_cavities(b1, b2, sel)
    doc = certificates_to_json(certs, cx, sample14.node_labels)
    index = sample14.label_index()
    assert [certificate_from_json(entry, cx, index) for entry in doc] == certs
    # labels are read through str(), so integer labels name the same nodes
    first = dict(doc[0])
    first["cliques"] = [[int(u) for u in c] for c in first["cliques"]]
    first["generator"] = [int(u) for u in first["generator"]]
    first["nodes"] = [int(u) for u in first["nodes"]]
    assert certificate_from_json(first, cx, index).indicator == certs[0].indicator


ROUND_TRIP_NETWORKS = {
    "sample14": lambda: load_edge_list(DATA / "sample14.edges"),
    **{f"cocktail{k}": (lambda k=k: cocktail_party_network(k)) for k in (1, 2, 3)},
    **{
        f"bernoulli({n},{p},{s})": (lambda n=n, p=p, s=s: bernoulli_graph(n, p, s))
        for n, p, s in ((12, 0.35, 0), (12, 0.35, 1), (12, 0.35, 2), (14, 0.5, 0))
    },
}


@pytest.mark.parametrize("name", ROUND_TRIP_NETWORKS)
def test_every_searched_certificate_equals_its_json_round_trip(name):
    net = ROUND_TRIP_NETWORKS[name]()
    cx = enumerate_cliques(net)
    certs = []
    for k in range(1, cx.top_order + 1):
        bk, bk1 = _pair(cx, k)
        certs += find_cavities(bk, bk1, select_oracle(bk, bk1).selection)
    assert certs
    doc = certificates_to_json(certs, cx, net.node_labels)
    index = net.label_index()
    assert [certificate_from_json(entry, cx, index) for entry in doc] == certs


def test_certificate_from_json_rejects_bad_entries(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    entry = certificates_to_json(find_cavities(b1, b2, sel), cx, sample14.node_labels)[0]
    assert entry["cliques"] == [["3", "6"], ["3", "8"], ["6", "7"], ["7", "8"]]
    index = sample14.label_index()
    top = cx.top_order + 1
    cases = [
        ({**entry, "order": 0}, "^a cavity has order 1 or more, got 0$"),
        ({**entry, "order": -1}, "^a cavity has order 1 or more, got -1$"),
        ({**entry, "order": top}, f"^no order-{top} cliques in this network$"),
        ({**entry, "length": 5}, "claimed length 5"),
        ({**entry, "nodes": entry["nodes"][:-1]}, "node list"),
        ({**entry, "nodes": ["3", "6", "7", "99"]}, "^unknown label 99$"),
        ({k: v for k, v in entry.items() if k != "nodes"}, "^missing field nodes$"),
        ({**entry, "cliques": [["1", "6"]]}, r"^\(1,6\) is not an order-1 clique of the complex$"),
        ({**entry, "generator": ["6", "1"]}, r"^generator \(1,6\) is not an order-1 clique$"),
        ({**entry, "cliques": entry["cliques"] + [["6", "3"]]}, r"^clique \(3,6\) is listed twice$"),
        ({**entry, "cliques": ["36", "38", "67", "78"]}, "^a clique must be a list, got '36'$"),
        ({**entry, "cliques": {"3": "6"}}, "^cliques must be a list"),
        ({**entry, "generator": "36"}, "^generator must be a list, got '36'$"),
        ({**entry, "nodes": "3678"}, "^nodes must be a list, got '3678'$"),
        ([entry], "^an entry must be a JSON object"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            certificate_from_json(bad, cx, index)


def test_dot_output(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_oracle(b1, b2).selection
    cert = find_cavities(b1, b2, sel)[0]
    dot = certificate_to_dot(cert, cx, sample14.node_labels, "c1")
    assert dot.startswith("graph c1 {")
    assert dot.count("--") == 4
    for lab in ("3", "6", "7", "8"):
        assert f'"{lab}"' in dot


def _dot_strings(line: str) -> list[str] | None:
    """The quoted strings of one DOT line, read with the two escapes of
    Graphviz's lexer (\\" and \\\\); None when one is left open."""
    strings, i = [], line.find('"')
    while i >= 0:
        text, i = [], i + 1
        while i < len(line) and line[i] != '"':
            if line[i] == "\\" and line[i + 1 : i + 2] in ('"', "\\"):
                i += 1
            text.append(line[i])
            i += 1
        if i == len(line):
            return None
        strings.append("".join(text))
        i = line.find('"', i + 1)
    return strings


def test_dot_escapes_quotes_in_labels():
    labels = ['a"1', "a\\", 'a\\"b', "d"]
    net = network_from_edges([], list(zip(labels, labels[1:] + labels[:1])))
    cx = enumerate_cliques(net)
    b1, b2 = _pair(cx, 1)
    cert = find_cavities(b1, b2, select_oracle(b1, b2).selection)[0]
    dot = certificate_to_dot(cert, cx, net.node_labels, "c1")
    assert '  "a\\"1";' in dot.splitlines()
    assert '"a"1"' not in dot
    assert '  "a\\\\";' in dot.splitlines()
    assert '  "a\\\\\\"b";' in dot.splitlines()
    # each line holds whole quoted strings, and they read back as the labels
    read = [_dot_strings(line) for line in dot.splitlines()]
    assert None not in read
    assert {s for strings in read[2:] for s in strings} == set(labels)
