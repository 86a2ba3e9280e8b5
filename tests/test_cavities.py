from itertools import combinations

import pytest

from cliquecav import (
    CavitySearchError,
    basis_insert,
    build_boundary_matrix,
    certificate_from_cliques,
    certificate_from_json,
    certificate_to_dot,
    certificates_to_json,
    column_space_basis,
    enumerate_cliques,
    find_cavities,
    generate_smallest_cavity_complex,
    gf2_rank,
    network_from_edges,
    select_spanning_and_generators,
    verify_certificate,
    zero_cols_matrix,
)


def _pair(cx, k):
    bk = build_boundary_matrix(cx, k)
    if k < cx.top_order:
        return bk, build_boundary_matrix(cx, k + 1)
    return bk, zero_cols_matrix(cx.counts[k])


def _labeled(net, cx, k, indices):
    return {tuple(net.node_labels[u] for u in cx.levels[k][j]) for j in indices}


def test_sub_network_selection(sample8):
    cx = enumerate_cliques(sample8)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    assert sel.order == 1
    assert _labeled(sample8, cx, 1, sel.tree_cols) == {
        ("1", "2"), ("1", "3"), ("1", "4"), ("1", "5"),
        ("3", "6"), ("3", "8"), ("6", "7"),
    }
    assert _labeled(sample8, cx, 1, sel.covered_cliques) == {
        ("2", "3"), ("2", "4"), ("2", "5"), ("3", "4"),
    }
    assert _labeled(sample8, cx, 1, sel.generator_cliques) == {("7", "8")}


def test_full_network_selection_counts(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    assert len(sel.tree_cols) == 13
    assert len(sel.covered_cliques) == 11
    assert sel.generator_cliques == (13, 25)
    assert _labeled(sample14, cx, 1, sel.generator_cliques) == {("7", "8"), ("13", "14")}
    b2_, b3 = _pair(cx, 2)
    sel2 = select_spanning_and_generators(b2_, b3)
    assert _labeled(sample14, cx, 2, sel2.generator_cliques) == {("12", "13", "14")}


def test_selection_on_tree_has_no_generators():
    net = network_from_edges(
        ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("2", "4")]
    )
    cx = enumerate_cliques(net)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    assert sel.generator_cliques == ()
    assert len(sel.tree_cols) == 3


def test_find_cavities_order1(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    certs = find_cavities(b1, b2, sel, cx.levels[1])
    assert [c.length for c in certs] == [4, 7]
    assert _labeled(sample14, cx, 1, certs[0].support()) == {
        ("3", "6"), ("6", "7"), ("7", "8"), ("3", "8"),
    }
    assert certs[0].node_set == tuple(
        sample14.label_index()[lab] for lab in ("3", "6", "7", "8")
    )
    assert certs[0].rank_evidence == gf2_rank(b2).rank + 1
    assert certs[1].rank_evidence == gf2_rank(b2).rank + 2


def test_find_cavities_order2_is_the_octahedron(sample14):
    cx = enumerate_cliques(sample14)
    b2, b3 = _pair(cx, 2)
    sel = select_spanning_and_generators(b2, b3)
    certs = find_cavities(b2, b3, sel, cx.levels[2])
    assert len(certs) == 1
    assert certs[0].length == 8
    labels = {sample14.node_labels[u] for u in certs[0].node_set}
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


def test_cavity_search_error_reports_partial(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    with pytest.raises(CavitySearchError) as err:
        find_cavities(b1, b2, sel, cx.levels[1], length_ceiling=5)
    assert [c.length for c in err.value.partial] == [4]


def test_verify_accepts_search_output(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    certs = find_cavities(b1, b2, sel, cx.levels[1])
    assert verify_certificate(certs[0], b1, b2, [])
    assert verify_certificate(certs[1], b1, b2, [certs[0]])


def test_verify_rejects_clique_boundary_as_fake_cavity(sample14):
    cx = enumerate_cliques(sample14)
    b2, b3 = _pair(cx, 2)
    faces = [("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4")]
    idx = sample14.label_index()
    members = [tuple(sorted(idx[u] for u in f)) for f in faces]
    fake = certificate_from_cliques(cx.levels[2], 2, members, members[0])
    result = verify_certificate(fake, b2, b3, [])
    assert not result
    assert result.failed == "independence"


def test_verify_rejects_bit_flip(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    cert = find_cavities(b1, b2, sel, cx.levels[1])[0]
    broken = cert._replace(indicator=cert.indicator ^ 1)
    result = verify_certificate(broken, b1, b2, [])
    assert not result
    assert result.failed == "cycle"


def test_verify_rejects_wrong_generator_and_length(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    cert = find_cavities(b1, b2, sel, cx.levels[1])[0]
    assert verify_certificate(cert._replace(generator=0), b1, b2, []).failed == (
        "generator-membership"
    )
    assert verify_certificate(cert._replace(length=6), b1, b2, []).failed == "length"
    # a duplicate of an accepted certificate is dependent
    assert verify_certificate(cert, b1, b2, [cert]).failed == "independence"


def test_cross_polytope_self_test():
    for k in range(1, 5):
        cx = generate_smallest_cavity_complex(k)
        bk, bk1 = _pair(cx, k)
        sel = select_spanning_and_generators(bk, bk1)
        certs = find_cavities(bk, bk1, sel, cx.levels[k])
        assert len(certs) == 1, f"k={k}"
        assert certs[0].length == 2 ** (k + 1)
        assert certs[0].indicator == (1 << cx.counts[k]) - 1
        assert verify_certificate(certs[0], bk, bk1, [])
        # lower orders carry no cavities at all
        for lower in range(1, k):
            bl, bl1 = _pair(cx, lower)
            sel_l = select_spanning_and_generators(bl, bl1)
            assert sel_l.generator_cliques == ()


def test_sum_of_same_order_certificates_is_a_cycle(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    certs = find_cavities(b1, b2, sel, cx.levels[1])
    both = certs[0].indicator ^ certs[1].indicator
    assert all((row & both).bit_count() % 2 == 0 for row in b1.bits)


def test_independence_rank_is_processing_order_free(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    r2 = gf2_rank(b2).rank
    certs = find_cavities(b1, b2, sel, cx.levels[1])
    forward = [c.indicator for c in certs]
    for order in (forward, forward[::-1]):
        basis = dict(column_space_basis(b2))
        assert all(basis_insert(basis, x) for x in order)
        assert len(basis) == r2 + 2


def test_minimality_no_shorter_independent_cycle(sample14):
    from cliquecav import column_space_basis, enumerate_solutions
    from cliquecav.cavities import _parity_rows
    from cliquecav.gf2 import basis_insert
    from cliquecav.solver import ZeroOneProgram

    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    certs = find_cavities(b1, b2, sel, cx.levels[1])
    rows = _parity_rows(b1)
    accepted: list[int] = []
    for cert in certs:
        for shorter in range(4, cert.length):
            program = ZeroOneProgram(
                num_vars=b1.cols,
                parity_rows=rows,
                fixed=[(cert.generator, 1)],
                cardinality=shorter,
            )
            for mask in enumerate_solutions(program, limit=10000):
                basis = dict(column_space_basis(b2))
                for a in accepted:
                    assert basis_insert(basis, a)
                assert not basis_insert(basis, mask), (
                    f"independent cycle of length {shorter} < {cert.length} "
                    f"through generator {cert.generator}"
                )
        accepted.append(cert.indicator)


def test_certificate_json_round_trip(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    certs = find_cavities(b1, b2, sel, cx.levels[1])
    doc = certificates_to_json(certs, cx, sample14.node_labels)
    index = sample14.label_index()
    again = [certificate_from_json(entry, cx, index) for entry in doc]
    assert [c.indicator for c in again] == [c.indicator for c in certs]
    assert [c.generator for c in again] == [c.generator for c in certs]
    assert [c.node_set for c in again] == [c.node_set for c in certs]
    # labels are read through str(), so integer labels name the same nodes
    first = dict(doc[0])
    first["cliques"] = [[int(u) for u in c] for c in first["cliques"]]
    first["generator"] = [int(u) for u in first["generator"]]
    first["nodes"] = [int(u) for u in first["nodes"]]
    assert certificate_from_json(first, cx, index).indicator == certs[0].indicator


def test_certificate_from_json_rejects_bad_entries(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    entry = certificates_to_json(find_cavities(b1, b2, sel, cx.levels[1]), cx,
                                 sample14.node_labels)[0]
    index = sample14.label_index()
    for order in (0, cx.top_order + 1):
        with pytest.raises(ValueError, match=f"no order-{order} cliques"):
            certificate_from_json({**entry, "order": order}, cx, index)
    with pytest.raises(ValueError, match="claimed length 5"):
        certificate_from_json({**entry, "length": 5}, cx, index)
    with pytest.raises(ValueError, match="node list"):
        certificate_from_json({**entry, "nodes": entry["nodes"][:-1]}, cx, index)
    with pytest.raises(KeyError):
        certificate_from_json({**entry, "nodes": ["3", "6", "7", "99"]}, cx, index)
    with pytest.raises(KeyError):
        certificate_from_json({k: v for k, v in entry.items() if k != "nodes"}, cx, index)


def test_certificate_from_cliques_rejects_unknown_clique(sample14):
    cx = enumerate_cliques(sample14)
    with pytest.raises(ValueError, match="not an order-1 clique"):
        certificate_from_cliques(cx.levels[1], 1, [(0, 5)], (0, 5))


def test_dot_output(sample14):
    cx = enumerate_cliques(sample14)
    b1, b2 = _pair(cx, 1)
    sel = select_spanning_and_generators(b1, b2)
    cert = find_cavities(b1, b2, sel, cx.levels[1])[0]
    dot = certificate_to_dot(cert, cx, sample14.node_labels, "c1")
    assert dot.startswith("graph c1 {")
    assert dot.count("--") == 4
    for lab in ("3", "6", "7", "8"):
        assert f'"{lab}"' in dot


def test_dot_escapes_quotes_in_labels():
    net = network_from_edges([], [('a"1', "b"), ("b", "c"), ("c", "d"), ("d", 'a"1')])
    cx = enumerate_cliques(net)
    b1, b2 = _pair(cx, 1)
    cert = find_cavities(b1, b2, select_spanning_and_generators(b1, b2), cx.levels[1])[0]
    dot = certificate_to_dot(cert, cx, net.node_labels, "c1")
    assert '  "a\\"1";' in dot.splitlines()
    assert '"a"1"' not in dot
    # with every escaped quote removed, each line holds whole quoted strings
    assert all(line.replace('\\"', "").count('"') % 2 == 0 for line in dot.splitlines())
