"""The cavity stage: the selection read off the cleared ranks, and
find_cavities and verify_certificate on a basis of B_{k+1}'s column
space, against the former implementations in oracles.py.

Selections, certificates and verdicts must match the oracles bit for
bit, on the matrices of the one Boundaries the CLI shares; the CLI
searches and re-checks through the same two public functions. A sequence
of re-checks on one basis must give the oracle's verdicts when each
certificate is checked against those that passed before it, and a new
basis(k) must give the same results whatever ran on the bases before it.
The oracle's tree and covered sets must equal the pivot columns of B_k
and the pivot rows of B_{k+1} reduced with the tree cleared, which the
selection reads.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from oracles import (
    bernoulli_graph,
    find_cavities_oracle,
    select_oracle,
    small_graphs,
    verify_certificate_oracle,
)

from cliquecav import (
    Boundaries,
    CavityCertificate,
    Gf2Matrix,
    basis_insert,
    build_boundary_matrix,
    cocktail_party_network,
    column_space_basis,
    enumerate_cliques,
    find_cavities,
    homology_profile,
    load_edge_list,
    select_spanning_and_generators,
    verify_certificate,
)

DATA = Path(__file__).resolve().parent.parent / "data"

NETWORKS = {
    "sample8": lambda: load_edge_list(DATA / "sample8.edges"),
    "sample14": lambda: load_edge_list(DATA / "sample14.edges"),
    **{f"cocktail{k}": (lambda k=k: cocktail_party_network(k)) for k in (1, 2, 3)},
    **{
        f"bernoulli({n},{p},{s})": (lambda n=n, p=p, s=s: bernoulli_graph(n, p, s))
        for n in (6, 10, 14)
        for p in (0.25, 0.35, 0.5, 0.65)
        for s in (0, 1)
    },
}


def _pair(cx, k):
    bk = build_boundary_matrix(cx, k)
    if k < cx.top_order:
        return bk, build_boundary_matrix(cx, k + 1)
    return bk, Gf2Matrix(0, [0] * cx.counts[k])


def _assert_split_is_the_ranks(split, boundaries, k):
    """The oracle's tree, B_{k+1} pivot columns and covered set against
    the ranks of the shared Boundaries."""
    below, above = boundaries.rank(k), boundaries.rank(k + 1)
    assert split.tree == tuple(below.pivot_cols)
    assert split.boundary_cols == tuple(above.pivot_cols)
    assert split.covered == tuple(above.pivot_rows)


def _mutations(certs, cols):
    """Certificate sequences for the re-check, each checked in order on
    one basis."""
    sequences = [certs, certs + certs]
    for cert in certs:
        other = next(j for j in range(cols) if j != cert.generator)
        sequences += [
            [cert._replace(indicator=cert.indicator ^ (1 << other))] + certs,
            [cert._replace(indicator=cert.indicator ^ (1 << cert.generator))],
            [cert._replace(indicator=cert.indicator | (1 << cols))],
            [cert, cert],
        ]
    return sequences


def _hollow_triangle():
    """B_1 of the 3-cycle on nodes 0, 1, 2 (edges 01, 02, 12), no triangle
    above it, and its one cycle: independent, and shorter than the order-1
    minimum of 4, which no searched certificate is."""
    b1 = Gf2Matrix(3, [0b011, 0b101, 0b110])
    return b1, Gf2Matrix(0, [0] * 3), CavityCertificate(1, 0b111, 0)


def _oracle_verdicts(sequence, bk, bk1):
    """The oracle's verdict names of sequence, each checked against those
    that passed before it."""
    passed, out = [], []
    for cert in sequence:
        failed = verify_certificate_oracle(cert, bk, bk1, passed)
        out.append(failed)
        if failed is None:
            passed.append(cert)
    return out


@pytest.mark.parametrize("name", NETWORKS)
def test_search_and_recheck_match_the_former_cavity_stage(name):
    cx = enumerate_cliques(NETWORKS[name]())
    boundaries = Boundaries(cx)
    for k in range(1, cx.top_order + 1):
        bk, bk1 = _pair(cx, k)
        split = select_oracle(bk, bk1)
        _assert_split_is_the_ranks(split, boundaries, k)
        sel = split.selection
        # the CLI's ranks: the spanning forest for k = 1, the cleared ranks above
        assert select_spanning_and_generators(k, boundaries) == sel
        certs, nodes = find_cavities_oracle(bk, bk1, sel, cx.levels[k])
        # the CLI's matrices, with B_{k+1} past the top order the rows x 0 matrix
        matrix, above = boundaries.matrix(k), boundaries.matrix(k + 1)
        assert find_cavities(matrix, column_space_basis(above), sel) == certs
        assert len(certs) == len(sel.generator_cliques)
        for cert, expected in zip(certs, nodes):
            assert cert.nodes(cx) == expected

        for sequence in _mutations(certs, bk.cols):
            basis = column_space_basis(above)
            assert [verify_certificate(c, matrix, basis) for c in sequence] == (
                _oracle_verdicts(sequence, bk, bk1)
            )


def test_mutations_reach_every_verdict(sample14):
    cx = enumerate_cliques(sample14)
    bk, bk1 = _pair(cx, 1)
    certs, _ = find_cavities_oracle(bk, bk1, select_oracle(bk, bk1).selection, cx.levels[1])
    seen = set()
    for sequence in _mutations(certs, bk.cols):
        basis = column_space_basis(bk1)
        seen.update(verify_certificate(c, bk, basis) for c in sequence)
    assert seen == {None, "dimension", "generator-membership", "cycle", "independence"}
    b1, b2, short = _hollow_triangle()
    assert verify_certificate(short, b1, column_space_basis(b2)) == "length"


def test_a_certificate_that_fails_on_length_does_not_join_the_basis():
    b1, b2, short = _hollow_triangle()
    basis = column_space_basis(b2)
    for _ in range(2):  # a second re-check would fail on independence had the first kept it
        assert verify_certificate(short, b1, basis) == "length"
        assert verify_certificate_oracle(short, b1, b2) == "length"
    assert basis == column_space_basis(b2)


def test_the_search_and_a_pass_extend_the_basis_they_are_given(sample14):
    cx = enumerate_cliques(sample14)
    boundaries = Boundaries(cx)
    b1, b2 = boundaries.matrix(1), boundaries.matrix(2)
    basis = boundaries.basis(1)
    certs = find_cavities(b1, basis, select_spanning_and_generators(1, boundaries))
    extended = column_space_basis(b2)
    assert all(basis_insert(extended, cert.indicator) for cert in certs)
    assert basis == extended
    assert verify_certificate(certs[0], b1, basis) == "independence"
    basis = boundaries.basis(1)
    assert basis == column_space_basis(b2)
    assert verify_certificate(certs[0], b1, basis) is None
    assert verify_certificate(certs[0], b1, basis) == "independence"
    assert boundaries.basis(1) == column_space_basis(b2)


def test_results_do_not_depend_on_call_history(sample14):
    # search, re-check, search again: each step on a new basis(k) sees the
    # boundaries alone, whatever ran on the bases before it
    complexes = [enumerate_cliques(sample14)]
    complexes += [enumerate_cliques(cocktail_party_network(k)) for k in range(1, 5)]
    for cx in complexes:
        boundaries = Boundaries(cx)
        beta = homology_profile(boundaries).beta
        for k in range(1, cx.top_order + 1):
            basis = boundaries.basis(k)
            assert basis == column_space_basis(boundaries.matrix(k + 1)), (cx.counts, k)
            assert boundaries.basis(k) is not basis
            if not beta[k]:
                continue
            bk, sel = boundaries.matrix(k), select_spanning_and_generators(k, boundaries)
            certs = find_cavities(bk, basis, sel)
            recheck = boundaries.basis(k)
            assert [verify_certificate(c, bk, recheck) for c in certs] == [None] * len(certs)
            assert find_cavities(bk, boundaries.basis(k), sel) == certs, (cx.counts, k)
            recheck = boundaries.basis(k)
            assert [verify_certificate(c, bk, recheck) for c in certs] == [None] * len(certs)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(small_graphs())
def test_selection_from_the_profile_ranks_equals_the_former_selection(net):
    cx = enumerate_cliques(net)
    boundaries = Boundaries(cx)
    beta = homology_profile(boundaries).beta
    for k in range(1, cx.top_order + 1):
        split = select_oracle(*_pair(cx, k))
        _assert_split_is_the_ranks(split, boundaries, k)
        sel = select_spanning_and_generators(k, boundaries)
        assert sel == split.selection
        assert len(sel.generator_cliques) == beta[k]
