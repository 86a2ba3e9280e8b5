"""The per-order BoundaryContext and the selection read off the cleared
ranks, against the cavity stage they replaced.

Selections, certificates and verdicts must match the former
implementations in oracles.py bit for bit, both through the public
wrappers and through the ranks and contexts the CLI uses; the selection
has one path, from the ranks. The oracle's tree and covered sets must
equal the pivot columns of B_k and the pivot rows of B_{k+1} reduced with
the tree cleared, which the selection reads.
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
    build_boundary_matrix,
    cocktail_party_network,
    enumerate_cliques,
    find_cavities,
    homology_profile,
    load_edge_list,
    select_spanning_and_generators,
    verify_certificate,
)
from cliquecav.cavities import BoundaryContext
from cliquecav.cli import _contexts

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
    """Certificate sequences for the re-check, each checked in order."""
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


def _verdicts(check, sequence):
    """Verdict names of sequence, each checked against those that passed."""
    passed, out = [], []
    for cert in sequence:
        failed = check(cert, passed)
        out.append(failed)
        if failed is None:
            passed.append(cert)
    return out


@pytest.mark.parametrize("name", NETWORKS)
def test_context_and_wrappers_match_the_former_cavity_stage(name):
    cx = enumerate_cliques(NETWORKS[name]())
    boundaries = Boundaries(cx)
    context = _contexts(boundaries)
    for k in range(1, cx.top_order + 1):
        bk, bk1 = _pair(cx, k)
        split = select_oracle(bk, bk1)
        _assert_split_is_the_ranks(split, boundaries, k)
        sel = split.selection
        # the CLI's ranks: the spanning forest for k = 1, the cleared ranks above
        assert select_spanning_and_generators(k, boundaries) == sel
        certs, nodes = find_cavities_oracle(bk, bk1, sel, cx.levels[k])
        assert find_cavities(bk, bk1, sel) == certs
        assert context(k).search(sel) == certs
        assert len(certs) == len(sel.generator_cliques)
        for cert, expected in zip(certs, nodes):
            assert cert.nodes(cx) == expected

        for sequence in _mutations(certs, bk.cols):
            expected = _verdicts(
                lambda c, prior: verify_certificate_oracle(c, bk, bk1, prior), sequence
            )
            assert _verdicts(
                lambda c, prior: verify_certificate(c, bk, bk1, prior), sequence
            ) == expected
            fresh = _contexts(Boundaries(cx))(k)
            assert _verdicts(lambda c, prior: fresh.recheck(c), sequence) == expected
            # explicit priors, which the wrapper takes without checking them
            for cert in sequence:
                for prior in ([], sequence[:1], sequence, sequence + sequence):
                    assert verify_certificate(cert, bk, bk1, prior) == (
                        verify_certificate_oracle(cert, bk, bk1, prior)
                    )


def test_mutations_reach_every_verdict(sample14):
    cx = enumerate_cliques(sample14)
    bk, bk1 = _pair(cx, 1)
    certs, _ = find_cavities_oracle(bk, bk1, select_oracle(bk, bk1).selection, cx.levels[1])
    seen = set()
    for sequence in _mutations(certs, bk.cols):
        fresh = _contexts(Boundaries(cx))(1)
        seen.update(_verdicts(lambda c, prior: fresh.recheck(c), sequence))
    assert seen == {None, "dimension", "generator-membership", "cycle", "independence"}
    b1, b2, short = _hollow_triangle()
    assert _verdicts(lambda c, prior: verify_certificate(c, b1, b2, prior), [short]) == ["length"]


def test_a_certificate_that_fails_on_length_does_not_join_the_basis():
    b1, b2, short = _hollow_triangle()
    context = BoundaryContext(b1, b2)
    for _ in range(2):  # a second re-check would fail on independence had the first kept it
        assert context.recheck(short) == "length"
        assert verify_certificate(short, b1, b2) == verify_certificate_oracle(short, b1, b2)
    assert verify_certificate(short, b1, b2, [short]) == "independence"


def test_the_recheck_extends_its_own_copy_of_the_basis(sample14):
    cx = enumerate_cliques(sample14)
    boundaries = Boundaries(cx)
    context = _contexts(boundaries)(1)
    sel = select_spanning_and_generators(1, boundaries)
    certs = context.search(sel)
    assert context.recheck(certs[0]) is None
    assert context.recheck(certs[0]) == "independence"
    # the search reads the basis of B_2 alone, not the one the re-check grew
    assert context.search(sel) == certs


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
