"""The per-order BoundaryContext against the cavity stage it replaced.

Selections, certificates (rank_evidence included) and verdicts must match
the former implementations in oracles.py bit for bit, both through the
public wrappers and through the contexts the CLI builds.
"""

from pathlib import Path

import pytest
from oracles import (
    bernoulli_graph,
    find_cavities_oracle,
    select_oracle,
    verify_certificate_oracle,
)

from cliquecav import (
    build_boundary_matrix,
    cocktail_party_network,
    enumerate_cliques,
    find_cavities,
    load_edge_list,
    select_spanning_and_generators,
    verify_certificate,
    zero_cols_matrix,
)
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
    return bk, zero_cols_matrix(cx.counts[k])


def _mutations(certs, cols):
    """Certificate sequences for the re-check, each checked in order."""
    sequences = [certs, certs + certs]
    for cert in certs:
        other = next(j for j in range(cols) if j != cert.generator)
        wrong_length = cert._replace(length=cert.length + 1)
        sequences += [
            [cert._replace(indicator=cert.indicator ^ (1 << other))] + certs,
            [cert._replace(indicator=cert.indicator ^ (1 << cert.generator))],
            [cert._replace(indicator=cert.indicator | (1 << cols))],
            [cert, cert],
            # independent but of the wrong length, then the valid one
            [wrong_length, cert],
            [wrong_length] + certs,
        ]
    return sequences


def _verdicts(check, sequence):
    """Verdict names of sequence, each checked against those that passed."""
    passed, out = [], []
    for cert in sequence:
        result = check(cert, passed)
        out.append(result.failed)
        if result:
            passed.append(cert)
    return out


@pytest.mark.parametrize("name", NETWORKS)
def test_context_and_wrappers_match_the_former_cavity_stage(name):
    cx = enumerate_cliques(NETWORKS[name]())
    context = _contexts(cx)
    for k in range(1, cx.top_order + 1):
        bk, bk1 = _pair(cx, k)
        sel = select_oracle(bk, bk1)
        assert select_spanning_and_generators(bk, bk1) == sel
        assert context(k).select() == sel
        certs = find_cavities_oracle(bk, bk1, sel, cx.levels[k])
        assert find_cavities(bk, bk1, sel, cx.levels[k]) == certs
        assert context(k).search(sel, cx.levels[k]) == certs
        assert len(certs) == len(sel.generator_cliques)

        for sequence in _mutations(certs, bk.cols):
            expected = _verdicts(
                lambda c, prior: verify_certificate_oracle(c, bk, bk1, prior), sequence
            )
            assert _verdicts(
                lambda c, prior: verify_certificate(c, bk, bk1, prior), sequence
            ) == expected
            fresh = _contexts(cx)(k)
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
    certs = find_cavities_oracle(bk, bk1, select_oracle(bk, bk1), cx.levels[1])
    seen = set()
    for sequence in _mutations(certs, bk.cols):
        fresh = _contexts(cx)(1)
        seen.update(_verdicts(lambda c, prior: fresh.recheck(c), sequence))
    assert seen == {None, "dimension", "generator-membership", "cycle", "independence", "length"}


def test_a_certificate_that_fails_on_length_does_not_join_the_basis(sample14):
    cx = enumerate_cliques(sample14)
    context = _contexts(cx)(1)
    certs = context.search(context.select(), cx.levels[1])
    cert = certs[0]
    assert context.recheck(cert._replace(length=cert.length + 1)).failed == "length"
    assert context.recheck(cert)
    assert context.recheck(cert).failed == "independence"
    # the re-check extends its own copy of the basis, not the one search reads
    assert context.search(context.select(), cx.levels[1]) == certs
