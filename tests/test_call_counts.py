"""How often a CLI run builds, ranks and transposes each boundary matrix,
selects the generators of each order, and searches and re-checks
through the public cavity functions.

The profile, selection, search and self-check share one Boundaries, so a
run builds, ranks and transposes each B_k at most once. B_1 is never
ranked: its pivot columns are the spanning forest. The generators of
each order with beta_k > 0 are selected once, from the profile's ranks,
and searched once by cavities.find_cavities; each certificate is
re-checked once by cavities.verify_certificate. verify ranks, selects
and searches none, and re-checks each certificate of its file.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from cliquecav.cli import main
from cliquecav.gf2 import Gf2Matrix

ROOT = Path(__file__).resolve().parent.parent
SAMPLE14 = str(ROOT / "data" / "sample14.edges")
GOLDEN = Path(__file__).resolve().parent / "golden"
MODULES = ("cliquecav.gf2", "cliquecav.cavities", "cliquecav.cli")


@pytest.fixture
def calls(monkeypatch):
    """Counter of ("build" | "rank" | "transpose" | "select" | "find" |
    "verify", k), for every cliquecav module that holds
    build_boundary_matrix or gf2_rank, and for cavities'
    select_spanning_and_generators, find_cavities and verify_certificate,
    which the CLI imports when it runs. The find_cavities wrapper takes sel
    as its third positional argument, as the benchmark's tracer does, so a
    call that passes sel by keyword fails."""
    counts: Counter = Counter()
    built: list[Gf2Matrix] = []  # kept alive, so no id is reused
    order_of: dict[int, int] = {}
    gf2 = importlib.import_module("cliquecav.gf2")
    cavities = importlib.import_module("cliquecav.cavities")
    build, rank, transpose = gf2.build_boundary_matrix, gf2.gf2_rank, Gf2Matrix.column_vectors
    select = cavities.select_spanning_and_generators
    find, verify = cavities.find_cavities, cavities.verify_certificate

    def counted_build(cx, k):
        m = build(cx, k)
        built.append(m)
        order_of[id(m)] = k
        counts["build", k] += 1
        return m

    def counted_rank(m, **kwargs):
        counts["rank", order_of.get(id(m))] += 1
        return rank(m, **kwargs)

    def counted_transpose(m):
        counts["transpose", order_of.get(id(m))] += 1
        return transpose(m)

    def counted_select(order, *args):
        counts["select", order] += 1
        return select(order, *args)

    def counted_find(bk, basis, sel, *rest):
        counts["find", sel.order] += 1
        return find(bk, basis, sel, *rest)

    def counted_verify(cert, *args):
        counts["verify", cert.order] += 1
        return verify(cert, *args)

    for module in map(importlib.import_module, MODULES):
        for original, wrapper in ((build, counted_build), (rank, counted_rank)):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(Gf2Matrix, "column_vectors", counted_transpose)
    monkeypatch.setattr(cavities, "select_spanning_and_generators", counted_select)
    monkeypatch.setattr(cavities, "find_cavities", counted_find)
    monkeypatch.setattr(cavities, "verify_certificate", counted_verify)
    return counts


def _assert_at_most(counts: Counter, bound: dict) -> None:
    over = {key: n for key, n in counts.items() if n > bound.get(key, 0)}
    assert not over, f"counts {dict(counts)} exceed {bound}"


# each B_k built, ranked and transposed at most once; B_1 ranked never
ONCE_EACH = {
    ("build", 1): 1, ("build", 2): 1, ("build", 3): 1,
    ("rank", 2): 1, ("rank", 3): 1,
    ("transpose", 2): 1, ("transpose", 3): 1,
}
# sample14's beta is (1, 2, 1, 0): generators of orders 1 and 2, once each
SELECTED = {("select", 1): 1, ("select", 2): 1}
# and searched once each; its certificates, two of order 1 and one of
# order 2, re-checked once each
FOUND = {("find", 1): 1, ("find", 2): 1}
VERIFIED = {("verify", 1): 2, ("verify", 2): 1}


def _calls(counts: Counter, *kinds: str) -> dict:
    return {key: n for key, n in counts.items() if key[0] in kinds}


def test_analyze_with_verify_builds_ranks_and_transposes_each_matrix_once(calls, capsys):
    assert main(["analyze", "--cavities", "--verify", "--input", SAMPLE14]) == 0
    assert "cavity 3: order 2" in capsys.readouterr().out
    _assert_at_most(calls, {**ONCE_EACH, **SELECTED, **FOUND, **VERIFIED})
    assert calls["rank", 2] == calls["rank", 3] == 1
    assert _calls(calls, "select") == SELECTED
    assert _calls(calls, "find", "verify") == {**FOUND, **VERIFIED}


def test_cavities_with_verify_builds_ranks_and_transposes_each_matrix_once(calls, capsys):
    assert main(["cavities", "--verify", "--input", SAMPLE14]) == 0
    assert capsys.readouterr().out.count('"order": 2') == 1
    _assert_at_most(calls, {**ONCE_EACH, **SELECTED, **FOUND, **VERIFIED})
    assert calls["rank", 2] == calls["rank", 3] == 1
    assert _calls(calls, "select") == SELECTED
    assert _calls(calls, "find", "verify") == {**FOUND, **VERIFIED}


def test_verify_builds_each_matrix_once_and_ranks_none(calls, capsys):
    assert main(["verify", "--input", SAMPLE14, str(GOLDEN / "cavities.json")]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    _assert_at_most(calls, {
        ("build", 1): 1, ("build", 2): 1, ("build", 3): 1,
        ("transpose", 2): 1, ("transpose", 3): 1,
        **VERIFIED,
    })
    assert _calls(calls, "find", "verify") == VERIFIED
