"""How often a CLI run builds, ranks and transposes each boundary matrix.

Outside homology_profile, which builds and ranks B_k for k >= 2 on its own,
a run builds and transposes each B_k at most once, and verify ranks none.
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
    """Counter of ("build" | "rank" | "transpose", k), for every cliquecav
    module that holds build_boundary_matrix or gf2_rank."""
    counts: Counter = Counter()
    built: list[Gf2Matrix] = []  # kept alive, so no id is reused
    order_of: dict[int, int] = {}
    gf2 = importlib.import_module("cliquecav.gf2")
    build, rank, transpose = gf2.build_boundary_matrix, gf2.gf2_rank, Gf2Matrix.column_vectors

    def counted_build(cx, k):
        m = build(cx, k)
        built.append(m)
        order_of[id(m)] = k
        counts["build", k] += 1
        return m

    def counted_rank(m):
        counts["rank", order_of.get(id(m))] += 1
        return rank(m)

    def counted_transpose(m):
        counts["transpose", order_of.get(id(m))] += 1
        return transpose(m)

    for module in map(importlib.import_module, MODULES):
        for original, wrapper in ((build, counted_build), (rank, counted_rank)):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(Gf2Matrix, "column_vectors", counted_transpose)
    return counts


def _assert_at_most(counts: Counter, bound: dict) -> None:
    over = {key: n for key, n in counts.items() if n > bound.get(key, 0)}
    assert not over, f"counts {dict(counts)} exceed {bound}"


def test_analyze_with_verify_builds_and_transposes_each_matrix_once(calls, capsys):
    assert main(["analyze", "--cavities", "--verify", "--input", SAMPLE14]) == 0
    assert "cavity 3: order 2" in capsys.readouterr().out
    # the profile builds and ranks B_2 and B_3 once
    _assert_at_most(calls, {
        ("build", 1): 1, ("build", 2): 2, ("build", 3): 2,
        ("rank", 1): 1, ("rank", 2): 2, ("rank", 3): 1,
        ("transpose", 2): 1, ("transpose", 3): 1,
    })


def test_verify_builds_each_matrix_once_and_ranks_none(calls, capsys):
    assert main(["verify", "--input", SAMPLE14, str(GOLDEN / "cavities.json")]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    _assert_at_most(calls, {
        ("build", 1): 1, ("build", 2): 1, ("build", 3): 1,
        ("transpose", 2): 1, ("transpose", 3): 1,
    })
