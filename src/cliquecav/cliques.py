"""Clique enumeration and complexes.

Cliques are graded by order: a node is a 0-clique, an edge a 1-clique, a
triangle a 2-clique. Level k+1 is built from level k by extending each
clique with every common neighbor whose id exceeds the clique's maximum,
so each clique is produced exactly once and levels come out in
lexicographic order. Each clique carries those candidates as an int
bitmask, so a child's candidates are one AND with a neighbor mask.
clique_counts walks the same masks with a count per mask instead of the
cliques, for callers that need only m_k.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb
from typing import NamedTuple

from .graph import DEFAULT_BUDGET, BudgetExceeded, Network, network_from_edges

Clique = tuple[int, ...]


class CliqueComplex(NamedTuple):
    """All cliques of a graph, listed per order.

    Attributes
    ----------
    levels : tuple of per-order clique tuples, lexicographically sorted.
    counts : m_k = len(levels[k]) per order.
    """

    levels: tuple[tuple[Clique, ...], ...]
    counts: tuple[int, ...]

    @property
    def top_order(self) -> int:
        return len(self.levels) - 1


class EulerNumber(NamedTuple):
    chi: int


def enumerate_cliques(
    net: Network, budget: int = DEFAULT_BUDGET, max_order: int | None = None
) -> CliqueComplex:
    """Enumerate all cliques per order by common-neighbor extension.

    Every clique carries a bitmask of the common neighbors of its nodes
    whose ids exceed its maximum. Clearing the mask's low bit w gives the
    child clique + (w,), whose candidates are the remaining mask ANDed
    with w's neighbor mask.

    Parameters
    ----------
    net : canonical Network.
    budget : per-order cap on the number of cliques. If a level would
        exceed it, BudgetExceeded is raised with the counts of the levels
        before it; no partial complex is ever returned. The count is
        checked after each parent clique's children, so a level is never
        built more than n - 1 cliques past the budget.
    max_order : stop after this order even if higher cliques exist. The
        result is then the max_order-skeleton, whose top Betti number is
        the skeleton's, not the full complex's.

    Returns
    -------
    CliqueComplex with levels [0..K] where K is the last nonempty order
    (or max_order).
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    n = net.node_count
    adj = [sum(1 << v for v in ns) for ns in net.adjacency]
    levels: list[tuple[Clique, ...]] = []
    # parallel lists: each clique and the bitmask of its common neighbors
    # above its maximum id; level 0 is the children of the empty clique, whose mask is all nodes
    cliques: list[Clique] = [()]
    exts = [(1 << n) - 1]
    order = -1
    while max_order is None or order < max_order:
        order += 1
        nxt_cliques: list[Clique] = []
        nxt_exts: list[int] = []
        add_clique, add_ext = nxt_cliques.append, nxt_exts.append
        for clique, ext in zip(cliques, exts):
            # low bit first keeps the children in lexicographic order
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                add_clique(clique + (w,))
                add_ext(ext & adj[w])
            if len(nxt_cliques) > budget:
                raise BudgetExceeded(budget, tuple(len(l) for l in levels))
        if not nxt_cliques:
            break
        levels.append(tuple(nxt_cliques))
        cliques, exts = nxt_cliques, nxt_exts
    return CliqueComplex(tuple(levels), tuple(len(l) for l in levels))


def clique_counts(net: Network) -> tuple[int, ...]:
    """m_k per order, equal to enumerate_cliques(net).counts, without
    listing a clique.

    Walks enumerate_cliques' candidate masks level by level, keeping only
    how many cliques carry each mask. A clique's children and their masks
    depend on its mask alone, so cliques with equal masks merge exactly,
    and each level holds at most as many masks as it has cliques.
    """
    n = net.node_count
    adj = [sum(1 << v for v in ns) for ns in net.adjacency]
    counts: list[int] = []
    level = {(1 << n) - 1: 1}  # the empty clique's mask: all nodes
    while level and len(counts) < n:  # no clique has more than n nodes
        counts.append(sum(mult * ext.bit_count() for ext, mult in level.items()))
        nxt: dict[int, int] = {}
        for ext, mult in level.items():
            while ext:
                low = ext & -ext
                ext ^= low
                child = ext & adj[low.bit_length() - 1]
                if child:  # a mask with no candidates has no children
                    nxt[child] = nxt.get(child, 0) + mult
        level = nxt
    return tuple(counts)


def euler_characteristic(cx: CliqueComplex) -> EulerNumber:
    """Alternating sum of clique counts."""
    chi = 0
    for k, m in enumerate(cx.counts):
        chi += m if k % 2 == 0 else -m
    return EulerNumber(chi)


def maximal_cliques(net: Network) -> list[Clique]:
    """All maximal cliques, as sorted tuples in lexicographic order.

    Pivoted recursive expansion; used as an independent cross-check of
    enumerate_cliques (expanding every maximal clique into all sub-tuples
    must reproduce the per-order levels exactly).
    """
    adj = [set(ns) for ns in net.adjacency]
    out: list[Clique] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot, best = -1, -1
        for u in sorted(p | x):
            c = len(p & adj[u])
            if c > best:
                pivot, best = u, c
        for v in sorted(p - adj[pivot]):
            expand(r + [v], p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand([], set(range(net.node_count)), set())
    return sorted(out)


def expand_maximal_cliques(maximal: list[Clique]) -> list[tuple[Clique, ...]]:
    """Expand maximal cliques into full per-order levels (dedup + sort)."""
    by_order: dict[int, set[Clique]] = {}
    for c in maximal:
        for size in range(1, len(c) + 1):
            level = by_order.setdefault(size - 1, set())
            for sub in combinations(c, size):
                level.add(sub)
    if not by_order:
        return []
    return [tuple(sorted(by_order[k])) for k in range(max(by_order) + 1)]


def max_clique_order(net: Network) -> int:
    """Largest k with m_k > 0, via maximal cliques."""
    # an empty network has the one maximal clique (), so its order is -1
    return max(len(c) for c in maximal_cliques(net)) - 1


def cocktail_party_network(k: int) -> Network:
    """Complete graph on 2(k+1) nodes minus a perfect matching.

    Nodes 2p and 2p+1 form the excluded (antipodal) pair p. Labels are
    "1".."2k+2". Adding pair k to the pair-(k-1) graph realizes the
    two-new-nodes suspension recursion.
    """
    if not 1 <= k <= 12:
        raise ValueError(f"order {k} out of supported range 1..12")
    n = 2 * (k + 1)
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if u // 2 != v // 2:
                pairs.append((str(u + 1), str(v + 1)))
    return network_from_edges([str(i + 1) for i in range(n)], pairs)


def generate_smallest_cavity_complex(k: int) -> CliqueComplex:
    """Clique complex of the smallest k-cavity (cross-polytope boundary).

    Face counts are measured by enumeration, not assumed; they satisfy
    m_j = 2^(j+1) * C(k+1, j+1) for 0 <= j <= k.
    """
    return enumerate_cliques(cocktail_party_network(k))


def cross_polytope_count(k: int, j: int) -> int:
    """Closed-form face count m_j of the smallest k-cavity complex."""
    return 2 ** (j + 1) * comb(k + 1, j + 1)


def _levels_sha256(levels: list) -> str:
    """sha256 of the levels written as compact JSON."""
    import hashlib

    return hashlib.sha256(json.dumps(levels, separators=(",", ":")).encode()).hexdigest()


def complex_to_json(cx: CliqueComplex, source_checksum: str) -> dict:
    """Export document: {"counts", "levels", "levels_sha256", "source_checksum"}."""
    levels = [[list(c) for c in level] for level in cx.levels]
    return {
        "counts": list(cx.counts),
        "levels": levels,
        "levels_sha256": _levels_sha256(levels),
        "source_checksum": source_checksum,
    }


def complex_from_json(doc: dict) -> tuple[CliqueComplex, str]:
    """Inverse of complex_to_json.

    Raises ValueError when the levels do not hash to levels_sha256 or the
    counts disagree with them, so an edited or torn export is never used.
    """
    if _levels_sha256(doc["levels"]) != doc["levels_sha256"]:
        raise ValueError("cache levels do not match levels_sha256")
    levels = tuple(tuple(tuple(c) for c in level) for level in doc["levels"])
    counts = tuple(doc["counts"])
    if counts != tuple(len(l) for l in levels):
        raise ValueError("cache counts disagree with levels")
    return CliqueComplex(levels, counts), doc["source_checksum"]
