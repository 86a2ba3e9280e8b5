"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive and written differently from the
library code: different algorithms, different data layouts, no shared
helpers. Slow is fine; wrong is not.
"""

from __future__ import annotations

import random
from itertools import combinations

from cliquecav import BudgetExceeded, CliqueComplex, Network, network_from_edges
from cliquecav.solver import ZeroOneProgram


def peel_coreness(net: Network) -> list[int]:
    """Degeneracy ordering: always remove a minimum-degree node."""
    n = net.node_count
    deg = [net.degree(u) for u in range(n)]
    alive = set(range(n))
    core = [0] * n
    k = 0
    while alive:
        u = min(alive, key=lambda x: (deg[x], x))
        k = max(k, deg[u])
        core[u] = k
        alive.remove(u)
        for w in net.adjacency[u]:
            if w in alive:
                deg[w] -= 1
    return core


def component_count(net: Network) -> int:
    parent = list(range(net.node_count))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in net.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(u) for u in range(net.node_count)})


def naive_rank(rows: list[int], seed: int) -> int:
    """Row echelon by XOR elimination with a randomized pivot order."""
    rng = random.Random(seed)
    work = [r for r in rows if r]
    rank = 0
    while work:
        pivot = work[rng.randrange(len(work))]
        low = pivot & -pivot
        rank += 1
        work = [r ^ pivot if r & low else r for r in work]
        work = [r for r in work if r]
    return rank


def rref_oracle(rows: list[int]) -> tuple[int, list[int]]:
    """Rank and pivot columns read off the full reduced row-echelon form.

    Forward elimination keyed by lowest set bit, then back-substitution so
    every pivot column is zero outside its own row; the pivot columns are
    the lowest set bits of the reduced rows.
    """
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            low = v & -v
            if low not in basis:
                basis[low] = v
                break
            v ^= basis[low]
    for low in sorted(basis, reverse=True):
        vec = basis[low]
        for other in basis:
            if other < low and basis[other] & low:
                basis[other] ^= vec
    pivots = sorted((row & -row).bit_length() - 1 for row in basis.values())
    return len(pivots), pivots


def enumerate_cliques_oracle(
    net: Network, budget: int, max_order: int | None = None
) -> CliqueComplex:
    """Clique levels by a tuple scan over sorted candidate tuples.

    Each clique carries the tuple of its common neighbors above its
    maximum id; a child's tuple is the rest of the parent's filtered by set
    lookups in the new node's neighborhood. The budget is checked after
    every child; an overflowing level raises BudgetExceeded with the
    counts of the levels before it, as the library does.
    """
    n = net.node_count
    levels: list[tuple[tuple[int, ...], ...]] = []
    if n > budget:
        raise BudgetExceeded(budget, ())
    if n == 0:
        return CliqueComplex((), ())
    levels.append(tuple((u,) for u in range(n)))
    if max_order == 0:
        return CliqueComplex(tuple(levels), tuple(len(l) for l in levels))
    adj_sets = [set(ns) for ns in net.adjacency]
    current = [((u,), tuple(v for v in net.adjacency[u] if v > u)) for u in range(n)]
    order = 0
    while max_order is None or order < max_order:
        order += 1
        nxt = []
        for clique, ext in current:
            for i, w in enumerate(ext):
                new_ext = tuple(z for z in ext[i + 1 :] if z in adj_sets[w])
                nxt.append((clique + (w,), new_ext))
                if len(nxt) > budget:
                    raise BudgetExceeded(budget, tuple(len(l) for l in levels))
        if not nxt:
            break
        levels.append(tuple(c for c, _ in nxt))
        current = nxt
    return CliqueComplex(tuple(levels), tuple(len(l) for l in levels))


def independent_column_scan(rows: list[int], cols: int) -> list[int]:
    """Columns kept by a left-to-right greedy independence scan."""
    col_vecs = []
    for j in range(cols):
        v = 0
        for i, r in enumerate(rows):
            v |= ((r >> j) & 1) << i
        col_vecs.append(v)
    basis: dict[int, int] = {}
    kept = []
    for j, v in enumerate(col_vecs):
        w = v
        while w:
            low = w & -w
            if low in basis:
                w ^= basis[low]
            else:
                basis[low] = w
                kept.append(j)
                break
    return kept


def random_er_oracle(n: int, m: int, seed: int) -> Network:
    """Uniform G(n, m) by sampling m pairs from the list of all n(n-1)/2 pairs."""
    rng = random.Random(seed)
    all_pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = rng.sample(all_pairs, m)
    labels = [str(i) for i in range(1, n + 1)]
    return network_from_edges(labels, [(str(u), str(v)) for u, v in chosen])


def bernoulli_graph(n: int, p: float, seed: int) -> Network:
    rng = random.Random(seed)
    labels = [str(i) for i in range(1, n + 1)]
    pairs = [
        (str(u), str(v))
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return network_from_edges(labels, pairs)


def brute_solutions(p: ZeroOneProgram) -> list[int]:
    """All feasible masks by exhaustive search, lexicographic assignment order.

    Assignment order: variable 0 is the most significant decision, value 0
    before 1. Programs with an exact cardinality over all variables are
    enumerated via combinations to keep n = 20 affordable.
    """
    n = p.num_vars
    row_masks = []
    for row in p.parity_rows:
        m = 0
        for j in row:
            m |= 1 << j
        row_masks.append(m)

    def feasible(mask: int) -> bool:
        for var, val in p.fixed:
            if (mask >> var) & 1 != val:
                return False
        if p.cardinality is not None and mask.bit_count() != p.cardinality:
            return False
        return all((mask & rm).bit_count() % 2 == 0 for rm in row_masks)

    if p.cardinality is not None:
        masks = []
        for combo in combinations(range(n), p.cardinality):
            m = 0
            for j in combo:
                m |= 1 << j
            if feasible(m):
                masks.append(m)
    else:
        masks = [m for m in range(1 << n) if feasible(m)]
    # sort by assignment tuple (x_0, x_1, ...), 0 before 1
    masks.sort(key=lambda m: tuple((m >> j) & 1 for j in range(n)))
    return masks
