"""Seeded synthetic inputs and program-independent oracles for the benchmark.

Standard library only, and deliberately independent of the cliquecav
package: a change to the package can neither shift the inputs nor the
reference values its outputs are checked against.
"""

from __future__ import annotations

import random
from math import comb
from pathlib import Path

Edge = tuple[int, int]


def gnm(n: int, m: int, rng: random.Random) -> list[Edge]:
    """Uniform G(n, m) by rejection sampling of node pairs, sorted."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"G({n}, {m}) has too many edges")
    edges: set[Edge] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def rgg(n: int, radius: float, rng: random.Random) -> list[Edge]:
    """Random geometric graph: n uniform points in the unit square,
    joined when closer than radius. Clustered, so high-order cliques."""
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    r2 = radius * radius
    edges = []
    for i, (xi, yi) in enumerate(pts):
        for j in range(i + 1, n):
            dx, dy = xi - pts[j][0], yi - pts[j][1]
            if dx * dx + dy * dy < r2:
                edges.append((i, j))
    return edges


def cocktail_party(k: int) -> list[Edge]:
    """K_{2(k+1)} minus a perfect matching: the smallest k-cavity."""
    n = 2 * (k + 1)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if u // 2 != v // 2]


def cross_polytope_counts(k: int) -> list[int]:
    """m_j = 2^(j+1) * C(k+1, j+1) for j = 0..k."""
    return [2 ** (j + 1) * comb(k + 1, j + 1) for j in range(k + 1)]


def write_edges(path: Path, edges: list[Edge]) -> None:
    """Edge list with integer labels. Isolated nodes are not written, so
    oracles work from read_edges of the file, as the CLI does."""
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")


def read_edges(path: Path) -> list[Edge]:
    """Integer edge list as the CLI canonicalizes it: comments skipped,
    self-loops and duplicates dropped."""
    edges: set[Edge] = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        tokens = line.replace(",", " ").split()
        if len(tokens) < 2 or line.lstrip().startswith(("#", "%")):
            continue
        u, v = int(tokens[0]), int(tokens[1])
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def relabel(edges: list[Edge]) -> tuple[int, list[Edge]]:
    """Map the nodes that occur in edges to 0..n-1, in sorted label order."""
    nodes = sorted({u for e in edges for u in e})
    index = {u: i for i, u in enumerate(nodes)}
    return len(nodes), [(index[u], index[v]) for u, v in edges]


def adjacency(n: int, edges: list[Edge]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(n: int, edges: list[Edge]) -> int:
    """Connected components by union-find with path halving (beta_0)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for u, v in edges:
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            count -= 1
    return count


def max_coreness(n: int, edges: list[Edge]) -> int:
    """k_max by bucket peeling (Batagelj-Zaversnik): the minimum degree
    never falls while peeling, so its last value is k_max."""
    adj = adjacency(n, edges)
    deg = [len(a) for a in adj]
    buckets: dict[int, set[int]] = {}
    for u, d in enumerate(deg):
        buckets.setdefault(d, set()).add(u)
    removed = [False] * n
    k = 0
    for _ in range(n):
        while not buckets.get(k):
            k += 1
        u = buckets[k].pop()
        removed[u] = True
        for w in adj[u]:
            if not removed[w] and deg[w] > k:
                buckets[deg[w]].discard(w)
                deg[w] -= 1
                buckets.setdefault(deg[w], set()).add(w)
    return k


def homology(n: int, edges: list[Edge]) -> tuple[list[int], list[int], list[int]]:
    """(m, r, beta) of the clique complex, computed independently.

    Cliques grow by common-neighbour extension. r_1 = n - beta_0 comes
    from the union-find; r_k for k >= 2 from forward Gaussian elimination
    over GF(2) of the boundary columns, held as int bitsets.
    """
    adj = adjacency(n, edges)
    levels = [[(u,) for u in range(n)]]
    while levels[-1]:
        levels.append([c + (w,) for c in levels[-1]
                       for w in sorted(set.intersection(*(adj[u] for u in c)))
                       if w > c[-1]])
    levels.pop()
    m = [len(level) for level in levels]
    r = [0] * (len(m) + 1)
    if len(m) > 1:
        r[1] = n - components(n, edges)
    for k in range(2, len(m)):
        face_index = {c: i for i, c in enumerate(levels[k - 1])}
        pivots: dict[int, int] = {}
        for cell in levels[k]:
            col = 0
            for drop in range(len(cell)):
                col ^= 1 << face_index[cell[:drop] + cell[drop + 1:]]
            while col:
                low = col & -col
                if low not in pivots:
                    pivots[low] = col
                    break
                col ^= pivots[low]
        r[k] = len(pivots)
    beta = [m[k] - r[k] - r[k + 1] for k in range(len(m))]
    return m, r[:len(m)], beta


def speed_probe(sample: str) -> None:
    """Host-speed probe: the start-up work of a small CLI run without the
    package. It makes the standard-library imports cliquecav's CLI makes,
    reads an edge list, peels it and prints JSON."""
    import argparse, csv, hashlib, json, logging, urllib.request  # noqa: F401,E401
    n, edges = relabel(read_edges(Path(sample)))
    print(json.dumps({"k_max": max_coreness(n, edges)}))


def chain_boundary_is_zero(cliques: list[tuple[int, ...]]) -> bool:
    """True when every codimension-1 face occurs an even number of times."""
    odd: set[tuple[int, ...]] = set()
    for c in cliques:
        for drop in range(len(c)):
            odd ^= {c[:drop] + c[drop + 1:]}
    return not odd
