"""Undirected network model: edge-list ingestion, k-core peeling, computability gate."""

from __future__ import annotations

import random
from math import isqrt
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

DEFAULT_BUDGET = 10**7
DEFAULT_CORENESS_THRESHOLD = 25

COMMENT_PREFIXES = ("#", "%")


class BudgetExceeded(RuntimeError):
    """A clique level would hold more cliques than the per-order budget.

    counts holds m_k of the levels before it; len(counts) is the level that overflowed.
    """

    def __init__(self, budget: int, counts: tuple[int, ...]) -> None:
        super().__init__(
            f"level {len(counts)} exceeds budget ({budget}); enumeration stopped "
            f"(counts so far: {list(counts)})"
        )
        self.counts = counts


class Network(NamedTuple):
    """Canonical undirected simple graph.

    Internal ids run 0..node_count-1 and follow sorted original labels
    (numeric sort when every label parses as an integer, with the text
    breaking ties such as "1" and "01"; text sort otherwise),
    so all downstream tie-breaking is reproducible. Adjacency lists are
    strictly increasing, symmetric, self-loop free.
    """

    node_count: int
    node_labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield (u, v) id pairs with u < v in lexicographic order."""
        for u in range(self.node_count):
            for v in self.adjacency[u]:
                if v > u:
                    yield (u, v)

    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.node_labels)}


class CorenessReport(NamedTuple):
    coreness: tuple[int, ...]
    k_max: int
    core_size: tuple[int, int]  # (nodes, edges) of the k_max-core


class GateResult(NamedTuple):
    computable: bool
    reason: str

    def __bool__(self) -> bool:
        return self.computable


def _label_sort_key(labels: Iterable[str]):
    labels = list(labels)
    try:
        # int() maps "1" and "01", or "10" and "1_0", to one value; the text breaks the tie
        keys = {lab: (int(lab), lab) for lab in labels}
    except ValueError:
        return lambda lab: lab
    return lambda lab: keys[lab]


def network_from_edges(labels: Iterable[str], label_pairs: Iterable[tuple[str, str]]) -> Network:
    """Build a canonical Network from label pairs; isolated labels are kept."""
    label_set = set(labels)
    pair_set = set()
    for a, b in label_pairs:
        if a == b:
            continue
        label_set.add(a)
        label_set.add(b)
        pair_set.add((a, b) if a <= b else (b, a))
    ordered = sorted(label_set, key=_label_sort_key(label_set))
    index = {lab: i for i, lab in enumerate(ordered)}
    neighbors: list[set[int]] = [set() for _ in ordered]
    for a, b in pair_set:
        u, v = index[a], index[b]
        neighbors[u].add(v)
        neighbors[v].add(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    edge_count = sum(len(ns) for ns in neighbors) // 2
    return Network(len(ordered), tuple(ordered), adjacency, edge_count)


def load_edge_list(source: str | Path | IO[str]) -> Network:
    """Parse an edge-list text source into a canonical Network.

    One edge per line, two whitespace- or comma-separated labels; extra
    columns (weights) are ignored. Lines starting with '#' or '%' are
    comments. Directed duplicates are merged, self-loops dropped. A line
    that is neither comment nor at least two tokens raises ValueError
    with its line number. An empty source gives an empty Network. Files
    are read as UTF-8 whatever the locale, and one leading byte-order
    mark (U+FEFF) is dropped, from a file object too.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    text = text.removeprefix("\ufeff")
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(COMMENT_PREFIXES):
            continue
        tokens = line.replace(",", " ").split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected two node labels, got {raw!r}")
        pairs.append((tokens[0], tokens[1]))
    return network_from_edges((), pairs)


def to_edge_text(net: Network) -> str:
    """Canonical serialization: sorted 'u v' label lines, u before v in id order."""
    lines = [f"{net.node_labels[u]} {net.node_labels[v]}" for u, v in net.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def edge_text_checksum(net: Network) -> str:
    import hashlib

    return hashlib.sha256(to_edge_text(net).encode()).hexdigest()


def k_core_decomposition(net: Network) -> CorenessReport:
    """Iterative peeling: a node's coreness is the last threshold it survives.

    The result is independent of deletion order within a threshold.
    """
    n = net.node_count
    deg = [net.degree(u) for u in range(n)]
    coreness = [0] * n
    removed = [False] * n
    remaining = n
    k = 0
    while remaining:
        k += 1
        stack = [u for u in range(n) if not removed[u] and deg[u] < k]
        while stack:
            u = stack.pop()
            if removed[u]:
                continue
            removed[u] = True
            coreness[u] = k - 1
            remaining -= 1
            for w in net.adjacency[u]:
                if not removed[w]:
                    deg[w] -= 1
                    if deg[w] < k:
                        stack.append(w)
    k_max = max(coreness, default=0)
    core = [u for u in range(n) if coreness[u] == k_max] if n else []
    core_set = set(core)
    core_edges = sum(1 for u in core for v in net.adjacency[u] if v in core_set and v > u)
    return CorenessReport(tuple(coreness), k_max, (len(core), core_edges))


def computability_gate(
    report: CorenessReport, coreness_threshold: int = DEFAULT_CORENESS_THRESHOLD
) -> GateResult:
    """Full enumeration is allowed iff k_max stays within the coreness threshold."""
    if coreness_threshold <= 0:
        raise ValueError("coreness_threshold must be positive")
    if report.k_max <= coreness_threshold:
        return GateResult(True, f"k_max {report.k_max} within threshold {coreness_threshold}")
    return GateResult(False, f"k_max {report.k_max} exceeds threshold {coreness_threshold}")


def random_er(n: int, m: int, seed: int) -> Network:
    """Uniform G(n, m): m edges sampled without replacement, deterministic per seed."""
    if n < 0 or m < 0 or m > n * (n - 1) // 2:
        raise ValueError(f"infeasible edge count m={m} for n={n}")
    rng = random.Random(seed)
    # index i names the i-th pair of the row-major list of all pairs (u < v),
    # so sampling indices picks the same pairs as sampling that list
    chosen = rng.sample(range(n * (n - 1) // 2), m)
    labels = [str(i) for i in range(1, n + 1)]
    return network_from_edges(labels, [_pair_at(n, i) for i in chosen])


def _pair_at(n: int, i: int) -> tuple[str, str]:
    """Labels of pair i in the row-major list (1, 2), (1, 3), ..., (n - 1, n)."""
    # counted from the end, the pairs of node n - 1 - t take places
    # t(t + 1)/2 .. t(t + 1)/2 + t, largest partner first
    j = n * (n - 1) // 2 - 1 - i
    t = (isqrt(8 * j + 1) - 1) // 2
    return str(n - 1 - t), str(n - j + t * (t + 1) // 2)
