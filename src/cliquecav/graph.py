"""Undirected network model: edge-list ingestion, k-core peeling, computability gate."""

from __future__ import annotations

import random
from collections import deque
from itertools import chain
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

    node_labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.node_labels)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

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
    core_size: tuple[int, int]  # (nodes, edges) of the k_max-core

    @property
    def k_max(self) -> int:
        return max(self.coreness, default=0)


class GateResult(NamedTuple):
    computable: bool
    reason: str


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
    heads: list[str] = []
    tails: list[str] = []
    for a, b in label_pairs:
        if a != b:
            heads.append(a)
            tails.append(b)
    return _network_on_ids(labels, heads, tails)


def _network_on_ids(labels: Iterable[str], heads: list[str], tails: list[str]) -> Network:
    """The Network on labels and the edges heads[i]-tails[i], none a self-loop.

    Duplicate and reversed edges are merged on the integer ids.
    """
    label_set = set(labels).union(heads, tails)
    ordered = sorted(label_set, key=_label_sort_key(label_set))
    index = dict(zip(ordered, range(len(ordered))))
    us = list(map(index.__getitem__, heads))
    vs = list(map(index.__getitem__, tails))
    neighbors: list[list[int]] = [[] for _ in ordered]
    # neighbors[u].append(v) for both ends of every edge, run to exhaustion in C
    deque(map(list.append, map(neighbors.__getitem__, us + vs), vs + us), maxlen=0)
    return Network(tuple(ordered), tuple(map(tuple, map(sorted, map(set, neighbors)))))


def load_edge_list(source: str | Path | IO[str]) -> Network:
    """Parse an edge-list text source into a canonical Network.

    One edge per line, two whitespace- or comma-separated labels; extra
    columns (weights) are ignored. Lines starting with '#' or '%' are
    comments. Directed duplicates are merged, self-loops dropped. A line
    that is neither comment nor at least two tokens raises ValueError
    with its line number. An empty source gives an empty Network. Files
    are read as UTF-8 whatever the locale, and one leading byte-order
    mark (U+FEFF) is dropped, from a file object too. The ValueErrors of
    a path source start with the path; an unreadable path raises the
    OSError whose filename is that path, as typed.
    """
    if hasattr(source, "read"):
        return _parse_edge_text(source.read())
    try:
        with open(source, encoding="utf-8") as f:
            return _parse_edge_text(f.read())
    except ValueError as exc:  # not UTF-8, or a line without two labels
        raise ValueError(f"{source}: {exc}") from None


def _parse_edge_text(text: str) -> Network:
    """Parse edge-list text as load_edge_list describes."""
    heads: list[str] = []
    tails: list[str] = []
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        tokens = raw.replace(",", " ").split(None, 2)
        if len(tokens) < 2 or tokens[0].startswith(COMMENT_PREFIXES):
            # a comment starts with '#' or '%' after whitespace, not after a comma
            line = raw.strip()
            if not line or line.startswith(COMMENT_PREFIXES):
                continue
            if len(tokens) < 2:
                raise ValueError(f"line {lineno}: expected two node labels, got {raw!r}")
        a, b = tokens[0], tokens[1]
        if a != b:
            heads.append(a)
            tails.append(b)
    return _network_on_ids((), heads, tails)


def to_edge_text(net: Network) -> str:
    """Canonical serialization: sorted 'u v' label lines, u before v in id order."""
    lines = [f"{net.node_labels[u]} {net.node_labels[v]}" for u, v in net.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def edge_text_checksum(net: Network) -> str:
    import hashlib

    return hashlib.sha256(to_edge_text(net).encode()).hexdigest()


def k_core_decomposition(net: Network) -> CorenessReport:
    """Bucket peeling (Batagelj and Zaversnik 2003) in O(n + m).

    Nodes sit in one bucket per current degree and leave in smallest-last
    order (Matula and Beck 1983): at level d, a node of degree d is removed
    with coreness d, and each neighbour of degree above d loses one and
    moves down a bucket, to d at the lowest. A bucket entry whose node has
    since moved lower is skipped. The result is independent of the removal
    order within a level.
    """
    adjacency = net.adjacency
    deg = list(map(len, adjacency))
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=-1) + 1)]
    for u, d in enumerate(deg):
        buckets[d].append(u)
    for d, bucket in enumerate(buckets):
        for u in bucket:  # grows while it is read: neighbours that fall to d join it
            if deg[u] != d:
                continue
            for w in adjacency[u]:
                dw = deg[w]
                if dw > d:
                    deg[w] = dw - 1
                    buckets[dw - 1].append(w)
    coreness = deg  # a node's degree when it left
    k_max = max(coreness, default=0)
    in_core = [c == k_max for c in coreness]
    core = [u for u in range(net.node_count) if in_core[u]]
    outside = [u for u in range(net.node_count) if not in_core[u]]
    # the edges that leave the core, counted from the side outside it
    cut = sum(map(in_core.__getitem__, chain.from_iterable(map(adjacency.__getitem__, outside))))
    core_degree = sum(map(len, map(adjacency.__getitem__, core)))
    return CorenessReport(tuple(coreness), (len(core), (core_degree - cut) // 2))


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
