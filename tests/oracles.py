"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive and written differently from the
library code: different algorithms, different data layouts, no shared
helpers. Slow is fine; wrong is not.

The exceptions are forward_rank_oracle and edge_rank_oracle, the ranks
as they were computed before clearing (forward_rank_oracle also lists
the rows it keeps), and select_oracle, find_cavities_oracle and
verify_certificate_oracle: the cavity stage as it was before the
per-order BoundaryContext and before selection read the cleared ranks,
kept as its reference; select_oracle returns its tree and covered sets
beside the selection, which holds only the generators, and
find_cavities_oracle each certificate's nodes beside the certificates,
which hold only clique indices. Every call rebuilds what it reads
(ranks, transposes, column bases, and the prior certificates' basis), so
they stand apart from the shared context and ranks.
Likewise _Frame and _Search are the 0-1 search without the pairing
bound, kept as it was but for its call, which names the pin and the
length as the library's does, and the branches for a search with no
length; _Search.nodes counts its decision nodes. And
parse_edge_text_oracle, network_from_edges_oracle and k_core_oracle are
the edge-list loader on label pairs and the threshold-by-threshold peel,
as they were before both moved to integer ids and bucket peeling;
k_core_oracle reads a degree as len(adjacency[u]).

These references once lived in the package and moved here unchanged,
since no pipeline path runs them: maximal_cliques (pivoted Bron-Kerbosch),
expand_maximal_cliques and max_clique_order, the cross-check of clique
enumeration; multiply, the GF(2) product behind boundary-of-boundary
checks; and cross_polytope_count, the closed-form face counts of the
smallest k-cavity complex.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from hypothesis import strategies as st

from cliquecav import (
    BudgetExceeded,
    CliqueComplex,
    CorenessReport,
    Network,
    network_from_edges,
)
from cliquecav.cavities import (
    CavityCertificate,
    CavitySearchError,
    SpanningSelection,
    length_schedule,
)
from cliquecav.cliques import Clique
from cliquecav.gf2 import Gf2Matrix, RankResult, basis_insert, bit_indices, column_space_basis
from cliquecav.graph import COMMENT_PREFIXES, _label_sort_key
from cliquecav.solver import NodeLimitExceeded, ZeroOneProgram


def peel_coreness(net: Network) -> list[int]:
    """Degeneracy ordering: always remove a minimum-degree node."""
    n = net.node_count
    deg = [len(net.adjacency[u]) for u in range(n)]
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


def k_core_oracle(net: Network) -> CorenessReport:
    """Iterative peeling: a node's coreness is the last threshold it survives.

    The result is independent of deletion order within a threshold.
    """
    n = net.node_count
    deg = [len(net.adjacency[u]) for u in range(n)]
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
    return CorenessReport(tuple(coreness), (len(core), core_edges))


def network_from_edges_oracle(
    labels: Iterable[str], label_pairs: Iterable[tuple[str, str]]
) -> Network:
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
    return Network(tuple(ordered), tuple(tuple(sorted(ns)) for ns in neighbors))


def parse_edge_text_oracle(text: str) -> Network:
    """Parse edge-list text as load_edge_list describes."""
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
    return network_from_edges_oracle((), pairs)


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


def forward_rank_oracle(m: Gf2Matrix) -> RankResult:
    """Rank, pivot columns and pivot rows by forward elimination of every
    row, none cleared."""
    basis: dict[int, int] = {}
    rows = [i for i, v in enumerate(m.bits) if basis_insert(basis, v)]
    return RankResult(sorted(low.bit_length() - 1 for low in basis), rows)


def pivot_rows_oracle(rows: list[int], cleared: set[int]) -> list[int]:
    """The rows outside cleared whose row raises the rref_oracle rank of
    the rows outside cleared up to it."""
    kept: list[int] = []
    pivots = []
    rank = 0
    for i, v in enumerate(rows):
        if i not in cleared:
            kept.append(v)
            grown = rref_oracle(kept)[0]
            if grown > rank:
                pivots.append(i)
                rank = grown
    return pivots


def edge_rank_oracle(cx: CliqueComplex) -> int:
    """rank B_1 = n - beta_0: the edges a union-find spanning forest keeps."""
    parent = {node: node for (node,) in cx.levels[0]}

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    rank = 0
    for u, v in cx.levels[1]:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


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
        return CliqueComplex(())
    levels.append(tuple((u,) for u in range(n)))
    if max_order == 0:
        return CliqueComplex(tuple(levels))
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
    return CliqueComplex(tuple(levels))


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


def cross_polytope_count(k: int, j: int) -> int:
    """Closed-form face count m_j of the smallest k-cavity complex."""
    return 2 ** (j + 1) * comb(k + 1, j + 1)


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


def multiply(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """GF(2) matrix product: row i of the result is the XOR of b's rows
    selected by the set bits of row i of a."""
    if a.cols != len(b.bits):
        raise ValueError("dimension mismatch")
    bits = []
    for row in a.bits:
        acc = 0
        for j in bit_indices(row):
            acc ^= b.bits[j]
        bits.append(acc)
    return Gf2Matrix(b.cols, bits)


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


def cycle_edges(n: int, first: int = 1) -> list[tuple[int, int]]:
    """The n-cycle on first..first+n-1."""
    return [(first + i, first + (i + 1) % n) for i in range(n)]


def join_edges(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edges of the graph join: both graphs plus every edge between them."""
    nodes_a = {u for e in a for u in e}
    nodes_b = {u for e in b for u in e}
    return a + b + [(u, v) for u in sorted(nodes_a) for v in sorted(nodes_b)]


def cocktail_edges(k: int, first: int = 1) -> list[tuple[int, int]]:
    """The order-k cocktail party on first..first+2k+1: all pairs but (first+2i, first+2i+1)."""
    nodes = range(first, first + 2 * k + 2)
    return [(u, v) for u in nodes for v in nodes if u < v and (u - first) // 2 != (v - first) // 2]


def suspension_edges(edges: list[tuple[int, int]], apexes=(101, 102)) -> list[tuple[int, int]]:
    """edges plus two non-adjacent apexes joined to every node."""
    nodes = sorted({u for e in edges for u in e})
    return edges + [(u, a) for a in apexes for u in nodes]


@st.composite
def small_graphs(draw, max_nodes: int = 12) -> Network:
    """Hypothesis strategy: a graph on nodes "1".."n", n <= max_nodes, each
    pair an edge by its own draw, so shrinking removes nodes and edges."""
    n = draw(st.integers(0, max_nodes))
    pairs = [(str(u), str(v)) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    labels = [str(i) for i in range(1, n + 1)]
    return network_from_edges(labels, [pair for pair, keep in zip(pairs, present) if keep])


def brute_solutions(p: ZeroOneProgram, pin: int, cardinality: int) -> list[int]:
    """All masks with x_pin = 1, cardinality ones and every parity row
    even, by exhaustive search, in lexicographic assignment order.

    Assignment order: variable 0 is the most significant decision, value 0
    before 1. The masks are enumerated via combinations of the exact
    cardinality, to keep n = 20 affordable.
    """
    n = p.num_vars
    masks = []
    for combo in combinations(range(n), cardinality):
        m = 0
        for j in combo:
            m |= 1 << j
        if (m >> pin) & 1 and all((m & row).bit_count() % 2 == 0 for row in p.parity_rows):
            masks.append(m)
    # sort by assignment tuple (x_0, x_1, ...), 0 before 1
    masks.sort(key=lambda m: tuple((m >> j) & 1 for j in range(n)))
    return masks


class _Frame:
    __slots__ = ("var", "vals", "idx", "mark")

    def __init__(self, var: int, vals: tuple[int, ...], mark: int) -> None:
        self.var = var
        self.vals = vals
        self.idx = 0
        self.mark = mark


class _Search:
    """One depth-first run over a program; owns all mutable state."""

    def __init__(self, p: ZeroOneProgram, pin: int, cardinality: int, node_limit: int) -> None:
        self.n = p.num_vars
        self.rows = [bit_indices(row) for row in p.parity_rows]
        self.var_rows: list[list[int]] = [[] for _ in range(self.n)]
        for r, row in enumerate(self.rows):
            for v in row:
                self.var_rows[v].append(r)
        self.target = cardinality
        self.pins = [(pin, 1)]
        self.node_limit = node_limit

        self.value = [-1] * self.n
        self.trail: list[int] = []
        self.row_free = [len(row) for row in self.rows]
        self.row_par = [0] * len(self.rows)
        self.odd_rows = 0
        self.ones = 0
        self.free = self.n
        self.ones_mask = 0
        self.hint = 0
        self.nodes = 0
        # each new one can clear at most this many odd rows
        self.max_rows_per_var = max((len(rs) for rs in self.var_rows), default=0)

    def _conflict_by_counts(self) -> bool:
        if self.ones > self.target:
            return True
        if self.ones + self.free < self.target:
            return True
        return self.odd_rows > self.max_rows_per_var * (self.target - self.ones)

    def _assign(self, var: int, val: int) -> bool:
        """Apply one assignment plus all propagation; False on conflict.

        Every applied assignment lands on the trail, so the caller can
        roll back to its mark after a conflict.
        """
        queue = deque([(var, val)])
        while queue:
            v, x = queue.popleft()
            cur = self.value[v]
            if cur != -1:
                if cur != x:
                    return False
                continue
            self.value[v] = x
            self.trail.append(v)
            self.free -= 1
            if x:
                self.ones += 1
                self.ones_mask |= 1 << v
            # finish the whole row pass before reporting a conflict: undo
            # reverses every row of v, so none may be left half-applied
            conflict = False
            for r in self.var_rows[v]:
                self.row_free[r] -= 1
                if x:
                    self.row_par[r] ^= 1
                    self.odd_rows += 1 if self.row_par[r] else -1
                free = self.row_free[r]
                if free == 0:
                    if self.row_par[r]:
                        conflict = True
                elif free == 1:
                    lone = next(u for u in self.rows[r] if self.value[u] == -1)
                    queue.append((lone, self.row_par[r]))
            if conflict or self._conflict_by_counts():
                return False
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            v = self.trail.pop()
            x = self.value[v]
            self.value[v] = -1
            self.free += 1
            if x:
                self.ones -= 1
                self.ones_mask &= ~(1 << v)
            for r in self.var_rows[v]:
                self.row_free[r] += 1
                if x:
                    self.odd_rows += -1 if self.row_par[r] else 1
                    self.row_par[r] ^= 1

    def _next_unassigned(self) -> int | None:
        v = self.hint
        while v < self.n and self.value[v] != -1:
            v += 1
        self.hint = v
        return v if v < self.n else None

    def _decision_values(self, var: int) -> tuple[int, ...]:
        # ones == target never gets here: solutions() yields or _conflict_by_counts rejects
        if self.ones + self.free == self.target:
            return (1,)
        return (0, 1)

    def _count_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise NodeLimitExceeded(
                f"node limit {self.node_limit} exceeded; search is incomplete"
            )

    def solutions(self) -> Iterator[int]:
        if self.target > self.free:
            return
        root = len(self.trail)
        ok = True
        for v, x in self.pins:
            if not self._assign(v, x):
                ok = False
                break
        if not ok:
            self._undo(root)
            return
        stack: list[_Frame] = []
        descend = True
        while True:
            if descend:
                # exact-count shortcut: remaining variables are all zero
                if self.ones == self.target and self.odd_rows == 0:
                    yield self.ones_mask
                    descend = False
                    continue
                var = self._next_unassigned()
                if var is None:
                    yield self.ones_mask
                    descend = False
                    continue
                frame = _Frame(var, self._decision_values(var), len(self.trail))
                stack.append(frame)
            else:
                if not stack:
                    self._undo(root)
                    return
                frame = stack[-1]
                frame.idx += 1
            self._undo(frame.mark)
            self.hint = frame.var
            descend = False
            while frame.idx < len(frame.vals):
                val = frame.vals[frame.idx]
                self._count_node()
                if self._assign(frame.var, val):
                    descend = True
                    break
                self._undo(frame.mark)
                frame.idx += 1
            if not descend:
                stack.pop()


def _column_weight(m: Gf2Matrix, j: int) -> int:
    return sum((row >> j) & 1 for row in m.bits)


def infer_order(bk: Gf2Matrix) -> int:
    """Order k of the cliques indexing B_k's columns (column weight - 1)."""
    if bk.cols == 0:
        raise ValueError("cannot infer order from an empty matrix")
    return _column_weight(bk, 0) - 1


class Split(NamedTuple):
    """select_oracle's split of the k-cliques, with the pivot columns of
    B_{k+1} it reads; each tuple ascending."""

    tree: tuple[int, ...]
    boundary_cols: tuple[int, ...]
    covered: tuple[int, ...]
    selection: SpanningSelection


def select_oracle(bk: Gf2Matrix, bk1: Gf2Matrix) -> Split:
    """Split k-cliques into tree, boundary-covered, and generator sets.

    The tree is the greedy pivot-column set of B_k. Each pivot column of
    B_{k+1} is projected onto the non-tree coordinates and reduced
    against the previously chosen projections; its pivot coordinate is
    the non-tree k-clique that boundary accounts for. The generators are
    the beta_k non-tree cliques left unaccounted.
    """
    k = infer_order(bk)
    rk = forward_rank_oracle(bk)
    tree = set(rk.pivot_cols)
    non_tree = [j for j in range(bk.cols) if j not in tree]
    non_tree_mask = 0
    for j in non_tree:
        non_tree_mask |= 1 << j
    rk1 = forward_rank_oracle(bk1) if bk1.cols else None
    boundary_cols = rk1.pivot_cols if rk1 else []
    columns = bk1.column_vectors() if bk1.cols else []
    covered: list[int] = []
    proj_basis: dict[int, int] = {}
    for c in boundary_cols:
        proj = columns[c] & non_tree_mask
        while proj:
            low = proj & -proj
            if low not in proj_basis:
                proj_basis[low] = proj
                covered.append(low.bit_length() - 1)
                break
            proj ^= proj_basis[low]
        else:
            raise AssertionError(
                f"boundary column {c} vanished on non-tree coordinates"
            )
    covered_set = set(covered)
    generators = [j for j in non_tree if j not in covered_set]
    # tree, covered, and generators must partition the k-clique indices
    assert len(tree) + len(covered_set) + len(generators) == bk.cols
    assert not tree & covered_set
    return Split(
        tuple(rk.pivot_cols),
        tuple(boundary_cols),
        tuple(sorted(covered)),
        SpanningSelection(k, tuple(generators)),
    )


class Cavities(NamedTuple):
    """find_cavities_oracle's certificates, and the nodes of each one's
    cliques, ascending."""

    certificates: list[CavityCertificate]
    nodes: list[list[int]]


def find_cavities_oracle(
    bk: Gf2Matrix,
    bk1: Gf2Matrix,
    sel: SpanningSelection,
    cliques: Sequence[Clique],
    node_limit: int | None = None,
) -> Cavities:
    """One minimal independent certificate per generator clique, and its
    nodes read off cliques, the k-cliques.

    Generators are processed in ascending index order. For each length on
    the schedule, which runs up to the number of k-cliques, the cycles
    through the generator with exactly that many ones are enumerated in
    lexicographic order, and the first one that raises the rank of
    (accepted certificates | B_{k+1} columns) is accepted. node_limit caps
    the solver's decision nodes per program (default:
    solver.DEFAULT_NODE_LIMIT).
    """
    # imported here: `cliquecav verify` loads this module but never searches
    from cliquecav.solver import DEFAULT_NODE_LIMIT, ZeroOneProgram, iter_solutions

    if node_limit is None:
        node_limit = DEFAULT_NODE_LIMIT
    k = sel.order
    if not sel.generator_cliques:
        return Cavities([], [])
    basis = dict(column_space_basis(bk1))
    ceiling = bk.cols
    program = ZeroOneProgram(bk.cols, [row for row in bk.bits if row])
    accepted: list[CavityCertificate] = []
    node_sets: list[list[int]] = []
    for v in sel.generator_cliques:
        found = None
        for length in length_schedule(k, ceiling):
            for mask in iter_solutions(program, v, length, node_limit):
                if basis_insert(basis, mask):
                    nodes = set()
                    for j in bit_indices(mask):
                        nodes.update(cliques[j])
                    found = CavityCertificate(order=k, indicator=mask, generator=v)
                    node_sets.append(sorted(nodes))
                    break
            if found is not None:
                accepted.append(found)
                break
        if found is None:
            raise CavitySearchError(
                f"no independent cycle through generator {v} up to length {ceiling} "
                f"({len(accepted)} certificates of that order found)"
            )
    return Cavities(accepted, node_sets)


def verify_certificate_oracle(
    cert: CavityCertificate,
    bk: Gf2Matrix,
    bk1: Gf2Matrix,
    prior: Sequence[CavityCertificate] = (),
) -> str | None:
    """Re-check a certificate from scratch: the failed constraint's name,
    or None.

    Checks, in order: the indicator fits B_k; the generator bit is set;
    the indicator is a GF(2) cycle of B_k; adjoining the indicator after
    all prior certificates to the B_{k+1} column space raises the rank
    each time; the number of ones is at least the order-k minimum
    2^(k+1). A clique boundary therefore fails on independence, not on
    length.
    """
    x = cert.indicator
    if x < 0 or x >> bk.cols:
        return "dimension"
    if not (x >> cert.generator) & 1:
        return "generator-membership"
    for row in bk.bits:
        if (row & x).bit_count() & 1:
            return "cycle"
    basis = dict(column_space_basis(bk1))
    for p in prior:
        if not basis_insert(basis, p.indicator):
            return "independence"
    if not basis_insert(basis, x):
        return "independence"
    if bin(x).count("1") < 2 ** (cert.order + 1):
        return "length"
    return None


def cavities_bruteforce(bk: Gf2Matrix, bk1: Gf2Matrix, generators: Sequence[int]) -> list[int]:
    """The indicators find_cavities accepts, read off a list of every cycle.

    Column elimination of B_k gives a basis of its nullspace, the cycle
    space, of dimension d = m_k - r_k, and all 2^d - 1 nonzero cycles are
    listed. For each generator in order, the accepted cycle is the one
    through it with the fewest ones that is independent of the columns of
    B_{k+1} and of the cycles accepted before. Ties go to the solver's
    lexicographic order: at the lowest index where two cycles differ, the
    one with a 0 comes first, so the smaller bit-reversed int wins. No
    solver and no length schedule.
    """
    n = bk.cols
    # eliminate on the highest set bit, carrying the columns each sum is made of
    pivots: dict[int, tuple[int, int]] = {}
    nullspace = []
    for j, col in enumerate(bk.column_vectors()):
        combo = 1 << j
        while col and col.bit_length() in pivots:
            pcol, pcombo = pivots[col.bit_length()]
            col, combo = col ^ pcol, combo ^ pcombo
        if col:
            pivots[col.bit_length()] = (col, combo)
        else:
            nullspace.append(combo)
    cycles = [0]
    for z in nullspace:
        cycles += [c ^ z for c in cycles]
    cycles = sorted(cycles[1:], key=lambda c: (bin(c).count("1"), int(f"{c:0{n}b}"[::-1], 2)))

    span = dict(column_space_basis(bk1))
    accepted = []
    for g in generators:
        found = next((c for c in cycles if (c >> g) & 1 and basis_insert(span, c)), None)
        if found is None:
            raise AssertionError(f"no independent cycle through generator {g}")
        accepted.append(found)
    return accepted
