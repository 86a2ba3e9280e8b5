"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive and written differently from the
library code: different algorithms, different data layouts, no shared
helpers. Slow is fine; wrong is not.

The exceptions are select_oracle, find_cavities_oracle and
verify_certificate_oracle: the cavity stage without a shared per-order
BoundaryContext, kept verbatim as its reference. Every call rebuilds what
it reads (ranks, transposes, column bases, and the prior certificates'
basis), so they stand apart from the context's single column pass.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

from cliquecav import BudgetExceeded, CliqueComplex, Network, network_from_edges
from cliquecav.cavities import (
    CavityCertificate,
    CavitySearchError,
    SpanningSelection,
    VerifyResult,
    _parity_rows,
    length_schedule,
)
from cliquecav.cliques import Clique
from cliquecav.gf2 import Gf2Matrix, basis_insert, bit_indices, column_space_basis, gf2_rank
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


def _column_weight(m: Gf2Matrix, j: int) -> int:
    return sum((row >> j) & 1 for row in m.bits)


def infer_order(bk: Gf2Matrix) -> int:
    """Order k of the cliques indexing B_k's columns (column weight - 1)."""
    if bk.cols == 0:
        raise ValueError("cannot infer order from an empty matrix")
    return _column_weight(bk, 0) - 1


def select_oracle(bk: Gf2Matrix, bk1: Gf2Matrix) -> SpanningSelection:
    """Split k-cliques into tree, boundary-covered, and generator sets.

    The tree is the greedy pivot-column set of B_k. Each pivot column of
    B_{k+1} is projected onto the non-tree coordinates and reduced
    against the previously chosen projections; its pivot coordinate is
    the non-tree k-clique that boundary accounts for. The generators are
    the beta_k non-tree cliques left unaccounted.
    """
    k = infer_order(bk)
    rk = gf2_rank(bk)
    tree = set(rk.pivot_cols)
    non_tree = [j for j in range(bk.cols) if j not in tree]
    non_tree_mask = 0
    for j in non_tree:
        non_tree_mask |= 1 << j
    rk1 = gf2_rank(bk1) if bk1.cols else None
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
    return SpanningSelection(
        k,
        tuple(rk.pivot_cols),
        tuple(boundary_cols),
        tuple(sorted(covered)),
        tuple(generators),
    )


def find_cavities_oracle(
    bk: Gf2Matrix,
    bk1: Gf2Matrix,
    sel: SpanningSelection,
    cliques: Sequence[Clique],
    node_limit: int | None = None,
    length_ceiling: int | None = None,
) -> list[CavityCertificate]:
    """One minimal independent certificate per generator clique.

    Generators are processed in ascending index order. For each length on
    the schedule, the cycles through the generator with exactly that many
    ones are enumerated in lexicographic order, and the first one that
    raises the rank of (accepted certificates | B_{k+1} columns) is
    accepted. node_limit caps the solver's decision nodes per program
    (default: solver.DEFAULT_NODE_LIMIT); the schedule stops at
    length_ceiling (default: the number of k-cliques).
    """
    # imported here: `cliquecav verify` loads this module but never searches
    from cliquecav.solver import DEFAULT_NODE_LIMIT, ZeroOneProgram, iter_solutions

    if node_limit is None:
        node_limit = DEFAULT_NODE_LIMIT
    k = sel.order
    if not sel.generator_cliques:
        return []
    basis = dict(column_space_basis(bk1))
    r_next = len(basis)
    ceiling = length_ceiling if length_ceiling is not None else bk.cols
    rows = _parity_rows(bk)
    accepted: list[CavityCertificate] = []
    for v in sel.generator_cliques:
        found = None
        for length in length_schedule(k, ceiling):
            program = ZeroOneProgram(
                num_vars=bk.cols,
                parity_rows=rows,
                fixed=[(v, 1)],
                cardinality=length,
            )
            for mask in iter_solutions(program, node_limit):
                if basis_insert(basis, mask):
                    nodes = set()
                    for j in bit_indices(mask):
                        nodes.update(cliques[j])
                    found = CavityCertificate(
                        order=k,
                        indicator=mask,
                        generator=v,
                        length=length,
                        node_set=tuple(sorted(nodes)),
                        rank_evidence=r_next + len(accepted) + 1,
                    )
                    break
            if found is not None:
                accepted.append(found)
                break
        if found is None:
            raise CavitySearchError(
                f"no independent cycle through generator {v} up to length {ceiling}",
                accepted,
            )
    return accepted


def verify_certificate_oracle(
    cert: CavityCertificate,
    bk: Gf2Matrix,
    bk1: Gf2Matrix,
    prior: Sequence[CavityCertificate] = (),
) -> VerifyResult:
    """Re-check a certificate from scratch, naming the failed constraint.

    Checks, in order: the generator bit is set; the indicator is a GF(2)
    cycle of B_k; adjoining the indicator after all prior certificates to
    the B_{k+1} column space raises the rank each time; the recorded
    length is the popcount and is at least the order-k minimum 2^(k+1).
    A clique boundary therefore fails on independence, not on length.
    """
    x = cert.indicator
    if x < 0 or x >> bk.cols:
        return VerifyResult(False, "dimension")
    if not (x >> cert.generator) & 1:
        return VerifyResult(False, "generator-membership")
    for row in bk.bits:
        if (row & x).bit_count() & 1:
            return VerifyResult(False, "cycle")
    basis = dict(column_space_basis(bk1))
    for p in prior:
        if not basis_insert(basis, p.indicator):
            return VerifyResult(False, "independence")
    if not basis_insert(basis, x):
        return VerifyResult(False, "independence")
    if x.bit_count() != cert.length or cert.length < 2 ** (cert.order + 1):
        return VerifyResult(False, "length")
    return VerifyResult(True)
