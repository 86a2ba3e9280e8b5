"""Dense bitset matrices over GF(2): boundary matrices, ranks, Betti numbers."""

from __future__ import annotations

from typing import NamedTuple

from .cliques import CliqueComplex, euler_characteristic


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Gf2Matrix:
    """Row-major bitset matrix: bit j of bits[i] is entry (i, j)."""

    __slots__ = ("rows", "cols", "bits", "_col_basis")

    def __init__(self, rows: int, cols: int, bits: list[int]) -> None:
        if len(bits) != rows:
            raise ValueError("bits length disagrees with row count")
        self.rows = rows
        self.cols = cols
        self.bits = bits
        self._col_basis: dict[int, int] | None = None

    def entry(self, i: int, j: int) -> int:
        return (self.bits[i] >> j) & 1

    def column_vectors(self) -> list[int]:
        """Transpose: one int per column, bit i = row i."""
        cols = [0] * self.cols
        for i, v in enumerate(self.bits):
            for j in bit_indices(v):
                cols[j] |= 1 << i
        return cols


class RankResult(NamedTuple):
    rank: int
    pivot_cols: list[int]


def zero_cols_matrix(rows: int) -> Gf2Matrix:
    """A rows x 0 matrix; stands in for the boundary above the top order."""
    return Gf2Matrix(rows, 0, [0] * rows)


def build_boundary_matrix(cx: CliqueComplex, k: int) -> Gf2Matrix:
    """Incidence of (k-1)-cliques (rows) against k-cliques (columns).

    Entry (i, j) = 1 iff row clique i is a face of column clique j; every
    column therefore carries exactly k+1 ones.
    """
    if k < 1:
        raise ValueError("boundary order must be >= 1")
    if k >= len(cx.levels) or k - 1 >= len(cx.levels):
        raise ValueError(f"complex has no level {k}")
    faces = cx.levels[k - 1]
    cells = cx.levels[k]
    face_index = {c: i for i, c in enumerate(faces)}
    bits = [0] * len(faces)
    for j, cell in enumerate(cells):
        for drop in range(len(cell)):
            face = cell[:drop] + cell[drop + 1 :]
            bits[face_index[face]] |= 1 << j
    return Gf2Matrix(len(faces), len(cells), bits)


def basis_insert(basis: dict[int, int], v: int) -> bool:
    """Reduce v against basis (keyed by lowest set bit); insert if independent."""
    while v:
        low = v & -v
        if low not in basis:
            basis[low] = v
            return True
        v ^= basis[low]
    return False


def gf2_rank(m: Gf2Matrix) -> RankResult:
    """Rank and pivot columns by forward elimination only.

    pivot_cols is the left-to-right greedy independent column set, in
    ascending order: the lowest set bits of the forward-eliminated rows.
    They are the pivot columns of the reduced row-echelon form, which is
    never built, since back-substitution leaves each row's lowest bit alone.
    """
    basis: dict[int, int] = {}
    for v in m.bits:
        basis_insert(basis, v)
    return RankResult(len(basis), sorted(low.bit_length() - 1 for low in basis))


def column_space_basis(m: Gf2Matrix) -> dict[int, int]:
    """Basis of the column space, columns read as ints over row indices.

    Cached on the matrix; callers must copy before mutating.
    """
    if m._col_basis is None:
        basis: dict[int, int] = {}
        for col in m.column_vectors():
            basis_insert(basis, col)
        m._col_basis = basis
    return m._col_basis


def multiply(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """GF(2) matrix product: row i of the result is the XOR of b's rows
    selected by the set bits of row i of a."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    bits = []
    for row in a.bits:
        acc = 0
        for j in bit_indices(row):
            acc ^= b.bits[j]
        bits.append(acc)
    return Gf2Matrix(a.rows, b.cols, bits)


class HomologyProfile(NamedTuple):
    """Per-order clique counts, boundary ranks, Betti numbers, and chi.

    r has one entry per order 0..K with r[0] = 0; ranks past the top
    order are zero by convention. beta[k] = m[k] - r[k] - r[k+1].
    """

    m: tuple[int, ...]
    r: tuple[int, ...]
    beta: tuple[int, ...]
    chi: int
    euler_poincare_ok: bool


def _edge_rank(cx: CliqueComplex) -> int:
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


def homology_profile(cx: CliqueComplex) -> HomologyProfile:
    """Compute all boundary ranks and Betti numbers of a clique complex.

    r_1 comes from a union-find over the edges; higher ranks from
    forward elimination of B_k.
    """
    top = len(cx.levels) - 1
    if top < 0:
        return HomologyProfile((), (), (), 0, True)
    r = [0] * (top + 1)
    if top >= 1:
        r[1] = _edge_rank(cx)
    for k in range(2, top + 1):
        r[k] = gf2_rank(build_boundary_matrix(cx, k)).rank
    beta = []
    for k in range(top + 1):
        nxt = r[k + 1] if k + 1 <= top else 0
        b = cx.counts[k] - r[k] - nxt
        if b < 0:
            raise AssertionError(f"negative Betti number at order {k}")
        beta.append(b)
    chi = euler_characteristic(cx).chi
    chi_beta = sum(b if k % 2 == 0 else -b for k, b in enumerate(beta))
    return HomologyProfile(tuple(cx.counts), tuple(r), tuple(beta), chi, chi_beta == chi)
