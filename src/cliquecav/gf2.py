"""Dense bitset matrices over GF(2): boundary matrices, ranks, Betti numbers."""

from __future__ import annotations

from typing import Collection, NamedTuple

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
    """Row-major bitset matrix: bit j of bits[i] is entry (i, j), so the
    matrix has len(bits) rows."""

    __slots__ = ("cols", "bits")

    def __init__(self, cols: int, bits: list[int]) -> None:
        self.cols = cols
        self.bits = bits

    def column_vectors(self) -> list[int]:
        """Transpose: one int per column, bit i = row i."""
        cols = [0] * self.cols
        for i, v in enumerate(self.bits):
            for j in bit_indices(v):
                cols[j] |= 1 << i
        return cols


class RankResult(NamedTuple):
    pivot_cols: list[int]
    pivot_rows: list[int]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


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
    return Gf2Matrix(len(cells), bits)


def basis_insert(basis: dict[int, int], v: int) -> bool:
    """Reduce v against basis (keyed by lowest set bit); insert if independent."""
    while v:
        low = v & -v
        if low not in basis:
            basis[low] = v
            return True
        v ^= basis[low]
    return False


def gf2_rank(m: Gf2Matrix, *, cleared: Collection[int] = frozenset()) -> RankResult:
    """Rank, pivot columns and pivot rows by forward elimination only.

    pivot_cols is the left-to-right greedy independent column set, in
    ascending order: the lowest set bits of the forward-eliminated rows.
    They are the pivot columns of the reduced row-echelon form, which is
    never built, since back-substitution leaves each row's lowest bit alone.

    Rows whose index is in cleared are skipped. Each must be a sum of rows
    with higher indices, as the pivot columns of B_{k-1} are for B_k; then
    the kept rows span the same row space, and rank and pivot_cols are
    those of the whole matrix. pivot_rows are the kept rows that raised
    the rank: the non-cleared rows independent of the non-cleared rows
    above them.
    """
    basis: dict[int, int] = {}
    rows = []
    for i, v in enumerate(m.bits):
        if i not in cleared and basis_insert(basis, v):
            rows.append(i)
    return RankResult(sorted(low.bit_length() - 1 for low in basis), rows)


def column_space_basis(m: Gf2Matrix) -> dict[int, int]:
    """Basis of the column space, columns read as ints over row indices and
    keyed by lowest set bit; a new dict on every call."""
    basis: dict[int, int] = {}
    for col in m.column_vectors():
        basis_insert(basis, col)
    return basis


class HomologyProfile(NamedTuple):
    """Per-order clique counts and boundary ranks, and what they give:
    Betti numbers and chi.

    r has one entry per order 0..K with r[0] = 0; ranks past the top
    order are zero by convention. Each property is computed on every
    read, so a loop binds it once.
    """

    m: tuple[int, ...]
    r: tuple[int, ...]

    @property
    def beta(self) -> tuple[int, ...]:
        """beta[k] = m[k] - r[k] - r[k+1]."""
        r = self.r + (0,)
        return tuple(m - r[k] - r[k + 1] for k, m in enumerate(self.m))

    @property
    def chi(self) -> int:
        return euler_characteristic(self.m)

    @property
    def euler_poincare_ok(self) -> bool:
        """Whether the alternating sum of beta equals chi. Always true
        until beta is computed apart from r (the strong collapse planned
        in ROADMAP.md): beta comes from the ranks r, so its alternating
        sum telescopes to that of m."""
        return euler_characteristic(self.beta) == self.chi


def _spanning_forest(cx: CliqueComplex) -> RankResult:
    """The RankResult of B_1, read off a union-find spanning forest.

    The edges it keeps, in edge order, are the greedy independent columns
    of B_1, so its pivot columns, and there are rank B_1 = n - beta_0 of
    them. The rows of a component sum to zero and no fewer of them do, so
    forward elimination keeps every node row but its component's last.
    """
    nodes = [u for (u,) in cx.levels[0]]
    parent = list(range(nodes[-1] + 1))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    forest = []
    for j, (u, v) in enumerate(cx.levels[1]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            forest.append(j)
    last = set({find(u): i for i, u in enumerate(nodes)}.values())
    return RankResult(forest, [i for i in range(len(nodes)) if i not in last])


class Boundaries:
    """B_k and its RankResult for each order k of one complex, each
    computed at most once, on first use.

    rank(1) is the spanning forest, and B_1 is never reduced. rank(k) for
    k >= 2 reduces B_k with clearing (Chen and Kerber 2011): the pivot
    columns of B_{k-1} are lowest set bits of vectors y in its row space,
    and y B_k = 0 makes each such row of B_k a sum of rows with higher
    indices, so gf2_rank skips them. matrix(k) past the top order is the
    rows x 0 matrix. With keep_matrices=False a matrix is dropped once it
    is ranked, so the profile alone holds one B_k at a time.
    """

    __slots__ = ("cx", "keep_matrices", "_matrices", "_ranks")

    def __init__(self, cx: CliqueComplex, keep_matrices: bool = True) -> None:
        self.cx = cx
        self.keep_matrices = keep_matrices
        self._matrices: dict[int, Gf2Matrix] = {}
        self._ranks: dict[int, RankResult] = {}

    def matrix(self, k: int) -> Gf2Matrix:
        m = self._matrices.get(k)
        if m is None:
            if k > self.cx.top_order:
                m = Gf2Matrix(0, [0] * self.cx.counts[k - 1])
            else:
                m = build_boundary_matrix(self.cx, k)
            if self.keep_matrices:
                self._matrices[k] = m
        return m

    def rank(self, k: int) -> RankResult:
        result = self._ranks.get(k)
        if result is None:
            if k == 1:
                result = _spanning_forest(self.cx)
            else:
                cleared = set(self.rank(k - 1).pivot_cols)
                result = gf2_rank(self.matrix(k), cleared=cleared)
            self._ranks[k] = result
        return result


def homology_profile(cx: CliqueComplex, boundaries: Boundaries | None = None) -> HomologyProfile:
    """Compute all boundary ranks and Betti numbers of a clique complex.

    The ranks come from boundaries (default: a new Boundaries(cx) that
    keeps no matrix): r_1 from the spanning forest, and r_k for k >= 2
    from B_k reduced with the pivot columns of B_{k-1} cleared. Clearing
    skips only rows that the kept rows span, so every rank and pivot
    column equals plain forward elimination.
    """
    top = len(cx.levels) - 1
    if boundaries is None:
        boundaries = Boundaries(cx, keep_matrices=False)
    r = [0] * (top + 1)
    for k in range(1, top + 1):
        r[k] = boundaries.rank(k).rank
    profile = HomologyProfile(cx.counts, tuple(r))
    for k, b in enumerate(profile.beta):
        if b < 0:
            raise AssertionError(f"negative Betti number at order {k}")
    return profile
