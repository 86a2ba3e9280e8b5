"""Cavity search over a clique complex.

A k-cavity certificate is a 0-1 vector over k-cliques that is a GF(2)
cycle, passes through its generator clique, has exactly L ones, and is
linearly independent of the (k+1)-clique boundaries together with all
previously accepted certificates. spanning_selection reads the
generators off the profile's ranks; minimal representatives are found by
exact-length 0-1 search over an increasing length schedule.

Search and the re-check of order k share one BoundaryContext (B_k and a
basis of B_{k+1}'s column space); find_cavities and verify_certificate
each wrap a throwaway one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .cliques import Clique, CliqueComplex
from .gf2 import Gf2Matrix, RankResult, basis_insert, bit_indices, column_space_basis, gf2_rank


class CavitySearchError(RuntimeError):
    """Search exhausted its length ceiling; carries the partial result,
    whose size ends the message."""

    def __init__(self, message: str, partial: list[CavityCertificate]):
        super().__init__(f"{message} ({len(partial)} certificates of that order found)")
        self.partial = partial


class SpanningSelection(NamedTuple):
    """Deterministic split of the k-clique index set.

    tree_cols: pivot columns of B_k (the order-k spanning selection).
    boundary_cols: pivot columns of B_{k+1}.
    covered_cliques: pivot rows of B_{k+1} reduced with the tree cleared:
        the non-tree k-cliques independent of the non-tree ones before them.
    generator_cliques: the remaining non-tree k-cliques, which that
        reduction finds dependent; one per cavity.
    """

    order: int
    tree_cols: tuple[int, ...]
    boundary_cols: tuple[int, ...]
    covered_cliques: tuple[int, ...]
    generator_cliques: tuple[int, ...]


class CavityCertificate(NamedTuple):
    order: int
    indicator: int  # bitmask over k-clique indices
    generator: int  # k-clique index with the indicator bit set
    length: int
    node_set: tuple[int, ...]
    rank_evidence: int | None = None

    def support(self) -> list[int]:
        return bit_indices(self.indicator)


class VerifyResult(NamedTuple):
    ok: bool
    failed: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class BoundaryContext:
    """What search and the re-check of one order k both read.

    Holds k, B_k, and basis, which spans the column space of B_{k+1}.
    verified is that basis extended by every certificate that recheck
    passed. Build one per order and run; consecutive orders can share
    their middle matrix.
    """

    __slots__ = ("order", "bk", "basis", "verified")

    def __init__(self, order: int, bk: Gf2Matrix, bk1: Gf2Matrix) -> None:
        self.order = order
        self.bk = bk
        self.basis = column_space_basis(bk1)
        self.verified = dict(self.basis)

    def search(
        self,
        sel: SpanningSelection,
        cliques: Sequence[Clique],
        node_limit: int | None = None,
        length_ceiling: int | None = None,
    ) -> list[CavityCertificate]:
        """One minimal independent certificate per generator clique of sel.

        Generators are processed in ascending index order. For each length
        on the schedule, the cycles through the generator with exactly that
        many ones are enumerated in lexicographic order, and the first one
        that raises the rank of (accepted certificates | B_{k+1} columns) is
        accepted. node_limit caps the solver's decision nodes per program
        (default: solver.DEFAULT_NODE_LIMIT); the schedule stops at
        length_ceiling (default: the number of k-cliques).
        """
        # imported here: `cliquecav verify` loads this module but never searches
        from .solver import DEFAULT_NODE_LIMIT, ZeroOneProgram, iter_solutions

        if node_limit is None:
            node_limit = DEFAULT_NODE_LIMIT
        basis = dict(self.basis)
        ceiling = length_ceiling if length_ceiling is not None else self.bk.cols
        # one program for every generator and length: the solver derives
        # the row incidence on the first search and keeps it on the program
        program = ZeroOneProgram(self.bk.cols, _parity_rows(self.bk))

        def cycles(v: int, length: int):
            program.fixed, program.cardinality = [(v, 1)], length
            return iter_solutions(program, node_limit)

        accepted: list[CavityCertificate] = []
        for v in sel.generator_cliques:
            found = next(
                (
                    (length, mask)
                    for length in length_schedule(self.order, ceiling)
                    for mask in cycles(v, length)
                    if basis_insert(basis, mask)
                ),
                None,
            )
            if found is None:
                raise CavitySearchError(
                    f"no independent cycle through generator {v} up to length {ceiling}",
                    accepted,
                )
            length, mask = found
            nodes = {u for j in bit_indices(mask) for u in cliques[j]}
            # rank_evidence: the rank of B_{k+1}'s columns and the certificates so far
            cert = CavityCertificate(self.order, mask, v, length, tuple(sorted(nodes)), len(basis))
            accepted.append(cert)
        return accepted

    def _malformed(self, cert: CavityCertificate) -> str | None:
        """The first of dimension, generator-membership and cycle that cert
        fails, or None."""
        x = cert.indicator
        if x < 0 or x >> self.bk.cols:
            return "dimension"
        if not (x >> cert.generator) & 1:
            return "generator-membership"
        if any((row & x).bit_count() & 1 for row in self.bk.bits):
            return "cycle"
        return None

    def recheck(self, cert: CavityCertificate) -> VerifyResult:
        """Re-check cert against B_k, B_{k+1} and the certificates that
        passed before it, naming the failed constraint; a pass joins verified.

        Checks, in order: the indicator fits B_k; the generator bit is set;
        the indicator is a GF(2) cycle of B_k; it is independent of
        verified; the recorded length is the popcount and is at least the
        order-k minimum 2^(k+1). A clique boundary therefore fails on
        independence, not on length.
        """
        failed = self._malformed(cert)
        if failed:
            return VerifyResult(False, failed)
        x = cert.indicator
        if not basis_insert(self.verified, x):
            return VerifyResult(False, "independence")
        if x.bit_count() != cert.length or cert.length < 2 ** (cert.order + 1):
            self.verified.popitem()  # the entry basis_insert just added
            return VerifyResult(False, "length")
        return VerifyResult(True)


def spanning_selection(order: int, m_k: int, below: RankResult,
                       above: RankResult) -> SpanningSelection:
    """Split the m_k k-cliques into tree, covered and generator sets.

    below is the RankResult of B_k, and above that of B_{k+1} reduced with
    below's pivot columns, the tree, cleared. above's pivot rows are then
    the non-tree cliques that B_{k+1}'s columns account for, and the
    beta_k non-tree cliques it finds dependent are the generators.
    """
    tree, covered = set(below.pivot_cols), set(above.pivot_rows)
    assert tree.isdisjoint(covered), "B_{k+1} was reduced without the tree cleared"
    generators = tuple(j for j in range(m_k) if j not in tree and j not in covered)
    return SpanningSelection(order, tuple(below.pivot_cols), tuple(above.pivot_cols),
                             tuple(above.pivot_rows), generators)


def select_spanning_and_generators(bk: Gf2Matrix, bk1: Gf2Matrix) -> SpanningSelection:
    """spanning_selection from fresh ranks of B_k and B_{k+1}. The order k
    is read off B_k, whose columns each hold k + 1 ones."""
    if bk.cols == 0:
        raise ValueError("cannot infer order from an empty matrix")
    k = sum(row & 1 for row in bk.bits) - 1
    below = gf2_rank(bk)
    return spanning_selection(k, bk.cols, below, gf2_rank(bk1, cleared=set(below.pivot_cols)))


def _parity_rows(bk: Gf2Matrix) -> list[list[int]]:
    return [bit_indices(bits) for bits in bk.bits if bits]


def length_schedule(k: int, ceiling: int):
    """Candidate lengths from 2^(k+1) up to ceiling.

    Each of a k-cycle's L cliques has k + 1 faces, and each face lies in
    an even number of them, so (k + 1) * L is even. Even k therefore needs
    an even L, while odd k allows any L (the join of two 5-cycles has one
    order-3 cycle, of length 25): the step is 2 for even k, 1 for odd k.
    """
    step = 2 if k % 2 == 0 else 1
    length = 2 ** (k + 1)
    while length <= ceiling:
        yield length
        length += step


def find_cavities(
    bk: Gf2Matrix,
    bk1: Gf2Matrix,
    sel: SpanningSelection,
    cliques: Sequence[Clique],
    node_limit: int | None = None,
    length_ceiling: int | None = None,
) -> list[CavityCertificate]:
    """BoundaryContext.search on a throwaway context of order sel.order."""
    return BoundaryContext(sel.order, bk, bk1).search(sel, cliques, node_limit, length_ceiling)


def verify_certificate(
    cert: CavityCertificate,
    bk: Gf2Matrix,
    bk1: Gf2Matrix,
    prior: Sequence[CavityCertificate] = (),
) -> VerifyResult:
    """BoundaryContext.recheck on a throwaway context that has passed the
    prior certificates. A prior certificate that is dependent fails cert on
    independence, unless cert already fails one of the checks before it.
    """
    ctx = BoundaryContext(cert.order, bk, bk1)
    for p in prior:
        if not basis_insert(ctx.verified, p.indicator):
            return VerifyResult(False, ctx._malformed(cert) or "independence")
    return ctx.recheck(cert)


def certificate_from_cliques(
    level: Sequence[Clique],
    order: int,
    members: Sequence[Clique],
    generator: Clique,
) -> CavityCertificate:
    """Build a certificate from explicit clique node-tuples for verification."""
    index = {c: i for i, c in enumerate(level)}
    mask = 0
    nodes: set[int] = set()
    for c in members:
        key = tuple(sorted(c))
        if key not in index:
            raise ValueError(f"{key} is not an order-{order} clique of the complex")
        mask |= 1 << index[key]
        nodes.update(key)
    gen_key = tuple(sorted(generator))
    if gen_key not in index:
        raise ValueError(f"generator {gen_key} is not an order-{order} clique")
    return CavityCertificate(
        order=order,
        indicator=mask,
        generator=index[gen_key],
        length=mask.bit_count(),
        node_set=tuple(sorted(nodes)),
    )


def certificates_to_json(
    certs: Sequence[CavityCertificate],
    cx: CliqueComplex,
    labels: Sequence[str],
) -> list[dict]:
    """Export: [{"order", "generator", "cliques", "length", "nodes"}, ...]."""
    out = []
    for cert in certs:
        level = cx.levels[cert.order]
        out.append(
            {
                "order": cert.order,
                "generator": [labels[u] for u in level[cert.generator]],
                "cliques": [[labels[u] for u in level[j]] for j in cert.support()],
                "length": cert.length,
                "nodes": [labels[u] for u in cert.node_set],
            }
        )
    return out


def certificate_from_json(
    entry: dict,
    cx: CliqueComplex,
    index: Mapping[str, int],
) -> CavityCertificate:
    """Rebuild one entry exported by certificates_to_json.

    index maps node labels to ids (Network.label_index()); labels are read
    through str(). Raises KeyError for a missing field or unknown label,
    and ValueError for an order or length that is not a JSON integer, an
    order outside 1..top_order, a clique the complex lacks, or a length or
    node list that disagrees with the cliques.
    """
    order = _json_int(entry, "order")
    if not 1 <= order <= cx.top_order:
        raise ValueError(f"no order-{order} cliques in this network")
    members = [tuple(sorted(index[str(u)] for u in c)) for c in entry["cliques"]]
    generator = tuple(sorted(index[str(u)] for u in entry["generator"]))
    cert = certificate_from_cliques(cx.levels[order], order, members, generator)
    if cert.length != _json_int(entry, "length"):
        raise ValueError(f"claimed length {entry['length']}, listed {cert.length} cliques")
    if tuple(sorted(index[str(u)] for u in entry["nodes"])) != cert.node_set:
        raise ValueError("node list disagrees with the cliques")
    return cert


def _json_int(entry: dict, field: str) -> int:
    """entry[field], which must be a JSON integer (a bool is not one)."""
    if type(value := entry[field]) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def certificate_to_dot(
    cert: CavityCertificate,
    cx: CliqueComplex,
    labels: Sequence[str],
    name: str,
) -> str:
    """DOT rendering of the cavity's node-edge skeleton."""
    # \ before ", so that a label ending in \ cannot escape its closing quote
    quoted = {u: '"' + labels[u].replace("\\", "\\\\").replace('"', '\\"') + '"'
              for u in cert.node_set}
    level = cx.levels[cert.order]
    edges: set[tuple[int, int]] = set()
    for j in cert.support():
        for u, v in combinations(level[j], 2):
            edges.add((u, v))
    lines = [f"graph {name} {{"]
    lines.append(f'  label="order {cert.order} cavity, length {cert.length}";')
    for u in cert.node_set:
        lines.append(f"  {quoted[u]};")
    for u, v in sorted(edges):
        lines.append(f"  {quoted[u]} -- {quoted[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
