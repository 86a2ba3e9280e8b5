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
    """No independent cycle through a generator on the length schedule,
    which runs up to m_k; a guard, since each generator has one. Carries
    the partial result, whose size ends the message."""

    def __init__(self, message: str, partial: list[CavityCertificate]):
        super().__init__(f"{message} ({len(partial)} certificates of that order found)")
        self.partial = partial


class SpanningSelection(NamedTuple):
    """The generator k-cliques of order k, one per cavity, ascending.

    They are the k-cliques in neither the tree, the pivot columns of B_k,
    nor the covered set, the pivot rows of B_{k+1} reduced with the tree
    cleared; both sets are read off those RankResults.
    """

    order: int
    generator_cliques: tuple[int, ...]


class CavityCertificate(NamedTuple):
    order: int
    indicator: int  # bitmask over k-clique indices
    generator: int  # k-clique index with the indicator bit set
    node_set: tuple[int, ...]

    @property
    def length(self) -> int:
        return self.indicator.bit_count()

    def support(self) -> list[int]:
        return bit_indices(self.indicator)


class VerifyResult(NamedTuple):
    """The constraint a re-check failed, or None; true iff it passed."""

    failed: str | None = None

    def __bool__(self) -> bool:
        return self.failed is None


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
    ) -> list[CavityCertificate]:
        """One minimal independent certificate per generator clique of sel.

        Generators are processed in ascending index order. For each length
        on the schedule, which runs up to the number of k-cliques, the
        cycles through the generator with exactly that many ones are
        enumerated in lexicographic order, and the first one that raises
        the rank of (accepted certificates | B_{k+1} columns) is accepted.
        node_limit caps the solver's decision nodes per program (default:
        solver.DEFAULT_NODE_LIMIT). Raises CavitySearchError if a generator
        has no such cycle on the schedule.
        """
        # imported here: `cliquecav verify` loads this module but never searches
        from .solver import DEFAULT_NODE_LIMIT, ZeroOneProgram, iter_solutions

        if node_limit is None:
            node_limit = DEFAULT_NODE_LIMIT
        basis = dict(self.basis)
        lengths = list(length_schedule(self.order, self.bk.cols))
        # one program, and one row incidence, for every generator and length
        program = ZeroOneProgram(self.bk.cols, _parity_rows(self.bk))

        def cycles(v: int, length: int):
            program.fixed, program.cardinality = [(v, 1)], length
            return iter_solutions(program, node_limit)

        accepted: list[CavityCertificate] = []
        for v in sel.generator_cliques:
            mask = next(
                (
                    mask
                    for length in lengths
                    for mask in cycles(v, length)
                    if basis_insert(basis, mask)
                ),
                None,
            )
            if mask is None:
                longest = max(lengths, default=0)
                raise CavitySearchError(
                    f"no independent cycle through generator {v} up to length {longest}",
                    accepted,
                )
            nodes = {u for j in bit_indices(mask) for u in cliques[j]}
            accepted.append(CavityCertificate(self.order, mask, v, tuple(sorted(nodes))))
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
        verified; its length is at least the order-k minimum 2^(k+1). A
        clique boundary therefore fails on independence, not on length.
        """
        failed = self._malformed(cert)
        if failed:
            return VerifyResult(failed)
        if not basis_insert(self.verified, cert.indicator):
            return VerifyResult("independence")
        if cert.length < 2 ** (cert.order + 1):
            self.verified.popitem()  # the entry basis_insert just added
            return VerifyResult("length")
        return VerifyResult()


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
    return SpanningSelection(order, generators)


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
) -> list[CavityCertificate]:
    """BoundaryContext.search on a throwaway context of order sel.order;
    raises CavitySearchError as search does."""
    return BoundaryContext(sel.order, bk, bk1).search(sel, cliques, node_limit)


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
            return VerifyResult(ctx._malformed(cert) or "independence")
    return ctx.recheck(cert)


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
    through str(). Raises ValueError, naming a clique by its labels as
    (a,b), for an entry that is not an object or lacks a field, a field of
    the wrong JSON type (cliques, each clique, generator and nodes are
    lists), an unknown label, an order outside 1..top_order, a clique the
    complex lacks or lists twice, or a length or node list that disagrees.
    """
    if type(entry) is not dict:
        raise ValueError(f"an entry must be a JSON object, got {entry!r}")
    order = _field(entry, "order", int)
    if not 1 <= order <= cx.top_order:
        raise ValueError(f"no order-{order} cliques in this network")
    position = {c: j for j, c in enumerate(cx.levels[order])}
    mask = 0
    nodes: set[int] = set()
    for clique in _field(entry, "cliques", list):
        if type(clique) is not list:
            raise ValueError(f"a clique must be a list, got {clique!r}")
        key, name = _node_ids(clique, index)
        if (j := position.get(key)) is None:
            raise ValueError(f"{name} is not an order-{order} clique of the complex")
        if mask >> j & 1:
            raise ValueError(f"clique {name} is listed twice")
        mask |= 1 << j
        nodes.update(key)
    key, name = _node_ids(_field(entry, "generator", list), index)
    if (generator := position.get(key)) is None:
        raise ValueError(f"generator {name} is not an order-{order} clique")
    cert = CavityCertificate(order, mask, generator, tuple(sorted(nodes)))
    if cert.length != _field(entry, "length", int):
        raise ValueError(f"claimed length {entry['length']}, listed {cert.length} cliques")
    if _node_ids(_field(entry, "nodes", list), index)[0] != cert.node_set:
        raise ValueError("node list disagrees with the cliques")
    return cert


def _field(entry: dict, field: str, kind: type):
    """entry[field], of JSON type kind: int (a bool is not one) or list."""
    if field not in entry:
        raise ValueError(f"missing field {field}")
    if type(value := entry[field]) is not kind:
        raise ValueError(f"{field} must be {'an integer' if kind is int else 'a list'}, got {value!r}")
    return value


def _node_ids(labels: list, index: Mapping[str, int]) -> tuple[tuple[int, ...], str]:
    """The ids of labels (read through str()), ascending, and the labels as (a,b)."""
    pairs = []
    for label in map(str, labels):
        if (u := index.get(label)) is None:
            raise ValueError(f"unknown label {label}")
        pairs.append((u, label))
    pairs.sort()
    return tuple(u for u, _ in pairs), f"({','.join(s for _, s in pairs)})"


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
