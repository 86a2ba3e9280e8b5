"""Cavity search over a clique complex.

A k-cavity certificate is a 0-1 vector over k-cliques that is a GF(2)
cycle, passes through its generator clique, has exactly L ones, and is
linearly independent of the (k+1)-clique boundaries together with all
previously accepted certificates. select_spanning_and_generators reads
the generators off the ranks of one gf2.Boundaries, which the profile
reads too; exact-length 0-1 search over an increasing length schedule
finds minimal representatives. A certificate holds clique indices only,
and cert.nodes(cx) reads its nodes off the complex.

find_cavities and verify_certificate both read B_k and a basis of
B_{k+1}'s column space, as gf2.Boundaries.basis(k) returns it, new on
every call. The basis rule: each certificate either function accepts
joins the basis it was given, so the next one on that basis must be
independent of it too. A re-check returns the name of the constraint
the certificate failed, or None.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .cliques import CliqueComplex
from .gf2 import Boundaries, Gf2Matrix, basis_insert, bit_indices


class CavitySearchError(RuntimeError):
    """No independent cycle through a generator on the length schedule,
    which runs up to m_k; a guard, since each generator has one. The
    message ends with how many certificates of that order were found."""


class SpanningSelection(NamedTuple):
    """The generator k-cliques of order k, one per cavity, ascending.

    They are the k-cliques in neither the tree, the pivot columns of B_k,
    nor the covered set, the pivot rows of B_{k+1} reduced with the tree
    cleared; select_spanning_and_generators reads both sets off
    Boundaries.rank(k) and rank(k + 1).
    """

    order: int
    generator_cliques: tuple[int, ...]


class CavityCertificate(NamedTuple):
    order: int
    indicator: int  # bitmask over k-clique indices
    generator: int  # k-clique index with the indicator bit set

    @property
    def length(self) -> int:
        return self.indicator.bit_count()

    def support(self) -> list[int]:
        return bit_indices(self.indicator)

    def nodes(self, cx: CliqueComplex) -> list[int]:
        """The nodes of the support's cliques in cx, ascending."""
        level = cx.levels[self.order]
        return sorted({u for j in self.support() for u in level[j]})


def _cavity_order(order: int, cx: CliqueComplex) -> int:
    """order, if cx has cavities of that order to look for; else ValueError."""
    if order < 1:
        raise ValueError(f"a cavity has order 1 or more, got {order}")
    if order > cx.top_order:
        raise ValueError(f"no order-{order} cliques in this network")
    return order


def select_spanning_and_generators(order: int, boundaries: Boundaries) -> SpanningSelection:
    """Split the k-cliques of boundaries.cx, k = order, into tree, covered
    and generator sets.

    The tree is the pivot columns of rank(k), B_k's. rank(k + 1) reduces
    B_{k+1} with the tree cleared, so its pivot rows are the non-tree
    cliques that B_{k+1}'s columns account for, the covered set. The
    beta_k non-tree cliques it finds dependent are the generators.
    Raises ValueError for an order outside 1..top_order.
    """
    _cavity_order(order, boundaries.cx)
    tree = boundaries.rank(order).pivot_cols
    covered = boundaries.rank(order + 1).pivot_rows
    generators = set(range(boundaries.cx.counts[order])).difference(tree, covered)
    return SpanningSelection(order, tuple(sorted(generators)))


def length_schedule(k: int, ceiling: int) -> range:
    """Candidate lengths from 2^(k+1) up to ceiling.

    Each of a k-cycle's L cliques has k + 1 faces, and each face lies in
    an even number of them, so (k + 1) * L is even. Even k therefore needs
    an even L, while odd k allows any L (the join of two 5-cycles has one
    order-3 cycle, of length 25): the step is 2 for even k, 1 for odd k.
    """
    return range(2 ** (k + 1), ceiling + 1, 2 if k % 2 == 0 else 1)


def find_cavities(
    bk: Gf2Matrix,
    basis: dict[int, int],
    sel: SpanningSelection,
    node_limit: int | None = None,
) -> list[CavityCertificate]:
    """One minimal independent certificate per generator clique of sel.

    basis spans the column space of B_{k+1}, as Boundaries.basis(k)
    returns it, and each certificate found joins it (the basis rule in
    the module docstring). Generators are processed in ascending index
    order. For each length on the schedule, which runs up to the number
    of k-cliques, the cycles through the generator with exactly that many
    ones are enumerated in lexicographic order, and the first one that
    raises the rank of basis is accepted. node_limit caps
    the solver's decision nodes per program (default:
    solver.DEFAULT_NODE_LIMIT). Raises CavitySearchError if a generator
    has no such cycle on the schedule.
    """
    # imported here: `cliquecav verify` loads this module but never searches
    from .solver import DEFAULT_NODE_LIMIT, ZeroOneProgram, iter_solutions

    if node_limit is None:
        node_limit = DEFAULT_NODE_LIMIT
    lengths = length_schedule(sel.order, bk.cols)
    # one program, and one row incidence, for every generator and length
    program = ZeroOneProgram(bk.cols, bk.bits)
    accepted: list[CavityCertificate] = []
    for v in sel.generator_cliques:
        mask = next(
            (
                mask
                for length in lengths
                for mask in iter_solutions(program, v, length, node_limit)
                if basis_insert(basis, mask)
            ),
            None,
        )
        if mask is None:
            raise CavitySearchError(
                f"no independent cycle through generator {v} "
                f"up to length {max(lengths, default=0)} "
                f"({len(accepted)} certificates of that order found)"
            )
        accepted.append(CavityCertificate(sel.order, mask, v))
    return accepted


def verify_certificate(
    cert: CavityCertificate, bk: Gf2Matrix, basis: dict[int, int]
) -> str | None:
    """Re-check cert against B_k and basis: the name of the first
    constraint it fails, or None for a pass, which joins basis (the basis
    rule in the module docstring).

    Checks, in order: "dimension", the indicator fits B_k;
    "generator-membership", the generator bit is set; "cycle", the
    indicator is a GF(2) cycle of B_k; "independence", it is independent
    of basis; "length", its length is at least the order-k minimum
    2^(k+1). A clique boundary therefore fails on independence, not on
    length.
    """
    x = cert.indicator
    if x < 0 or x >> bk.cols:
        return "dimension"
    if not (x >> cert.generator) & 1:
        return "generator-membership"
    if any((row & x).bit_count() & 1 for row in bk.bits):
        return "cycle"
    if not basis_insert(basis, x):
        return "independence"
    if cert.length < 2 ** (cert.order + 1):
        basis.popitem()  # the entry basis_insert just added
        return "length"
    return None


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
                "nodes": [labels[u] for u in cert.nodes(cx)],
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
    order = _cavity_order(_field(entry, "order", int), cx)
    level = cx.levels[order]

    def position(key: tuple[int, ...]) -> int | None:
        """key's index in the sorted level, or None if the level lacks it."""
        j = bisect_left(level, key)
        return j if j < len(level) and level[j] == key else None

    mask = 0
    for clique in _field(entry, "cliques", list):
        if type(clique) is not list:
            raise ValueError(f"a clique must be a list, got {clique!r}")
        key, name = _node_ids(clique, index)
        if (j := position(key)) is None:
            raise ValueError(f"{name} is not an order-{order} clique of the complex")
        if mask >> j & 1:
            raise ValueError(f"clique {name} is listed twice")
        mask |= 1 << j
    key, name = _node_ids(_field(entry, "generator", list), index)
    if (generator := position(key)) is None:
        raise ValueError(f"generator {name} is not an order-{order} clique")
    cert = CavityCertificate(order, mask, generator)
    if cert.length != _field(entry, "length", int):
        raise ValueError(f"claimed length {entry['length']}, listed {cert.length} cliques")
    if list(_node_ids(_field(entry, "nodes", list), index)[0]) != cert.nodes(cx):
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
              for u in cert.nodes(cx)}
    level = cx.levels[cert.order]
    edges = {e for j in cert.support() for e in combinations(level[j], 2)}
    lines = [f"graph {name} {{"]
    lines.append(f'  label="order {cert.order} cavity, length {cert.length}";')
    for q in quoted.values():  # the nodes, ascending
        lines.append(f"  {q};")
    for u, v in sorted(edges):
        lines.append(f"  {quoted[u]} -- {quoted[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
