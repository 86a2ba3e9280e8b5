"""Command-line front door: gate, clique census, Betti numbers, cavities.

Subcommands: kcore, analyze, cavities, smallest-cavity, random-er, fetch,
verify. Command-line flags are the only configuration: no environment
variable changes what a subcommand does, and each subcommand accepts only
the flags it reads. Each subcommand imports the layers it runs when it
runs them (kcore loads only the graph layer), so start-up pays for no
module it does not use. Every run that needs the clique complex enumerates
it; --cache FILE only exports it and is never read back.

Every file a subcommand writes goes through _write, so no reader sees it
half-written. Subcommands raise; only main prints the one stderr line
and picks the exit code. A path that cannot be read, written or made
prints as "error: <path>: <reason>". Exit codes: 0 success, 1 error
(unreadable input, unwritable output, incomplete cavity search, failed
self-check, out of memory), 2 computability gate failed, 3 clique
enumeration stopped by the budget (one stderr line naming the level and
the counts so far), 130 interrupted (Ctrl-C). Usage errors exit 2 via
argparse.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from .graph import (
    DEFAULT_BUDGET,
    DEFAULT_CORENESS_THRESHOLD,
    BudgetExceeded,
    Network,
    computability_gate,
    edge_text_checksum,
    k_core_decomposition,
    load_edge_list,
    random_er,
    to_edge_text,
)

if TYPE_CHECKING:
    from .cavities import CavityCertificate
    from .cliques import CliqueComplex

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GATE = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a run killed by Ctrl-C

# Published reference census for the generated smallest-cavity complexes,
# exactly as printed (including its internal inconsistencies; disagreements
# with measured counts become notes, never corrections).
REFERENCE_CENSUS = {
    1: (4, 4),
    2: (6, 12, 8),
    3: (8, 24, 32, 16),
    4: (10, 40, 40, 80, 32),
    5: (12, 60, 120, 240, 192, 64),
    6: (14, 84, 280, 560, 672, 448, 128),
    7: (16, 112, 448, 1120, 1792, 1792, 1024, 256),
    8: (18, 144, 672, 2016, 4032, 5376, 4608, 2304, 512),
    9: (20, 180, 960, 560, 3360, 8064, 13440, 15360, 11520, 1024),
    10: (22, 220, 1320, 5280, 14784, 29568, 42240, 42240, 28160, 11264, 2048),
    11: (24, 264, 1760, 7920, 25344, 59136, 101376, 125720, 112640, 67584, 24576, 4096),
}

# fetch waits at most this long for each connect and read of a download.
FETCH_TIMEOUT_S = 60

# Known datasets: expected (nodes, edges) after canonicalization.
DATASETS = {
    "celegans": (297, 2148),
    "usair": (332, 2126),
    "jazz": (198, 2742),
    "yeast": (2375, 11693),
}


def _write(path, data: bytes) -> None:
    """Write data to path through a temporary file in the same directory,
    renamed over path, so a reader never sees it half-written. On any
    failure the temporary file is removed, and an OSError names path.

    No fsync, so a power loss can still tear a file; the --cache export
    and a fetched dataset carry checksums (levels_sha256, the sidecar).
    """
    target = Path(path)  # drops a trailing slash: tmp goes beside a dir/, not in it
    tmp = Path(f"{target}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, target)
    except OSError as exc:  # name the user's path, not the temporary one
        raise OSError(f"{path}: {exc.strerror or exc}") from None
    finally:  # best-effort: a failed removal (the parent is a file) must not hide path
        with contextlib.suppress(OSError):
            tmp.unlink()


def _build_complex(net: Network, export: str | None, budget: int) -> CliqueComplex:
    """Enumerate the clique complex of net; with export, also write it there.

    cliquecav never reads the export back: enumerating is faster than
    reading and checking the file.
    """
    from .cliques import complex_to_json, enumerate_cliques

    cx = enumerate_cliques(net, budget=budget)
    if export:
        doc = complex_to_json(cx, edge_text_checksum(net))
        _write(export, (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode())
    return cx


class SelfCheckError(RuntimeError):
    """A freshly found certificate failed re-verification."""


class GateRefused(RuntimeError):
    """The computability gate stopped the run, which --force overrides."""


def _emit_dot_files(certs, cx: CliqueComplex, labels, directory: str) -> None:
    from .cavities import certificate_to_dot

    os.makedirs(directory, exist_ok=True)  # a failure names directory as typed
    index: Counter = Counter()
    for cert in certs:
        index[cert.order] += 1
        name = f"cavity_order{cert.order}_{index[cert.order]}"
        dot = certificate_to_dot(cert, cx, labels, name)
        _write(os.path.join(directory, f"{name}.dot"), dot.encode())


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _csv_text(rows) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _profile_rows(profile) -> tuple[list, str]:
    """The profile's (heading, values) rows, and euler_poincare_ok as text."""
    rows = [
        ("k", range(len(profile.m))),
        ("m_k", profile.m),
        ("r_k", profile.r),
        ("beta_k", profile.beta),
    ]
    return rows, "true" if profile.euler_poincare_ok else "false"


def _profile_csv(profile) -> str:
    rows, ok = _profile_rows(profile)
    return _csv_text(
        [[head, *vals] for head, vals in rows] + [["chi", profile.chi], ["euler_poincare_ok", ok]]
    )


def _profile_table(profile) -> str:
    rows, ok = _profile_rows(profile)
    # an empty network has empty rows, printed as bare headings
    width = max([2] + [len(str(v)) for _, vals in rows for v in vals])
    lines = [
        (f"{head:8}" + " ".join(f"{v:>{width}}" for v in vals)).rstrip() for head, vals in rows
    ]
    return "\n".join(lines + [f"chi = {profile.chi}", f"euler_poincare_ok = {ok}"])


def _cert_lines(docs) -> list[str]:
    return [
        f"cavity {i}: order {doc['order']}, length {doc['length']}, "
        f"generator ({','.join(doc['generator'])}), nodes {' '.join(doc['nodes'])}"
        for i, doc in enumerate(docs, 1)
    ]


def cmd_kcore(args, parser) -> int:
    """Coreness histogram, k_max, and the computability verdict."""
    report = k_core_decomposition(load_edge_list(args.input))
    gate = computability_gate(report, args.threshold)
    histogram = sorted(Counter(report.coreness).items())
    if args.format == "json":
        _print_json(
            {
                "k_max": report.k_max,
                "coreness_histogram": [[k, c] for k, c in histogram],
                "core_size": {"nodes": report.core_size[0], "edges": report.core_size[1]},
                "computable": gate.computable,
                "threshold": args.threshold,
                "reason": gate.reason,
            }
        )
    else:
        for k, c in histogram:
            print(f"coreness {k}: {c} nodes")
        print(f"k_max = {report.k_max}")
        print(f"k_max-core size: {report.core_size[0]} nodes, {report.core_size[1]} edges")
        print(("computable" if gate.computable else "not computable") + f" ({gate.reason})")
    return EXIT_OK if gate.computable else EXIT_GATE


def _pipeline(args):
    """Load, gate, census (exported with --cache) and profile; with
    args.cavities (--cavities, or the cavities subcommand), also search
    every order with beta_k > 0, self-check (--verify) and write DOT files
    (--emit-dot). With cavities, the profile, selection, search and
    self-check share one Boundaries, so each B_k is built at most once and
    ranked at most once: selection reads the profile's ranks. Each order
    is searched (find_cavities) and then self-checked (verify_certificate)
    on B_k, each on a new boundaries.basis(k) (the basis rule in the
    cavities module docstring).

    Returns (profile, docs): docs is the certificates as
    certificates_to_json exports them, which every output format renders,
    and [] without cavities. A gate refusal without --force raises
    GateRefused, and a clique level over --budget BudgetExceeded.
    """
    from .gf2 import Boundaries, homology_profile

    net = load_edge_list(args.input)
    gate = computability_gate(k_core_decomposition(net), args.threshold)
    if not gate.computable and not args.force:
        raise GateRefused(f"not computable: {gate.reason} (use --force to override)")
    cx = _build_complex(net, args.cache, args.budget)
    # without cavities, no matrix outlives its rank
    boundaries = Boundaries(cx, keep_matrices=args.cavities)
    profile = homology_profile(boundaries)
    if not args.cavities:
        return profile, []
    from .cavities import (
        certificates_to_json,
        find_cavities,
        select_spanning_and_generators,
        verify_certificate,
    )

    certs: list[CavityCertificate] = []
    beta = profile.beta
    for k in range(1, len(beta)):
        if beta[k]:
            sel = select_spanning_and_generators(k, boundaries)
            bk = boundaries.matrix(k)
            # positional, as the benchmark's tracer reads sel from the third argument
            found = find_cavities(bk, boundaries.basis(k), sel)
            if args.verify:
                basis = boundaries.basis(k)
                for cert in found:
                    if failed := verify_certificate(cert, bk, basis):
                        raise SelfCheckError(
                            f"internal check failed: order-{k} certificate "
                            f"violates the {failed} constraint"
                        )
            certs.extend(found)
    if args.emit_dot:
        _emit_dot_files(certs, cx, net.node_labels, args.emit_dot)
    return profile, certificates_to_json(certs, cx, net.node_labels)


def cmd_analyze(args, parser) -> int:
    """Full pipeline: gate, census, ranks, Betti numbers, optional cavities."""
    if args.emit_dot and not args.cavities:
        parser.error("--emit-dot requires --cavities")
    if args.verify and not args.cavities:
        parser.error("--verify requires --cavities")
    profile, docs = _pipeline(args)
    if args.format == "json":
        doc = {
            "m": list(profile.m),
            "r": list(profile.r),
            "beta": list(profile.beta),
            "chi": profile.chi,
            "euler_poincare_ok": profile.euler_poincare_ok,
        }
        if args.cavities:
            doc["cavities"] = docs
        _print_json(doc)
    elif args.format == "csv":
        cavity_rows = [["cavity", d["order"], d["length"], " ".join(d["nodes"])] for d in docs]
        print(_profile_csv(profile) + _csv_text(cavity_rows), end="")
    else:
        print(_profile_table(profile))
        for line in _cert_lines(docs):
            print(line)
    return EXIT_OK


def cmd_cavities(args, parser) -> int:
    """Cavity certificates only (the analyze pipeline minus the profile)."""
    _, docs = _pipeline(args)
    if args.format == "csv":
        rows = [["order", "length", "generator", "nodes"]] + [
            [d["order"], d["length"], " ".join(d["generator"]), " ".join(d["nodes"])]
            for d in docs
        ]
        print(_csv_text(rows), end="")
    elif args.format == "table":
        for line in _cert_lines(docs):
            print(line)
    else:
        _print_json(docs)
    return EXIT_OK


def census_notes(k: int, counts: list[int]) -> list[str]:
    """Disagreements between measured counts and the printed reference census.

    The printed values are reported as notes, never corrected.
    """
    notes = []
    reference = REFERENCE_CENSUS.get(k)
    if reference is None:
        return notes
    if len(reference) != len(counts):
        notes.append(
            f"reference census lists {len(reference)} orders, measured {len(counts)}"
        )
    for j, (printed, measured) in enumerate(zip(reference, counts)):
        if printed != measured:
            notes.append(
                f"reference census disagrees at order {j}: "
                f"printed {printed}, measured {measured}"
            )
    return notes


def cmd_smallest_cavity(args, parser) -> int:
    """Generated order-k smallest-cavity complex: census, chi, reference notes.

    The counts come from clique_counts, which lists no clique.
    """
    from .cliques import clique_counts, cocktail_party_network, euler_characteristic

    k = args.order
    counts = list(clique_counts(cocktail_party_network(k)))
    chi = euler_characteristic(counts)
    notes = census_notes(k, counts)
    if args.format == "json":
        _print_json({"k": k, "m": counts, "chi": chi, "discrepancy_notes": notes})
    elif args.format == "csv":
        rows = [["k"] + list(range(len(counts))), ["m_k"] + counts, ["chi", chi]]
        print(_csv_text(rows + [["note", note] for note in notes]), end="")
    else:
        print(f"smallest {k}-cavity complex: m = {counts}, chi = {chi}")
        for note in notes:
            print(f"note: {note}")
    return EXIT_OK


def cmd_random_er(args, parser) -> int:
    """Write a seeded uniform G(n, m) edge list."""
    net = random_er(args.n, args.m, args.seed)
    _write(args.dest, to_edge_text(net).encode())
    nodes = sum(map(bool, net.adjacency))  # an edge list holds no isolated node
    print(f"wrote {nodes} nodes, {net.edge_count} edges to {args.dest} (seed {args.seed})")
    return EXIT_OK


def cmd_fetch(args, parser) -> int:
    """Download a dataset, pin its checksum, and validate known sizes.

    The file is kept only when every check passes; a .sha256 sidecar
    records the pin for later runs.
    """
    dest = args.dest or os.path.join("data", f"{args.name}.edges")  # as typed
    if os.path.isfile(dest) and not args.force:
        print(f"{dest} already exists (use --force to re-fetch)")
        return EXIT_OK
    # imported here: urllib costs every other subcommand tens of ms at start-up
    import hashlib
    import http.client
    import urllib.request

    try:
        with urllib.request.urlopen(args.url, timeout=FETCH_TIMEOUT_S) as resp:
            payload = resp.read()
    # URLError and timeouts are OSErrors; IncompleteRead, a body cut short, is neither
    except (OSError, http.client.HTTPException) as exc:
        raise OSError(f"fetch failed: {exc}") from None
    digest = hashlib.sha256(payload).hexdigest()
    if args.sha256 and digest != args.sha256.lower():
        raise ValueError(f"checksum mismatch: expected {args.sha256}, got {digest}")
    try:  # a UnicodeDecodeError is a ValueError
        net = load_edge_list(io.StringIO(payload.decode("utf-8")))
    except ValueError as exc:
        raise ValueError(f"downloaded file is not a readable edge list: {exc}") from None
    expected = DATASETS.get(args.name)
    if expected and (net.node_count, net.edge_count) != expected:
        raise ValueError(
            f"{args.name} should have {expected[0]} nodes and {expected[1]} edges, "
            f"got {net.node_count} nodes and {net.edge_count} edges"
        )
    os.makedirs(os.path.dirname(dest) or os.curdir, exist_ok=True)
    _write(dest, payload)
    _write(f"{dest}.sha256", f"{digest}  {os.path.basename(dest)}\n".encode())
    print(
        f"fetched {args.name}: {net.node_count} nodes, {net.edge_count} edges, "
        f"sha256 {digest}"
    )
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    """Re-check exported certificates against a network, one verdict per line."""
    from .cavities import certificate_from_json, verify_certificate
    from .gf2 import Boundaries

    net = load_edge_list(args.input)
    # read before the complex is enumerated, so a bad file costs no enumeration
    try:
        with open(args.certificates, encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{args.certificates}: {exc}") from None
    if not isinstance(doc, list):
        raise ValueError(f"{args.certificates}: a certificate file must hold a JSON list")
    cx = _build_complex(net, args.cache, args.budget)
    index = net.label_index()
    boundaries = Boundaries(cx)
    bases: dict[int, dict[int, int]] = {}  # one per order, for the whole file
    failures = 0
    for i, entry in enumerate(doc, 1):
        try:
            cert = certificate_from_json(entry, cx, index)
        except ValueError as exc:
            print(f"cert {i}: FAIL ({exc})")
            failures += 1
            continue
        k = cert.order
        if k not in bases:
            bases[k] = boundaries.basis(k)
        if failed := verify_certificate(cert, boundaries.matrix(k), bases[k]):
            print(f"cert {i}: FAIL ({failed})")
            failures += 1
        else:
            print(f"cert {i}: PASS (order {cert.order}, length {cert.length})")
    return EXIT_OK if failures == 0 else EXIT_ERROR


def _positive_int(text: str) -> int:
    """argparse type for counts and caps, which must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


# add_argument keywords of the flags that several subcommands share
FLAGS = {
    "--input": dict(required=True, help="edge-list file"),
    "--budget": dict(
        type=_positive_int,
        default=DEFAULT_BUDGET,
        help="per-order clique-count cap (default 10^7)",
    ),
    "--threshold": dict(
        type=_positive_int,
        default=DEFAULT_CORENESS_THRESHOLD,
        help="computability gate on k_max (default 25)",
    ),
    "--format": dict(choices=("json", "csv", "table"), default="table", help="output format"),
    "--cache": dict(metavar="FILE", help="export the clique complex as JSON (never read)"),
    "--emit-dot": dict(metavar="DIR", help="write one DOT file per cavity into DIR"),
    "--force": dict(action="store_true", help="run even when the computability gate fails"),
    "--verify": dict(
        action="store_true", help="re-check every certificate before reporting it"
    ),
}
PIPELINE_FLAGS = (
    "--input", "--budget", "--threshold", "--format",
    "--cache", "--emit-dot", "--force", "--verify",
)


def _subcommand(sub, name: str, func, summary: str, flags=()) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument(flag, **FLAGS[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquecav",
        description="Cliques, Betti numbers, and minimal cavities of undirected networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "kcore", cmd_kcore, "coreness and computability gate",
                    ("--input", "--threshold"))
    p.add_argument("--format", **{**FLAGS["--format"], "choices": ("json", "table")})

    p = _subcommand(sub, "analyze", cmd_analyze, "census, ranks, Betti numbers", PIPELINE_FLAGS)
    p.add_argument("--cavities", action="store_true", help="also search for minimal cavities")

    # same flags as analyze without --cavities, which it implies, and
    # structured output by default
    p = _subcommand(sub, "cavities", cmd_cavities, "minimal cavity certificates", PIPELINE_FLAGS)
    p.set_defaults(format="json", cavities=True)

    p = _subcommand(sub, "smallest-cavity", cmd_smallest_cavity,
                    "generated smallest k-cavity complex", ("--format",))
    p.add_argument("order", type=int, choices=range(1, 13), metavar="K",
                   help="cavity order, 1..12")

    p = _subcommand(sub, "random-er", cmd_random_er, "write a seeded uniform G(n, m) edge list")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("dest")
    p.add_argument("--seed", type=int, default=0)

    p = _subcommand(sub, "fetch", cmd_fetch, "download a dataset with checksum pinning")
    p.add_argument("name", help="dataset name (known: " + ", ".join(sorted(DATASETS)) + ")")
    p.add_argument("--url", required=True)
    p.add_argument("--dest")
    p.add_argument("--sha256", help="expected hex digest")
    p.add_argument("--force", action="store_true", help="re-fetch over an existing file")

    p = _subcommand(sub, "verify", cmd_verify, "re-check exported certificates",
                    ("--input", "--budget", "--cache"))
    p.add_argument("certificates", help="certificate JSON file")

    return parser


def main(argv: list[str] | None = None) -> int:
    # input is read as UTF-8 whatever the locale, so output is written as UTF-8 too
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except BudgetExceeded as exc:
        print(exc, file=sys.stderr)
        return EXIT_BUDGET
    except GateRefused as exc:
        print(exc, file=sys.stderr)
        return EXIT_GATE
    except KeyboardInterrupt:  # _write has removed its temporary file on the way out
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except MemoryError:
        message = "out of memory"
    # a failed read or mkdir names its path as _write's error does, even an empty one
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else str(exc)
    # NodeLimitExceeded, CavitySearchError and SelfCheckError are RuntimeErrors;
    # naming the first two here would import solver and cavities into every subcommand
    except (ValueError, RuntimeError) as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
