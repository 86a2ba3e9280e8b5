"""The benchmark's workloads: seeded inputs, CLI jobs, and output checks.

A job is one `cliquecav` invocation. Its check reads the job's stdout and
returns the problems it found; an empty list means the output is correct.
Every expected value comes from the formulas and oracles in inputs.py,
never from the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

WORKLOADS = ("betti", "cavities", "census")
GATE_THRESHOLD = 25  # the CLI's documented default for --threshold

# Input sizes per workload. "smoke" is the reduced run used by the
# benchmark's own test; it keeps every job kind and check of "full".
SIZES = {
    "full": {
        "betti_gnm": [(198, 2742), (2375, 11693)],  # jazz- and yeast-sized
        "betti_rgg": [(500, 0.07)],
        "cavities_gnm": [(40, 60)] * 10,
        "cavities_cocktail": [2, 3, 4, 5, 6],
        "census_orders": [9, 10, 11],
        "census_kcore": (2000, 60000),
    },
    "smoke": {
        "betti_gnm": [(40, 200), (300, 900)],
        "betti_rgg": [(120, 0.12)],
        "cavities_gnm": [(20, 30)] * 2,
        "cavities_cocktail": [2, 3],
        "census_orders": [4, 5],
        "census_kcore": (200, 6000),
    },
}

Check = Callable[[str], list[str]]


# What `python -c` runs for a job: the `cliquecav` console script.
CLI = "import sys; from cliquecav.cli import main; sys.exit(main())"


@dataclass
class Job:
    name: str
    kind: str  # "search" and "recheck" feed search_s / recheck_s
    args: list[str]
    check: Check
    expect_rc: int = 0
    fresh: Path | None = None  # removed before every run: a cold cache
    stdout_to: Path | None = None  # stdout is also saved here, as `> file`
    code: str = CLI


@dataclass
class Workload:
    inputs: list[dict]
    jobs: list[Job]
    setup: Job  # the start-up probe behind setup_s
    speed: Job  # the host-speed probe that end-to-end times are scaled by


def _json(stdout: str, problems: list[str]):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _record(path: Path, name: str):
    """(input record, n, edges on ids 0..n-1, edges under file labels)."""
    edges = inputs.read_edges(path)
    n, local = inputs.relabel(edges)
    return {"name": name, "path": path.name, "n": n, "m": len(edges)}, n, local, edges


def _check_kcore(k_max: int, computable: bool) -> Check:
    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        doc = _json(stdout, problems)
        if doc is None:
            return problems
        if doc.get("k_max") != k_max:
            problems.append(f"k_max {doc.get('k_max')}, expected {k_max}")
        if doc.get("computable") is not computable:
            problems.append(f"computable {doc.get('computable')}, expected {computable}")
        return problems
    return check


def setup_job(root: Path) -> Job:
    sample = root / "data" / "sample14.edges"
    _, n, edges, _ = _record(sample, "sample14")
    return Job("setup/kcore-sample14", "setup",
               ["kcore", "--input", str(sample), "--format", "json"],
               _check_kcore(inputs.max_coreness(n, edges), True))


def speed_job(root: Path) -> Job:
    """inputs.speed_probe on the 14-node sample, in a fresh interpreter.
    It never imports the package, so no change to the package moves it."""
    bench, sample = Path(__file__).resolve().parent, root / "data" / "sample14.edges"
    code = (f"import sys; sys.path.insert(0, {str(bench)!r}); import inputs; "
            f"inputs.speed_probe({str(sample)!r})")
    return Job("probe/host-speed", "probe", [], lambda stdout: [], code=code)


def _check_profile(rec: dict, n: int, edges: list[inputs.Edge]) -> Check:
    """analyze --format json against the oracle's m, r and beta, and
    chi = sum (-1)^k m_k = sum (-1)^k beta_k (Euler-Poincare)."""
    m, r, beta = inputs.homology(n, edges)
    rec.update(m_k=m, beta=beta)
    chi = sum((-1) ** k * v for k, v in enumerate(m))

    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        doc = _json(stdout, problems)
        if doc is None:
            return problems
        for key, expected in (("m", m), ("r", r), ("beta", beta), ("chi", chi),
                              ("euler_poincare_ok", True)):
            if doc.get(key) != expected:
                problems.append(f"{key} {doc.get(key)}, expected {expected}")
        return problems
    return check


def _check_certificates(rec: dict, edges: list[inputs.Edge], cache: Path,
                        cert_length: int | None = None) -> Check:
    """cavities --format json: one certificate per independent class
    (count per order = beta_k), each a k-cycle of cliques of the input
    through its generator, of the stated length. The cache it wrote
    (docs/schemas/complex.schema.json) must hold the counts m_k."""
    edge_set = set(edges)
    beta = rec["beta"]

    def is_clique(nodes: list[int]) -> bool:
        return all((u, v) in edge_set for i, u in enumerate(nodes) for v in nodes[i + 1:])

    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        doc = _json(stdout, problems)
        if doc is None:
            return problems
        per_order: dict[int, int] = {}
        lengths = []
        for i, cert in enumerate(doc, 1):
            k = cert["order"]
            per_order[k] = per_order.get(k, 0) + 1
            cliques = [tuple(sorted(int(u) for u in c)) for c in cert["cliques"]]
            generator = tuple(sorted(int(u) for u in cert["generator"]))
            lengths.append(cert["length"])
            if any(len(c) != k + 1 or not is_clique(list(c)) for c in cliques):
                problems.append(f"cert {i}: lists a non-clique or wrong order")
            if generator not in cliques or len(set(cliques)) != len(cliques):
                problems.append(f"cert {i}: generator missing or cliques repeated")
            if cert["length"] != len(cliques) or cert["length"] < 2 ** (k + 1):
                problems.append(f"cert {i}: length {cert['length']} wrong")
            if cert_length is not None and cert["length"] != cert_length:
                problems.append(f"cert {i}: length {cert['length']}, expected {cert_length}")
            if not inputs.chain_boundary_is_zero(cliques):
                problems.append(f"cert {i}: not a cycle")
        expected = {k: b for k, b in enumerate(beta) if k >= 1 and b}
        if per_order != expected:
            problems.append(f"certificates per order {per_order}, beta says {expected}")
        rec["cert_lengths"] = sorted(lengths)
        counts = json.loads(cache.read_text(encoding="utf-8"))["counts"]
        if counts != rec["m_k"]:
            problems.append(f"cache counts {counts}, expected {rec['m_k']}")
        return problems
    return check


def _check_verify(certs: Path) -> Check:
    def check(stdout: str) -> list[str]:
        try:
            count = len(json.loads(certs.read_text(encoding="utf-8")))
        except (OSError, ValueError):
            return ["no certificate file to verify"]
        lines = stdout.splitlines()
        passed = sum(1 for line in lines if line.startswith("cert ") and ": PASS" in line)
        if passed != count or len(lines) != count:
            return [f"{passed} of {count} certificates PASS ({len(lines)} verdicts)"]
        return []
    return check


def _check_census(k: int) -> Check:
    expect_m = inputs.cross_polytope_counts(k)

    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        doc = _json(stdout, problems)
        if doc is None:
            return problems
        if doc.get("m") != expect_m:
            problems.append(f"m {doc.get('m')}, expected {expect_m}")
        chi = 1 + (-1) ** k  # the k-sphere
        if doc.get("chi") != chi:
            problems.append(f"chi {doc.get('chi')}, expected {chi}")
        return problems
    return check


def _betti(sizes: dict, rng: random.Random, work: Path, root: Path):
    graphs = [(f"gnm{n}_{m}", inputs.gnm(n, m, rng)) for n, m in sizes["betti_gnm"]]
    graphs += [(f"rgg{n}_{r}", inputs.rgg(n, r, rng)) for n, r in sizes["betti_rgg"]]
    recs, jobs = [], []
    for name, edges in graphs:
        path = work / f"{name}.edges"
        inputs.write_edges(path, edges)
        rec, n, local, _ = _record(path, name)
        recs.append(rec)
        jobs.append(Job(f"{name}/analyze", "run",
                        ["analyze", "--input", str(path), "--format", "json"],
                        _check_profile(rec, n, local)))
    return recs, jobs


def _cavities(sizes: dict, rng: random.Random, work: Path, root: Path):
    cases = [("sample14", root / "data" / "sample14.edges", [1, 2, 1, 0], None)]
    for k in sizes["cavities_cocktail"]:
        path = work / f"cocktail{k}.edges"
        inputs.write_edges(path, inputs.cocktail_party(k))
        cases.append((f"cocktail{k}", path, [1] + [0] * (k - 1) + [1], 2 ** (k + 1)))
    for i, (n, m) in enumerate(sizes["cavities_gnm"]):
        path = work / f"gnm{n}_{m}_{i}.edges"
        inputs.write_edges(path, inputs.gnm(n, m, rng))
        cases.append((f"gnm{n}_{m}_{i}", path, None, None))
    recs, jobs = [], []
    for name, path, beta, cert_length in cases:
        rec, n, local, labelled = _record(path, name)
        m_k, _, oracle_beta = inputs.homology(n, local)
        if beta is not None and oracle_beta != beta:
            raise RuntimeError(f"{name}: oracle beta {oracle_beta} != {beta}")
        rec["beta"] = oracle_beta
        if name.startswith("cocktail"):
            m_k = inputs.cross_polytope_counts(len(m_k) - 1)  # checked against the cache
        rec["m_k"] = m_k
        recs.append(rec)
        cache, certs = work / f"{name}.cache.json", work / f"{name}.certs.json"
        # the search writes a cold cache and the certificates; the re-check
        # reads both back, as a user re-checking exported results would
        jobs.append(Job(f"{name}/cavities", "search",
                        ["cavities", "--input", str(path), "--cache", str(cache),
                         "--verify", "--format", "json"],
                        _check_certificates(rec, labelled, cache, cert_length),
                        fresh=cache, stdout_to=certs))
        jobs.append(Job(f"{name}/verify", "recheck",
                        ["verify", "--input", str(path), "--cache", str(cache), str(certs)],
                        _check_verify(certs)))
    return recs, jobs


def _census(sizes: dict, rng: random.Random, work: Path, root: Path):
    jobs = [Job(f"cross{k}/smallest-cavity", "run",
                ["smallest-cavity", str(k), "--format", "json"], _check_census(k))
            for k in sizes["census_orders"]]
    recs = []
    for k in sizes["census_orders"]:
        m_k = inputs.cross_polytope_counts(k)
        recs.append({"name": f"cross{k}", "n": m_k[0], "m": m_k[1], "m_k": m_k,
                     "beta": [1] + [0] * (k - 1) + [1]})
    n, m = sizes["census_kcore"]
    path = work / f"gnm{n}_{m}.edges"
    inputs.write_edges(path, inputs.gnm(n, m, rng))
    rec, n_seen, local, _ = _record(path, f"gnm{n}_{m}")
    rec["k_max"] = inputs.max_coreness(n_seen, local)
    recs.append(rec)
    # k_max is far above the gate's default threshold, so kcore exits 2
    computable = rec["k_max"] <= GATE_THRESHOLD
    jobs.append(Job(f"{rec['name']}/kcore", "run",
                    ["kcore", "--input", str(path), "--format", "json"],
                    _check_kcore(rec["k_max"], computable), expect_rc=0 if computable else 2))
    return recs, jobs


def build(name: str, seed: int, root: Path, work: Path, smoke: bool) -> Workload:
    """Write the workload's inputs under work and return its jobs."""
    builders = {"betti": _betti, "cavities": _cavities, "census": _census}
    sizes = SIZES["smoke" if smoke else "full"]
    recs, jobs = builders[name](sizes, random.Random(f"{name}:{seed}"), work, root)
    return Workload(recs, jobs, setup_job(root), speed_job(root))
