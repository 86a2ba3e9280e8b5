import argparse
import errno
import functools
import hashlib
import http.server
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from cliquecav import cavities, cli
from cliquecav.cavities import BoundaryContext
from cliquecav.cli import build_parser, main
from cliquecav.cliques import CliqueComplex, complex_to_json, enumerate_cliques
from cliquecav.graph import edge_text_checksum, load_edge_list

from oracles import (
    cocktail_edges,
    cross_polytope_count,
    cycle_edges,
    join_edges,
    suspension_edges,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
SCHEMAS = ROOT / "docs" / "schemas"
SAMPLE14 = str(DATA / "sample14.edges")
SAMPLE8 = str(DATA / "sample8.edges")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def validate_schema(doc, schema_file):
    resources = []
    target = None
    for p in sorted(SCHEMAS.glob("*.schema.json")):
        schema = json.loads(p.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
        if p.name == schema_file:
            target = schema
    assert target is not None, schema_file
    registry = Registry().with_resources(resources)
    jsonschema.Draft202012Validator(target, registry=registry).validate(doc)


def test_kcore_json_output(capsys):
    rc, out, _ = run(capsys, "kcore", "--input", SAMPLE14, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    validate_schema(doc, "kcore.schema.json")
    assert doc["k_max"] == 4
    assert doc["computable"] is True
    assert doc["core_size"] == {"nodes": 6, "edges": 12}


def test_kcore_gate_failure_exits_2(capsys):
    rc, out, _ = run(capsys, "kcore", "--input", SAMPLE14, "--threshold", "3")
    assert rc == 2
    assert "not computable" in out


def test_analyze_profile_json(capsys):
    rc, out, _ = run(capsys, "analyze", "--input", SAMPLE14, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    validate_schema(doc, "profile.schema.json")
    assert doc["m"] == [14, 26, 13, 1]
    assert doc["r"] == [0, 13, 11, 1]
    assert doc["beta"] == [1, 2, 1, 0]
    assert doc["chi"] == 0
    assert doc["euler_poincare_ok"] is True


def test_analyze_with_cavities_validates_schema(capsys):
    rc, out, _ = run(
        capsys, "analyze", "--input", SAMPLE14, "--format", "json", "--cavities", "--verify"
    )
    assert rc == 0
    doc = json.loads(out)
    validate_schema(doc, "profile.schema.json")
    assert [c["length"] for c in doc["cavities"]] == [4, 7, 8]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize(
    "name, args",
    [
        ("analyze-cavities", ["analyze", "--cavities", "--input", SAMPLE14]),
        ("cavities", ["cavities", "--input", SAMPLE14]),
        ("smallest-cavity-3", ["smallest-cavity", "3"]),
    ],
)
def test_stdout_matches_golden(capsys, name, args, fmt):
    rc, out, err = run(capsys, *args, "--format", fmt)
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


# the order-2 cocktail party on nodes 6..11
OCTAHEDRON = cocktail_edges(2, 6)


@pytest.mark.parametrize(
    "edges, beta, certificates",
    [
        *((cycle_edges(n), [1, 1], [(1, n)]) for n in range(4, 10)),
        # disjoint union: beta adds up
        (cycle_edges(5) + OCTAHEDRON, [2, 1, 1], [(1, 5), (2, 8)]),
        # joins of two cycles are 3-spheres, with one cavity of order 3
        (join_edges(cycle_edges(5), cycle_edges(5, 6)), [1, 0, 0, 1], [(3, 25)]),
        (join_edges(cycle_edges(7), cycle_edges(5, 8)), [1, 0, 0, 1], [(3, 35)]),
        # wedge sum at node 5: reduced beta adds up
        (cycle_edges(5) + cocktail_edges(2, 5), [1, 1, 1], [(1, 5), (2, 8)]),
        # suspension: reduced beta moves up one order, and the two cones of
        # a disjoint union add one order-1 cavity
        (suspension_edges(cycle_edges(5)), [1, 0, 1], [(2, 10)]),
        (suspension_edges(cycle_edges(5) + cycle_edges(4, 6)), [1, 1, 2],
         [(1, 4), (2, 10), (2, 8)]),
        # cocktail parties: the smallest order-k cavity
        *((cocktail_edges(k), [1] + [0] * (k - 1) + [1], [(k, 2 ** (k + 1))])
          for k in range(1, 6)),
    ],
    ids=[*(f"C{n}" for n in range(4, 10)), "C5+octahedron", "C5*C5", "C7*C5",
         "C5vOctahedron", "SC5", "S(C5+C4)", *(f"cocktail{k}" for k in range(1, 6))],
)
def test_analytic_families_through_the_cli(tmp_path, capsys, edges, beta, certificates):
    source = tmp_path / "family.edges"
    source.write_text("".join(f"{u} {v}\n" for u, v in edges))
    rc, out, err = run(
        capsys, "analyze", "--cavities", "--verify", "--format", "json", "--input", str(source)
    )
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["beta"] == beta
    assert [(c["order"], c["length"]) for c in doc["cavities"]] == certificates


def test_analyze_csv_layout(capsys):
    rc, out, _ = run(capsys, "analyze", "--input", SAMPLE14, "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,0,1,2,3"
    assert lines[1] == "m_k,14,26,13,1"
    assert lines[2] == "r_k,0,13,11,1"
    assert lines[3] == "beta_k,1,2,1,0"
    assert lines[4] == "chi,0"


@pytest.mark.parametrize("command", ["analyze", "cavities"])
def test_gate_refusal_is_one_stderr_line_and_exit_2(capsys, command):
    rc, out, err = run(capsys, command, "--input", SAMPLE14, "--threshold", "3")
    assert (rc, out) == (2, "")
    assert err == "not computable: k_max 4 exceeds threshold 3 (use --force to override)\n"


def test_analyze_gate_and_force(capsys):
    rc, out, _ = run(
        capsys, "analyze", "--input", SAMPLE14, "--threshold", "3", "--force",
        "--format", "json",
    )
    assert rc == 0
    assert json.loads(out)["chi"] == 0


@pytest.mark.parametrize(
    "budget, line",
    [
        (10, "level 0 exceeds budget (10); enumeration stopped (counts so far: [])"),
        (20, "level 1 exceeds budget (20); enumeration stopped (counts so far: [14])"),
    ],
    ids=["level0", "level1"],
)
@pytest.mark.parametrize("command", ["analyze", "cavities", "verify"])
def test_budget_overflow_exits_3_with_one_stderr_line(tmp_path, capsys, command, budget, line):
    args = [command, "--input", SAMPLE14, "--budget", str(budget),
            "--cache", str(tmp_path / "cx")]
    if command == "verify":
        args.append(str(GOLDEN / "cavities.json"))
    rc, out, err = run(capsys, *args)
    assert (rc, out, err) == (3, "", line + "\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_analyze_prints_the_empty_profile_of_an_empty_edge_file(tmp_path, capsys, fmt):
    source = tmp_path / "empty.edges"
    source.write_text("")
    rc, out, err = run(capsys, "analyze", "--input", str(source), "--format", fmt)
    assert (rc, err) == (0, "")
    if fmt == "json":
        assert json.loads(out) == {
            "m": [], "r": [], "beta": [], "chi": 0, "euler_poincare_ok": True,
        }
    else:
        assert out.splitlines()[:4] == ["k", "m_k", "r_k", "beta_k"]


@pytest.mark.parametrize(
    "args, flag",
    [
        (["kcore", "--input", SAMPLE14, "--threshold", "0"], "--threshold"),
        (["analyze", "--input", SAMPLE14, "--budget", "0"], "--budget"),
        (["verify", "--input", SAMPLE14, "--budget", "-1", "certs.json"], "--budget"),
    ],
)
def test_non_positive_threshold_or_budget_is_a_usage_error(capsys, args, flag):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: must be a positive integer" in err


@pytest.mark.parametrize("flag", [["--emit-dot", "out"], ["--verify"]])
def test_analyze_flags_that_need_cavities_require_it(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", SAMPLE14, *flag])
    assert exc.value.code == 2
    assert f"error: {flag[0]} requires --cavities" in capsys.readouterr().err


def test_warm_cache_is_byte_identical(tmp_path, capsys):
    cache = tmp_path / "cx.json"
    rc1, out1, _ = run(
        capsys, "analyze", "--input", SAMPLE14, "--format", "json", "--cache", str(cache)
    )
    first_cache = cache.read_bytes()
    validate_schema(json.loads(first_cache), "complex.schema.json")
    rc2, out2, _ = run(
        capsys, "analyze", "--input", SAMPLE14, "--format", "json", "--cache", str(cache)
    )
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2
    assert cache.read_bytes() == first_cache


def _drop_top_level(doc):
    doc["levels"].pop()
    doc["counts"].pop()


def _replace_triangle_with_non_clique(doc):
    doc["levels"][2][0] = [0, 1, 13]  # labels 1, 2, 14: not a triangle


def _rehashed(doc):
    """doc with levels_sha256 and counts recomputed for its edited levels."""
    levels = tuple(tuple(tuple(c) for c in level) for level in doc["levels"])
    cx = CliqueComplex(levels)
    return complex_to_json(cx, doc["source_checksum"])


def _missing_edge(doc):
    # an edge in no triangle, so only the comparison with the network finds it
    levels = doc["levels"]
    in_triangles = {(t[i], t[j]) for t in levels[2] for i, j in ((0, 1), (0, 2), (1, 2))}
    levels[1].remove(next(e for e in levels[1] if tuple(e) not in in_triangles))


def _unsorted_level(doc):
    triangles = doc["levels"][2]
    triangles[0], triangles[1] = triangles[1], triangles[0]


def _non_clique_in_sorted_place(doc):
    doc["levels"][2][2] = [0, 1, 5]  # between (0, 1, 3) and (0, 2, 3); edge (1, 5) is absent


def _empty_clique(doc):
    doc["levels"][2].insert(0, [])


def _empty_top_level(doc):
    doc["levels"].append([])


def _float_node_id(doc):
    doc["levels"][2][0][0] = float(doc["levels"][2][0][0])


def _drop_triangle_off_tetrahedron(doc):
    # labels 1, 2, 5: every level stays sorted and closed under facets, so
    # only enumerating finds the hole (m_2 = 12 and beta_1 = 3 if it is read)
    levels = doc["levels"]
    faces = {tuple(t[:i] + t[i + 1 :]) for t in levels[3] for i in range(4)}
    levels[2].remove(next(t for t in levels[2] if tuple(t) not in faces))


def _edited(mutate, rehash: bool):
    def tamper(doc) -> str:
        mutate(doc)
        return json.dumps(_rehashed(doc) if rehash else doc)

    return tamper


def _export_of_sample8(doc) -> str:
    net = load_edge_list(SAMPLE8)
    return json.dumps(complex_to_json(enumerate_cliques(net), edge_text_checksum(net)))


# file text that a run with --cache finds at the path, from the fresh export's document
TAMPERED = {
    "not-json": lambda doc: "not json at all",
    "other-network": _export_of_sample8,
    **{f"edit{m.__name__}": _edited(m, rehash=False)
       for m in (_drop_top_level, _replace_triangle_with_non_clique)},
    **{f"rehash{m.__name__}": _edited(m, rehash=True)
       for m in (_replace_triangle_with_non_clique, _missing_edge, _unsorted_level,
                 _non_clique_in_sorted_place, _empty_clique, _empty_top_level,
                 _float_node_id, _drop_triangle_off_tetrahedron)},
}


@pytest.mark.parametrize("tamper", TAMPERED.values(), ids=TAMPERED.keys())
def test_file_at_the_cache_path_is_never_read(tmp_path, capsys, tamper):
    args = ["analyze", "--cavities", "--format", "json", "--input", SAMPLE14]
    _, expected, _ = run(capsys, *args)
    cache = tmp_path / "cx.json"
    run(capsys, *args, "--cache", str(cache))
    fresh = cache.read_bytes()
    cache.write_text(tamper(json.loads(fresh)))
    rc, out, err = run(capsys, *args, "--cache", str(cache))
    assert (rc, out, err) == (0, expected, "")
    assert cache.read_bytes() == fresh
    assert [p.name for p in tmp_path.iterdir()] == ["cx.json"]


def test_verify_never_reads_the_file_at_the_cache_path(tmp_path, capsys):
    args = ["verify", "--input", SAMPLE14, str(GOLDEN / "cavities.json")]
    _, expected, _ = run(capsys, *args)
    cache = tmp_path / "cx.json"
    run(capsys, *args, "--cache", str(cache))
    fresh = cache.read_bytes()
    cache.write_text(TAMPERED["rehash_drop_triangle_off_tetrahedron"](json.loads(fresh)))
    rc, out, err = run(capsys, *args, "--cache", str(cache))
    assert (rc, out, err) == (0, expected, "")
    assert cache.read_bytes() == fresh
    assert [p.name for p in tmp_path.iterdir()] == ["cx.json"]


def test_emit_dot_writes_one_file_per_cavity(tmp_path, capsys):
    dots = tmp_path / "dots"
    rc, _, _ = run(
        capsys, "analyze", "--input", SAMPLE14, "--cavities", "--emit-dot", str(dots)
    )
    assert rc == 0
    names = sorted(p.name for p in dots.glob("*.dot"))
    assert names == ["cavity_order1_1.dot", "cavity_order1_2.dot", "cavity_order2_1.dot"]
    text = (dots / "cavity_order1_1.dot").read_text()
    assert text.startswith("graph cavity_order1_1 {")
    assert text.count("--") == 4


def test_cavities_subcommand_json(capsys):
    rc, out, _ = run(capsys, "cavities", "--input", SAMPLE14)
    assert rc == 0
    doc = json.loads(out)
    validate_schema(doc, "certificates.schema.json")
    assert [c["length"] for c in doc] == [4, 7, 8]
    assert doc[0]["cliques"] == [["3", "6"], ["3", "8"], ["6", "7"], ["7", "8"]]


def test_verify_round_trip(tmp_path, capsys):
    certs = tmp_path / "certs.json"
    rc, out, _ = run(capsys, "cavities", "--input", SAMPLE14)
    certs.write_text(out)
    rc, out, _ = run(capsys, "verify", "--input", SAMPLE14, str(certs))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all("PASS" in line for line in lines)


def test_verify_flags_corrupted_certificate(tmp_path, capsys):
    rc, out, _ = run(capsys, "cavities", "--input", SAMPLE14)
    doc = json.loads(out)
    doc[0]["cliques"] = doc[0]["cliques"][:-1]  # drop one member
    certs = tmp_path / "bad.json"
    certs.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "--input", SAMPLE14, str(certs))
    assert rc == 1
    lines = out.splitlines()
    assert "FAIL" in lines[0]
    assert "PASS" in lines[1] and "PASS" in lines[2]


def test_verify_flags_cliques_that_are_not_a_cycle(tmp_path, capsys):
    doc = json.loads((GOLDEN / "cavities.json").read_text())
    entry = doc[0]
    # drop a member other than the generator, and keep length and nodes consistent
    entry["cliques"].remove(next(c for c in entry["cliques"] if c != entry["generator"]))
    entry["length"] = len(entry["cliques"])
    entry["nodes"] = sorted({u for c in entry["cliques"] for u in c}, key=int)
    certs = tmp_path / "path.json"
    certs.write_text(json.dumps([entry]))
    rc, out, _ = run(capsys, "verify", "--input", SAMPLE14, str(certs))
    assert (rc, out) == (1, "cert 1: FAIL (cycle)\n")


def test_verify_flags_a_certificate_listed_twice(tmp_path, capsys):
    doc = json.loads((GOLDEN / "cavities.json").read_text())
    certs = tmp_path / "twice.json"
    certs.write_text(json.dumps([doc[0], doc[0]]))
    rc, out, _ = run(capsys, "verify", "--input", SAMPLE14, str(certs))
    assert rc == 1
    assert out.splitlines() == ["cert 1: PASS (order 1, length 4)", "cert 2: FAIL (independence)"]


def test_verify_flags_a_generator_outside_its_cycle(tmp_path, capsys):
    doc = json.loads((GOLDEN / "cavities.json").read_text())
    doc[0]["generator"] = ["2", "3"]  # an edge of sample14 that the first cycle does not list
    certs = tmp_path / "generator.json"
    certs.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "--input", SAMPLE14, str(certs))
    assert (rc, out) == (1, "cert 1: FAIL (generator-membership)\n"
                            "cert 2: PASS (order 1, length 7)\n"
                            "cert 3: PASS (order 2, length 8)\n")


@pytest.mark.parametrize(
    "change, line",
    [
        (dict(cliques=[["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"], ["2", "1"]]),
         "clique (1,2) is listed twice"),
        (dict(cliques=[["1", "2"], ["2", "3"], ["3", "1"], ["1", "4"]]),
         "(1,3) is not an order-1 clique of the complex"),
        (dict(generator=["4", "2"]), "generator (2,4) is not an order-1 clique"),
        (dict(nodes=None), "missing field nodes"),
        (dict(cliques=[["1", "2"], ["2", "3"], ["3", "4"], ["1", "zz"]]), "unknown label zz"),
    ],
    ids=["listed-twice", "non-clique", "non-clique-generator", "missing-field", "unknown-label"],
)
def test_verify_names_a_bad_clique_by_its_labels(tmp_path, capsys, change, line):
    cycle4 = tmp_path / "c4.edges"
    cycle4.write_text("1 2\n2 3\n3 4\n4 1\n")
    entry = {
        "order": 1,
        "generator": ["1", "2"],
        "cliques": [["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]],
        "length": 4,
        "nodes": ["1", "2", "3", "4"],
        **change,
    }
    entry = {k: v for k, v in entry.items() if v is not None}  # None drops the field
    certs = tmp_path / "certs.json"
    certs.write_text(json.dumps([entry]))
    rc, out, _ = run(capsys, "verify", "--input", str(cycle4), str(certs))
    assert (rc, out) == (1, f"cert 1: FAIL ({line})\n")


@pytest.mark.parametrize(
    "change, line",
    [
        (dict(cliques=["12", "14", "23", "34"], generator="34", nodes="1234"),
         "a clique must be a list, got '12'"),
        (dict(cliques="12 14 23 34"), "cliques must be a list, got '12 14 23 34'"),
        (dict(generator="12"), "generator must be a list, got '12'"),
        (dict(nodes="1234"), "nodes must be a list, got '1234'"),
    ],
    ids=["all-strings", "cliques", "generator", "nodes"],
)
def test_verify_requires_the_certificate_lists_to_be_json_lists(tmp_path, capsys, change, line):
    cycle4 = tmp_path / "c4.edges"
    cycle4.write_text("1 2\n2 3\n3 4\n4 1\n")
    entry = {
        "order": 1,
        "generator": ["1", "2"],
        "cliques": [["1", "2"], ["1", "4"], ["2", "3"], ["3", "4"]],
        "length": 4,
        "nodes": ["1", "2", "3", "4"],
    }
    certs = tmp_path / "certs.json"
    certs.write_text(json.dumps([entry, {**entry, **change}]))
    rc, out, _ = run(capsys, "verify", "--input", str(cycle4), str(certs))
    assert (rc, out) == (1, f"cert 1: PASS (order 1, length 4)\ncert 2: FAIL ({line})\n")


def test_verify_against_wrong_network_fails(tmp_path, capsys):
    certs = tmp_path / "certs.json"
    _, out, _ = run(capsys, "cavities", "--input", SAMPLE14)
    certs.write_text(out)
    rc, out, _ = run(capsys, "verify", "--input", SAMPLE8, str(certs))
    # sample8 holds sample14's 4-cycle, but not node 9 of the other two
    assert (rc, out) == (1, "cert 1: PASS (order 1, length 4)\n"
                            "cert 2: FAIL (unknown label 9)\ncert 3: FAIL (unknown label 9)\n")


def test_verify_rejects_a_certificate_file_that_is_not_a_list(tmp_path, capsys):
    certs = tmp_path / "five.json"
    certs.write_text("5\n")
    rc, out, err = run(capsys, "verify", "--input", SAMPLE14, str(certs))
    assert (rc, out) == (1, "")
    assert err == f"error: {certs}: a certificate file must hold a JSON list\n"


@pytest.mark.parametrize("field", ["order", "length"])
@pytest.mark.parametrize("value", [1.9, 4.0, True, "4", None])
def test_verify_rejects_an_order_or_length_that_is_not_an_integer(tmp_path, capsys, field, value):
    entry = json.loads((GOLDEN / "cavities.json").read_text())[0]
    assert (entry["order"], entry["length"]) == (1, 4)
    entry[field] = value
    certs = tmp_path / "certs.json"
    certs.write_text(json.dumps([entry]))
    rc, out, _ = run(capsys, "verify", "--input", SAMPLE14, str(certs))
    assert (rc, out) == (1, f"cert 1: FAIL ({field} must be an integer, got {value!r})\n")


@pytest.mark.parametrize(
    "payload, reason",
    [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"[{", "Expecting property name enclosed in double quotes: line 1 column 3 (char 2)"),
        (b"\xff[]", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["empty", "truncated", "not-utf8"],
)
def test_verify_names_a_certificate_file_that_is_not_json(tmp_path, capsys, payload, reason):
    certs = tmp_path / "broken.json"
    certs.write_bytes(payload)
    rc, out, err = run(capsys, "verify", "--input", SAMPLE14, str(certs))
    assert (rc, out, err) == (1, "", f"error: {certs}: {reason}\n")


def reader_argv(reader: str, path: str) -> list[str]:
    """The command line with which reader reads the file at path."""
    return {
        "kcore": ["kcore", "--input", path],
        "analyze": ["analyze", "--input", path],
        "cavities": ["cavities", "--input", path],
        "verify": ["verify", "--input", path, str(GOLDEN / "cavities.json")],
        "verify-certificates": ["verify", "--input", SAMPLE14, path],
    }[reader]


@pytest.mark.parametrize("fault", ["missing", "directory", "missing-typed", "directory-typed"])
@pytest.mark.parametrize(
    "reader", ["kcore", "analyze", "cavities", "verify", "verify-certificates"]
)
def test_every_failed_read_is_one_error_line_naming_the_path(tmp_path, capsys, reader, fault):
    path, reason = {
        "missing": (f"{tmp_path}/missing.edges", "No such file or directory"),
        "directory": (str(tmp_path), "Is a directory"),
        # a path typed with ./ or a trailing slash is named as typed
        "missing-typed": (f"{tmp_path}/./missing.edges", "No such file or directory"),
        "directory-typed": (f"{tmp_path}/", "Is a directory"),
    }[fault]
    rc, out, err = run(capsys, *reader_argv(reader, path))
    assert (rc, out, err) == (1, "", f"error: {path}: {reason}\n")


@pytest.mark.parametrize(
    "payload, reason",
    [(b"1 2\n2\n", "line 2: expected two node labels, got '2'"),
     (b"1 2\n\xff 3\n", "'utf-8' codec can't decode byte 0xff in position 4")],
    ids=["malformed-line", "not-utf8"],
)
@pytest.mark.parametrize("command", ["analyze", "kcore", "verify"])
def test_input_read_errors_name_the_input_file(tmp_path, capsys, command, payload, reason):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(payload)
    extra = [str(GOLDEN / "cavities.json")] if command == "verify" else []
    rc, out, err = run(capsys, command, "--input", str(bad), *extra)
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {bad}: {reason}")
    assert len(err.splitlines()) == 1


def test_smallest_cavity_notes_and_schema(capsys):
    rc, out, _ = run(capsys, "smallest-cavity", "4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    validate_schema(doc, "census.schema.json")
    assert doc["m"] == [10, 40, 80, 80, 32]
    assert doc["chi"] == 2
    assert len(doc["discrepancy_notes"]) == 1
    assert "printed 40, measured 80" in doc["discrepancy_notes"][0]

    rc, out, _ = run(capsys, "smallest-cavity", "6", "--format", "json")
    doc = json.loads(out)
    assert doc["discrepancy_notes"] == []
    assert doc["chi"] == 2

    with pytest.raises(SystemExit) as exc:
        main(["smallest-cavity", "13"])
    assert exc.value.code == 2


def test_smallest_cavity_lists_no_cliques(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("smallest-cavity must count cliques without listing them")

    monkeypatch.setattr("cliquecav.cliques.enumerate_cliques", refuse)
    rc, out, _ = run(capsys, "smallest-cavity", "12", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["m"] == [cross_polytope_count(12, j) for j in range(13)]
    assert doc["chi"] == 2
    assert doc["discrepancy_notes"] == []


def test_random_er_cli_deterministic(tmp_path, capsys):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    rc, _, _ = run(capsys, "random-er", "50", "200", str(a), "--seed", "3")
    assert rc == 0
    run(capsys, "random-er", "50", "200", str(b), "--seed", "3")
    assert a.read_bytes() == b.read_bytes()
    rc, _, _ = run(capsys, "random-er", "4", "6", str(tmp_path / "k4.edges"))
    assert (tmp_path / "k4.edges").read_text().splitlines() == [
        "1 2", "1 3", "1 4", "2 3", "2 4", "3 4",
    ]
    rc, out, err = run(capsys, "random-er", "5", "20", str(tmp_path / "no.edges"))
    assert (rc, out, err) == (1, "", "error: infeasible edge count m=20 for n=5\n")
    assert not (tmp_path / "no.edges").exists()


# every option each subcommand takes besides -h/--help; a flag that no
# command path reads must not come back
OPTIONS = {
    "kcore": ["--format", "--input", "--threshold"],
    "analyze": ["--budget", "--cache", "--cavities", "--emit-dot", "--force", "--format",
                "--input", "--threshold", "--verify"],
    "cavities": ["--budget", "--cache", "--emit-dot", "--force", "--format", "--input",
                 "--threshold", "--verify"],
    "smallest-cavity": ["--format"],
    "random-er": ["--seed"],
    "fetch": ["--dest", "--force", "--sha256", "--url"],
    "verify": ["--budget", "--cache", "--input"],
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert found == OPTIONS


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--input", SAMPLE14, "--max-order", "2"],
        ["analyze", "--input", SAMPLE14, "--verify", "--format", "json"],
        ["cavities", "--input", SAMPLE14, "--max-order", "2"],
        ["smallest-cavity", "3", "--input", "x"],
        ["verify", "--input", SAMPLE14, "--format", "json", "certs.json"],
        ["kcore", "--input", SAMPLE14, "--budget", "10"],
        ["kcore"],
        ["kcore", "--input", SAMPLE14, "--format", "csv"],
    ],
)
def test_removed_or_missing_flags_exit_2(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_help_exits_0(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: cliquecav {name}")


class QuietHandler(http.server.SimpleHTTPRequestHandler):
    def log_message(self, *args):  # the request log would land in the CLI's captured stderr
        pass


@pytest.fixture()
def http_server(tmp_path):
    serve_dir = tmp_path / "served"
    serve_dir.mkdir()
    handler = functools.partial(QuietHandler, directory=str(serve_dir))
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    # a short poll interval: shutdown() waits up to one interval
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield serve_dir, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


@pytest.fixture()
def sample14_url(http_server):
    serve_dir, base = http_server
    (serve_dir / "net.edges").write_bytes(Path(SAMPLE14).read_bytes())
    return f"{base}/net.edges"


def test_fetch_success_writes_file_and_checksum(http_server, tmp_path, capsys):
    serve_dir, base = http_server
    payload = Path(SAMPLE14).read_bytes()
    (serve_dir / "net.edges").write_bytes(payload)
    dest = tmp_path / "fetched" / "mynet.edges"
    rc, out, _ = run(
        capsys, "fetch", "mynet", "--url", f"{base}/net.edges", "--dest", str(dest)
    )
    assert rc == 0
    assert dest.read_bytes() == payload
    digest = hashlib.sha256(payload).hexdigest()
    assert digest in out
    sidecar = dest.with_name(dest.name + ".sha256")
    assert sidecar.read_text().split()[0] == digest


def test_fetch_ignores_a_byte_order_mark(http_server, tmp_path, capsys):
    serve_dir, base = http_server
    payload = b"\xef\xbb\xbf" + Path(SAMPLE14).read_bytes()
    (serve_dir / "net.edges").write_bytes(payload)
    dest = tmp_path / "mynet.edges"
    rc, out, _ = run(
        capsys, "fetch", "mynet", "--url", f"{base}/net.edges", "--dest", str(dest)
    )
    assert rc == 0
    assert "fetched mynet: 14 nodes, 26 edges" in out
    assert dest.read_bytes() == payload


def test_fetch_checksum_pin_mismatch_keeps_nothing(http_server, tmp_path, capsys):
    serve_dir, base = http_server
    (serve_dir / "net.edges").write_bytes(Path(SAMPLE14).read_bytes())
    dest = tmp_path / "mynet.edges"
    rc, _, err = run(
        capsys, "fetch", "mynet", "--url", f"{base}/net.edges",
        "--dest", str(dest), "--sha256", "0" * 64,
    )
    digest = hashlib.sha256(Path(SAMPLE14).read_bytes()).hexdigest()
    assert (rc, err) == (1, f"error: checksum mismatch: expected {'0' * 64}, got {digest}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "served"]


def test_fetch_rejects_a_payload_that_is_not_utf8(http_server, tmp_path, capsys):
    serve_dir, base = http_server
    (serve_dir / "net.edges").write_bytes(b"1 2\n\xff 3\n")
    rc, _, err = run(
        capsys, "fetch", "mynet", "--url", f"{base}/net.edges",
        "--dest", str(tmp_path / "mynet.edges"),
    )
    assert (rc, err) == (
        1,
        "error: downloaded file is not a readable edge list: 'utf-8' codec can't "
        "decode byte 0xff in position 4: invalid start byte\n",
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "served"]


def test_fetch_known_dataset_size_validation(http_server, tmp_path, capsys):
    serve_dir, base = http_server
    (serve_dir / "net.edges").write_bytes(Path(SAMPLE14).read_bytes())
    dest = tmp_path / "celegans.edges"
    rc, _, err = run(
        capsys, "fetch", "celegans", "--url", f"{base}/net.edges", "--dest", str(dest)
    )
    assert (rc, err) == (
        1, "error: celegans should have 297 nodes and 2148 edges, got 14 nodes and 26 edges\n"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "served"]


def test_fetch_existing_dest_without_force(tmp_path, capsys):
    dest = tmp_path / "have.edges"
    dest.write_text("1 2\n")
    rc, out, _ = run(
        capsys, "fetch", "mynet", "--url", "http://127.0.0.1:1/unreachable",
        "--dest", str(dest),
    )
    assert rc == 0
    assert "already exists" in out


def test_fetch_unreachable_url_fails(tmp_path, capsys):
    rc, _, err = run(
        capsys, "fetch", "mynet", "--url", "http://127.0.0.1:1/nope",
        "--dest", str(tmp_path / "x.edges"),
    )
    refused = f"[Errno {errno.ECONNREFUSED}] {os.strerror(errno.ECONNREFUSED)}"
    assert (rc, err) == (1, f"error: fetch failed: <urlopen error {refused}>\n")
    assert list(tmp_path.iterdir()) == []


def test_fetch_gives_up_on_a_server_that_never_answers(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "FETCH_TIMEOUT_S", 0.5)
    # the kernel completes the connection into the backlog; nothing ever answers it
    with socket.create_server(("127.0.0.1", 0)) as silent:
        url = f"http://127.0.0.1:{silent.getsockname()[1]}/net.edges"
        start = time.monotonic()
        rc, out, err = run(capsys, "fetch", "mynet", "--url", url, "--dest", str(tmp_path / "x"))
        assert time.monotonic() - start < 10
    assert (rc, out) == (1, "")
    assert err.startswith("error: fetch failed: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_fetch_of_a_body_cut_short_is_an_error(tmp_path, capsys):
    with socket.create_server(("127.0.0.1", 0)) as server:

        def answer_short():
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n1 2\n")

        thread = threading.Thread(target=answer_short)
        thread.start()
        url = f"http://127.0.0.1:{server.getsockname()[1]}/net.edges"
        rc, out, err = run(capsys, "fetch", "mynet", "--url", url, "--dest", str(tmp_path / "x"))
        thread.join()
    assert (rc, out) == (1, "")
    assert err == "error: fetch failed: IncompleteRead(4 bytes read, 96 more expected)\n"
    assert list(tmp_path.iterdir()) == []


def test_fetch_into_an_existing_directory_is_an_error_that_writes_nothing(
    sample14_url, tmp_path, capsys
):
    dest = tmp_path / "adir"
    dest.mkdir()
    rc, out, err = run(capsys, "fetch", "mynet", "--url", sample14_url, "--dest", str(dest))
    assert (rc, out, err) == (1, "", f"error: {dest}: Is a directory\n")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "adir", "served", "served/net.edges",
    ]


def writer_argv(writer: str, path: str | Path, url: str) -> list[str]:
    """The command line with which writer writes the file at path, typed as str(path)."""
    fetch = ["fetch", "mynet", "--url", url, "--force", "--dest"]
    return {
        "analyze-cache": ["analyze", "--input", SAMPLE14, "--cache", str(path)],
        "cavities-cache": ["cavities", "--input", SAMPLE14, "--cache", str(path)],
        "verify-cache": ["verify", "--input", SAMPLE14, "--cache", str(path),
                         str(GOLDEN / "cavities.json")],
        "random-er": ["random-er", "5", "3", str(path)],
        "fetch": [*fetch, str(path)],
        "fetch-sidecar": [*fetch, str(Path(path).with_suffix(""))],
        "emit-dot": ["cavities", "--input", SAMPLE14, "--emit-dot", os.path.dirname(path)],
    }[writer]


# the name of the file each writer writes: the sidecar of dataset x, and the first DOT file
WRITTEN_NAME = {"fetch-sidecar": "x.sha256", "emit-dot": "cavity_order1_1.dot"}
WRITERS = ("analyze-cache", "cavities-cache", "verify-cache", "random-er", "fetch",
           "fetch-sidecar", "emit-dot")


@pytest.mark.parametrize(
    "writer, fault",
    # fetch and --emit-dot make the directory they write into, so only a file in its way fails
    [(w, "missing-dir") for w in WRITERS[:4]]
    + [(w, "directory") for w in WRITERS]
    # a DEST typed with a trailing slash: the temporary file must not land inside it
    + [(w, "directory-with-slash") for w in WRITERS[:5]]
    + [(w, "parent-is-a-file") for w in WRITERS if w != "fetch-sidecar"]
    # the directory fetch and --emit-dot make, typed with a ./ that a failure keeps
    + [(w, "typed-dir-under-a-file") for w in ("fetch", "emit-dot")],
)
def test_every_failed_write_is_one_error_line_naming_the_path(
    sample14_url, tmp_path, capsys, writer, fault
):
    parent = tmp_path / "d"
    path = parent / WRITTEN_NAME.get(writer, "x")
    if fault == "missing-dir":
        named, reason = path, "No such file or directory"
    elif fault == "directory":
        path.mkdir(parents=True)
        named, reason = path, "Is a directory"
    elif fault == "directory-with-slash":
        path.mkdir(parents=True)
        path = named = f"{path}/"
        reason = "Is a directory"
    elif fault == "parent-is-a-file":
        parent.write_text("")
        if writer in ("fetch", "emit-dot"):  # they fail making parent
            named, reason = parent, "File exists"
        else:
            named, reason = path, "Not a directory"
    else:
        parent.write_text("")
        named, reason = f"{tmp_path}/./d/sub", "Not a directory"
        path = f"{named}/{path.name}"
    rc, out, err = run(capsys, *writer_argv(writer, path, sample14_url))
    assert (rc, out, err) == (1, "", f"error: {named}: {reason}\n")
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("writer", [w for w in WRITERS if w != "fetch-sidecar"])
def test_a_failed_rename_keeps_the_old_file(
    sample14_url, monkeypatch, tmp_path, capsys, writer
):
    path = tmp_path / "d" / WRITTEN_NAME.get(writer, "x")
    path.parent.mkdir()
    path.write_bytes(b"old\n")

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", refuse)
    rc, out, err = run(capsys, *writer_argv(writer, path, sample14_url))
    assert (rc, out, err) == (1, "", f"error: {path}: {os.strerror(errno.EACCES)}\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def _run_subprocess(args, hash_seed, **extra_env):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLIQUECAV_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env.update(extra_env)
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_labels_with_equal_int_values_are_hash_seed_independent(tmp_path):
    # "1"/"01" and "10"/"1_0" parse to the same int; ids must not depend on set order
    edges = tmp_path / "ties.edges"
    edges.write_text("1 2\n2 01\n01 3\n3 1\n10 1_0\n1_0 4\n4 5\n5 10\n")
    args = ["-m", "cliquecav.cli", "analyze", "--cavities", "--format", "json",
            "--input", str(edges)]
    outputs = {_run_subprocess(args, seed) for seed in (1, 2, 5)}
    assert len(outputs) == 1
    cavities = json.loads(outputs.pop())["cavities"]
    assert [c["nodes"] for c in cavities] == [["01", "1", "2", "3"], ["4", "5", "10", "1_0"]]


def test_byte_order_mark_adds_no_node(tmp_path, capsys):
    edges = tmp_path / "bom.edges"
    edges.write_bytes(b"\xef\xbb\xbf1 2\n2 3\n3 1\n1 4\n")
    rc, out, _ = run(capsys, "analyze", "--format", "json", "--input", str(edges))
    assert rc == 0
    assert json.loads(out)["m"] == [4, 4, 1]


def test_input_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    edges = tmp_path / "labels.edges"
    edges.write_text("caf\u00e9 2\n2 3\n3 caf\u00e9\n", encoding="utf-8")
    args = ["-m", "cliquecav.cli", "analyze", "--format", "json", "--input", str(edges)]
    out = _run_subprocess(args, 0, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert json.loads(out)["m"] == [3, 3, 1]


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.mark.parametrize("argv", [
    ["analyze", "--cavities", "--format", "table"],
    ["analyze", "--cavities", "--format", "csv"],
    ["cavities", "--format", "table"],
])
def test_output_is_written_as_utf8_under_an_ascii_locale(tmp_path, argv):
    edges = tmp_path / "square.edges"
    edges.write_text("caf\u00e9 2\n2 3\n3 4\n4 caf\u00e9\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("CLIQUECAV_", "LC_", "PYTHONIOENCODING"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    stdout = {}
    for name, locale in (("ascii", ASCII_LOCALE), ("utf-8", {"PYTHONUTF8": "1"})):
        done = subprocess.run(
            [sys.executable, "-m", "cliquecav.cli", *argv, "--input", str(edges)],
            env={**env, **locale}, capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b""), name
        stdout[name] = done.stdout
    assert stdout["ascii"] == stdout["utf-8"]
    assert "caf\u00e9".encode("utf-8") in stdout["ascii"]


def test_environment_variables_do_not_configure_the_cli():
    args = ["-m", "cliquecav.cli", "analyze", "--format", "json", "--input", SAMPLE14]
    set_env = _run_subprocess(
        args, 0, CLIQUECAV_MAX_ORDER="1", CLIQUECAV_FORMAT="csv", CLIQUECAV_THRESHOLD="1"
    )
    assert set_env == _run_subprocess(args, 0)
    assert json.loads(set_env)["beta"] == [1, 2, 1, 0]


def test_cli_import_leaves_urllib_request_unloaded():
    code = "import sys, cliquecav.cli; print('urllib.request' in sys.modules)"
    assert _run_subprocess(["-c", code], 0).strip() == "False"


LAYERS = ("cliquecav.cliques", "cliquecav.gf2", "cliquecav.solver", "cliquecav.cavities")
# standard-library modules no subcommand needs at start-up
UNUSED = ("logging", "hashlib", "dataclasses", "inspect")


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["kcore", "--input", SAMPLE14], (*LAYERS, *UNUSED)),
        (
            ["analyze", "--format", "json", "--input", SAMPLE14],
            ("cliquecav.solver", "cliquecav.cavities", *UNUSED),
        ),
        (
            ["smallest-cavity", "3"],
            ("cliquecav.gf2", "cliquecav.solver", "cliquecav.cavities", *UNUSED),
        ),
        (["cavities", "--verify", "--input", SAMPLE14], UNUSED),
        (
            ["verify", "--input", SAMPLE14, str(GOLDEN / "cavities.json")],
            ("cliquecav.solver", *UNUSED),
        ),
        (None, ("cliquecav.graph", "cliquecav.cli", *LAYERS, *UNUSED)),
    ],
    ids=["kcore", "analyze", "smallest-cavity", "cavities", "verify", "import-cliquecav"],
)
def test_subcommand_imports_only_the_modules_it_runs(argv, unloaded):
    run_main = f"from cliquecav.cli import main; main({argv!r}); " if argv else ""
    code = (f"import sys; before = set(sys.modules); import cliquecav; {run_main}"
            "print(' '.join(sorted(sys.modules)));"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    *_, loaded_line, new_line = _run_subprocess(["-c", code], 0).splitlines()
    loaded = set(loaded_line.split())
    assert "cliquecav" in loaded
    assert loaded.isdisjoint(unloaded)
    # pure standard library: every module loaded from `import cliquecav` on
    top_level = {name.partition(".")[0] for name in new_line.split()}
    assert "cliquecav" in top_level and top_level - {"cliquecav"} <= sys.stdlib_module_names


def test_node_limit_exits_1_with_message(monkeypatch, capsys):
    monkeypatch.setattr(
        BoundaryContext, "search", functools.partialmethod(BoundaryContext.search, node_limit=1)
    )
    rc, out, err = run(capsys, "cavities", "--input", SAMPLE14)
    assert rc == 1
    assert out == ""
    assert err == "error: node limit 1 exceeded; search is incomplete\n"


def test_cavity_search_error_reports_partial_count(monkeypatch, capsys):
    # order 1 of sample14 has certificates of length 4 and 7; the schedule stops at 5
    schedule = cavities.length_schedule
    monkeypatch.setattr(cavities, "length_schedule", lambda k, ceiling: schedule(k, 5))
    rc, out, err = run(capsys, "analyze", "--cavities", "--input", SAMPLE14)
    assert rc == 1
    assert out == ""
    assert "up to length 5" in err
    assert "(1 certificates of that order found)" in err
    assert len(err.splitlines()) == 1


def test_failed_self_check_exits_1_with_message(monkeypatch, capsys):
    monkeypatch.setattr(BoundaryContext, "recheck", lambda *a: "independence")
    rc, out, err = run(capsys, "cavities", "--verify", "--input", SAMPLE14)
    assert rc == 1
    assert out == ""
    assert err == (
        "error: internal check failed: order-1 certificate violates the "
        "independence constraint\n"
    )
