import io

import pytest

from cliquecav import (
    GateResult,
    computability_gate,
    edge_text_checksum,
    k_core_decomposition,
    load_edge_list,
    network_from_edges,
    random_er,
    to_edge_text,
)

from oracles import peel_coreness, random_er_oracle


def test_parse_canonicalizes_messy_input(tmp_path):
    p = tmp_path / "messy.edges"
    p.write_text(
        "# comment\n"
        "% another comment\n"
        "1, 2\n"
        "2 1\n"          # reversed duplicate
        "3 3\n"          # self-loop, dropped
        "2 3 extra\n"    # extra tokens ignored
        "\n"
        "1 3\n"
    )
    net = load_edge_list(p)
    assert net.node_count == 3
    assert net.edge_count == 3
    labels = net.node_labels
    edges = {(labels[u], labels[v]) for u, v in net.edges()}
    assert edges == {("1", "2"), ("2", "3"), ("1", "3")}


def test_self_loop_only_node_is_dropped(tmp_path):
    p = tmp_path / "loop.edges"
    p.write_text("1 2\n9 9\n")
    net = load_edge_list(p)
    assert net.node_labels == ("1", "2")


def test_numeric_labels_sort_numerically():
    net = network_from_edges(["10", "2"], [("10", "2")])
    assert net.node_labels == ("2", "10")


def test_mixed_labels_sort_lexicographically():
    net = network_from_edges(["b", "a10", "a2"], [("b", "a10"), ("a10", "a2")])
    assert net.node_labels == ("a10", "a2", "b")


def test_round_trip_is_identity(sample14):
    text = to_edge_text(sample14)
    again = load_edge_list(io.StringIO(text))
    assert again.node_labels == sample14.node_labels
    assert to_edge_text(again) == text
    assert edge_text_checksum(again) == edge_text_checksum(sample14)


def test_malformed_line_reports_line_number(tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("1 2\n2 3\nnope\n")
    with pytest.raises(ValueError, match="line 3"):
        load_edge_list(p)


def test_k5_coreness():
    labels = [str(i) for i in range(1, 6)]
    pairs = [(str(u), str(v)) for u in range(1, 6) for v in range(u + 1, 6)]
    rep = k_core_decomposition(network_from_edges(labels, pairs))
    assert rep.coreness == (4,) * 5
    assert rep.k_max == 4
    assert rep.core_size == (5, 10)


def test_sample14_coreness(sample14):
    rep = k_core_decomposition(sample14)
    by_label = dict(zip(sample14.node_labels, rep.coreness))
    assert by_label == {
        "1": 3, "2": 3, "3": 3, "4": 3, "5": 3,
        "6": 2, "7": 2, "8": 2,
        "9": 4, "10": 4, "11": 4, "12": 4, "13": 4, "14": 4,
    }
    assert rep.k_max == 4
    assert rep.core_size == (6, 12)


def test_coreness_matches_min_degree_peeling_oracle():
    for seed in range(20):
        net = random_er(25, 60, seed)
        rep = k_core_decomposition(net)
        assert list(rep.coreness) == peel_coreness(net), f"seed {seed}"


def test_coreness_is_input_order_independent(sample14, tmp_path):
    import random

    lines = to_edge_text(sample14).splitlines()
    rng = random.Random(5)
    rng.shuffle(lines)
    shuffled = [" ".join(reversed(line.split())) if rng.random() < 0.5 else line
                for line in lines]
    p = tmp_path / "shuffled.edges"
    p.write_text("\n".join(shuffled) + "\n")
    net = load_edge_list(p)
    assert k_core_decomposition(net) == k_core_decomposition(sample14)


def test_empty_input_has_kmax_zero(tmp_path):
    p = tmp_path / "empty.edges"
    p.write_text("")
    rep = k_core_decomposition(load_edge_list(p))
    assert rep.k_max == 0
    assert computability_gate(rep).computable


def test_gate_verdicts(sample14):
    rep = k_core_decomposition(sample14)
    assert computability_gate(rep, coreness_threshold=25)
    assert computability_gate(rep, coreness_threshold=4).computable
    blocked = computability_gate(rep, coreness_threshold=3)
    assert isinstance(blocked, GateResult)
    assert not blocked
    assert "exceeds" in blocked.reason
    with pytest.raises(ValueError):
        computability_gate(rep, coreness_threshold=-1)


def test_random_er_matches_the_pair_list_oracle():
    for n in (0, 1, 2, 3, 4, 7, 30, 101):
        total = n * (n - 1) // 2
        for m in {0, 1, total // 3, total - 1, total} & set(range(total + 1)):
            for seed in range(3):
                got = random_er(n, m, seed)
                assert got == random_er_oracle(n, m, seed), (n, m, seed)


def test_random_er_deterministic_per_seed():
    a = random_er(30, 100, 7)
    b = random_er(30, 100, 7)
    c = random_er(30, 100, 8)
    assert to_edge_text(a) == to_edge_text(b)
    assert to_edge_text(a) != to_edge_text(c)
    assert a.node_count == 30 and a.edge_count == 100


def test_random_er_forces_k4():
    net = random_er(4, 6, 123)
    assert net.edge_count == 6
    assert {frozenset((net.node_labels[u], net.node_labels[v])) for u, v in net.edges()} == {
        frozenset(p) for p in [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]
    }


def test_random_er_rejects_infeasible_m():
    with pytest.raises(ValueError, match="infeasible"):
        random_er(4, 7, 0)


def test_leading_byte_order_mark_is_not_part_of_a_label(tmp_path):
    p = tmp_path / "bom.edges"
    p.write_bytes(b"\xef\xbb\xbf1 2\n2 3\n3 1\n1 4\n")
    for source in (p, io.StringIO(p.read_text(encoding="utf-8"))):
        net = load_edge_list(source)
        assert net.node_labels == ("1", "2", "3", "4")
        assert net.edge_count == 4
