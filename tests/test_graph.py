import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from oracles import (
    bernoulli_graph,
    k_core_oracle,
    network_from_edges_oracle,
    parse_edge_text_oracle,
    peel_coreness,
    random_er_oracle,
    small_graphs,
)


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


def test_read_errors_of_a_path_source_start_with_the_path(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2\n2\n")
    line = "line 2: expected two node labels, got '2'"
    for source in (bad, str(bad)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{bad}: {line}')}$"):
            load_edge_list(source)
    binary = tmp_path / "binary.edges"
    binary.write_bytes(b"1 2\n\xff 3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(binary))}: 'utf-8' codec can't decode"):
        load_edge_list(binary)
    # a file object has no path to name
    with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
        load_edge_list(io.StringIO("1 2\n2\n"))


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


def _graph_on(n: int, edges):
    return network_from_edges([str(i) for i in range(n)], [(str(u), str(v)) for u, v in edges])


def _complete(n: int, first: int = 0) -> list[tuple[int, int]]:
    return [(u, v) for u in range(first, first + n) for v in range(u + 1, first + n)]


def _star(leaves: int, first: int = 0) -> list[tuple[int, int]]:
    return [(first, first + i) for i in range(1, leaves + 1)]


def _path(n: int, first: int = 0) -> list[tuple[int, int]]:
    return [(u, u + 1) for u in range(first, first + n - 1)]


@pytest.fixture(scope="module")
def peel_graphs():
    """Graphs whose peel is checked against the oracles, with a name each."""
    graphs = {"empty": _graph_on(0, []), "isolated 5": _graph_on(5, [])}
    graphs.update((f"K_{n}", _graph_on(n, _complete(n))) for n in range(1, 9))
    graphs.update((f"star {k}", _graph_on(k + 1, _star(k))) for k in (1, 2, 5, 30))
    graphs.update((f"path {n}", _graph_on(n, _path(n))) for n in (2, 3, 10))
    # K_5, K_3, a path, a star and three isolated nodes side by side
    union = _complete(5) + _complete(3, 5) + _path(4, 8) + _star(6, 12)
    graphs["disjoint union"] = _graph_on(22, union)
    graphs["K_4 and K_4"] = _graph_on(8, _complete(4) + _complete(4, 4))
    for n in (10, 60, 300):
        for density in (0.01, 0.05, 0.2, 0.6, 0.95):
            m = round(density * n * (n - 1) / 2)
            for seed in range(2):
                graphs[f"random_er({n}, {m}, {seed})"] = random_er(n, m, seed)
                graphs[f"bernoulli({n}, {density}, {seed})"] = bernoulli_graph(n, density, seed)
    return graphs


def test_coreness_matches_min_degree_peeling_oracle(peel_graphs):
    for name, net in peel_graphs.items():
        rep = k_core_decomposition(net)
        assert list(rep.coreness) == peel_coreness(net), name


def test_coreness_report_matches_the_threshold_peel(peel_graphs):
    for name, net in peel_graphs.items():
        assert k_core_decomposition(net) == k_core_oracle(net), name


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
    assert computability_gate(rep, coreness_threshold=25).computable
    assert computability_gate(rep, coreness_threshold=4).computable
    blocked = computability_gate(rep, coreness_threshold=3)
    assert isinstance(blocked, GateResult)
    assert not blocked.computable
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


# Edge-list texts the loader must read as the label-pair parse it replaced:
# the same Network, or a ValueError with the same text
LOADER_FRAGMENTS = [
    "",
    "# only\n% comments\n\n",
    "#\n%\n1 2\n",
    "  # indented comment\n\t% tabbed comment\n1 2\n",
    "\u00a0# no-break space\n\t# tabbed hash\n1 2\n",
    "#a b\n%1 2\n2 3\n",
    "1 2 # trailing\na #b\n",
    ",# x\n",
    ", # x\n",
    "a,#b\n",
    " , % y\n1 2\n",
    " , \n",
    "1 2\n , \n",
    ",#\n",
    "1 2\n2\n",
    "1 2\n2 3\nnope\n",
    "1 2 0.5\n2 3\t1.5 extra\n",
    "1\t2\n2\u00a03\n3\u30001\n",
    "1 2\r\n2 3\r\n\r\n3 1\r\n",
    "1 2\r2 3\x1c3 4\u20284 1\x85\x0c1 3",
    "\n\n1 2\n\n\n",
    "\ufeff1 2\n2 3\n",
    "\ufeff# comment\n1 2\n",
    "1 \ufeff2\n",
    "1,2\n,2,3\n3,,4\na, b\n",
    "2 1\n1 2\n1 2\n2,1\n",
    "1 1\n1 2\n9 9\n",
    "5 5\n",
    "loop loop\n",
    "1 2\n01 1_0\n10 1\n1 01\n",
    "1 a\nb 2\n10 a\n",
    "-1 +1\n1 2\n",
]


def _assert_loads_like_the_oracle(text: str, path) -> None:
    path.write_text(text, encoding="utf-8", newline="")
    for source, want_text, prefix in (
        (io.StringIO(text), text, ""),
        (path, path.read_text(encoding="utf-8"), f"{path}: "),
    ):
        try:
            want = parse_edge_text_oracle(want_text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_edge_list(source)
            assert str(got.value) == prefix + str(exc), repr(text)
        else:
            assert load_edge_list(source) == want, repr(text)


def test_loader_matches_the_label_pair_parse_on_fragments(tmp_path):
    for text in LOADER_FRAGMENTS:
        _assert_loads_like_the_oracle(text, tmp_path / "fragment.edges")


# lines inserted into a G(n, m) edge list; {u} {v} is one of its edges
DECORATIONS = [
    "# comment", "  % indented", "", "   ", ",# x", " , % y", "{u} {v} 0.5",
    "{u}\t{v}", "{u}\u00a0{v}", "{v} {u}", "{u} {v}", "{u},{v}", "{u} {u}",
    "only{u} only{u}", "0{u} {v}", "{u}_0 {v}",
]


def _decorated_edge_text(seed: int) -> str:
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    name = rng.choice(["{}", "v{}"]).format
    edges = rng.sample(_complete(n, 1), rng.randint(1, n * (n - 1) // 2))
    lines = [f"{name(u)} {name(v)}" for u, v in edges]
    for _ in range(rng.randint(1, 12)):
        u, v = map(name, rng.choice(edges))
        lines.insert(rng.randint(0, len(lines)), rng.choice(DECORATIONS).format(u=u, v=v))
    if seed % 10 == 9:
        lines.insert(rng.randint(0, len(lines)), rng.choice([" , ", "x", ",#"]))
    eol = rng.choice(["\n", "\r\n"])
    return rng.choice(["", "\ufeff"]) + eol.join(lines) + rng.choice(["", eol])


def test_loader_matches_the_label_pair_parse_on_decorated_gnm(tmp_path):
    for seed in range(30):
        _assert_loads_like_the_oracle(_decorated_edge_text(seed), tmp_path / "gnm.edges")


def test_network_from_edges_matches_the_label_pair_build():
    rng = random.Random(3)
    labels = ["1", "01", "1_0", "10", "2", "3", "x", "y", "isolated"]
    for _ in range(40):
        pairs = [tuple(rng.choices(labels[:-1], k=2)) for _ in range(rng.randint(0, 30))]
        for extra in ((), labels[-1:], ["2", "1"]):
            got = network_from_edges(extra, pairs)
            assert got == network_from_edges_oracle(extra, pairs), (extra, pairs)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(small_graphs(), st.data())
def test_line_order_and_pair_direction_leave_the_network_unchanged(net, data):
    lines = to_edge_text(net).splitlines()
    order = data.draw(st.permutations(lines))
    flips = data.draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    shuffled = [" ".join(line.split()[::-1]) if flip else line for line, flip in zip(order, flips)]
    want = load_edge_list(io.StringIO(to_edge_text(net)))
    assert load_edge_list(io.StringIO("\n".join(shuffled))) == want
