"""Cliques, GF(2) homology, and minimal cavities of undirected networks.

The package root resolves each public name on first use (PEP 562), so
`import cliquecav` loads no submodule and `from cliquecav import gf2_rank`
loads only the modules that gf2_rank needs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        (
            "CavityCertificate",
            "CavitySearchError",
            "SpanningSelection",
            "VerifyResult",
            "certificate_from_json",
            "certificate_to_dot",
            "certificates_to_json",
            "find_cavities",
            "select_spanning_and_generators",
            "verify_certificate",
        ),
        "cavities",
    ),
    **dict.fromkeys(
        (
            "CliqueComplex",
            "clique_counts",
            "cocktail_party_network",
            "complex_from_json",
            "complex_to_json",
            "enumerate_cliques",
            "euler_characteristic",
        ),
        "cliques",
    ),
    **dict.fromkeys(
        (
            "Boundaries",
            "Gf2Matrix",
            "HomologyProfile",
            "RankResult",
            "basis_insert",
            "build_boundary_matrix",
            "column_space_basis",
            "gf2_rank",
            "homology_profile",
        ),
        "gf2",
    ),
    **dict.fromkeys(
        (
            "DEFAULT_BUDGET",
            "DEFAULT_CORENESS_THRESHOLD",
            "BudgetExceeded",
            "CorenessReport",
            "GateResult",
            "Network",
            "computability_gate",
            "edge_text_checksum",
            "k_core_decomposition",
            "load_edge_list",
            "network_from_edges",
            "random_er",
            "to_edge_text",
        ),
        "graph",
    ),
    **dict.fromkeys(
        ("NodeLimitExceeded", "ZeroOneProgram", "iter_solutions"),
        "solver",
    ),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # not cached in the root: it always reads the home module's current value
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
