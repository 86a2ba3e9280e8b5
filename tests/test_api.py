import importlib
import inspect

import pytest

import cliquecav


def test_all_lists_exactly_the_public_names_the_root_exposes():
    public = {
        name
        for name in dir(cliquecav)
        if not name.startswith("_") and not inspect.ismodule(getattr(cliquecav, name))
    }
    assert len(cliquecav.__all__) == len(set(cliquecav.__all__))
    assert set(cliquecav.__all__) == public == set(cliquecav._HOME)
    assert "__version__" in dir(cliquecav)


def test_each_root_name_is_the_object_its_home_module_defines():
    for name, module in cliquecav._HOME.items():
        home = importlib.import_module(f"cliquecav.{module}")
        value = getattr(cliquecav, name)
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match="^module 'cliquecav' has no attribute 'no_such_name'$"):
        cliquecav.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from cliquecav import *", namespace)
    assert set(cliquecav.__all__) <= set(namespace)
    for name in cliquecav.__all__:
        assert namespace[name] is getattr(cliquecav, name)


# constructor parameters of the public record classes, in order
RECORD_FIELDS = {
    "Network": ("node_count", "node_labels", "adjacency", "edge_count"),
    "CorenessReport": ("coreness", "k_max", "core_size"),
    "GateResult": ("computable", "reason"),
    "CliqueComplex": ("levels", "counts"),
    "EulerNumber": ("chi",),
    "Gf2Matrix": ("rows", "cols", "bits"),
    "RankResult": ("rank", "pivot_cols", "pivot_rows"),
    "HomologyProfile": ("m", "r", "beta", "chi", "euler_poincare_ok"),
    "SpanningSelection": (
        "order", "tree_cols", "boundary_cols", "covered_cliques", "generator_cliques"
    ),
    "CavityCertificate": (
        "order", "indicator", "generator", "length", "node_set", "rank_evidence"
    ),
    "VerifyResult": ("ok", "failed"),
    "ZeroOneProgram": ("num_vars", "parity_rows", "fixed", "cardinality"),
}
RECORD_DEFAULTS = {
    "CavityCertificate": {"rank_evidence": None},
    "VerifyResult": {"failed": None},
    # None stands for a fresh empty list
    "ZeroOneProgram": {"parity_rows": None, "fixed": None, "cardinality": None},
}


def test_record_classes_keep_their_fields_and_defaults():
    for name, fields in RECORD_FIELDS.items():
        params = inspect.signature(getattr(cliquecav, name)).parameters.values()
        assert tuple(p.name for p in params) == fields, name
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        assert defaults == RECORD_DEFAULTS.get(name, {}), name
    program = cliquecav.ZeroOneProgram(3)
    assert (program.parity_rows, program.fixed, program.cardinality) == ([], [], None)
    assert cliquecav.ZeroOneProgram(3).parity_rows is not program.parity_rows
