import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import cliquecav
from cliquecav import cavities
from cliquecav.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLE14 = ROOT / "data" / "sample14.edges"


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


# constructor parameters of the public record classes, in order, none with a default
RECORD_FIELDS = {
    "Network": ("node_labels", "adjacency"),
    "CorenessReport": ("coreness", "core_size"),
    "GateResult": ("computable", "reason"),
    "CliqueComplex": ("levels",),
    "Gf2Matrix": ("cols", "bits"),
    "RankResult": ("pivot_cols", "pivot_rows"),
    "HomologyProfile": ("m", "r"),
    "SpanningSelection": ("order", "generator_cliques"),
    "CavityCertificate": ("order", "indicator", "generator"),
    "ZeroOneProgram": ("num_vars", "parity_rows"),
}


def test_record_classes_keep_their_fields_and_defaults():
    for name, fields in RECORD_FIELDS.items():
        params = inspect.signature(getattr(cliquecav, name)).parameters.values()
        assert tuple(p.name for p in params) == fields, name
        assert all(p.default is p.empty for p in params), name


def _package_defs() -> dict[tuple[str, int], str]:
    """Every def in the package, keyed by (file, first line) as its code
    object reports them: a decorated def starts at its first decorator."""
    defs = {}
    for path in sorted(Path(cliquecav.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                defs[(str(path), first)] = f"{path.stem}.{node.name}"
    return defs


def _pipeline_runs(tmp_path, monkeypatch) -> None:
    """Each subcommand, its error exits and output formats, the root's
    dir(), and the README's Library block."""
    cycle4 = tmp_path / "c4.edges"
    cycle4.write_text("1 2\n2 3\n3 4\n4 1\n")
    sample = str(SAMPLE14)
    runs = [
        (0, ["kcore", "--input", sample]),
        (2, ["kcore", "--input", sample, "--format", "json", "--threshold", "1"]),
        *((0, ["analyze", "--input", sample, "--format", fmt]) for fmt in ("json", "csv", "table")),
        (1, ["analyze", "--input", str(tmp_path / "missing.edges")]),
        (3, ["analyze", "--input", sample, "--budget", "20"]),
        (0, ["analyze", "--input", sample, "--cavities", "--verify",
             "--cache", str(tmp_path / "cx.json"), "--emit-dot", str(tmp_path / "dot")]),
        (0, ["cavities", "--input", str(cycle4)]),
        (0, ["smallest-cavity", "3"]),
        (0, ["smallest-cavity", "9"]),
        (0, ["random-er", "10", "15", str(tmp_path / "er.edges")]),
        (0, ["fetch", "sample14", "--url", SAMPLE14.as_uri(),
             "--dest", str(tmp_path / "f.edges")]),
        (0, ["verify", "--input", sample, str(ROOT / "tests" / "golden" / "cavities.json")]),
    ]
    for rc, argv in runs:
        assert main(argv) == rc, argv
    # the search's error exit: a length schedule that stops at 5, below
    # sample14's second certificate (length 7)
    schedule = cavities.length_schedule
    with monkeypatch.context() as patch:
        patch.setattr(cavities, "length_schedule", lambda k, ceiling: schedule(k, 5))
        assert main(["cavities", "--input", sample]) == 1
    dir(cliquecav)
    readme = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_every_package_function_runs_on_a_pipeline_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the README block reads data/ relative to the checkout
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _pipeline_runs(tmp_path, monkeypatch)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    defs = _package_defs()
    for code in entered:
        defs.pop((str(Path(code.co_filename).resolve()), code.co_firstlineno), None)
    # the benchmark's tracer (bench/spans.py) wraps complex_from_json by name;
    # no subcommand reads an exported complex back
    assert sorted(defs.values()) == ["cliques.complex_from_json"]
