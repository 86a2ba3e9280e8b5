import ast
from pathlib import Path

import cliquecav


def test_all_lists_exactly_the_public_names_init_imports():
    tree = ast.parse(Path(cliquecav.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(cliquecav.__all__) == len(set(cliquecav.__all__))
    assert set(cliquecav.__all__) == public
