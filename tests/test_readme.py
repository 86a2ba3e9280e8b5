"""The README's code examples run as written and print what they say."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python_block(heading: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_prints_its_comments(monkeypatch, capsys):
    code = _python_block("Library")
    # every `print(...)  # value` line names the value it prints
    expected = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", code, re.M)]
    assert expected
    monkeypatch.chdir(ROOT)  # the example reads data/ relative to the checkout
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
