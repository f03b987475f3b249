"""The README's code examples run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {"__name__": "readme_example"})
    assert "[]" in capsys.readouterr().out  # the printed violations() of the one-run sweep
